"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed in its constructor
and then offers:

* ``setup()``: what a user pays before the first replicate or solve
  (parse the measure, rate tables, first-part laws, window horizon and
  truncation); the import of the package is timed with it by probes.py;
* ``warm_up()``: a small untimed pass, so caches fill before timing;
* ``iteration(i, workers, tracer)``: one unit of timed work on the i-th
  input set, returning its raw outputs;
* ``record(result)``: file an iteration's outputs for the final check and
  return the number of replicates it drew;
* ``check()``: the correctness verdict over everything recorded, which may
  draw more (untimed) replicates.

Operations (one validation case, one solve, one snapshot, one CLI
command or one known-defect probe) are counted in ``attempted``; each one
that raised or failed a check counts in ``failed_ops`` and is named in
``failures``.  The two defects named in ROADMAP.md are probed on every run
and their outcome is kept apart, in ``known``: a probe that reproduces its
defect is not an unexpected failure, and one that stops reproducing it
marks a fix.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracing import case_label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A chi-square p-value below this floor flags a law mismatch.  The repo's
# validation cases carry the same floor (ValidationCase.p_floor).
P_FLOOR = 1e-3

# Case ids of default_plan(); the per-layer metric names are fixed, so
# they are listed here rather than read from the program.
W1_CASES = (
    "frozen-delta:0-n5",
    "frozen-beta:1,1,1-n5",
    "frozen-atoms:0.5=0.25-n5",
    "frozen-poly3x2-n6",
    "chain-poly3x2-n5",
    "set-poly3x2-n5",
    "chain-atoms:0.5=0.25-n5",
    "set-atoms:0.5=0.25-n5",
    "ewens-delta0",
    "first-part-poly3x2-n5",
    "first-part-atoms:0.5=0.25-n5",
    "seq-vs-window-poly3x2-n4",
)
W3_MEASURES = (("beta_2_2_1", "beta:2,2,1"), ("beta_1.9_1_1", "beta:1.9,1,1"))
W3_CASES = tuple(
    f"{kind}-{label}-n6" for label, _ in W3_MEASURES for kind in ("set", "first-part")
)
BLOWUP_SPEC = "beta:1.5,1,1"
BLOWUP_N = 6
# Address-space limit of the beta:1.5,1,1 child: about four times what the
# interpreter with numpy and scipy maps, and well below the 1.1 GB that one
# array of the 1.4e8 expected window points takes.
BLOWUP_LIMIT = 1 << 30


def load_package():
    """Import lambdacoal from this checkout's src/ and nowhere else."""
    init = SRC / "lambdacoal" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"package source {init} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lambdacoal

    if Path(lambdacoal.__file__).resolve() != init.resolve():
        raise ImportError(f"lambdacoal was imported from {lambdacoal.__file__}")
    importlib.import_module("lambdacoal.cli")
    return lambdacoal


def derived_seed(seed: int, *keys) -> int:
    """32-bit seed for the stream named by (seed, *keys)."""
    words = [seed] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _merge(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


class Workload:
    name = ""
    workers = 1

    def __init__(self, lc, seed: int):
        self.lc = lc
        self.seed = seed
        self.attempted = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.known: dict[str, str] = {}
        self.details: dict = {}

    def fail(self, what: str, ops: int = 1) -> None:
        self.failures.append(what)
        self.failed_ops += ops

    def span(self, tracer, name: str):
        return contextlib.nullcontext() if tracer is None else tracer.span(name)

    def fingerprint(self, result):
        """What must not change when tracing is on or workers change."""
        return result

    def output_bytes(self, result) -> int:
        return 0


# ---------------------------------------------------------------------------
# validation plans (W1, W3)
# ---------------------------------------------------------------------------


class ValidationTally:
    """Reports of one plan merged over the iterations of a run.

    Each sampled case is judged once per run, by the chi-square p-value of
    its merged counts against its case's p_floor.  A case below the floor
    is drawn again once, on fresh streams at the same replicate count, and
    fails only if that draw is below the floor too.  A single draw per
    case would flag about 1% of correct runs of the 12-case matrix; the
    redraw makes a false alarm a one-in-a-million event per case while a
    real mismatch, such as the exact_mu negative control, fails both.
    """

    def __init__(self, plan):
        self.cases = {c.case_id: c for c in plan}
        self.counts = {cid: {} for cid in self.cases}
        self.reference = {cid: {} for cid in self.cases}
        self.expected: dict[str, dict] = {}
        self.reps = {cid: 0 for cid in self.cases}
        self.ops = {cid: 0 for cid in self.cases}
        self.failures: list[tuple[str, str, int]] = []
        self.verdicts: dict[str, dict] = {}

    def add(self, reports) -> int:
        drawn = 0
        for r in reports:
            self.ops[r.case_id] += 1
            if r.error is not None:
                self.failures.append((r.case_id, r.error, 1))
                continue
            if r.kind == "ewens_equivalence":
                if not r.passed:
                    self.failures.append((r.case_id, f"max |diff| {r.tvd:.3g} > 1e-10", 1))
                continue
            _merge(self.counts[r.case_id], r.empirical)
            _merge(self.reference[r.case_id], r.reference or {})
            self.expected[r.case_id] = r.expected
            self.reps[r.case_id] += r.replicates
            drawn += r.replicates
        return drawn

    def p_value(self, lc, case_id: str) -> float:
        case = self.cases[case_id]
        if case.kind == "sequential_vs_window":
            return lc.chi_square_two_sample(self.counts[case_id], self.reference[case_id])[2]
        return lc.chi_square_gof(self.expected[case_id], self.counts[case_id])[2]

    def judge(self, lc, redraw_seed: int) -> list[tuple[str, str, int]]:
        """Failures as (case id, reason, operations it covers)."""
        failures = list(self.failures)
        errored = {cid for cid, _, _ in failures}
        for cid, case in self.cases.items():
            if cid in errored or self.reps[cid] == 0:
                continue
            p = self.p_value(lc, cid)
            verdict = {"reps": self.reps[cid], "p": p}
            if case.kind != "sequential_vs_window":
                # reported only: tvd_max = 0.01 is sized for 1e5 replicates
                verdict["tvd"] = lc.total_variation(self.expected[cid], self.counts[cid])
            if p < case.p_floor:
                redo = lc.run_validation([case], self.reps[cid], redraw_seed)[0]
                verdict["redraw_p"] = redo.p_value
                if redo.error is not None or redo.p_value < case.p_floor:
                    failures.append(
                        (cid, f"p={p:.3g} and redraw p={redo.p_value} below {case.p_floor:g}", self.ops[cid])
                    )
            self.verdicts[cid] = verdict
        return failures


class _PlanWorkload(Workload):
    reps_per_case = 0

    def __init__(self, lc, seed: int, plan):
        super().__init__(lc, seed)
        self.plan = plan
        self.tally = ValidationTally(plan)

    def validate(self, seed: int, tracer):
        lc = self.lc
        if tracer is None:
            return lc.run_validation(self.plan, self.reps_per_case, seed, workers=1)
        # one call per case, so each case gets a span; streams are
        # addressed per case, so the reports are the same
        reports = []
        for case in self.plan:
            label = "validation.case_s." + case_label(case.case_id)
            with tracer.span(label):
                reports += lc.run_validation([case], self.reps_per_case, seed, workers=1)
        return reports

    def fingerprint(self, result):
        reports, snapshots = (result, None) if isinstance(result, list) else result
        return [(r.case_id, r.empirical, r.reference, r.tvd) for r in reports], snapshots

    def check_plan(self) -> None:
        for cid, reason, ops in self.tally.judge(self.lc, derived_seed(self.seed, "redraw")):
            self.fail(f"{cid}: {reason}", ops)
        self.details["cases"] = self.tally.verdicts


class ValidateDefault(_PlanWorkload):
    """W1: the default validation matrix, single worker."""

    name = "validate-default"
    reps_per_case = 500

    def __init__(self, lc, seed: int):
        super().__init__(lc, seed, lc.default_plan())

    def setup(self) -> None:
        lc = self.lc
        for case in self.plan:
            measure = lc.parse_measure(case.measure_spec)
            if case.kind == "ewens_equivalence" or case.sampler == "frozen":
                lc.build_rate_table(measure, case.n)
            elif case.sampler == "chain" or case.kind == "sequential_vs_window":
                lc.first_part_laws_upto(measure, case.mu, case.n)
            if case.sampler == "set" or case.kind in ("first_part", "sequential_vs_window"):
                lc.default_window_horizon(measure, case.mu, case.n)

    def warm_up(self) -> None:
        self.lc.run_validation(self.plan, 50, derived_seed(self.seed, "warm"))

    def iteration(self, i: int, workers: int = 1, tracer=None):
        return self.validate(derived_seed(self.seed, "validate", i), tracer)

    def record(self, reports) -> int:
        self.attempted += len(reports)
        return self.tally.add(reports)

    def check(self) -> None:
        self.check_plan()


class ExactRecursion(Workload):
    """W2: rate table and the exact recursion on a ladder of n, plus the
    rational-arithmetic recursion at n = 12."""

    name = "exact-recursion"
    LADDER = (20, 25, 30)
    EXACT_N = 12
    EXACT_SPEC = "atoms:0.5=0.25"

    def __init__(self, lc, seed: int):
        super().__init__(lc, seed)
        # a dyadic mu, so Fraction(mu) is the float exactly; solve time
        # does not depend on mu
        self.mu = 1.0 + (seed % 5) / 4.0

    def setup(self) -> None:
        lc = self.lc
        poly = lc.parse_measure("poly3x2")
        self.rates = lc.build_rate_table(poly, max(self.LADDER))
        atoms = lc.parse_measure(self.EXACT_SPEC)
        self.atom_rates = lc.build_rate_table(atoms, self.EXACT_N)
        self.atom_pairs = list(zip(atoms.locations, atoms.weights))

    def warm_up(self) -> None:
        self.lc.solve(self.rates, self.mu, self.LADDER[0])

    def iteration(self, i: int, workers: int = 1, tracer=None):
        lc = self.lc
        totals = {n: lc.solve(self.rates, self.mu, n).total() for n in self.LADDER}
        exact = lc.solve_exact(self.atom_pairs, Fraction(self.mu), self.EXACT_N)
        approx = lc.solve(self.atom_rates, self.mu, self.EXACT_N).entries
        return totals, exact, approx

    def record(self, result) -> int:
        totals, exact, approx = result
        self.attempted += len(totals) + 2
        for n, total in totals.items():
            if abs(total - 1.0) > 1e-10:
                self.fail(f"solve n={n}: probabilities sum to {total!r}")
        if set(exact) != set(approx):
            self.fail("solve vs solve_exact n=12: different partitions", 2)
        else:
            worst = max(abs(approx[k] - float(v)) / float(v) for k, v in exact.items())
            self.details["solve_vs_exact_max_rel"] = worst
            if worst > 1e-12:
                self.fail(f"solve vs solve_exact n=12: max relative error {worst:.3g}", 2)
        return 0

    def check(self) -> None:
        pass


class WindowInfinite(_PlanWorkload):
    """W3: set and first-part cases on infinite-activity Beta measures,
    stationary snapshots, and the beta:1.5,1,1 window blow-up."""

    name = "window-infinite"
    reps_per_case = 30
    N = 6

    def __init__(self, lc, seed: int):
        rng = np.random.default_rng(derived_seed(seed, "inputs"))
        # mu within 2% of 1: the inputs move with the seed, the window
        # sizes (and so the work) barely do
        self.mus = {label: 1.0 + 0.02 * (2.0 * rng.random() - 1.0) for label, _ in W3_MEASURES}
        plan = []
        for label, spec in W3_MEASURES:
            mu = self.mus[label]
            plan.append(lc.ValidationCase(f"set-{label}-n6", "sampler_vs_exact", spec, mu, self.N, "set"))
            plan.append(lc.ValidationCase(f"first-part-{label}-n6", "first_part", spec, mu, self.N))
        super().__init__(lc, seed, plan)
        self.measures = {label: lc.parse_measure(spec) for label, spec in W3_MEASURES}

    def setup(self) -> None:
        lc = self.lc
        for label, spec in W3_MEASURES:
            measure = lc.parse_measure(spec)
            mu = self.mus[label]
            horizon = lc.default_window_horizon(measure, mu, self.N)
            lc.choose_truncation(measure, horizon)
            lc.build_rate_table(measure, self.N)
            lc.first_part_law(measure, mu, self.N)

    def warm_up(self) -> None:
        # the cheaper measure only; fewer replicates leave chi-square with
        # a single pooled cell, which run_validation rejects
        cheap = [c for c in self.plan if c.measure_spec == W3_MEASURES[1][1]]
        self.lc.run_validation(cheap, self.reps_per_case, derived_seed(self.seed, "warm"))

    def iteration(self, i: int, workers: int = 1, tracer=None):
        lc = self.lc
        seed = derived_seed(self.seed, "validate", i)
        reports = self.validate(seed, tracer)
        snapshots = []
        for label, measure in self.measures.items():
            rng = lc.derive_rng(seed, "snapshot:" + label, 0)
            history = lc.LitterHistory.build(measure, self.mus[label], rng)
            state = lc.rho_state(history)
            snapshots.append((label, state.total(), state.diffuse))
        return reports, snapshots

    def record(self, result) -> int:
        reports, snapshots = result
        self.attempted += len(reports) + len(snapshots)
        for label, total, diffuse in snapshots:
            if abs(total - 1.0) > 1e-12 or diffuse < -1e-12:
                self.fail(f"snapshot {label}: total mass {total!r}, diffuse {diffuse!r}")
        return self.tally.add(reports)

    def check(self) -> None:
        self.check_plan()
        self.attempted += 1
        mu = self.mus[W3_MEASURES[0][0]]
        cmd = [sys.executable, str(HERE / "probes.py"), "window", repr(mu), str(self.seed), str(BLOWUP_LIMIT)]
        name = "beta1.5-window-blowup"
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            self.known[name] = "reproduced: no result within 120 s"
            return
        if proc.returncode < 0:
            self.known[name] = f"reproduced: killed by signal {-proc.returncode}"
            return
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(f"{name}: exit {proc.returncode}: {tail[0]}")
            return
        out = json.loads(lines[-1])
        self.details["blowup"] = out
        if out["outcome"] == "MemoryError":
            self.known[name] = (
                f"reproduced: MemoryError after {out['seconds']:.2f} s under a "
                f"{BLOWUP_LIMIT >> 20} MiB address-space limit, "
                f"{out['points_expected']:.3g} points expected"
            )
        elif out["outcome"] == "refused":
            self.known[name] = "fixed: refused with " + out["error"]
        elif self.lc.PartitionVector.from_text(out["partition"]).n == BLOWUP_N:
            self.known[name] = "fixed: drew " + out["partition"]
        else:
            self.fail(f"{name}: partition {out['partition']!r} is not of {BLOWUP_N}")


class CliDensityTable(Workload):
    """W4: the CLI with a two-worker pool on a density-file table."""

    name = "cli-density-table"
    workers = 2
    MU = 1.0
    COMMANDS = (("frozen", 40, 250), ("chain", 40, 250), ("set", 5, 1250))
    DEFECT_REPS = 20000
    CONTROL_REPS = 4000

    def __init__(self, lc, seed: int):
        super().__init__(lc, seed)
        rng = np.random.default_rng(derived_seed(seed, "inputs"))
        # c * 6x(1-x) on 6 nodes in [0.1, 0.9], c within 3% of 1: the
        # table ROADMAP.md uses to show the two-nu defect.  Jittering the
        # nodes one by one would make the cubic interpolant a different
        # piecewise cubic on every seed and the quadrature cost with it.
        x = np.linspace(0.1, 0.9, 6)
        density = (1.0 + 0.03 * (2.0 * rng.random() - 1.0)) * 6.0 * x * (1.0 - x)
        OUT.mkdir(exist_ok=True)
        self.table = OUT / f"table-{seed}.txt"
        np.savetxt(self.table, np.column_stack((x, density)), fmt="%.17g")
        self.spec = f"density-file:{self.table}"
        self.families = {"frozen": Counter(), "chain": Counter()}
        self.set_counts: Counter = Counter()

    def setup(self) -> None:
        lc = self.lc
        measure = lc.parse_measure(self.spec)
        lc.build_rate_table(measure, 40)
        lc.first_part_laws_upto(measure, self.MU, 40)
        lc.default_window_horizon(measure, self.MU, 5)

    def cli(self, sampler: str, n: int, reps: int, seed: int, workers: int, tracer=None):
        argv = [
            "simulate", sampler, "--measure", self.spec, "--mu", repr(self.MU),
            "--n", str(n), "--reps", str(reps), "--seed", str(seed), "--workers", str(workers),
        ]
        out, err = io.StringIO(), io.StringIO()
        with self.span(tracer, f"cli.main.{sampler}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lc.cli.main(argv)
        return sampler, n, code, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        for sampler, n, _ in self.COMMANDS:
            self.cli(sampler, n, 20, derived_seed(self.seed, "warm"), self.workers)

    def iteration(self, i: int, workers: int = 2, tracer=None):
        return [
            self.cli(sampler, n, reps, derived_seed(self.seed, "cli", sampler, i), workers, tracer)
            for sampler, n, reps in self.COMMANDS
        ]

    def fingerprint(self, result):
        return [(s, code, text) for s, _, code, text, _ in result]

    def output_bytes(self, result) -> int:
        return sum(len(text.encode()) for _, _, _, text, _ in result)

    def _parse(self, sampler, n, code, text, err) -> list | None:
        self.attempted += 1
        if code != 0:
            self.fail(f"simulate {sampler}: exit {code}: {err.strip()[:200]}")
            return None
        parts = []
        for line in text.splitlines():
            try:
                pv = self.lc.PartitionVector.from_text(line)
            except ValueError:
                pv = None
            if pv is None or pv.n != n:
                self.fail(f"simulate {sampler}: line {line!r} is not a partition of {n}")
                return None
            parts.append(pv)
        return parts

    def record(self, result) -> int:
        drawn = 0
        for sampler, n, code, text, err in result:
            parts = self._parse(sampler, n, code, text, err)
            if parts is None:
                continue
            drawn += len(parts)
            if sampler == "set":
                self.set_counts.update(pv.to_text() for pv in parts)
            else:
                self.families[sampler].update(pv.num_families for pv in parts)
        return drawn

    def _draw(self, sampler: str, n: int, reps: int, key: str) -> list:
        """Untimed extra lines for a check."""
        result = self.cli(sampler, n, reps, derived_seed(self.seed, key, sampler), self.workers)
        return self._parse(*result) or []

    def check(self) -> None:
        lc = self.lc
        # frozen and chain at n = 40 must agree on the number of families
        p = lc.chi_square_two_sample(self.families["frozen"], self.families["chain"])[2]
        self.details["frozen_vs_chain_p"] = p
        if p < P_FLOOR:
            redo = {
                sampler: Counter(pv.num_families for pv in self._draw(sampler, 40, counts.total(), "redraw"))
                for sampler, counts in self.families.items()
            }
            p2 = lc.chi_square_two_sample(redo["frozen"], redo["chain"])[2]
            self.details["frozen_vs_chain_redraw_p"] = p2
            if p2 < P_FLOOR:
                self.fail(f"frozen vs chain n=40 family counts: p={p:.3g}, redraw p={p2:.3g}", 2)
        measure = lc.parse_measure(self.spec)
        exact5 = {
            pv.to_text(): prob
            for pv, prob in lc.solve(lc.build_rate_table(measure, 5), self.MU, 5).items_ordered()
        }
        # control: the chain at n = 5 on the same table against the recursion
        self.attempted += 1
        laws = lc.first_part_laws_upto(measure, self.MU, 5)
        control_ps = []
        for attempt in range(2):
            cseed = derived_seed(self.seed, "control", attempt)
            counts = Counter(
                lc.sample_family_partition_chain(
                    measure, self.MU, 5, lc.derive_rng(cseed, "chain", r), laws=laws
                ).to_text()
                for r in range(self.CONTROL_REPS)
            )
            control_ps.append(lc.chi_square_gof(exact5, counts)[2])
            if control_ps[-1] >= P_FLOOR:
                break
        self.details["chain_n5_control_p"] = control_ps
        if control_ps[-1] < P_FLOOR:
            self.fail(f"chain n=5 vs exact on the table: p={control_ps}")
        # known defect: the set sampler draws jump sizes from another nu
        self.attempted += 1
        short = self.DEFECT_REPS - self.set_counts.total()
        if short > 0:
            self.set_counts.update(pv.to_text() for pv in self._draw("set", 5, short, "top-up"))
        lines = self.set_counts.total()
        p = lc.chi_square_gof(exact5, self.set_counts)[2]
        self.details["set_vs_exact_p"] = p
        verdict = "reproduced" if p < P_FLOOR else "not seen"
        self.known["density-table-set-nu"] = f"{verdict}: set vs exact n=5 p={p:.3g} over {lines} lines"


WORKLOADS = {
    w.name: w for w in (ValidateDefault, ExactRecursion, WindowInfinite, CliDensityTable)
}
