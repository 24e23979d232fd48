"""Monte Carlo cross-validation of the samplers against exact laws.

The harness runs a plan of cases, each addressing its random streams by
(master seed, case id, replicate index), so reports are bit-identical for
identical (plan, reps, seed) regardless of worker count.  Sampler output
distributions are compared against the exact recursion (or against each
other) with total variation distance and a chi-square goodness-of-fit
test whose tail probability comes from the regularized upper incomplete
gamma function.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import gammaincc

from .errors import LambdaCoalError
from .measures import (
    build_rate_table,
    first_part_law,
    first_part_laws_upto,
    parse_measure,
)
from .population import (
    sample_family_partition_chain,
    sample_family_partition_set,
)
from .coalescent import simulate_frozen_coalescent
from .sampling_formula import ewens, solve
from .streams import derive_rng, fan_out
from .subordinator import (
    _window_setup,
    default_window_horizon,
    sample_composition_detailed,
    sample_window,
    sequential_composition,
)

__all__ = [
    "total_variation",
    "chi_square_gof",
    "chi_square_two_sample",
    "ValidationCase",
    "ValidationReport",
    "default_plan",
    "load_plan",
    "run_validation",
    "reports_to_json",
    "reports_to_csv",
]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def total_variation(exact: dict, counts: dict, strict: bool = False) -> float:
    """Half the L1 distance between a probability table and empirical
    frequencies.  With strict=True, empirical outcomes missing from the
    exact table raise (mismatched outcome spaces)."""
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("empirical counts are empty")
    if strict:
        stray = set(counts) - set(exact)
        if stray:
            raise ValueError(f"outcomes outside the exact space: {sorted(stray)!r}")
    keys = set(exact) | set(counts)
    return 0.5 * math.fsum(
        abs(exact.get(k, 0.0) - counts.get(k, 0) / n) for k in keys
    )


def _pool_cells(expected, observed, threshold):
    """Merge cells with expected count below the threshold into one tail."""
    keep_e, keep_o = [], []
    tail_e = tail_o = 0.0
    for e, o in zip(expected, observed):
        if e < threshold:
            tail_e += e
            tail_o += o
        else:
            keep_e.append(e)
            keep_o.append(o)
    if tail_e > 0.0 or tail_o > 0.0:
        keep_e.append(tail_e)
        keep_o.append(tail_o)
    return keep_e, keep_o


def chi_square_gof(
    exact: dict, counts: dict, pooling_threshold: float = 5.0
) -> tuple[float, int, float]:
    """(statistic, degrees of freedom, tail probability) against an exact
    table.  Cells with expected count below the pooling threshold collapse
    into a single tail cell; a positive count on a zero-probability
    outcome gives an infinite statistic and p = 0."""
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("empirical counts are empty")
    keys = sorted(set(exact) | set(counts))
    expected = [exact.get(k, 0.0) * n for k in keys]
    observed = [float(counts.get(k, 0)) for k in keys]
    impossible = math.fsum(o for e, o in zip(expected, observed) if e == 0.0)
    if impossible > 0.0:
        return math.inf, max(len(exact) - 1, 1), 0.0
    expected, observed = _pool_cells(expected, observed, pooling_threshold)
    if len(expected) < 2:
        raise ValueError("fewer than 2 cells after pooling")
    stat = math.fsum((o - e) ** 2 / e for e, o in zip(expected, observed))
    df = len(expected) - 1
    return stat, df, float(gammaincc(df / 2.0, stat / 2.0))


def chi_square_two_sample(
    counts_a: dict, counts_b: dict, pooling_threshold: float = 5.0
) -> tuple[float, int, float]:
    """Homogeneity test for two independent count tables.  Cells whose
    smaller expected count falls below the pooling threshold merge into
    one tail cell."""
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both samples must be nonempty")
    tot = n_a + n_b
    cells = []
    tail = [0.0, 0.0, 0.0, 0.0]
    for k in sorted(set(counts_a) | set(counts_b)):
        tot_k = counts_a.get(k, 0) + counts_b.get(k, 0)
        e_a = n_a * tot_k / tot
        e_b = n_b * tot_k / tot
        o_a = float(counts_a.get(k, 0))
        o_b = float(counts_b.get(k, 0))
        if min(e_a, e_b) < pooling_threshold:
            tail[0] += e_a
            tail[1] += o_a
            tail[2] += e_b
            tail[3] += o_b
        else:
            cells.append((e_a, o_a, e_b, o_b))
    if tail[0] > 0.0:
        cells.append(tuple(tail))
    if len(cells) < 2:
        raise ValueError("fewer than 2 cells after pooling")
    stat = math.fsum(
        (o_a - e_a) ** 2 / e_a + (o_b - e_b) ** 2 / e_b
        for e_a, o_a, e_b, o_b in cells
    )
    df = len(cells) - 1
    return stat, df, float(gammaincc(df / 2.0, stat / 2.0))


# ---------------------------------------------------------------------------
# plan and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCase:
    """One line item of the validation matrix.

    kind: 'sampler_vs_exact' (frozen | chain | set against the recursion),
    'ewens_equivalence' (deterministic closed-form check),
    'first_part' (window first parts against the first-part law),
    'sequential_vs_window' (two-sample over full compositions).
    exact_mu overrides the mutation rate fed to the exact side only,
    which is how forced-failure controls are expressed.
    """

    case_id: str
    kind: str
    measure_spec: str
    mu: float
    n: int
    sampler: str | None = None
    exact_mu: float | None = None
    tvd_max: float = 0.01
    p_floor: float = 1e-3

    def fixture(self) -> str:
        bits = [f"measure={self.measure_spec}", f"mu={self.mu:g}", f"n={self.n}"]
        if self.sampler:
            bits.append(f"sampler={self.sampler}")
        if self.exact_mu is not None:
            bits.append(f"exact_mu={self.exact_mu:g}")
        return ",".join(bits)


@dataclass
class ValidationReport:
    case_id: str
    fixture: str
    kind: str
    replicates: int
    seed: int
    empirical: dict = field(default_factory=dict)
    expected: dict | None = None
    reference: dict | None = None
    tvd: float | None = None
    chi2: float | None = None
    df: int | None = None
    p_value: float | None = None
    criteria: dict = field(default_factory=dict)
    passed: bool = False
    truncation_bias: float = 0.0
    note: str = ""
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def default_plan() -> list[ValidationCase]:
    """The standing cross-validation matrix.

    Simulators against the exact recursion on every fixture they support
    (the window-based samplers need the dust condition and no endpoint
    atoms), the Ewens closed form on the pure pair-merger measure, window
    first parts against the first-part law, and sequential against window
    compositions.
    """
    plan: list[ValidationCase] = []
    for spec, mu, n in [
        ("delta:0", 0.5, 5),
        ("beta:1,1,1", 1.0, 5),
        ("atoms:0.5=0.25", 1.0, 5),
        ("poly3x2", 1.0, 6),
    ]:
        plan.append(
            ValidationCase(
                f"frozen-{spec}-n{n}", "sampler_vs_exact", spec, mu, n, "frozen"
            )
        )
    # chain and set need the dust condition; run them on the two fixtures
    # that satisfy it (frozen already covers these above)
    for spec in ["poly3x2", "atoms:0.5=0.25"]:
        for sampler in ["chain", "set"]:
            plan.append(
                ValidationCase(
                    f"{sampler}-{spec}-n5", "sampler_vs_exact", spec, 1.0, 5, sampler
                )
            )
    plan.append(ValidationCase("ewens-delta0", "ewens_equivalence", "delta:0", 0.5, 6))
    for spec in ["poly3x2", "atoms:0.5=0.25"]:
        plan.append(ValidationCase(f"first-part-{spec}-n5", "first_part", spec, 1.0, 5))
    plan.append(
        ValidationCase(
            "seq-vs-window-poly3x2-n4", "sequential_vs_window", "poly3x2", 1.0, 4
        )
    )
    return plan


def load_plan(path) -> list[ValidationCase]:
    with open(path) as fh:
        data = json.load(fh)
    cases = []
    for raw in data["cases"]:
        cases.append(ValidationCase(**raw))
    return cases


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _count_chunk(case: ValidationCase, seed: int, start: int, stop: int) -> dict:
    """Outcome counts for replicate indices [start, stop) of one case."""
    measure = parse_measure(case.measure_spec)
    counts: dict[str, int] = {}
    if case.kind == "sampler_vs_exact":
        if case.sampler == "frozen":
            rates = build_rate_table(measure, case.n)
            for r in range(start, stop):
                rng = derive_rng(seed, case.case_id, r)
                pv = simulate_frozen_coalescent(rates, case.mu, case.n, rng)
                counts[pv.to_text()] = counts.get(pv.to_text(), 0) + 1
        elif case.sampler == "chain":
            laws = first_part_laws_upto(measure, case.mu, case.n)
            for r in range(start, stop):
                rng = derive_rng(seed, case.case_id, r)
                pv = sample_family_partition_chain(
                    measure, case.mu, case.n, rng, laws=laws
                )
                counts[pv.to_text()] = counts.get(pv.to_text(), 0) + 1
        elif case.sampler == "set":
            T0 = default_window_horizon(measure, case.mu, case.n)
            for r in range(start, stop):
                rng = derive_rng(seed, case.case_id, r)
                pv = sample_family_partition_set(
                    measure, case.mu, case.n, rng, T0=T0
                )
                counts[pv.to_text()] = counts.get(pv.to_text(), 0) + 1
        else:
            raise ValueError(f"unknown sampler {case.sampler!r}")
        return counts
    if case.kind == "first_part":
        # outcomes: '1m' mutant single, '1l' lone-litter single, '2'..'n'
        T0 = default_window_horizon(measure, case.mu, case.n)
        for r in range(start, stop):
            rng = derive_rng(seed, case.case_id, r)
            window = sample_window(measure, case.mu, T0, rng=rng)
            sample = sample_composition_detailed(window, case.n, rng)
            first = sample.composition.parts[0]
            if first == 1:
                key = "1m" if sample.hits[0].kind == "regenerative" else "1l"
            else:
                key = str(first)
            counts[key] = counts.get(key, 0) + 1
        return counts
    if case.kind == "sequential_vs_window":
        # replicates split evenly: even indices sequential, odd window
        laws = first_part_laws_upto(measure, case.mu, case.n)
        T0 = default_window_horizon(measure, case.mu, case.n)
        for r in range(start, stop):
            rng = derive_rng(seed, case.case_id, r)
            if r % 2 == 0:
                comp = sequential_composition(measure, case.mu, case.n, rng, laws=laws)
                key = "seq:" + comp.to_text()
            else:
                window = sample_window(measure, case.mu, T0, rng=rng)
                comp = sample_composition_detailed(window, case.n, rng).composition
                key = "win:" + comp.to_text()
            counts[key] = counts.get(key, 0) + 1
        return counts
    raise ValueError(f"kind {case.kind!r} draws no replicates")


def _merge_counts(parts) -> dict:
    out: dict[str, int] = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


def _case_counts(case, reps, seed, workers, executor) -> dict:
    return _merge_counts(
        fan_out(_count_chunk, (case, seed), reps, workers, executor)
    )


def _truncation_bias(case: ValidationCase) -> float:
    measure = parse_measure(case.measure_spec)
    if case.kind not in ("sampler_vs_exact", "first_part", "sequential_vs_window"):
        return 0.0
    if case.kind == "sampler_vs_exact" and case.sampler == "frozen":
        return 0.0
    try:
        # window coverage is exact (extension until covered); only the
        # small-jump truncation contributes bias
        T0 = default_window_horizon(measure, case.mu, case.n)
        return T0 * _window_setup(measure, T0, "auto")[2]
    except LambdaCoalError:
        return 0.0


def _evaluate_case(
    case: ValidationCase, reps: int, seed: int, workers: int, executor
) -> ValidationReport:
    report = ValidationReport(
        case_id=case.case_id,
        fixture=case.fixture(),
        kind=case.kind,
        replicates=reps,
        seed=seed,
    )
    try:
        measure = parse_measure(case.measure_spec)
        exact_mu = case.mu if case.exact_mu is None else case.exact_mu
        if case.kind == "ewens_equivalence":
            rates = build_rate_table(measure, case.n)
            dist = solve(rates, exact_mu, case.n)
            ref = ewens(2.0 * exact_mu, case.n)
            diff = max(
                abs(dist.prob(pv) - ref.prob(pv))
                for pv, _ in dist.items_ordered()
            )
            report.replicates = 0
            report.tvd = diff
            report.expected = {
                pv.to_text(): p for pv, p in ref.items_ordered()
            }
            report.criteria = {"max_abs_diff<=1e-10": diff <= 1e-10}
            report.note = "closed-form comparison, no sampling"
        elif case.kind == "sampler_vs_exact":
            counts = _case_counts(case, reps, seed, workers, executor)
            rates = build_rate_table(measure, case.n)
            dist = solve(rates, exact_mu, case.n)
            exact = {pv.to_text(): p for pv, p in dist.items_ordered()}
            report.empirical = dict(sorted(counts.items()))
            report.expected = exact
            report.tvd = total_variation(exact, counts)
            stat, df, p = chi_square_gof(exact, counts)
            report.chi2, report.df, report.p_value = stat, df, p
            report.criteria = {
                f"tvd<={case.tvd_max:g}": report.tvd <= case.tvd_max,
                f"p>={case.p_floor:g}": p >= case.p_floor,
            }
        elif case.kind == "first_part":
            counts = _case_counts(case, reps, seed, workers, executor)
            law = first_part_law(measure, exact_mu, case.n)
            exact = {"1m": law.p_single_mutant, "1l": law.p_single_alone}
            for m in range(2, case.n + 1):
                exact[str(m)] = law.probs[m - 1]
            report.empirical = dict(sorted(counts.items()))
            report.expected = exact
            report.tvd = total_variation(exact, counts)
            stat, df, p = chi_square_gof(exact, counts)
            report.chi2, report.df, report.p_value = stat, df, p
            report.criteria = {
                f"tvd<={case.tvd_max:g}": report.tvd <= case.tvd_max,
                f"p>={case.p_floor:g}": p >= case.p_floor,
            }
        elif case.kind == "sequential_vs_window":
            counts = _case_counts(case, reps, seed, workers, executor)
            seq = {
                k[len("seq:"):]: v for k, v in counts.items() if k.startswith("seq:")
            }
            win = {
                k[len("win:"):]: v for k, v in counts.items() if k.startswith("win:")
            }
            report.empirical = dict(sorted(seq.items()))
            report.reference = dict(sorted(win.items()))
            stat, df, p = chi_square_two_sample(seq, win)
            report.chi2, report.df, report.p_value = stat, df, p
            report.criteria = {f"p>={case.p_floor:g}": p >= case.p_floor}
        else:
            raise ValueError(f"unknown case kind {case.kind!r}")
        report.truncation_bias = _truncation_bias(case)
        report.passed = all(report.criteria.values())
    except LambdaCoalError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        report.passed = False
    return report


def run_validation(
    plan: list[ValidationCase] | None,
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[ValidationReport]:
    """Run every case of the plan at the given replicate count.

    Results are deterministic in (plan, reps, seed) and independent of
    the worker count because streams are addressed per replicate.
    """
    if plan is None:
        plan = default_plan()
    if reps < 1:
        raise ValueError("reps must be positive")
    executor = None
    try:
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers)
        return [
            _evaluate_case(case, reps, seed, workers, executor) for case in plan
        ]
    finally:
        if executor is not None:
            executor.shutdown()


def reports_to_json(reports: list[ValidationReport]) -> str:
    payload = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_to_csv(reports: list[ValidationReport]) -> str:
    """One line per criterion (error records get one line with an empty
    criterion column)."""
    lines = [
        "case_id,kind,fixture,replicates,tvd,chi2,df,p_value,criterion,passed,error"
    ]
    for r in reports:
        prefix = [
            r.case_id,
            r.kind,
            '"' + r.fixture + '"',
            str(r.replicates),
            "" if r.tvd is None else repr(r.tvd),
            "" if r.chi2 is None else repr(r.chi2),
            "" if r.df is None else str(r.df),
            "" if r.p_value is None else repr(r.p_value),
        ]
        rows = list(r.criteria.items()) or [("", False)]
        for name, ok in rows:
            lines.append(
                ",".join(
                    prefix
                    + [name, str(ok), "" if r.error is None else '"' + r.error + '"']
                )
            )
    return "\n".join(lines) + "\n"
