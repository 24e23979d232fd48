"""Monte Carlo cross-validation of the samplers against exact laws.

The harness runs a plan of cases, each addressing its random streams by
(master seed, case id, replicate index), so reports are bit-identical for
identical (plan, reps, seed) regardless of worker count.  Sampler output
distributions are compared against an exact law (the recursion, the
first-part law or the regenerative composition law) with total variation
distance and a chi-square goodness-of-fit test whose tail probability
comes from the regularized upper incomplete gamma function,
_special.gammaincc; no scipy module loads.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, asdict
from typing import Callable, NamedTuple

import numpy as np

from ._special import gammaincc
from .errors import LambdaCoalError
from .measures import (
    build_rate_table,
    first_part_law,
    parse_measure,
)
from .population import _chain_prepare, _set_counts
# perfbench's tracer test reads validation.simulate_frozen_coalescent
from .coalescent import (  # noqa: F401
    _count_texts,
    _family_counts,
    _frozen_table,
    simulate_frozen_coalescent,
)
from .sampling_formula import ewens, solve
from .streams import _DRAW_BLOCK, derive_rng, fan_out
from .subordinator import (
    _composition_texts,
    _part_starts,
    _window_blocks,
    _window_setup,
    composition_law,
    default_window_horizon,
)

__all__ = [
    "total_variation",
    "chi_square_gof",
    "chi_square_two_sample",
    "ValidationCase",
    "ValidationReport",
    "default_plan",
    "edge_plan",
    "load_plan",
    "run_validation",
    "reports_to_json",
    "reports_to_csv",
]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def total_variation(exact: dict, counts: dict) -> float:
    """Half the L1 distance between a probability table and empirical
    frequencies."""
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("empirical counts are empty")
    keys = set(exact) | set(counts)
    return 0.5 * math.fsum(
        abs(exact.get(k, 0.0) - counts.get(k, 0) / n) for k in keys
    )


# A cell whose smallest expected count is below this joins the tail cell.
_POOL_MIN = 5.0


def _chi_square(cells) -> tuple[float, int, float]:
    """(statistic, degrees of freedom, tail probability) of cells, each a
    tuple of (expected, observed) pairs.  Cells whose smallest expected
    count is below _POOL_MIN pool, pair by pair, into one tail cell, kept
    unless it is all zero."""
    kept, pooled = [], []
    for cell in cells:
        (pooled if min(e for e, _ in cell) < _POOL_MIN else kept).append(cell)
    if pooled:
        tail = tuple(
            (sum(e for e, _ in pairs), sum(o for _, o in pairs))
            for pairs in zip(*pooled)
        )
        if any(e > 0.0 or o > 0.0 for e, o in tail):
            kept.append(tail)
    if len(kept) < 2:
        raise ValueError("fewer than 2 cells after pooling")
    stat = math.fsum(sum((o - e) ** 2 / e for e, o in cell) for cell in kept)
    df = len(kept) - 1
    return stat, df, gammaincc(df / 2.0, stat / 2.0)


def chi_square_gof(exact: dict, counts: dict) -> tuple[float, int, float]:
    """(statistic, degrees of freedom, tail probability) against an exact
    table, pooled by _chi_square; a positive count on a zero-probability
    outcome gives an infinite statistic and p = 0."""
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("empirical counts are empty")
    keys = sorted(set(exact) | set(counts))
    cells = [((exact.get(k, 0.0) * n, float(counts.get(k, 0))),) for k in keys]
    if math.fsum(o for ((e, o),) in cells if e == 0.0) > 0.0:
        return math.inf, max(len(exact) - 1, 1), 0.0
    return _chi_square(cells)


def chi_square_two_sample(counts_a: dict, counts_b: dict) -> tuple[float, int, float]:
    """Homogeneity test for two independent count tables, one cell of two
    (expected, observed) pairs per outcome, pooled by _chi_square."""
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both samples must be nonempty")
    tot = n_a + n_b
    cells = []
    for k in sorted(set(counts_a) | set(counts_b)):
        a, b = counts_a.get(k, 0), counts_b.get(k, 0)
        cells.append(((n_a * (a + b) / tot, float(a)), (n_b * (a + b) / tot, float(b))))
    return _chi_square(cells)


# ---------------------------------------------------------------------------
# plan and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCase:
    """One line item of the validation matrix.

    kind: 'sampler_vs_exact' (the sampler named by `sampler`: frozen,
    chain or set against the recursion, composition against
    composition_law), 'ewens_equivalence' (deterministic closed-form
    check), 'first_part' (window first parts against the first-part law).
    exact_mu overrides the mutation rate fed to the exact side only,
    which is how forced-failure controls are expressed.  A field of
    another type than its annotation (n an int, not a bool; mu, exact_mu,
    tvd_max and p_floor real numbers, not bools) raises TypeError.
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

    def __post_init__(self):
        def real(x):
            return isinstance(x, numbers.Real) and not isinstance(x, bool)

        typed = {
            "case_id": isinstance(self.case_id, str),
            "kind": isinstance(self.kind, str),
            "measure_spec": isinstance(self.measure_spec, str),
            "mu": real(self.mu),
            "n": isinstance(self.n, numbers.Integral) and not isinstance(self.n, bool),
            "sampler": self.sampler is None or isinstance(self.sampler, str),
            "exact_mu": self.exact_mu is None or real(self.exact_mu),
            "tvd_max": real(self.tvd_max),
            "p_floor": real(self.p_floor),
        }
        for name, ok in typed.items():
            if not ok:
                raise TypeError(f"{name} has the wrong type: {getattr(self, name)!r}")

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
    first parts against the first-part law, and window compositions
    against their regenerative law.
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
            "composition-poly3x2-n4", "sampler_vs_exact", "poly3x2", 1.0, 4, "composition"
        )
    )
    return plan


def edge_plan() -> list[ValidationCase]:
    """Beta measures with beta < 1 at n = 4, mu = 1, where part of nu lies
    within one ulp of 1 and the jump sizes are clipped below 1: window
    first parts, the set sampler (also at alpha > 2, where the sizes are
    Beta draws) and, for a sampler that reads no window, the frozen
    coalescent.  Kept out of default_plan, whose run time is gated."""
    return [
        ValidationCase("fp", "first_part", "beta:2,0.05,1", 1.0, 4),
        ValidationCase("set", "sampler_vs_exact", "beta:2,0.05,1", 1.0, 4, "set"),
        ValidationCase("frozen", "sampler_vs_exact", "beta:2,0.05,1", 1.0, 4, "frozen"),
        ValidationCase("set3", "sampler_vs_exact", "beta:3,0.1,1", 1.0, 4, "set"),
    ]


def load_plan(path) -> list[ValidationCase]:
    """Cases of a JSON plan file {"cases": [{field: value, ...}, ...]};
    a file of any other shape raises ValueError naming the file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("cases"), list):
        raise ValueError(f"plan {path}: expected an object with a 'cases' list")
    cases = []
    for i, raw in enumerate(data["cases"]):
        try:
            cases.append(ValidationCase(**raw))
        except TypeError as exc:
            raise ValueError(f"plan {path}: case {i}: {exc}") from None
    return cases


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class _Sampler(NamedTuple):
    """prepare(measure, mu, n) -> the table every replicate shares;
    draw(measure, mu, n, shared, rngs) -> one outcome text per generator,
    in order; window: the draw reads a subordinator window, so its
    small-jump truncation biases the outcome."""

    prepare: Callable
    draw: Callable
    window: bool


def _first_part_texts(measure, mu, n, T0, rngs) -> list[str]:
    """'1m' mutant single, '1l' lone-litter single, '2'..'n' otherwise,
    one per generator, read off blocks of windows."""

    def read(block, j, litter):
        starts = _part_starts(j, litter)
        starts[:, 0] = False
        first = np.where(starts.any(1), starts.argmax(1), n).tolist()
        lone = litter[:, 0].tolist()
        return [
            str(m) if m > 1 else "1l" if alone else "1m"
            for m, alone in zip(first, lone)
        ]

    return _window_blocks(measure, mu, T0, rngs, n, read)


# The one map from a sampler name to its shared table and its draw.  The
# entries reach every library function by its module-global name at call
# time, so a caller that rebinds a module attribute (a tracer) sees the call.
# frozen and chain run all their replicates through one lockstep block
# chain; set, composition and first-part draw each replicate's window and
# uniforms from its own stream, then read all the windows through one block
# of the inversion kernel.
_SAMPLERS = {
    "frozen": _Sampler(
        lambda measure, mu, n: _frozen_table(build_rate_table(measure, n), mu, n),
        lambda measure, mu, n, table, rngs: _count_texts(_family_counts(table, n, rngs)),
        False,
    ),
    "chain": _Sampler(
        _chain_prepare,
        lambda measure, mu, n, table, rngs: _count_texts(_family_counts(table, n, rngs)),
        False,
    ),
    "set": _Sampler(
        lambda measure, mu, n: default_window_horizon(measure, mu, n),
        lambda measure, mu, n, T0, rngs: _count_texts(_set_counts(measure, mu, n, T0, rngs)),
        True,
    ),
    "composition": _Sampler(
        lambda measure, mu, n: default_window_horizon(measure, mu, n),
        _composition_texts,
        True,
    ),
    "first-part": _Sampler(
        lambda measure, mu, n: default_window_horizon(measure, mu, n),
        _first_part_texts,
        True,
    ),
}


def prepare_shared(name, measure, mu: float, n: int):
    """The table every replicate of the named sampler shares."""
    return _SAMPLERS[name].prepare(measure, mu, n)


def draw_span(name, measure, mu, n, seed, tag, shared, start, stop) -> list[str]:
    """Outcome texts of replicates [start, stop) in replicate order:
    replicate r runs the named sampler on the stream (seed, tag, r).
    The measure is the caller's parsed one, which a forked span inherits
    with its tables and caches, so no span parses its spec again."""
    out = []
    for lo in range(start, stop, _DRAW_BLOCK):
        rngs = [derive_rng(seed, tag, r) for r in range(lo, min(lo + _DRAW_BLOCK, stop))]
        out += _SAMPLERS[name].draw(measure, mu, n, shared, rngs)
    return out


def _case_sampler(case: ValidationCase) -> str | None:
    """The sampler a case draws from (None for a closed-form case); an
    unknown sampler or kind raises ValueError."""
    if case.kind == "sampler_vs_exact":
        if case.sampler not in ("frozen", "chain", "set", "composition"):
            raise ValueError(f"unknown sampler {case.sampler!r}")
        return case.sampler
    if case.kind == "first_part":
        return "first-part"
    if case.kind == "ewens_equivalence":
        return None
    raise ValueError(f"unknown case kind {case.kind!r}")


def _exact_law(case: ValidationCase, measure, mu: float) -> dict:
    """The exact law of the case's outcome texts at mutation rate mu."""
    if case.kind == "first_part":
        law = first_part_law(measure, mu, case.n)
        exact = {"1m": law.p_single_mutant, "1l": law.p_single_alone}
        for m in range(2, case.n + 1):
            exact[str(m)] = law.probs[m - 1]
        return exact
    if case.sampler == "composition":
        return composition_law(measure, mu, case.n)
    dist = solve(build_rate_table(measure, case.n), mu, case.n)
    return {pv.to_text(): p for pv, p in dist.items_ordered()}


def _evaluate_case(
    case: ValidationCase, name: str | None, reps: int, seed: int, workers: int
) -> ValidationReport:
    """The report of one case; a failure to evaluate it (a domain error or
    a statistic that cannot be formed, such as too few cells after
    pooling) is recorded as the case's error."""
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
        else:
            shared = prepare_shared(name, measure, case.mu, case.n)
            # the exact law before the draw: a case the exact side refuses
            # draws nothing
            exact = _exact_law(case, measure, exact_mu)
            spans = fan_out(
                draw_span,
                (name, measure, case.mu, case.n, seed, case.case_id, shared),
                reps,
                workers,
            )
            counts = Counter(text for span in spans for text in span)
            report.empirical = dict(sorted(counts.items()))
            report.expected = exact
            report.tvd = total_variation(exact, counts)
            stat, df, p = chi_square_gof(exact, counts)
            report.chi2, report.df, report.p_value = stat, df, p
            report.criteria = {
                f"tvd<={case.tvd_max:g}": report.tvd <= case.tvd_max,
                f"p>={case.p_floor:g}": p >= case.p_floor,
            }
            if _SAMPLERS[name].window:
                # window coverage is exact (extension until covered); only
                # the small-jump truncation contributes bias
                report.truncation_bias = shared * _window_setup(measure, shared, "auto")[2]
        report.passed = all(report.criteria.values())
    except (LambdaCoalError, ValueError) as exc:
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
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # a plan error raises before any case draws
    names = [_case_sampler(case) for case in plan]
    return [
        _evaluate_case(case, name, reps, seed, workers)
        for case, name in zip(plan, names)
    ]


def reports_to_json(reports: list[ValidationReport]) -> str:
    payload = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _csv_field(text: str, always: bool = False) -> str:
    """text as one CSV field: in double quotes, each inner quote doubled,
    when `always` or when it holds a comma, a quote or a line break."""
    if always or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reports_to_csv(reports: list[ValidationReport]) -> str:
    """One line per criterion (error records get one line with an empty
    criterion column); the fixture and error fields are always quoted."""
    lines = [
        "case_id,kind,fixture,replicates,tvd,chi2,df,p_value,criterion,passed,error"
    ]
    for r in reports:
        prefix = [
            _csv_field(r.case_id),
            r.kind,
            _csv_field(r.fixture, always=True),
            str(r.replicates),
            "" if r.tvd is None else repr(r.tvd),
            "" if r.chi2 is None else repr(r.chi2),
            "" if r.df is None else str(r.df),
            "" if r.p_value is None else repr(r.p_value),
        ]
        error = "" if r.error is None else _csv_field(r.error, always=True)
        rows = list(r.criteria.items()) or [("", False)]
        for name, ok in rows:
            lines.append(",".join(prefix + [name, str(ok), error]))
    return "\n".join(lines) + "\n"
