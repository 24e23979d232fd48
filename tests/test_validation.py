"""Statistics helpers and the cross-validation harness.

Chi-square tail probabilities are cross-checked against scipy.special,
scipy.stats and exact decimal sums rather than hand-frozen constants;
the harness itself is exercised with small deterministic plans,
including a forced-failure control where the exact side runs at a
different mutation rate.
"""

import decimal
import json
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.special
from scipy.stats import chi2 as chi2_dist

from lambdacoal import (
    DensityTableMeasure,
    LitterHistory,
    ValidationCase,
    build_rate_table,
    chi_square_gof,
    chi_square_two_sample,
    default_plan,
    edge_plan,
    load_plan,
    reports_to_csv,
    reports_to_json,
    derive_rng,
    parse_measure,
    run_validation,
    sample_composition_detailed,
    sample_family_partition_chain,
    sample_family_partition_set,
    sample_window,
    simulate_frozen_coalescent,
    total_variation,
)
import lambdacoal.subordinator
from lambdacoal._special import gammaincc
from lambdacoal.validation import _DRAW_BLOCK, _SAMPLERS, draw_span, prepare_shared

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tvd_identical_is_zero():
    assert total_variation({"a": 0.5, "b": 0.5}, {"a": 50, "b": 50}) == 0.0


def test_tvd_disjoint_is_one():
    assert total_variation({"a": 1.0}, {"b": 10}) == pytest.approx(1.0)


def test_tvd_hand_value():
    assert total_variation({"a": 0.5, "b": 0.5}, {"a": 75, "b": 25}) == pytest.approx(
        0.25
    )


def test_tvd_stray_outcomes():
    exact = {"a": 0.5, "b": 0.5}
    counts = {"a": 50, "b": 25, "c": 25}
    assert total_variation(exact, counts) == pytest.approx(0.25)


def test_tvd_empty_counts_raises():
    with pytest.raises(ValueError):
        total_variation({"a": 1.0}, {})


# ---------------------------------------------------------------------------
# chi-square goodness of fit
# ---------------------------------------------------------------------------

UNIFORM4 = {k: 0.25 for k in "abcd"}


def test_gof_hand_fixture():
    stat, df, p = chi_square_gof(UNIFORM4, {"a": 30, "b": 20, "c": 25, "d": 25})
    assert stat == pytest.approx(2.0)
    assert df == 3
    assert p == pytest.approx(chi2_dist.sf(2.0, 3), rel=1e-12)


def test_gof_perfect_fit():
    stat, df, p = chi_square_gof(UNIFORM4, {k: 25 for k in "abcd"})
    assert stat == 0.0
    assert p == 1.0


def test_gof_impossible_outcome():
    stat, _, p = chi_square_gof({"a": 1.0, "b": 0.0}, {"a": 99, "b": 1})
    assert math.isinf(stat)
    assert p == 0.0


def test_gof_pooling_merges_rare_cells():
    exact = {"a": 0.98, "b": 0.01, "c": 0.01}
    stat, df, p = chi_square_gof(exact, {"a": 98, "b": 1, "c": 1})
    assert df == 1  # b and c pooled into one tail cell
    assert stat == 0.0
    assert p == 1.0


def test_gof_too_few_cells():
    with pytest.raises(ValueError, match="fewer than 2 cells"):
        chi_square_gof({"a": 1.0}, {"a": 10})


def test_gof_empty_counts():
    with pytest.raises(ValueError):
        chi_square_gof(UNIFORM4, {})


def test_gof_tail_matches_scipy():
    exact = {str(k): 1.0 / 6.0 for k in range(6)}
    counts = {str(k): c for k, c in enumerate([14, 21, 17, 20, 15, 13])}
    stat, df, p = chi_square_gof(exact, counts)
    assert df == 5
    assert p == pytest.approx(chi2_dist.sf(stat, df), rel=1e-12)


@pytest.mark.parametrize("df", [*range(1, 51), 999, 3000, 37338, 100_000])
def test_chi_square_tail_matches_scipy(df):
    # the chi-square tail Q(df/2, x/2) against scipy.special.gammaincc,
    # x from 0 to 1e6 and around df, up to df = 1e5 (37338 is p(40), the
    # cell count of the n = 40 family-size law), wherever the tail is at
    # least 1e-300: within 1e-13 relative down to p = 1e-20.  Below that
    # scipy's own values are off from 40-digit ones by up to 1.8e-12
    # (ours by 1.2e-13), so the bound there is 4e-12, and
    # test_chi_square_tail_exact_at_even_df holds ours to the exact tail.
    xs = np.concatenate([
        np.linspace(0.0, 1e6, 101),
        np.geomspace(1e-8, 1e6, 141),
        df * np.linspace(0.5, 2.0, 61),
        df + np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    ])
    checked = 0
    for x in xs[xs >= 0.0]:
        ref = scipy.special.gammaincc(df / 2.0, x / 2.0)
        if ref >= 1e-300:
            bound = 1e-13 if ref >= 1e-20 else 4e-12
            assert abs(gammaincc(df / 2.0, float(x) / 2.0) - ref) <= bound * ref, x
            checked += 1
    assert checked > 100
    # a statistic far past any float tail (a pooled cell of tiny expected
    # count) reads p = 0 without overflowing x**(df/2)
    for x in (1e300, math.inf):
        assert gammaincc(df / 2.0, x / 2.0) == 0.0


@pytest.mark.parametrize("df", [2, 4, 10, 30, 50, 1000])
def test_chi_square_tail_exact_at_even_df(df):
    # at even df the tail is a Poisson sum, e**-y (1 + y + ... +
    # y**(df/2-1) / (df/2-1)!) at y = x/2, here in 60-digit decimals, down
    # to 1e-300: within 1e-13 relative, and in the far tail 2e-15 per unit
    # of |ln p|, since a value e**(ln p) holds ln p only to its last bit
    ctx = decimal.Context(prec=60)
    for x in np.concatenate([np.geomspace(1e-6, 4.0 * df + 1500.0, 150), [df - 1.0, df, df + 1.0]]):
        y = ctx.divide(decimal.Decimal(float(x)), 2)
        term = total = decimal.Decimal(1)
        for k in range(1, df // 2):
            term = ctx.divide(ctx.multiply(term, y), k)
            total = ctx.add(total, term)
        exact = float(ctx.multiply(total, ctx.exp(-y)))
        if exact >= 1e-300:
            bound = max(1e-13, 2e-15 * abs(math.log(exact)))
            assert abs(gammaincc(df / 2.0, float(x) / 2.0) - exact) <= bound * exact, x


# ---------------------------------------------------------------------------
# chi-square homogeneity
# ---------------------------------------------------------------------------


def test_two_sample_identical():
    a = {"h": 50, "t": 50}
    stat, df, p = chi_square_two_sample(a, dict(a))
    assert stat == 0.0
    assert df == 1
    assert p == 1.0


def test_two_sample_hand_fixture():
    stat, df, p = chi_square_two_sample({"h": 30, "t": 20}, {"h": 20, "t": 30})
    assert stat == pytest.approx(4.0)
    assert df == 1
    assert p == pytest.approx(chi2_dist.sf(4.0, 1), rel=1e-12)


def test_two_sample_proportional_tables():
    stat, _, p = chi_square_two_sample({"x": 90, "y": 10}, {"x": 45, "y": 5})
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_two_sample_pooling():
    a = {"x": 96, "y": 3, "z": 1}
    b = {"x": 95, "y": 2, "z": 3}
    stat, df, p = chi_square_two_sample(a, b)
    assert df == 1  # y and z pooled
    assert p == pytest.approx(chi2_dist.sf(stat, df), rel=1e-12)


def test_two_sample_empty_raises():
    with pytest.raises(ValueError):
        chi_square_two_sample({}, {"a": 3})


# ---------------------------------------------------------------------------
# one pooling rule: both tests against reference pooling loops
# ---------------------------------------------------------------------------


# The references pool and sum by hand and take p from the library's tail,
# which test_chi_square_tail_matches_scipy checks against scipy.
def _gof_reference(exact, counts):
    n = sum(counts.values())
    keys = sorted(set(exact) | set(counts))
    expected = [exact.get(k, 0.0) * n for k in keys]
    observed = [float(counts.get(k, 0)) for k in keys]
    if math.fsum(o for e, o in zip(expected, observed) if e == 0.0) > 0.0:
        return math.inf, max(len(exact) - 1, 1), 0.0
    keep_e, keep_o = [], []
    tail_e = tail_o = 0.0
    for e, o in zip(expected, observed):
        if e < 5.0:
            tail_e += e
            tail_o += o
        else:
            keep_e.append(e)
            keep_o.append(o)
    if tail_e > 0.0 or tail_o > 0.0:
        keep_e.append(tail_e)
        keep_o.append(tail_o)
    if len(keep_e) < 2:
        raise ValueError("fewer than 2 cells after pooling")
    stat = math.fsum((o - e) ** 2 / e for e, o in zip(keep_e, keep_o))
    df = len(keep_e) - 1
    return stat, df, gammaincc(df / 2.0, stat / 2.0)


def _two_sample_reference(counts_a, counts_b):
    n_a, n_b = sum(counts_a.values()), sum(counts_b.values())
    tot = n_a + n_b
    cells = []
    tail = [0.0, 0.0, 0.0, 0.0]
    for k in sorted(set(counts_a) | set(counts_b)):
        tot_k = counts_a.get(k, 0) + counts_b.get(k, 0)
        e_a, e_b = n_a * tot_k / tot, n_b * tot_k / tot
        o_a, o_b = float(counts_a.get(k, 0)), float(counts_b.get(k, 0))
        if min(e_a, e_b) < 5.0:
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
    return stat, df, gammaincc(df / 2.0, stat / 2.0)


def _outcome(fn, *args):
    """fn's (stat, df, p), or its error message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _random_table(rng, keys):
    """Counts over a random subset of keys, small ones common."""
    size = int(rng.integers(1, len(keys) + 1))
    chosen = rng.choice(keys, size=size, replace=False)
    scale = float(rng.choice([2.0, 10.0, 60.0]))
    return {str(k): int(c) for k, c in zip(chosen, rng.poisson(scale, size)) if c}


@pytest.mark.parametrize("seed", range(4))
def test_gof_matches_reference_pooling(seed):
    rng = np.random.default_rng(seed)
    keys = list("abcdefgh")
    kinds = Counter()
    for _ in range(500):
        counts = _random_table(rng, keys) or {"a": 1}
        support = rng.choice(keys, size=int(rng.integers(1, len(keys) + 1)), replace=False)
        probs = rng.dirichlet(np.full(len(support), 0.5))
        # zero-probability outcomes, observed or not
        probs[rng.random(len(probs)) < 0.1] = 0.0
        exact = {str(k): float(p) for k, p in zip(support, probs)}
        got = _outcome(chi_square_gof, exact, counts)
        assert got == _outcome(_gof_reference, exact, counts)
        kinds["error" if isinstance(got, str) else math.isinf(got[0])] += 1
    assert kinds["error"] and kinds[True] and kinds[False]


@pytest.mark.parametrize("seed", range(4))
def test_two_sample_matches_reference_pooling(seed):
    rng = np.random.default_rng(100 + seed)
    keys = list("abcdefgh")
    errors = 0
    for _ in range(500):
        a = _random_table(rng, keys) or {"a": 1}
        b = _random_table(rng, keys) or {"b": 1}
        got = _outcome(chi_square_two_sample, a, b)
        assert got == _outcome(_two_sample_reference, a, b)
        errors += isinstance(got, str)
    assert 0 < errors < 500


# ---------------------------------------------------------------------------
# plan plumbing
# ---------------------------------------------------------------------------


def test_case_fixture_text():
    case = ValidationCase(
        "c", "sampler_vs_exact", "poly3x2", 1.0, 5, sampler="set", exact_mu=0.5
    )
    assert case.fixture() == "measure=poly3x2,mu=1,n=5,sampler=set,exact_mu=0.5"


def test_default_plan_shape():
    plan = default_plan()
    ids = [c.case_id for c in plan]
    assert len(ids) == len(set(ids))
    kinds = {c.kind for c in plan}
    assert kinds == {
        "sampler_vs_exact",
        "ewens_equivalence",
        "first_part",
        "sequential_vs_window",
    }
    # the pure pair-merger fixture must carry its closed-form line item
    ewens_cases = [c for c in plan if c.kind == "ewens_equivalence"]
    assert len(ewens_cases) == 1
    assert ewens_cases[0].measure_spec == "delta:0"
    # window-based samplers appear only on fixtures with finite 1/x mass
    for c in plan:
        if c.sampler in ("chain", "set"):
            assert c.measure_spec in ("poly3x2", "atoms:0.5=0.25")


def test_edge_plan_passes():
    # Beta measures with beta < 1, whose jump sizes reach within one ulp
    # of 1: before the clip below 1, window first parts (p = 7e-5) and the
    # set sampler (p = 1e-9) drew another law, and at alpha > 2 the set
    # sampler died on log1p(-1); the module marks RuntimeWarning an error
    plan = edge_plan()
    assert not {c.case_id for c in plan} & {c.case_id for c in default_plan()}
    reports = run_validation(plan, 20_000, 1)
    assert [(r.case_id, r.error) for r in reports if not r.passed] == []


def test_load_plan_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "cases": [
                    {
                        "case_id": "k",
                        "kind": "sampler_vs_exact",
                        "measure_spec": "delta:0",
                        "mu": 0.5,
                        "n": 4,
                        "sampler": "frozen",
                        "tvd_max": 0.02,
                    }
                ]
            }
        )
    )
    (case,) = load_plan(path)
    assert case == ValidationCase(
        "k", "sampler_vs_exact", "delta:0", 0.5, 4, sampler="frozen", tvd_max=0.02
    )


# ---------------------------------------------------------------------------
# running the harness
# ---------------------------------------------------------------------------

FROZEN_CASE = ValidationCase(
    "frozen-smoke", "sampler_vs_exact", "delta:0", 0.5, 4, sampler="frozen"
)


def test_run_rejects_bad_reps():
    with pytest.raises(ValueError):
        run_validation([FROZEN_CASE], 0, 1)


def test_run_rejects_negative_seed_before_any_case_draws(monkeypatch):
    import lambdacoal.validation

    def refuse(*args):
        raise AssertionError("a case was prepared before the seed was checked")

    monkeypatch.setattr(lambdacoal.validation, "prepare_shared", refuse)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        run_validation([FROZEN_CASE], 10, -1)


def test_ewens_case_passes():
    case = ValidationCase("ew", "ewens_equivalence", "delta:0", 0.75, 6)
    (report,) = run_validation([case], 1, 0)
    assert report.passed
    assert report.replicates == 0
    assert report.tvd <= 1e-10
    assert report.criteria == {"max_abs_diff<=1e-10": True}


def test_reports_deterministic():
    plan = [FROZEN_CASE]
    a = reports_to_json(run_validation(plan, 300, 17))
    b = reports_to_json(run_validation(plan, 300, 17))
    assert a == b
    c = reports_to_json(run_validation(plan, 300, 18))
    assert a != c


def test_worker_count_invariance():
    # one case of every kind that draws replicates
    plan = [
        FROZEN_CASE,
        ValidationCase("chain", "sampler_vs_exact", "poly3x2", 1.0, 4, sampler="chain"),
        ValidationCase("set", "sampler_vs_exact", "poly3x2", 1.0, 4, sampler="set"),
        ValidationCase("fp", "first_part", "poly3x2", 1.0, 4),
        ValidationCase("sw", "sequential_vs_window", "poly3x2", 1.0, 4),
    ]
    serial = reports_to_json(run_validation(plan, 1100, 5, workers=1))
    parallel = reports_to_json(run_validation(plan, 1100, 5, workers=2))
    assert serial == parallel


@pytest.mark.parametrize("reps, pool", [(600, None), (1100, 2), (1600, 3)])
def test_pool_has_one_process_per_full_draw_block(monkeypatch, reps, pool):
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    run_validation([FROZEN_CASE], reps, 5, workers=4)
    assert len(forks) == (0 if pool is None else pool)


def test_negative_control_fails():
    # exact side evaluated at the wrong mutation rate must be caught
    case = ValidationCase(
        "neg",
        "sampler_vs_exact",
        "delta:0",
        1.0,
        4,
        sampler="frozen",
        exact_mu=0.25,
    )
    (report,) = run_validation([case], 4000, 11)
    assert not report.passed
    assert report.tvd > 0.05
    assert not all(report.criteria.values())


def test_case_error_is_reported_not_raised():
    # the set sampler cannot run without the finite 1/x mass condition
    case = ValidationCase(
        "bad", "sampler_vs_exact", "beta:1,1,1", 1.0, 4, sampler="set"
    )
    (report,) = run_validation([case], 10, 1)
    assert not report.passed
    assert "DustConditionError" in report.error


def test_case_over_the_partition_cap_reports_its_error(monkeypatch):
    # the recursion refuses n above the cap, as the CLI does, instead of
    # solving all 44 583 partitions of 41, and before any replicate draws
    calls = []

    def counting(*address):
        calls.append(address)
        return derive_rng(*address)

    monkeypatch.setattr(lambdacoal.validation, "derive_rng", counting)
    case = ValidationCase(
        "cap", "sampler_vs_exact", "poly3x2", 1.0, 41, sampler="frozen"
    )
    (report,) = run_validation([case], 10, 1)
    assert not report.passed
    assert report.error.startswith("PartitionCapError")
    assert calls == []


def test_first_part_case_outcomes():
    case = ValidationCase("fp", "first_part", "poly3x2", 1.0, 5)
    (report,) = run_validation([case], 500, 3)
    allowed = {"1m", "1l", "2", "3", "4", "5"}
    assert set(report.empirical) <= allowed
    assert set(report.expected) == allowed
    assert sum(report.expected.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(report.empirical.values()) == 500


def test_sequential_vs_window_split():
    case = ValidationCase("sw", "sequential_vs_window", "poly3x2", 1.0, 3)
    (report,) = run_validation([case], 600, 7)
    assert sum(report.empirical.values()) == 300
    assert sum(report.reference.values()) == 300
    assert report.p_value is not None
    assert report.passed


def test_window_samplers_match_laws_for_beta_below_one():
    # beta:1.9,0.5,1 has infinite activity and a (1-x)**(-1/2) density
    # near 1: the jump sizes come from the alpha <= 2 envelope with
    # beta < 1, which the standing plan never reaches
    plan = [
        ValidationCase("set-b", "sampler_vs_exact", "beta:1.9,0.5,1", 1.0, 4, sampler="set"),
        ValidationCase("fp-b", "first_part", "beta:1.9,0.5,1", 1.0, 4),
    ]
    for report in run_validation(plan, 3000, 11):
        assert report.error is None
        assert report.p_value >= 1e-3, report.case_id
        assert 0.0 < report.truncation_bias <= 1e-6


def test_window_samplers_match_laws_on_a_density_table(tmp_path):
    # the 6-node cubic table 6x(1-x): the window draws its jump sizes from
    # the table's nu, which must be the nu its rates and laws integrate
    xs = np.linspace(0.1, 0.9, 6)
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack((xs, 6.0 * xs * (1.0 - xs))), fmt="%.17g")
    spec = f"density-file:{path}"
    plan = [
        ValidationCase("set-table", "sampler_vs_exact", spec, 1.0, 5, sampler="set"),
        ValidationCase("fp-table", "first_part", spec, 1.0, 5),
    ]
    for report in run_validation(plan, 20000, 11, workers=2):
        assert report.error is None
        assert report.passed, (report.case_id, report.tvd, report.p_value)


def test_truncation_bias_reported_for_infinite_activity():
    case = ValidationCase(
        "tb", "sampler_vs_exact", "beta:2,2,1", 1.0, 3, sampler="set"
    )
    (report,) = run_validation([case], 30, 2)
    assert 0.0 < report.truncation_bias <= 1e-6


def test_truncation_bias_zero_for_frozen():
    (report,) = run_validation([FROZEN_CASE], 30, 2)
    assert report.truncation_bias == 0.0


def test_truncation_bias_zero_for_chain():
    # the chain draws from the frozen event table, never from a truncated
    # window
    case = ValidationCase(
        "tb-chain", "sampler_vs_exact", "beta:2,2,1", 1.0, 4, sampler="chain"
    )
    (report,) = run_validation([case], 200, 1)
    assert report.error is None
    assert report.truncation_bias == 0.0


# ---------------------------------------------------------------------------
# lockstep draws
# ---------------------------------------------------------------------------


def _one_row(sampler, measure, mu, n, rng):
    if sampler == "frozen":
        return simulate_frozen_coalescent(
            build_rate_table(measure, n), mu, n, rng
        ).to_text()
    return sample_family_partition_chain(measure, mu, n, rng).to_text()


@pytest.mark.parametrize(
    "sampler, mu",
    [("frozen", 1.0), ("frozen", 0.0), ("chain", 1.0)],
    ids=["frozen", "frozen-mu0", "chain"],
)
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_lockstep_draw_matches_one_row_calls(sampler, mu, n):
    # one block-chain call over many replicates gives, byte for byte, what
    # the public one-replicate samplers give on the same streams
    measure = parse_measure("poly3x2")
    (shared,) = prepare_shared((sampler,), measure, mu, n)
    reps = range(60 if n < 40 else 20)
    lockstep = _SAMPLERS[sampler].draw(
        measure, mu, n, shared, [derive_rng(11, "lockstep", r) for r in reps]
    )
    one_row = [
        _one_row(sampler, measure, mu, n, derive_rng(11, "lockstep", r)) for r in reps
    ]
    assert lockstep == one_row
    if mu == 0.0:
        assert set(lockstep) == {f"{n}^1"}


TABLE_XS = np.linspace(0.1, 0.9, 6)
WINDOW_MEASURES = {
    "poly3x2": parse_measure("poly3x2"),
    "atoms": parse_measure("atoms:0.5=0.25"),
    "beta1.9": parse_measure("beta:1.9,1,1"),
    "table-cubic": DensityTableMeasure(TABLE_XS, 6.0 * TABLE_XS * (1.0 - TABLE_XS), order=3),
}


def _one_window_row(sampler, measure, mu, n, T0, rng):
    if sampler == "set":
        return sample_family_partition_set(measure, mu, n, rng, T0=T0).to_text()
    sample = sample_composition_detailed(sample_window(measure, mu, T0, rng=rng), n, rng)
    if sampler == "composition":
        return sample.composition.to_text()
    first = sample.composition.parts[0]
    if first > 1:
        return str(first)
    return "1l" if sample.litter[0] else "1m"


def _extensions(measure, mu, n, T0, rng):
    """Extensions of one set replicate while covering its uniforms, and
    then while chasing the roots of its litter hits."""
    history = LitterHistory.build(measure, mu, rng, T0=T0)
    sample = sample_composition_detailed(history.window, n, rng)
    covering = history.window.n_extensions
    for index in sample.index[sample.litter].tolist():
        history.resolve_root(index)
    return covering, history.window.n_extensions - covering


@pytest.mark.parametrize("sampler", ["set", "composition", "first-part"])
@pytest.mark.parametrize("label", list(WINDOW_MEASURES))
@pytest.mark.parametrize("small_t0", [False, True], ids=["T0", "small-T0"])
def test_window_block_matches_one_row_calls(sampler, label, small_t0):
    # one block of windows gives, byte for byte, what the public one-row
    # window functions give on the same streams; a small T0 makes rows
    # extend while covering their uniforms and while chasing roots
    measure = WINDOW_MEASURES[label]
    mu, n, reps = 1.0, 6, 40
    (T0,) = prepare_shared((sampler,), measure, mu, n)
    if small_t0:
        T0 = 0.05
        grown = [_extensions(measure, mu, n, T0, derive_rng(12, "ext", r)) for r in range(reps)]
        assert any(cover for cover, _ in grown) and any(chase for _, chase in grown)
    block = _SAMPLERS[sampler].draw(
        measure, mu, n, T0, [derive_rng(12, sampler, r) for r in range(reps)]
    )
    one_row = [
        _one_window_row(sampler, measure, mu, n, T0, derive_rng(12, sampler, r))
        for r in range(reps)
    ]
    assert block == one_row


@pytest.mark.parametrize("sampler", ["set", "composition", "first-part"])
def test_window_blocks_split_by_points(sampler, monkeypatch):
    # a draw cut into blocks of a few window points gives the same texts
    # as one block
    measure = WINDOW_MEASURES["poly3x2"]
    (T0,) = prepare_shared((sampler,), measure, 1.0, 5)

    def draw():
        rngs = [derive_rng(13, sampler, r) for r in range(30)]
        return _SAMPLERS[sampler].draw(measure, 1.0, 5, T0, rngs)

    whole = draw()
    monkeypatch.setattr(lambdacoal.subordinator, "_BLOCK_POINTS", 40)
    assert draw() == whole


def test_window_block_memory_is_bounded():
    # 512 replicates of 500-point windows: the block holds at most
    # _BLOCK_POINTS window points, not all 512 windows at once (about
    # 35 MB traced when it did)
    measure = WINDOW_MEASURES["beta1.9"]
    (T0,) = prepare_shared(("set",), measure, 1.0, 6)
    rngs = [derive_rng(14, "memory", r) for r in range(512)]
    tracemalloc.start()
    try:
        _SAMPLERS["set"].draw(measure, 1.0, 6, T0, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "names, n",
    [
        (("frozen",), 5),
        (("chain",), 5),
        (("sequential", "composition"), 4),
        (("set",), 5),
        (("first-part",), 5),
    ],
    ids=["frozen", "chain", "sequential-composition", "set", "first-part"],
)
def test_draw_span_does_not_depend_on_the_split(names, n):
    # spans longer than one draw block, cut at several points, concatenate
    # to the whole span; an interleaved pair of samplers matches its
    # replicates drawn one at a time
    measure = parse_measure("poly3x2")
    shared = prepare_shared(names, measure, 1.0, n)
    args = (names, measure, 1.0, n, 3, "split", shared)
    reps = _DRAW_BLOCK + 88
    whole = draw_span(*args, 0, reps)
    for cuts in ([1, 300], [_DRAW_BLOCK - 1, _DRAW_BLOCK + 1], [7, 8, 9, 555]):
        edges = [0] + cuts + [reps]
        parts = [draw_span(*args, a, b) for a, b in zip(edges, edges[1:])]
        assert [text for part in parts for text in part] == whole
    singles = [draw_span(*args, r, r + 1)[0] for r in range(40)]
    assert singles == whole[:40]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_json_shape():
    reports = run_validation([FROZEN_CASE], 200, 4)
    payload = json.loads(reports_to_json(reports))
    assert set(payload) == {"passed", "reports"}
    (entry,) = payload["reports"]
    assert entry["case_id"] == "frozen-smoke"
    assert entry["seed"] == 4
    assert entry["replicates"] == 200
    assert isinstance(entry["criteria"], dict)


def test_csv_one_line_per_criterion():
    plan = [
        FROZEN_CASE,
        ValidationCase("ew", "ewens_equivalence", "delta:0", 0.5, 5),
        ValidationCase("bad", "sampler_vs_exact", "beta:1,1,1", 1.0, 4, sampler="set"),
    ]
    reports = run_validation(plan, 100, 9)
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0].startswith("case_id,kind,fixture")
    # frozen: tvd + p criteria, ewens: one criterion, error case: one line
    assert len(lines) == 1 + 2 + 1 + 1
    assert any("DustConditionError" in ln for ln in lines)
