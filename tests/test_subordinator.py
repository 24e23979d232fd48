"""Subordinator windows: cdf, inversion, extension, and composition
sampling, including a deterministic gap-set fixture traced by hand."""

import math

import numpy as np
import pytest

import lambdacoal.subordinator
from lambdacoal import (
    BeyondWindowError,
    Composition,
    DegenerateMeasureError,
    PopulationSupportError,
    WindowBudgetError,
    derive_rng,
    AtomicMeasure,
    default_window_horizon,
    delete_random_ball,
    parse_measure,
    sample_composition_detailed,
    sample_window,
    sequential_composition,
    window_from_points,
)

POLY = parse_measure("poly3x2")
HALF_ATOM = parse_measure("atoms:0.5=0.25")


class GivenUniforms:
    """Stub generator returning prescribed uniforms, for replaying
    deterministic fixtures through the composition sampler."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None):
        if n is None:
            return self.values.pop(0)
        out = np.array(self.values[:n])
        del self.values[:n]
        return out


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------


def test_cdf_at_zero():
    w = window_from_points(1.0, [(1.0, 0.5, 0.3)], 4.0)
    assert w.cdf(0.0) == 0.0


def test_cdf_single_point_no_drift():
    w = window_from_points(0.0, [(1.0, 0.5, 0.3)], 4.0)
    assert w.cdf(0.5) == 0.0
    assert w.cdf(1.0) == pytest.approx(0.5)
    assert w.cdf(3.0) == pytest.approx(0.5)


def test_cdf_pure_drift():
    w = window_from_points(math.log(2.0), [], 4.0)
    assert w.cdf(1.0) == pytest.approx(0.5)
    assert w.cdf(2.0) == pytest.approx(0.75)


def test_cdf_monotone_and_bounded(rng_factory):
    w = sample_window(POLY, 1.0, 8.0, rng=rng_factory(5, "cdfmono"))
    grid = np.linspace(0.0, 8.0, 200)
    vals = [w.cdf(float(s)) for s in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_litter_hit():
    w = window_from_points(0.0, [(1.0, 0.5, 0.3)], 4.0)
    hit = w.invert(0.25)
    assert hit.kind == "litter"
    assert hit.index == 0
    assert hit.age == pytest.approx(1.0)


def test_invert_pure_drift():
    w = window_from_points(math.log(2.0), [], 4.0)
    hit = w.invert(0.5)
    assert hit.kind == "regenerative"
    assert hit.age == pytest.approx(1.0)


def test_invert_boundary_ties_are_regenerative():
    # v exactly at either endpoint of the litter's value interval
    w = window_from_points(math.log(2.0), [(1.0, 0.5, 0.3)], 8.0)
    lo = w.cdf(1.0 - 1e-12)
    hi = w.cdf(1.0)
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(0.75, abs=1e-12)
    for v in (lo, hi):
        assert w.invert(v).kind == "regenerative"
    inside = w.invert(0.6)
    assert inside.kind == "litter" and inside.index == 0


def test_invert_consistent_with_cdf(rng_factory):
    rng = rng_factory(5, "inv-consist")
    w = sample_window(POLY, 1.0, 10.0, rng=rng)
    for v in rng.random(300):
        v = float(v)
        if not w.coverage_ok(v):
            continue
        hit = w.invert(v)
        if hit.kind == "litter":
            age = w.ages[hit.index]
            assert w.cdf(age * (1.0 - 1e-12)) < v <= w.cdf(age) + 1e-12
        else:
            assert w.cdf(hit.age) == pytest.approx(v, rel=1e-9)


def test_invert_beyond_window():
    w = window_from_points(0.0, [(1.0, 0.5, 0.3)], 4.0)
    # g_max = -log(0.5): values of v at or above 0.5 are uncovered
    with pytest.raises(BeyondWindowError):
        w.invert(0.7)


# ---------------------------------------------------------------------------
# gap-set fixture: uniforms placed against a known closed range
# ---------------------------------------------------------------------------

GAPS = [
    (0.10, 0.15),
    (0.25, 0.35),
    (0.45, 0.55),
    (0.60, 0.70),
    (0.75, 0.80),
    (0.85, 0.88),
]


def window_with_gaps(gaps, mu=1.0, T=40.0):
    """Litter ages and sizes realizing the prescribed value-space gaps:
    a gap (a, b) needs size x = (b-a)/(1-a) and age solving
    exp(-mu*s) * prod_earlier (1-x_i) = 1 - a."""
    ages, sizes = [], []
    log_prod = 0.0
    for a, b in gaps:
        s = (-math.log1p(-a) + log_prod) / mu
        x = (b - a) / (1.0 - a)
        ages.append(s)
        sizes.append(x)
        log_prod += math.log1p(-x)
    pts = [(s, x, 0.5) for s, x in zip(ages, sizes)]
    return window_from_points(mu, pts, T)


def test_gap_window_reproduces_gaps():
    w = window_with_gaps(GAPS)
    for i, (a, b) in enumerate(GAPS):
        age = w.ages[i]
        assert w.cdf(age * (1.0 - 1e-12)) == pytest.approx(a, abs=1e-9)
        assert w.cdf(age) == pytest.approx(b, abs=1e-12)


def test_gap_fixture_composition():
    # seven balls against the gap set: 0.12 in gap 1; 0.20 on the range;
    # 0.27 and 0.33 share gap 2; 0.615, 0.655, 0.69 share gap 4
    w = window_with_gaps(GAPS)
    uniforms = [0.615, 0.27, 0.655, 0.12, 0.33, 0.69, 0.20]
    sample = sample_composition_detailed(w, 7, GivenUniforms(uniforms))
    assert sample.composition.parts == (1, 1, 2, 3)
    kinds = [h.kind for h in sample.hits]
    assert kinds == [
        "litter",
        "regenerative",
        "litter",
        "litter",
        "litter",
        "litter",
        "litter",
    ]
    assert sample.hits[0].index == 0
    assert sample.hits[2].index == 1 and sample.hits[3].index == 1
    assert {sample.hits[i].index for i in (4, 5, 6)} == {3}


def test_gap_fixture_all_regenerative():
    w = window_with_gaps(GAPS)
    # all balls on the range: everything a singleton part
    uniforms = [0.05, 0.2, 0.4, 0.58]
    sample = sample_composition_detailed(w, 4, GivenUniforms(uniforms))
    assert sample.composition.parts == (1, 1, 1, 1)
    assert all(h.kind == "regenerative" for h in sample.hits)


# ---------------------------------------------------------------------------
# windows: sampling, extension, degenerate cases
# ---------------------------------------------------------------------------


def test_sample_window_point_statistics(rng_factory):
    # nu = 3 * Lebesgue, T = 2: counts Poisson(6), sizes uniform
    counts = []
    all_sizes = []
    for rep in range(400):
        w = sample_window(POLY, 1.0, 2.0, rng=rng_factory(5, "wstats", rep))
        counts.append(w.npoints)
        all_sizes.extend(w.sizes.tolist())
    mean = np.mean(counts)
    assert abs(mean - 6.0) < 4.0 * math.sqrt(6.0 / 400.0)
    from scipy.stats import kstest

    assert kstest(np.array(all_sizes), "uniform").pvalue > 1e-3


def test_sample_window_requires_rng():
    with pytest.raises(ValueError):
        sample_window(POLY, 1.0, 2.0)


def test_sample_window_rejects_unsupported():
    from lambdacoal import PopulationSupportError

    rng = derive_rng(5, "bad")
    for spec in ["delta:0", "delta:1", "beta:1,1,1"]:
        with pytest.raises(PopulationSupportError):
            sample_window(parse_measure(spec), 1.0, 2.0, rng=rng)


def test_sample_window_degenerate():
    rng = derive_rng(5, "degen")
    with pytest.raises(DegenerateMeasureError):
        sample_window(AtomicMeasure((), ()), 0.0, 2.0, rng=rng)


def test_failing_window_setup_is_not_cached():
    m = parse_measure("delta:1")
    for rep in range(2):
        with pytest.raises(PopulationSupportError):
            sample_window(m, 1.0, 2.5, rng=derive_rng(5, "bad-twice", rep))


def test_window_setup_integrates_once_per_measure_and_horizon(quadrature_calls):
    m = parse_measure("beta:1.9,1,1")
    T = 1.2345
    first = sample_window(m, 1.0, T, rng=derive_rng(5, "setup-once", 0))
    assert quadrature_calls  # nu(eps, 1] is integrated for the first window
    del quadrature_calls[:]
    second = sample_window(m, 1.0, T, rng=derive_rng(5, "setup-once", 1))
    assert second.eps == first.eps > 0.0
    second.extend()
    assert second.T == 2.0 * T
    assert quadrature_calls == []


def test_window_refused_above_point_budget():
    m = parse_measure("beta:1.5,1,1")
    with pytest.raises(WindowBudgetError, match=r"beta:1\.5,1,1 expects \d\.\d+e\+0\d points"):
        sample_window(m, 1.0, 6.0, rng=derive_rng(5, "budget"))


def test_extension_refused_above_point_budget(monkeypatch):
    # nu = 3 * Lebesgue for poly3x2: 3 points per unit of horizon
    monkeypatch.setattr(lambdacoal.subordinator, "MAX_WINDOW_POINTS", 5.0)
    w = sample_window(POLY, 1.0, 1.0, rng=derive_rng(5, "budget-extend"))
    with pytest.raises(WindowBudgetError, match="poly3x2|beta:3,1,1"):
        w.extend()
    assert w.T == 1.0 and w.n_extensions == 0


def test_extension_preserves_existing_points(rng_factory):
    rng = rng_factory(5, "extend")
    w = sample_window(POLY, 0.3, 1.0, rng=rng)
    ages_before = w.ages.copy()
    sizes_before = w.sizes.copy()
    T_before = w.T
    w.extend()
    assert w.T == 2.0 * T_before
    assert w.n_extensions == 1
    np.testing.assert_array_equal(w.ages[: len(ages_before)], ages_before)
    np.testing.assert_array_equal(w.sizes[: len(sizes_before)], sizes_before)
    assert np.all(w.ages[len(ages_before):] >= T_before)


def test_ensure_coverage_extends_until_covered(rng_factory):
    rng = rng_factory(5, "cover")
    w = sample_window(POLY, 0.5, 0.25, rng=rng)
    v = 0.999999
    w.ensure_coverage(v)
    assert w.coverage_ok(v)
    hit = w.invert(v)
    assert hit.age >= 0.0


def test_default_window_horizon():
    T = default_window_horizon(POLY, 1.0, 5)
    # decay = mu + integral x^{-1} L(dx) = 1 + 3/2
    assert T == pytest.approx((math.log(5) + 6 * math.log(10)) / 2.5, rel=1e-12)
    with pytest.raises(DegenerateMeasureError):
        default_window_horizon(AtomicMeasure((), ()), 0.0, 5)


def test_truncation_bias_zero_for_finite_activity(rng_factory):
    w = sample_window(POLY, 1.0, 2.0, rng=rng_factory(5, "bias", 0))
    assert w.truncation_bias() == 0.0


def test_truncation_bias_bound_infinite_activity(rng_factory):
    m = parse_measure("beta:2,2,1")
    w = sample_window(m, 1.0, 2.0, eps="auto", rng=rng_factory(5, "bias", 1))
    assert 0.0 < w.truncation_bias() <= 1e-6 * 1.0000001
    assert np.all(w.sizes > w.eps)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def test_composition_text_round_trip():
    c = Composition((1, 1, 2, 3))
    assert c.n == 7
    assert c.to_text() == "1,1,2,3"
    assert Composition.from_text("1,1,2,3") == c
    with pytest.raises(ValueError):
        Composition((1, 0, 2))


def test_pure_drift_composition_all_singletons(rng_factory):
    w = window_from_points(2.0, [], 16.0)
    for rep in range(20):
        rng = rng_factory(5, "drift-comp", rep)
        sample = sample_composition_detailed(w, 6, rng)
        assert sample.composition.parts == (1,) * 6
        assert all(h.kind == "regenerative" for h in sample.hits)


def test_sequential_n1(rng_factory):
    comp = sequential_composition(POLY, 1.0, 1, rng_factory(5, "seq1", 0))
    assert comp.parts == (1,)


def test_sequential_half_atom_first_part(rng_factory):
    # frozen: P(first part = 3) = C(3,3)/(2^3-1) = 1/7
    reps = 30000
    hits = 0
    for rep in range(reps):
        comp = sequential_composition(
            HALF_ATOM, 0.0, 3, rng_factory(5, "seq3", rep)
        )
        hits += comp.parts[0] == 3
    p_hat = hits / reps
    assert abs(p_hat - 1 / 7) < 3.0 * math.sqrt((1 / 7) * (6 / 7) / reps)


def test_delete_random_ball_hand_law(rng_factory):
    comp = Composition((2, 1))
    outcomes = {(1, 1): 0, (2,): 0}
    reps = 30000
    for rep in range(reps):
        out = delete_random_ball(comp, rng_factory(5, "del", rep))
        outcomes[out.parts] += 1
    # deleting from the 2-part (prob 2/3) leaves (1,1); deleting the
    # singleton (prob 1/3) leaves (2)
    assert abs(outcomes[(1, 1)] / reps - 2 / 3) < 3.0 * math.sqrt(2 / 9 / reps)


def test_delete_last_ball():
    assert delete_random_ball(Composition((1,)), derive_rng(5, "del1")) is None
