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
    DensityTableMeasure,
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

from lambdacoal.subordinator import _locate, _Rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


def _invert_reference(w, v, after):
    """The scalar inversion loop: one searchsorted on the right edges of
    the litters older than `after`, then the interval test."""
    start = after + 1
    offset = 0.0 if after < 0 else float(w.right_g[after])
    t = -math.log1p(-v) + offset
    j = start + int(np.searchsorted(w.right_g[start:], t, side="left"))
    if j < w.npoints and w.left_g[j] < t < w.right_g[j]:
        return ("litter", float(w.ages[j]), j)
    if j < w.npoints and t >= w.right_g[j]:
        j += 1
    if w.mu > 0.0:
        s_abs = (t + w.log_prefix[j]) / w.mu
    else:
        s_abs = float(w.ages[j - 1]) if j > 0 else 0.0
    base_age = 0.0 if after < 0 else float(w.ages[after])
    return ("regenerative", float(max(s_abs - base_age, 0.0)), None)


def _as_tuple(hit):
    return (hit.kind, hit.age, hit.index)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_window(POLY, 1.0, 10.0, rng=derive_rng(5, "ref-poly")),
        lambda: sample_window(HALF_ATOM, 0.7, 12.0, rng=derive_rng(5, "ref-atom")),
        # equal ages (touching intervals), and the drift-free path
        lambda: window_from_points(0.5, [(1.0, 0.3, 0.5), (1.0, 0.2, 0.5), (2.0, 0.4, 0.1)], 4.0),
        lambda: window_from_points(0.0, [(1.0, 0.3, 0.5), (2.0, 0.2, 0.5)], 4.0),
    ],
    ids=["poly3x2", "atoms", "touching", "drift-free"],
)
def test_invert_matches_scalar_reference(make):
    # invert and invert_after equal the scalar loop exactly, at random
    # values and at every interval edge
    w = make()
    rng = derive_rng(6, "ref-values")
    edges = np.concatenate((w.left_g, w.right_g))
    values = list(rng.random(200)) + [float(-np.expm1(-g)) for g in edges]
    for after in [-1] + list(range(w.npoints)):
        for v in values:
            if not 0.0 < v < 1.0 or not w.coverage_ok(v, after):
                continue
            hit = w.invert(v) if after < 0 else w.invert_after(after, v)
            assert _as_tuple(hit) == _invert_reference(w, v, after)


def test_block_hits_match_one_row_inversion():
    # a block of windows of different lengths, one of them empty, sends
    # every sorted uniform where each window's own invert sends it
    from lambdacoal.subordinator import _Rows

    windows = [
        sample_window(POLY, 1.0, T, rng=derive_rng(7, "block", i))
        for i, T in enumerate([0.05, 3.0, 8.0, 0.5])
    ]
    windows.append(window_from_points(0.5, [], 20.0))
    vs = np.sort(derive_rng(7, "block-u").random((len(windows), 9)), axis=1)
    for w, row in zip(windows, vs):
        w.ensure_coverage(float(row[-1]))
    j, litter = _Rows(windows).hits(vs)
    for r, w in enumerate(windows):
        for i, v in enumerate(vs[r]):
            kind, _, index = _invert_reference(w, float(v), -1)
            assert litter[r, i] == (kind == "litter")
            if index is not None:
                assert j[r, i] == index


def _padded_rows(rng, counts):
    """(3, R, W) planes of random rows holding counts[r] litters each:
    ascending right edges on a coarse grid (so edges repeat), left edges
    below them, marks, and inf past each row's litters."""
    planes = np.full((3, len(counts), 1 + max(counts)), np.inf)
    for r, m in enumerate(counts):
        right = np.sort(rng.integers(0, 6, m) * 0.5)
        planes[:, r, :m] = right - rng.random(m), right, rng.random(m)
    return planes


@pytest.mark.parametrize("per_row", [1, 13])
@pytest.mark.parametrize(
    "counts",
    [[5, 0, 9, 1, 7, 7], [0, 0, 0], [1, 1], [8, 3], [16, 0, 2], [40, 31, 0, 33]],
    ids=["mixed", "no-points", "W2", "W9", "W17", "W41"],
)
def test_lockstep_locate_matches_searchsorted(counts, per_row):
    # on every padded row, the lockstep lower bound gives the index that
    # searchsorted(side="left") gives, from nonzero starts too, at right
    # edges exactly and between them
    rng = derive_rng(15, "locate", len(counts), per_row)
    planes = _padded_rows(rng, counts)
    rows = np.arange(len(counts)).repeat(per_row)
    m = np.asarray(counts)[rows]
    # even queries sit exactly on a right edge of their row, odd ones
    # anywhere (a row without litters has no edge)
    edges = planes[1][rows, rng.integers(0, np.maximum(m, 1))]
    t = 3.5 * rng.random(rows.size) - 0.5
    on_edge = (np.arange(rows.size) % 2 == 0) & (m > 0)
    t[on_edge] = edges[on_edge]
    start = rng.integers(0, m + 1)
    j, litter = _locate(planes, rows, t, start)
    for q, r in enumerate(rows.tolist()):
        left, right = planes[0, r], planes[1, r]
        expect = max(int(np.searchsorted(right, t[q], side="left")), int(start[q]))
        assert j[q] == expect
        assert litter[q] == (left[expect] < t[q] < right[expect])
    assert on_edge.any() == any(counts)


TABLE_XS = np.linspace(0.1, 0.9, 6)
TABLE = DensityTableMeasure(TABLE_XS, 6.0 * TABLE_XS * (1.0 - TABLE_XS), order=3)


def _drawn(measure, mu, T):
    return lambda tag: [
        sample_window(measure, mu, T, rng=derive_rng(16, tag, r)) for r in range(7)
    ]


def _check_rows(block, windows):
    # each row equals its window settled alone, inf past it, and the
    # coverage too; the window's points are sorted by age, ties in the
    # order they were drawn
    for r, w in enumerate(windows):
        m = w.npoints
        drawn = w._points.copy()
        assert np.array_equal(block.planes[:, r, : m + 1], w._rows()[:, 0])
        by_age = drawn[:, drawn[0].argsort(kind="stable")]
        assert np.array_equal(np.array([w.ages, w.sizes, w.marks]), by_age)
        assert (block.planes[:, r, m + 1 :] == np.inf).all()
        assert block.gmax[r] == w.g_max()


@pytest.mark.parametrize(
    "make",
    [
        _drawn(POLY, 1.0, 6.0),
        _drawn(HALF_ATOM, 0.7, 12.0),
        _drawn(parse_measure("beta:1.9,1,1"), 1.0, 3.0),
        _drawn(TABLE, 1.0, 6.0),
        _drawn(POLY, 0.0, 6.0),
        lambda tag: [window_from_points(0.5, [], T) for T in (1.0, 2.0, 3.0)],
        lambda tag: [
            window_from_points(0.5, [(1.0, 0.3, 0.5), (1.0, 0.2, 0.5), (2.0, 0.4, 0.1)], 4.0),
            window_from_points(0.0, [(2.0, 0.2, 0.5), (1.0, 0.3, 0.5)], 4.0),
            window_from_points(
                0.5, [(3.0 - i % 3, 0.01 + i / 100, i / 40) for i in range(40)], 4.0
            ),
        ],
    ],
    ids=["poly3x2", "atoms", "beta1.9", "density-table", "mu0", "no-points", "ties"],
)
def test_block_settle_matches_windows_settled_alone(make):
    # one settle of the whole block gives every row bit for bit what the
    # row's twin window gives when it settles alone; drift-free rows give
    # no nan
    block = _Rows(make("settle"))
    _check_rows(block, make("settle"))
    assert not np.isnan(block.planes).any()


def test_block_rows_extended_past_the_width():
    # rows that outgrow the block widen it; each row still equals its twin
    # window extended alike and settled alone
    windows = _drawn(POLY, 1.0, 0.05)("widen")
    block = _Rows(windows)
    width = block.planes.shape[2]
    vs = np.sort(derive_rng(16, "widen-u").random((len(windows), 5)), axis=1)
    vs[::2, -1] = 0.99
    vs[1::2] *= 0.01
    block.hits(vs)
    twins = _drawn(POLY, 1.0, 0.05)("widen")
    for w, v in zip(twins, vs[:, -1].tolist()):
        w.ensure_coverage(v)
    grown = [w.n_extensions for w in windows]
    assert block.planes.shape[2] > width and 0 in grown
    assert grown == [w.n_extensions for w in twins]
    _check_rows(block, twins)


def test_window_settles_on_first_one_row_use(monkeypatch):
    # a drawn window keeps its points as drawn until a one-row use; its
    # point count and extension count do not settle it
    settled = []
    settle = lambdacoal.subordinator._settle
    monkeypatch.setattr(
        lambdacoal.subordinator, "_settle", lambda ws: settled.append(len(ws)) or settle(ws)
    )
    w = sample_window(POLY, 1.0, 6.0, rng=derive_rng(17, "lazy"))
    assert w.npoints > 0 and w.n_extensions == 0 and settled == []
    w.cdf(1.0)
    w.invert(0.1)
    assert settled == [1]
    assert np.all(np.diff(w.ages) >= 0.0)


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
