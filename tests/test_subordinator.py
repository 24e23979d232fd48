"""Subordinator windows: cdf, inversion, extension, and composition
sampling, including a deterministic gap-set fixture traced by hand."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

import lambdacoal.measures
import lambdacoal.subordinator
from lambdacoal import (
    BeyondWindowError,
    Composition,
    DegenerateMeasureError,
    DensityTableMeasure,
    PopulationSupportError,
    WindowBudgetError,
    chi_square_two_sample,
    derive_rng,
    AtomicMeasure,
    default_window_horizon,
    delete_random_ball,
    parse_measure,
    sample_composition_detailed,
    sample_jump_sizes,
    sample_window,
    sequential_composition,
    window_from_points,
)

from lambdacoal.subordinator import (
    _composition_texts,
    _draw_points,
    _draw_windows,
    _locate,
    _Rows,
    _window_setup,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

POLY = parse_measure("poly3x2")
HALF_ATOM = parse_measure("atoms:0.5=0.25")


class GivenUniforms:
    """Stub generator returning prescribed uniforms, for replaying
    deterministic fixtures through the composition sampler."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None, out=None):
        if n is None and out is None:
            return self.values.pop(0)
        n = len(out) if out is not None else n
        values = np.array(self.values[:n])
        del self.values[:n]
        if out is None:
            return values
        out[:] = values
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


def _hits(w, *vs):
    """(index, litter) lists of the kernel's one-row hits of the sorted
    uniforms vs on window w."""
    j, litter = _Rows([w]).hits(np.array([vs]))
    return j[0].tolist(), litter[0].tolist()


def test_invert_litter_hit():
    w = window_from_points(0.0, [(1.0, 0.5, 0.3)], 4.0)
    assert _hits(w, 0.25) == ([0], [True])


def test_invert_pure_drift():
    w = window_from_points(math.log(2.0), [], 4.0)
    assert _hits(w, 0.5)[1] == [False]


def test_invert_boundary_ties_are_regenerative():
    # v exactly at either endpoint of the litter's value interval
    w = window_from_points(math.log(2.0), [(1.0, 0.5, 0.3)], 8.0)
    lo = w.cdf(1.0 - 1e-12)
    hi = w.cdf(1.0)
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(0.75, abs=1e-12)
    index, litter = _hits(w, lo, 0.6, hi)
    assert litter == [False, True, False]
    assert index[1] == 0


def test_invert_consistent_with_cdf(rng_factory):
    # a litter hit lies inside its litter's cdf jump, a regenerative hit
    # inside none
    rng = rng_factory(5, "inv-consist")
    w = sample_window(POLY, 1.0, 10.0, rng=rng)
    vs = np.sort(rng.random(300))
    vs = vs[-np.log1p(-vs) < w.g_max()]
    jumps = [(w.cdf(age * (1.0 - 1e-12)), w.cdf(age)) for age in w.ages]
    for v, i, inside in zip(vs.tolist(), *_hits(w, *vs)):
        if inside:
            lo, hi = jumps[i]
            assert lo < v <= hi + 1e-12
        else:
            assert not any(lo + 1e-12 < v < hi - 1e-12 for lo, hi in jumps)


def _invert_reference(w, v, after):
    """The scalar inversion loop: one searchsorted on the right edges of
    the litters older than `after`, then the interval test; the query is
    rounded by np.log1p, as every g-query is.  Returns (kind, index), the
    index None on the regenerative set."""
    start = after + 1
    offset = 0.0 if after < 0 else float(w.right_g[after])
    t = -np.log1p(-v) + offset
    j = start + int(np.searchsorted(w.right_g[start:], t, side="left"))
    if j < w.npoints and w.left_g[j] < t < w.right_g[j]:
        return ("litter", j)
    return ("regenerative", None)


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
    # the kernel, on the window as one row and in lockstep on a block of
    # two twin rows, sends every covered query where the scalar loop does,
    # from age 0 and after every litter (the parent query), at random
    # values and at every interval edge
    w = make()
    rng = derive_rng(6, "ref-values")
    edges = np.concatenate((w.left_g, w.right_g))
    values = list(rng.random(200)) + [float(-np.expm1(-g)) for g in edges]
    t, start, expected = [], [], []
    for after in [-1] + list(range(w.npoints)):
        offset = 0.0 if after < 0 else float(w.right_g[after])
        for v in values:
            if not 0.0 < v < 1.0 or -np.log1p(-v) + offset >= w.g_max():
                continue
            t.append(-np.log1p(-v) + offset)
            start.append(after + 1)
            expected.append(_invert_reference(w, v, after))
    t, start = np.array(t), np.array(start)
    one, twins = _Rows([w]), _Rows([w, w])
    for planes, rows in (
        (one.planes, np.zeros(len(t), dtype=np.intp)),
        (twins.planes, np.arange(2).repeat(len(t))),
    ):
        reps = len(rows) // len(t)
        j, litter = _locate(planes, rows, np.tile(t, reps), np.tile(start, reps))
        for q, (kind, index) in enumerate(expected * reps):
            assert litter[q] == (kind == "litter")
            if index is not None:
                assert j[q] == index


def test_block_hits_match_one_row_inversion():
    # a block of windows of different lengths, one of them empty, sends
    # every sorted uniform where the scalar loop sends it on its window
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
            kind, index = _invert_reference(w, float(v), -1)
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
    _Rows([w])
    assert settled == [1]
    assert np.all(np.diff(w.ages) >= 0.0)


def test_invert_beyond_window():
    w = window_from_points(0.0, [(1.0, 0.5, 0.3)], 4.0)
    # g_max = -log(0.5): values of v at or above 0.5 are uncovered, and a
    # replayed window has no generator to extend it
    with pytest.raises(BeyondWindowError):
        sample_composition_detailed(w, 1, GivenUniforms([0.7]))


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
    assert sample.litter.tolist() == [True, False, True, True, True, True, True]
    assert sample.index[0] == 0
    assert sample.index[2] == 1 and sample.index[3] == 1
    assert set(sample.index[4:].tolist()) == {3}


def test_gap_fixture_all_regenerative():
    w = window_with_gaps(GAPS)
    # all balls on the range: everything a singleton part
    uniforms = [0.05, 0.2, 0.4, 0.58]
    sample = sample_composition_detailed(w, 4, GivenUniforms(uniforms))
    assert sample.composition.parts == (1, 1, 1, 1)
    assert not sample.litter.any()


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
    grown = w.n_extensions
    assert grown > 0 and -np.log1p(-v) < w.g_max()
    _Rows([w]).hits(np.array([[v]]))
    assert w.n_extensions == grown


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
# the draw kernel
# ---------------------------------------------------------------------------


def _kernel_rows(measure, T, tag, reps):
    """(eps, rows): the (3, c) points of `reps` rows drawn by one kernel
    call on the streams (18, tag, r), at the auto cutoff."""
    eps, mass_above, _ = _window_setup(measure, T, "auto")
    rngs = [derive_rng(18, tag, r) for r in range(reps)]
    points, counts = _draw_points(measure, eps, mass_above * T, T, rngs)
    return eps, [points[:, r, :c] for r, c in enumerate(counts)]


def _drawn_ages(measure, T, tag, reps=400):
    _, rows = _kernel_rows(measure, T, tag, reps)
    assert all(np.all(np.diff(row[0]) >= 0.0) for row in rows)
    return np.concatenate([row[0] for row in rows])


@pytest.mark.parametrize(
    "measure, T", [(POLY, 6.0), (HALF_ATOM, 12.0)], ids=["poly3x2", "atoms"]
)
def test_drawn_ages_are_sorted_uniform_order_statistics(measure, T):
    # every row comes sorted by age, and given the counts the ages are
    # uniform on [0, T): the 5000-7000 pooled ages / T pass a KS test
    # (normalising by the c-th partial sum instead of the (c+1)-th puts an
    # age at T in every row, and the KS p-value falls below 1e-19)
    ages = _drawn_ages(measure, T, f"ks-{T}")
    assert kstest(ages / T, "uniform").pvalue > 1e-3
    assert np.all((ages >= 0.0) & (ages <= T))


def _size_counts(sizes, edges):
    """Counts of the sizes per cell between the edges, or per value when
    there are no edges (atoms)."""
    cells = sizes if edges is None else np.searchsorted(edges, sizes, side="right")
    return dict(zip(*np.unique(cells, return_counts=True)))


PIN_TABLE_TEXT = "0.1 0.2\n0.26 1.0\n0.42 0.1\n0.58 0\n0.74 2\n0.9 1.5\n"


@pytest.mark.parametrize("label", ["atoms2", "poly3x2", "beta1.9", "pin-table"])
def test_drawn_sizes_match_sample_jump_sizes(tmp_path, label):
    # a two-sample chi-square of the kernel's sizes (inverse cdf over the
    # block for atoms, sample_nu rounds per row otherwise) against
    # sample_jump_sizes at the same cutoff: per atom, or on the ten cells
    # between the reference deciles
    if label == "pin-table":
        table = tmp_path / "table.txt"
        table.write_text(PIN_TABLE_TEXT)
        measure = parse_measure(f"density-file:{table}")
    else:
        specs = {"atoms2": "atoms:0.25=0.5,0.75=0.125", "beta1.9": "beta:1.9,1,1"}
        measure = parse_measure(specs.get(label, label))
    T = default_window_horizon(measure, 1.0, 5)
    reps = 40 if label == "beta1.9" else 600
    eps, rows = _kernel_rows(measure, T, f"sizes-{label}", reps)
    drawn = np.concatenate([row[1] for row in rows])
    assert np.all(drawn > eps)
    rng = derive_rng(18, "sizes-ref", label)
    reference = sample_jump_sizes(measure, eps, 2 * len(drawn), rng)
    edges = None if label == "atoms2" else np.quantile(reference, np.linspace(0.1, 0.9, 9))
    counts = (_size_counts(drawn, edges), _size_counts(reference, edges))
    _, _, p = chi_square_two_sample(*counts)
    assert p > 1e-3


def test_drawn_sizes_of_one_atom():
    _, rows = _kernel_rows(HALF_ATOM, 12.0, "sizes-one-atom", 50)
    assert np.all(np.concatenate([row[1] for row in rows]) == 0.5)


SLOT_MEASURES = {
    "poly3x2": POLY,
    "atoms": HALF_ATOM,
    "beta1.9": parse_measure("beta:1.9,1,1"),
    "table": TABLE,
}


@pytest.mark.parametrize("label", list(SLOT_MEASURES))
def test_block_row_does_not_depend_on_its_slot(label):
    # replicate r's window is the same, bit for bit, drawn alone, at slot
    # 0 and at slot 511 of a block, and again after one extension of each;
    # so is its composition at either slot of a draw and alone
    measure, mu, n, T = SLOT_MEASURES[label], 1.0, 5, 3.0
    others = [derive_rng(18, "slot-other", i) for i in range(511)]

    def target():
        return derive_rng(18, "slot", label)

    windows = [
        sample_window(measure, mu, T, rng=target()),
        _draw_windows(measure, mu, T, "auto", [target()] + others[:3])[0],
        _draw_windows(measure, mu, T, "auto", others + [target()])[511],
    ]
    for w in windows:
        w.extend()
    assert len({w.npoints for w in windows}) == 1 and windows[0].npoints > 0
    for w in windows[1:]:
        assert np.array_equal(w._points, windows[0]._points)
    # the one-row call draws the window, then the uniforms, from one stream
    rng = target()
    alone = sample_composition_detailed(sample_window(measure, mu, T, rng=rng), n, rng)
    assert (
        alone.composition.to_text()
        == _composition_texts(measure, mu, n, T, [target()] + others[:3])[0]
        == _composition_texts(measure, mu, n, T, others + [target()])[511]
    )


def test_beta_nu_rounds_draw_the_count_needed_at_eps_zero():
    # alpha > 2 at eps = 0 draws exactly the count asked for in one round,
    # the same variates rng.beta(alpha - 2, beta) gives
    m = parse_measure("beta:3.5,2,1")
    rng = derive_rng(18, "beta-round")
    drawn = np.concatenate((m.sample_nu(0.0, 37, rng), m.sample_nu(0.0, 5, rng)))
    assert np.array_equal(drawn, derive_rng(18, "beta-round").beta(1.5, 2.0, size=42))


def _auto_eps(measure):
    T = default_window_horizon(measure, 1.0, 5)
    return _window_setup(measure, T, "auto")[0]


# (measure, cutoff) of the rejection samplers: the clipped cubic dips
# below 0 on (0.5, 0.7), and its cutoff 0.44 cuts into the cell before,
# where L falls to its root at 0.5 and few candidates are kept
BLOCK_SIZE_CASES = {
    "table-cubic": (TABLE, 0.0),
    "table-linear": (DensityTableMeasure((0.2, 0.5, 0.8), (1.0, 2.5, 0.5), order=1), 0.0),
    "table-clipped": (
        DensityTableMeasure(np.linspace(0.1, 0.9, 5), (0.0, 1.0, 0.0, 0.0, 2.0), order=3),
        0.44,
    ),
    "beta1.9": (parse_measure("beta:1.9,1,1"), None),
    "poly3x2": (POLY, 0.0),
}
# derive_rng(18, "block-sizes", seed): at Poisson(6) counts, seed 31 draws
# no point, and seed 3365 draws 10 sizes of the clipped table in 3 rounds
BLOCK_SIZE_SEEDS = [0, 31, 1, 3365, 2]


@pytest.mark.parametrize("pass_points", [None, 8], ids=["one-pass", "passes-of-8"])
@pytest.mark.parametrize("label", list(BLOCK_SIZE_CASES))
def test_block_sizes_equal_one_row_sample_nu(monkeypatch, label, pass_points):
    # a draw block takes its jump sizes in lockstep rounds over its rows;
    # each row gets the sizes, the rounds and the generator state of its
    # twin, whose count and uniform block are followed by one-row sample_nu
    # (also when the rows are cut into passes of about 8 sizes, some of
    # them a single row)
    if pass_points is not None:
        monkeypatch.setattr(lambdacoal.measures, "_NU_PASS_POINTS", pass_points)
    measure, eps = BLOCK_SIZE_CASES[label]
    eps = _auto_eps(measure) if eps is None else eps
    rounds: dict = {}
    candidates = type(measure)._nu_candidates

    def counted(self, eps, need, rng):
        rounds[id(rng)] = rounds.get(id(rng), 0) + 1
        return candidates(self, eps, need, rng)

    monkeypatch.setattr(type(measure), "_nu_candidates", counted)
    rngs = [derive_rng(18, "block-sizes", s) for s in BLOCK_SIZE_SEEDS]
    twins = [derive_rng(18, "block-sizes", s) for s in BLOCK_SIZE_SEEDS]
    points, counts = _draw_points(measure, eps, 6.0, 1.0, rngs)
    for r, twin in enumerate(twins):
        c = int(twin.poisson(6.0))
        twin.random(2 * c + 1)
        want = measure.sample_nu(eps, c, twin)
        assert counts[r] == c
        assert points[1, r, :c].tobytes() == want.tobytes(), r
        assert rngs[r].bit_generator.state == twin.bit_generator.state, r
        assert rounds.get(id(rngs[r])) == rounds.get(id(twin)), r
    assert counts[1] == 0
    if label == "table-clipped":
        assert rounds[id(rngs[3])] >= 3


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
        assert not sample.litter.any()


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
