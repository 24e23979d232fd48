"""Litter genealogy, stationary population state, family samplers and the
forward jump process.

The genealogy fixture is fully hand-traced: five litters with chosen
ages, sizes and marks whose origination arrows and roots are known, and
every mark interval was located by hand in log-survival coordinates.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import ks_2samp

import lambdacoal as lc
from lambdacoal import (
    AtomicMeasure,
    BeyondWindowError,
    DustConditionError,
    InfiniteActivityError,
    LitterHistory,
    PopulationMeasure,
    PartitionVector,
    PopulationSupportError,
    WindowBudgetError,
    WindowExhaustionError,
    build_rate_table,
    chi_square_two_sample,
    cutoff_deviation,
    derive_rng,
    first_part_law,
    first_part_laws_upto,
    forward_simulate,
    litter_size_at,
    parse_measure,
    rho_state,
    sample_family_partition_chain,
    sample_family_partition_set,
    window_from_points,
)
from lambdacoal.coalescent import _frozen_table
from lambdacoal.subordinator import _MAX_DOUBLINGS, _Rows
from lambdacoal.validation import _DRAW_BLOCK, _SAMPLERS, prepare_shared

from conftest import first_part_chain_reference

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

POLY = parse_measure("poly3x2")
HALF_ATOM = parse_measure("atoms:0.5=0.25")


# ---------------------------------------------------------------------------
# the hand-traced genealogy fixture
#
# age-sorted litters (index: age, size, mark):
#   0: 1.0, 0.15, 0.393469   -> mark g = 0.5, lands on the range: root
#   1: 2.0, 0.35, 0.90       -> lands in litter 3's interval
#   2: 3.0, 0.20, 0.91       -> lands in litter 4's interval
#   3: 4.0, 0.25, 0.70       -> lands in litter 4's interval
#   4: 5.0, 0.30, 0.42       -> lands on the range: root
#
# so 4 fathers 2 and 3, 3 fathers 1, and 0 and 4 are roots; the chain
# 1 -> 3 -> 4 has height 2.
# ---------------------------------------------------------------------------

FIXTURE_POINTS = [
    (1.0, 0.15, 0.393469),
    (2.0, 0.35, 0.90),
    (3.0, 0.20, 0.91),
    (4.0, 0.25, 0.70),
    (5.0, 0.30, 0.42),
]


@pytest.fixture()
def fixture_history():
    return LitterHistory.from_points(1.0, FIXTURE_POINTS, 16.0)


def _parent_reference(w, index):
    """One parent step written alone: the litter's mark, queried after it,
    by one searchsorted on the right edges of the older litters and the
    interval test; None for a mark on the regenerative set.  The window
    is first extended to cover the query."""
    mark = float(w.marks[index])
    w.ensure_coverage(mark, index)
    t = -np.log1p(-mark) + float(w.right_g[index])
    j = index + 1 + int(np.searchsorted(w.right_g[index + 1 :], t, side="left"))
    return j if j < w.npoints and w.left_g[j] < t < w.right_g[j] else None


def _chase_reference(w, index):
    """(root, height) of a litter by parent steps, one at a time."""
    root, height = index, 0
    while (parent := _parent_reference(w, root)) is not None:
        root, height = parent, height + 1
    return root, height


def test_fixture_parents(fixture_history):
    w = fixture_history.window
    assert [_parent_reference(w, i) for i in range(5)] == [None, 3, 4, 4, None]


def test_fixture_roots_and_heights(fixture_history):
    h = fixture_history
    assert h.resolve_root(0) == (0, 0)
    assert h.resolve_root(1) == (4, 2)
    assert h.resolve_root(2) == (4, 1)
    assert h.resolve_root(3) == (4, 1)
    assert h.resolve_root(4) == (4, 0)


@pytest.mark.parametrize("index", [-1, 5])
def test_resolve_root_refuses_index_outside_window(fixture_history, index):
    with pytest.raises(ValueError, match="index outside window"):
        fixture_history.resolve_root(index)


def test_fixture_genotypes(fixture_history):
    # a litter's genotype is the mark of its root
    h = fixture_history
    genotypes = [h.window.marks[h.resolve_root(i)[0]] for i in range(5)]
    assert genotypes == pytest.approx([0.393469] + [0.42] * 4)


def test_fixture_memoization_stable(fixture_history):
    h = fixture_history
    first = [h.resolve_root(i) for i in range(5)]
    second = [h.resolve_root(i) for i in range(5)]
    assert first == second


def _atom_mass(state, genotype):
    for g, s in state.atoms:
        if abs(g - genotype) < 1e-12:
            return s
    raise AssertionError(f"no atom near genotype {genotype}")


def test_fixture_rho_state(fixture_history):
    h = fixture_history
    state = rho_state(h)
    # litter 0's family on genotype 0.393469; litters 1-4 pool on 0.42
    size0 = litter_size_at(h, 0)
    size_pool = math.fsum(litter_size_at(h, i) for i in (1, 2, 3, 4))
    assert len(state.atoms) == 2
    assert _atom_mass(state, 0.393469) == pytest.approx(size0, abs=1e-14)
    assert _atom_mass(state, 0.42) == pytest.approx(size_pool, abs=1e-14)
    assert state.diffuse == pytest.approx(1.0 - size0 - size_pool, abs=1e-12)
    assert state.total() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# litter sizes
# ---------------------------------------------------------------------------


def test_litter_size_definition(fixture_history):
    h = fixture_history
    # size now = X * exp(-mu*age) * prod over younger litters of (1 - X_j)
    assert litter_size_at(h, 0) == pytest.approx(0.15 * math.exp(-1.0), rel=1e-12)
    assert litter_size_at(h, 1) == pytest.approx(
        0.35 * math.exp(-2.0) * 0.85, rel=1e-12
    )
    assert litter_size_at(h, 4) == pytest.approx(
        0.30 * math.exp(-5.0) * 0.85 * 0.65 * 0.80 * 0.75, rel=1e-12
    )


def test_litter_size_at_birth():
    # at its own birth time, before erosion and younger litters: X itself
    h = LitterHistory.from_points(1.0, FIXTURE_POINTS, 16.0)
    assert litter_size_at(h, 3, t=-4.0) == pytest.approx(0.25, rel=1e-12)
    # one younger litter between birth and -2.5: ages in [2.5, 4)
    assert litter_size_at(h, 3, t=-2.5) == pytest.approx(
        0.25 * math.exp(-1.5) * 0.80, rel=1e-12
    )


def test_litter_size_unborn_raises(fixture_history):
    with pytest.raises(ValueError):
        litter_size_at(fixture_history, 3, t=-4.5)


def test_litter_size_equals_interval_length(fixture_history):
    w = fixture_history.window
    for i in range(5):
        length = math.exp(-w.left_g[i]) - math.exp(-w.right_g[i])
        assert litter_size_at(fixture_history, i) == pytest.approx(
            length, rel=1e-12
        )


def test_litter_size_no_drift_telescoping():
    # mu = 0: total atom mass telescopes to 1 - prod (1 - X_i)
    pts = [(1.0, 0.2, 0.5), (2.0, 0.4, 0.5), (3.0, 0.25, 0.5)]
    w = window_from_points(0.0, pts, 8.0)
    lengths = np.exp(-w.left_g) - np.exp(-w.right_g)
    assert float(lengths.sum()) == pytest.approx(1.0 - 0.8 * 0.6 * 0.75, rel=1e-12)


def test_rho_mass_conservation_sampled(rng_factory, monkeypatch):
    # the window settles once, and once more after each extension
    from lambdacoal import sample_window

    settled = []
    settle = lc.subordinator._settle
    monkeypatch.setattr(
        lc.subordinator, "_settle", lambda ws: settled.append(len(ws)) or settle(ws)
    )
    for rep in range(5):
        rng = rng_factory(6, "rho-mass", rep)
        w = sample_window(POLY, 1.0, 14.0, rng=rng)
        h = LitterHistory(w)
        settled.clear()
        state = rho_state(h)
        assert settled == [1] * (1 + w.n_extensions)
        assert state.total() == pytest.approx(1.0, abs=1e-12)
        # diffuse cannot undercut the window's survival bound
        assert state.diffuse >= math.exp(-w.g_max()) - 1e-12


# ---------------------------------------------------------------------------
# root-resolution statistics
# ---------------------------------------------------------------------------


def test_root_probability_matches_first_part_law(rng_factory):
    # a fresh litter roots immediately with probability mu / Phi(1)
    from lambdacoal import sample_window

    q1 = first_part_law(POLY, 1.0, 1).p_single_mutant
    assert q1 == pytest.approx(0.4, abs=1e-12)
    reps = 4000
    roots = 0
    trials = 0
    for rep in range(reps):
        rng = rng_factory(6, "root-prob", rep)
        w = sample_window(POLY, 1.0, 14.0, rng=rng)
        if w.npoints == 0:
            continue
        trials += 1
        h = LitterHistory(w)
        roots += h.resolve_root(0) == (0, 0)
    p_hat = roots / trials
    assert abs(p_hat - q1) < 4.0 * math.sqrt(q1 * (1 - q1) / trials)


def test_height_geometric_smoke(rng_factory):
    # height of the youngest litter is geometric: P(H >= h) = (1-q1)^h
    from lambdacoal import chi_square_gof, sample_window

    q1 = 0.4
    reps = 4000
    counts: dict[str, int] = {}
    for rep in range(reps):
        rng = rng_factory(6, "heights", rep)
        w = sample_window(POLY, 1.0, 14.0, rng=rng)
        if w.npoints == 0:
            continue
        h = LitterHistory(w)
        _, height = h.resolve_root(0)
        key = str(min(height, 6))
        counts[key] = counts.get(key, 0) + 1
    n_eff = sum(counts.values())
    exact = {str(k): q1 * (1 - q1) ** k for k in range(6)}
    exact["6"] = (1 - q1) ** 6
    _, _, p = chi_square_gof(exact, counts)
    assert p >= 1e-3


# ---------------------------------------------------------------------------
# family-partition samplers (distributional checks live in the
# acceptance suite; here: basic contracts)
# ---------------------------------------------------------------------------


def test_set_sampler_preconditions(rng_factory):
    with pytest.raises(DustConditionError):
        sample_family_partition_set(
            parse_measure("delta:0"), 1.0, 4, rng_factory(6, "pre", 0)
        )
    with pytest.raises(PopulationSupportError):
        sample_family_partition_set(POLY, 0.0, 4, rng_factory(6, "pre", 1))


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_set_sampler_refuses_n_below_one_before_mu_and_any_draw(rng_factory, monkeypatch, mu):
    def no_draw(*args, **kwargs):
        raise AssertionError("a window was drawn")

    monkeypatch.setattr(lc.subordinator, "_draw_points", no_draw)
    with pytest.raises(ValueError, match="n must be at least 1"):
        sample_family_partition_set(POLY, mu, 0, rng_factory(6, "pre", 4))


# without T0 a divergent 1/x integral is refused by the default horizon,
# before mu, as the set sampler refuses it
_BUILD_REFUSALS = [
    ("poly3x2", 0.0, None, PopulationSupportError),
    ("poly3x2", -1.0, 2.0, PopulationSupportError),
    ("delta:0", 1.0, None, DustConditionError),
    ("delta:1", 1.0, None, PopulationSupportError),
    ("beta:1,1,1", 1.0, None, DustConditionError),
    ("delta:1", 1.0, 2.0, PopulationSupportError),
    ("beta:1,1,1", 1.0, 2.0, PopulationSupportError),
]


@pytest.mark.parametrize(
    "spec, mu, T0, error",
    _BUILD_REFUSALS,
    ids=[f"{spec}-{mu}-{T0}" for spec, mu, T0, _ in _BUILD_REFUSALS],
)
def test_history_build_preconditions(rng_factory, spec, mu, T0, error):
    with pytest.raises(error):
        LitterHistory.build(parse_measure(spec), mu, rng_factory(6, "pre-build"), T0=T0)


def test_set_sampler_refuses_oversized_window(rng_factory):
    # the auto cutoff of beta:1.5,1,1 asks for about 1.4e8 window points
    with pytest.raises(WindowBudgetError, match=r"beta:1\.5,1,1"):
        sample_family_partition_set(
            parse_measure("beta:1.5,1,1"), 1.0, 6, rng_factory(6, "budget")
        )


def test_chain_sampler_preconditions(rng_factory):
    with pytest.raises(DustConditionError):
        sample_family_partition_chain(
            parse_measure("beta:1,1,1"), 1.0, 4, rng_factory(6, "pre", 2)
        )
    with pytest.raises(PopulationSupportError):
        sample_family_partition_chain(POLY, 0.0, 4, rng_factory(6, "pre", 3))


def test_chain_sampler_checks_support_once_per_measure(rng_factory, monkeypatch):
    # the atom-at-1 read, moment(inf, 0), is the support check's alone; a
    # success is remembered per measure, so one-row calls read it once
    # however many replicates they draw
    xs = np.linspace(0.1, 0.9, 6)
    calls = []
    real = lc.DensityTableMeasure.moment

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(lc.DensityTableMeasure, "moment", counted)
    counts = []
    for reps in (100, 200):
        table = lc.DensityTableMeasure(xs, 6.0 * xs * (1.0 - xs), order=3)
        del calls[:]
        for rep in range(reps):
            sample_family_partition_chain(
                table, 1.0, 5, rng_factory(6, "support-once", rep)
            )
        counts.append(calls.count((math.inf, 0.0)))
    assert counts == [1, 1]
    # a refusal is not remembered
    for _ in range(2):
        with pytest.raises(PopulationSupportError):
            sample_family_partition_chain(
                parse_measure("delta:1"), 1.0, 4, rng_factory(6, "support-once")
            )


def test_samplers_return_partitions_of_n(rng_factory):
    for rep in range(40):
        pv = sample_family_partition_set(POLY, 1.0, 6, rng_factory(6, "set", rep))
        assert pv.n == 6
        pv = sample_family_partition_chain(POLY, 1.0, 6, rng_factory(6, "chn", rep))
        assert pv.n == 6


@pytest.mark.parametrize("n", [5, 20])
def test_chain_matches_reference_loop(rng_factory, n):
    # the sampler, which runs the frozen coalescent's table, and the
    # first-part chain written out alone on the first-part laws, on streams
    # of their own, agree in law: the full partition at n = 5, the number
    # of families at n = 20
    laws = first_part_laws_upto(POLY, 1.0, n)
    reps = 3000 if n == 5 else 1500

    def key(pv):
        return pv.to_text() if n == 5 else pv.num_families

    sampler = Counter(
        key(sample_family_partition_chain(POLY, 1.0, n, rng_factory(6, "chain-ref", rep)))
        for rep in range(reps)
    )
    reference = Counter(
        key(PartitionVector.from_sizes(
            first_part_chain_reference(laws, n, rng_factory(6, "chain-loop", rep))
        ))
        for rep in range(reps)
    )
    assert chi_square_two_sample(sampler, reference)[2] >= 1e-3


_TABLE_XS = np.linspace(0.1, 0.9, 6)


@pytest.mark.parametrize(
    "measure",
    [
        POLY,
        HALF_ATOM,
        parse_measure("beta:1.9,1,1"),
        parse_measure("atoms:0.2=1,0.7=0.3"),
        lc.DensityTableMeasure(_TABLE_XS, 6.0 * _TABLE_XS * (1.0 - _TABLE_XS), order=3),
    ],
    ids=["poly3x2", "atom", "beta1.9", "two-atoms", "table6"],
)
@pytest.mark.parametrize("mu", [0.3, 1.0, 4.0])
def test_chain_table_is_the_frozen_table(measure, mu):
    # row b of the first-part laws without the lone-litter part,
    # (p_single_mutant, 0, P(first part = 2), ..., P(first part = b)), is
    # the frozen coalescent's row (mu*b, 0, C(b,2) rate(b,2), ...) divided
    # by mu*b + b*single(b) + total(b): after each row is divided by its
    # total the two agree, which is why the chain runs the frozen table
    n = 40
    laws = first_part_laws_upto(measure, mu, n)
    rows = np.zeros((n, n + 1))
    for b in range(1, n + 1):
        rows[b - 1, 0] = laws[b].p_single_mutant
        rows[b - 1, 2 : b + 1] = laws[b].probs[1:]
    chain = np.add.accumulate(rows, axis=1)
    frozen = _frozen_table(build_rate_table(measure, n), mu, n)[1:]
    np.testing.assert_allclose(
        chain / chain[:, -1:], frozen / frozen[:, -1:], rtol=0.0, atol=1e-13
    )


@pytest.mark.parametrize(
    "measure",
    [
        POLY,
        HALF_ATOM,
        lc.DensityTableMeasure(_TABLE_XS, 6.0 * _TABLE_XS * (1.0 - _TABLE_XS), order=3),
    ],
    ids=["poly3x2", "atom", "table6"],
)
@pytest.mark.parametrize("n", [1, 5, 40])
def test_chain_draws_the_frozen_texts(measure, n):
    # the chain's shared table and draw are the frozen sampler's: on the
    # same generators the two give the same texts
    texts = [
        _SAMPLERS[name].draw(
            measure, 1.0, n, prepare_shared(name, measure, 1.0, n),
            [derive_rng(13, "chain-frozen", r) for r in range(200)],
        )
        for name in ("chain", "frozen")
    ]
    assert texts[0] == texts[1]


def test_set_sampler_n2_marginal(rng_factory):
    # two lineages either merge (rate 1/4 under (1/4) delta_{1/2}) or one
    # freezes first (rate 2 mu), so P(one family of two) = 0.25 / 2.25
    # the replicates run a draw block at a time through the block window
    # kernel, which gives what one-replicate calls give on the same streams
    T0 = prepare_shared("set", HALF_ATOM, 1.0, 2)
    reps = 20000
    hits = 0
    for lo in range(0, reps, _DRAW_BLOCK):
        rngs = [rng_factory(6, "set2", rep) for rep in range(lo, min(lo + _DRAW_BLOCK, reps))]
        hits += _SAMPLERS["set"].draw(HALF_ATOM, 1.0, 2, T0, rngs).count("2^1")
    expect = 0.25 / (2.0 + 0.25)
    assert abs(hits / reps - expect) < 4.0 * math.sqrt(expect * (1 - expect) / reps)


def test_large_mu_mostly_singletons(rng_factory):
    hits = 0
    for rep in range(200):
        pv = sample_family_partition_set(POLY, 50.0, 5, rng_factory(6, "mu", rep))
        hits += pv.counts == (5,)
    assert hits >= 180


@pytest.mark.parametrize("T0", [14.0, 0.3])
def test_block_chase_matches_one_query_roots(T0):
    # one chase over every litter of several windows gives each litter's
    # (root, height) as the scalar chase does, and as resolve_root does,
    # query by query, on twins of the windows drawn from the same streams;
    # all three grow their windows alike

    def windows():
        return [lc.sample_window(POLY, 0.7, T0, rng=derive_rng(8, "chase", r)) for r in range(6)]

    block, twins, singles = windows(), windows(), windows()
    rows = np.concatenate([np.full(w.npoints, r) for r, w in enumerate(block)]).astype(np.intp)
    cur = np.concatenate([np.arange(w.npoints) for w in block])
    root, height = _Rows(block).roots(rows, cur)
    expected = [_chase_reference(w, i) for w in twins for i in range(w.npoints)]
    assert list(zip(root.tolist(), height.tolist())) == expected
    one_query = [LitterHistory(w).resolve_root(i) for w in singles for i in range(w.npoints)]
    assert one_query == expected
    grown = [(w.n_extensions, w.npoints) for w in block]
    assert grown == [(w.n_extensions, w.npoints) for w in twins]
    assert grown == [(w.n_extensions, w.npoints) for w in singles]
    if T0 < 1.0:
        assert any(w.n_extensions for w in block)


def test_window_exhaustion_cap():
    # a replayed window has no generator, so an uncovered mark must
    # surface as an error, not silence
    pts = [(1.0, 0.5, 0.999999999)]
    h = LitterHistory.from_points(0.1, pts, 2.0)
    with pytest.raises(BeyondWindowError):
        h.resolve_root(0)


def test_history_survives_outside_extension(rng_factory):
    # the window grows from outside the history; the memos must still
    # address the new, older litters
    w = lc.sample_window(POLY, 0.5, 0.25, rng=rng_factory(5, "cover"))
    h = LitterHistory(w)
    w.ensure_coverage(0.999999)
    assert w.n_extensions > 0
    root, height = h.resolve_root(w.npoints - 1)
    assert h.resolve_root(root) == (root, 0) and height >= 0


def test_composition_window_extension_is_capped(rng_factory):
    # covering n uniforms needs a horizon of order 1, 2**10 * 1e-6 is
    # not enough
    w = lc.sample_window(POLY, 1.0, 1e-6, rng=rng_factory(6, "cap"))
    with pytest.raises(WindowExhaustionError):
        lc.sample_composition_detailed(w, 5, rng_factory(6, "cap", 1))
    assert w.n_extensions == _MAX_DOUBLINGS == 10


# ---------------------------------------------------------------------------
# cutoff deviation
# ---------------------------------------------------------------------------


def naive_cutoff_deviation(window, cutoff, ages):
    out = 0.0
    for s in ages:
        full = 1.0
        cut = 1.0
        for age, x in zip(window.ages, window.sizes):
            if age <= s:
                full *= 1.0 - x
                if age <= cutoff:
                    cut *= 1.0 - x
        f_full = 1.0 - math.exp(-window.mu * s) * full
        f_cut = 1.0 - math.exp(-window.mu * s) * cut
        out = max(out, abs(f_full - f_cut))
    return out


def test_cutoff_deviation_matches_naive(rng_factory):
    from lambdacoal import sample_window

    w = sample_window(POLY, 1.0, 12.0, rng=rng_factory(6, "cut", 0))
    grid = np.linspace(0.0, 12.0, 101)
    for cutoff in (1.0, 3.0, 7.0):
        assert cutoff_deviation(w, cutoff, grid) == pytest.approx(
            naive_cutoff_deviation(w, cutoff, grid), abs=1e-12
        )


def test_cutoff_deviation_zero_below_cutoff(fixture_history):
    w = fixture_history.window
    grid = np.linspace(0.0, 3.0, 50)
    assert cutoff_deviation(w, 3.0, grid) == 0.0


def test_cutoff_deviation_bound(rng_factory):
    from lambdacoal import sample_window

    for rep in range(20):
        w = sample_window(POLY, 1.0, 12.0, rng=rng_factory(6, "cutb", rep))
        grid = np.linspace(0.0, w.T, 200)
        for cutoff in (1.0, 5.0):
            dev = cutoff_deviation(w, cutoff, grid)
            assert dev < math.exp(-cutoff)


# ---------------------------------------------------------------------------
# forward simulation
# ---------------------------------------------------------------------------


def test_forward_requires_finite_intensity(rng_factory):
    with pytest.raises(InfiniteActivityError):
        forward_simulate(parse_measure("beta:2,2,1"), 1.0, 1.0, rng_factory(6, "f0"))


def test_forward_refuses_over_the_point_budget(rng_factory):
    # |nu| = 3 for poly3x2: a horizon of 1e7 expects 3e7 jumps
    rng = rng_factory(6, "budget")
    state = rng.bit_generator.state
    with pytest.raises(WindowBudgetError, match="forward run on beta:3,1,1"):
        forward_simulate(POLY, 1.0, 1e7, rng)
    assert rng.bit_generator.state == state


def test_forward_erosion_only(rng_factory):
    # Lambda = 0: the single atom decays geometrically into the diffuse part
    init = PopulationMeasure(((0.3, 0.6),), 0.4)
    path = forward_simulate(
        AtomicMeasure((), ()),
        math.log(2.0),
        3.0,
        rng_factory(6, "f1"),
        init=init,
    )
    t_final, state = path[-1]
    assert t_final == 3.0
    assert state.atoms == ((0.3, pytest.approx(0.6 / 8.0, rel=1e-12)),)


def test_forward_first_jump_from_diffuse(rng_factory):
    # mu = 0, pure-diffuse start: the first jump creates one atom of size
    # X drawn from nu/|nu| (here deterministically 1/2)
    path = forward_simulate(HALF_ATOM, 0.0, 80.0, rng_factory(6, "f2"))
    assert len(path) >= 2
    t1, state1 = path[1]
    assert len(state1.atoms) == 1
    g, s = state1.atoms[0]
    assert s == pytest.approx(0.5)
    assert 0.0 < g < 1.0
    assert state1.diffuse == pytest.approx(0.5)


def test_forward_mass_conservation(rng_factory):
    path = forward_simulate(POLY, 1.0, 5.0, rng_factory(6, "f3"))
    for _, state in path:
        assert state.total() == pytest.approx(1.0, abs=1e-12)


def test_forward_jump_rate(rng_factory):
    # |nu| = 3 for 3x^2 dx: expect about 3 * horizon jump events
    horizon = 40.0
    path = forward_simulate(POLY, 1.0, horizon, rng_factory(6, "f4"))
    jumps = len(path) - 2  # minus initial and final states
    assert abs(jumps - 3.0 * horizon) < 4.0 * math.sqrt(3.0 * horizon)


def test_forward_stationarity_two_sample(rng_factory):
    # total atom mass at a long horizon vs the stationary window profile
    reps = 10**4
    forward_mass = np.empty(reps)
    for rep in range(reps):
        rng = rng_factory(6, "fstat", rep)
        path = forward_simulate(POLY, 1.0, 15.0, rng, record_path=False)
        forward_mass[rep] = path[-1][1].atom_mass()
    from lambdacoal import sample_window

    window_mass = np.empty(reps)
    for rep in range(reps):
        rng = rng_factory(6, "wstat", rep)
        w = sample_window(POLY, 1.0, 30.0, rng=rng)
        window_mass[rep] = float(np.sum(np.exp(-w.left_g) - np.exp(-w.right_g)))
    stat = ks_2samp(forward_mass, window_mass)
    assert stat.pvalue >= 1e-3


@pytest.mark.parametrize(
    "measure, mu, horizon, message",
    [
        # no atoms: nothing else would look at mu
        (AtomicMeasure((), ()), math.nan, 1.0, "mu must be nonnegative"),
        (POLY, math.nan, 1.0, "mu must be nonnegative"),
        (POLY, 1.0, math.nan, "horizon must be positive and finite"),
        (POLY, 1.0, math.inf, "horizon must be positive and finite"),
        (POLY, 1.0, 0.0, "horizon must be positive and finite"),
    ],
    ids=["mu-nan-no-atoms", "mu-nan", "horizon-nan", "horizon-inf", "horizon-zero"],
)
def test_forward_refuses_nonfinite_arguments(rng_factory, measure, mu, horizon, message):
    rng = rng_factory(6, "nonfinite")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        forward_simulate(measure, mu, horizon, rng)
    assert rng.bit_generator.state == state


def test_forward_draws_its_jumps_in_slices(monkeypatch, rng_factory):
    # at 8 points a block, poly3x2 (|nu| = 3) over 42 time units takes 16
    # one-row kernel calls of 7.875 expected jumps each
    from lambdacoal import population

    calls = []
    draw = population._draw_points

    def spy(measure, eps, lam, T, rngs):
        points, counts = draw(measure, eps, lam, T, rngs)
        calls.append((lam, T, counts[0]))
        return points, counts

    monkeypatch.setattr(population, "_BLOCK_POINTS", 8)
    monkeypatch.setattr(population, "_draw_points", spy)
    horizon = 42.0
    path = forward_simulate(POLY, 1.0, horizon, rng_factory(6, "slices"))
    assert len(calls) == 16
    assert all(lam <= 8 for lam, _, _ in calls)
    # slice k holds the next counts[k] jumps, all inside [start, start + T)
    times = [t for t, _ in path[1:-1]]
    start = 0.0
    for _, width, count in calls:
        inside, times = times[:count], times[count:]
        assert all(start <= t < start + width for t in inside)
        start += width
    assert not times
    assert start == pytest.approx(horizon, rel=1e-12)
    jumps = sum(count for _, _, count in calls)
    assert abs(jumps - 3.0 * horizon) < 4.0 * math.sqrt(3.0 * horizon)
    final = forward_simulate(POLY, 1.0, horizon, rng_factory(6, "slices"), record_path=False)
    assert final == [path[0], path[-1]]
