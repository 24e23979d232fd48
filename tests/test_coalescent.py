"""Coalescent path simulation and the frozen-family jump chain."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from lambdacoal import (
    PartitionVector,
    SetPartition,
    StuckChainError,
    build_rate_table,
    parse_measure,
    simulate_coalescent_path,
    simulate_frozen_coalescent,
    simulate_frozen_path,
    solve,
)

DELTA0 = parse_measure("delta:0")
DELTA1 = parse_measure("delta:1")
LEBESGUE = parse_measure("beta:1,1,1")
POLY = parse_measure("poly3x2")


def test_path_starts_singletons_ends_single_block(rng_factory):
    rates = build_rate_table(LEBESGUE, 6)
    path = simulate_coalescent_path(rates, 6, rng_factory(4, "path", 0))
    t0, p0 = path[0]
    assert t0 == 0.0
    assert p0.blocks == tuple((i,) for i in range(1, 7))
    t_last, p_last = path[-1]
    assert len(p_last.blocks) == 1
    times = [t for t, _ in path]
    assert times == sorted(times)


def test_path_kingman_always_pairwise(rng_factory):
    rates = build_rate_table(DELTA0, 5)
    for rep in range(30):
        path = simulate_coalescent_path(rates, 5, rng_factory(4, "king", rep))
        counts = [len(p.blocks) for _, p in path]
        assert counts == [5, 4, 3, 2, 1]


def test_path_star_single_jump(rng_factory):
    # only the all-block merge has positive rate
    rates = build_rate_table(DELTA1, 5)
    times = []
    for rep in range(2000):
        path = simulate_coalescent_path(rates, 5, rng_factory(4, "star", rep))
        assert len(path) == 2
        times.append(path[1][0])
    # holding time is Exp(1)
    assert abs(np.mean(times) - 1.0) < 3.0 / np.sqrt(2000)


def test_path_lebesgue_triple_merge_probability(rng_factory):
    # P(first event merges all 3) = rate(3,3) / total(3) = (1/2) / 2 = 1/4
    rates = build_rate_table(LEBESGUE, 3)
    assert rates.total(3) == pytest.approx(2.0, abs=1e-12)
    hits = 0
    reps = 20000
    for rep in range(reps):
        path = simulate_coalescent_path(rates, 3, rng_factory(4, "leb3", rep))
        hits += len(path[1][1].blocks) == 1
    p_hat = hits / reps
    assert abs(p_hat - 0.25) < 3.0 * np.sqrt(0.25 * 0.75 / reps)


def test_path_kingman_first_merge_is_a_uniform_pair(rng_factory):
    # under Kingman each of the C(4, 2) = 6 label pairs merges first with
    # probability 1/6
    rates = build_rate_table(DELTA0, 4)
    reps = 6000
    counts = Counter()
    for rep in range(reps):
        path = simulate_coalescent_path(rates, 4, rng_factory(4, "pair", rep))
        (pair,) = [b for b in path[1][1].blocks if len(b) == 2]
        counts[pair] += 1
    assert sorted(counts) == list(combinations(range(1, 5), 2))
    assert chisquare([counts[p] for p in sorted(counts)]).pvalue >= 1e-3


def test_path_zero_rate_raises(rng_factory):
    import lambdacoal as lc

    rates = build_rate_table(lc.AtomicMeasure((), ()), 3)
    with pytest.raises(StuckChainError):
        simulate_coalescent_path(rates, 3, rng_factory(4, "stuck", 0))


def test_frozen_path_partition_invariant(rng_factory):
    rates = build_rate_table(POLY, 6)
    for rep in range(50):
        path = simulate_frozen_path(rates, 1.0, 6, rng_factory(4, "fpath", rep))
        times = [state.time for state in path]
        assert times == sorted(times)
        for state in path:
            labels = sorted(
                i for block in state.active + state.frozen for i in block
            )
            assert labels == list(range(1, 7))
        final = path[-1]
        assert final.active == ()
        assert len(final.frozen) >= 1


def test_frozen_last_event_is_mutation(rng_factory):
    # a lone surviving block can only freeze
    rates = build_rate_table(POLY, 5)
    for rep in range(50):
        path = simulate_frozen_path(rates, 1.5, 5, rng_factory(4, "fev", rep))
        before, last = path[-2], path[-1]
        assert len(before.active) == 1
        assert last.frozen == before.frozen + before.active


def test_set_partition_canonical_form():
    p = SetPartition.from_blocks([[3, 1], [2], [5, 4]])
    assert p.blocks == ((1, 3), (2,), (4, 5))
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[1], [3]])  # gap


def test_family_partition_from_set_blocks():
    # families {{1,2,3,5,6},{4},{7}} give the vector 1^2 5^1
    blocks = SetPartition.from_blocks([[1, 2, 3, 5, 6], [4], [7]])
    pv = PartitionVector.from_sizes(len(b) for b in blocks.blocks)
    assert pv.to_text() == "1^2 5^1"


def test_frozen_large_mu_all_singletons(rng_factory):
    rates = build_rate_table(POLY, 5)
    singles = 0
    for rep in range(300):
        pv = simulate_frozen_coalescent(rates, 1e6, 5, rng_factory(4, "bigmu", rep))
        singles += pv.counts == (5,)
    assert singles >= 295


def test_frozen_n2_marginal(rng_factory):
    # P(single family of 2) = rate(2,2) / (2 mu + rate(2,2)) = 1/2 at mu=1/2
    rates = build_rate_table(POLY, 2)  # rate(2,2) = 1
    reps = 10**5
    hits = 0
    for rep in range(reps):
        pv = simulate_frozen_coalescent(rates, 0.5, 2, rng_factory(4, "n2", rep))
        hits += pv.counts == (0, 1)
    p_hat = hits / reps
    assert abs(p_hat - 0.5) < 3.0 * np.sqrt(0.25 / reps)


@pytest.mark.parametrize("n", [1, 5])
def test_frozen_mu_zero_matches_solve(rng_factory, n):
    # nothing freezes: the chain merges down to one block, the one family
    rates = build_rate_table(POLY, n)
    dist = solve(rates, 0.0, n)
    support = {counts: p for counts, p in dist.entries.items() if p > 0.0}
    assert support == {PartitionVector.from_sizes([n]).counts: 1.0}
    for rep in range(50):
        pv = simulate_frozen_coalescent(rates, 0.0, n, rng_factory(4, "mu0", rep))
        assert dist.prob(pv) == 1.0


def test_frozen_deterministic_given_stream(rng_factory):
    rates = build_rate_table(POLY, 5)
    a = simulate_frozen_coalescent(rates, 1.0, 5, rng_factory(4, "det", 7))
    b = simulate_frozen_coalescent(rates, 1.0, 5, rng_factory(4, "det", 7))
    assert a == b
