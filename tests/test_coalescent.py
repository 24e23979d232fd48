"""The block-chain kernel on labelled blocks and the frozen-family jump
chain."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from lambdacoal import (
    AtomicMeasure,
    PartitionVector,
    StuckChainError,
    build_rate_table,
    parse_measure,
    simulate_frozen_coalescent,
    solve,
)
from lambdacoal.coalescent import _block_chain, _frozen_table
from lambdacoal.validation import _DRAW_BLOCK, _SAMPLERS, outcome_texts, prepare_shared

DELTA0 = parse_measure("delta:0")
DELTA1 = parse_measure("delta:1")
LEBESGUE = parse_measure("beta:1,1,1")
POLY = parse_measure("poly3x2")


def _labelled_chain(measure, mu, n, until, reps, rng):
    """(frozen, blocks) of `reps` rows of the block chain run on the label
    bitmasks 1 << i, i < n, in one block.  Each row starts in its own
    shuffled order: the kernel's first k live slots are a uniform k-subset
    only if the starting order is exchangeable."""
    table = _frozen_table(build_rate_table(measure, n), mu, n)
    labels = rng.permuted(np.tile(1 << np.arange(n), (reps, 1)), axis=1)
    return _block_chain(table, labels, rng.random((reps, n, 2)), until)


def _partitions_labels(masks, n):
    """Whether each row of label bitmasks holds every label once."""
    return (np.bitwise_count(masks).sum(1) == n) & (
        np.bitwise_or.reduce(masks, axis=1) == (1 << n) - 1
    )


def test_path_starts_singletons_ends_single_block(rng_factory):
    frozen, blocks = _labelled_chain(LEBESGUE, 0.0, 6, 1, 200, rng_factory(4, "path", 0))
    assert not frozen.any()
    assert (blocks[:, -1] == 0b111111).all()


def test_path_kingman_always_pairwise(rng_factory):
    # a chain stopped at <= j live blocks holds exactly j, in its last j
    # slots, only if no event merged more than two blocks
    for j in range(1, 5):
        frozen, blocks = _labelled_chain(DELTA0, 0.0, 5, j, 30, rng_factory(4, "king", j))
        assert not frozen.any()
        assert _partitions_labels(blocks[:, 5 - j :], 5).all()


def test_path_star_single_jump(rng_factory):
    # only the all-block merge has positive rate: the first event takes
    # all 5 blocks
    frozen, blocks = _labelled_chain(DELTA1, 0.0, 5, 4, 2000, rng_factory(4, "star", 0))
    assert not frozen.any()
    assert (blocks[:, -1] == 0b11111).all()


def test_path_lebesgue_triple_merge_probability(rng_factory):
    # P(first event merges all 3) = rate(3,3) / total(3) = (1/2) / 2 = 1/4
    rates = build_rate_table(LEBESGUE, 3)
    assert rates.total(3) == pytest.approx(2.0, abs=1e-12)
    reps = 20000
    _, blocks = _labelled_chain(LEBESGUE, 0.0, 3, 2, reps, rng_factory(4, "leb3", 0))
    p_hat = np.mean(blocks[:, -1] == 0b111)
    assert abs(p_hat - 0.25) < 3.0 * np.sqrt(0.25 * 0.75 / reps)


def test_path_kingman_first_merge_is_a_uniform_pair(rng_factory):
    # under Kingman each of the C(4, 2) = 6 label pairs merges first with
    # probability 1/6
    reps = 6000
    _, blocks = _labelled_chain(DELTA0, 0.0, 4, 3, reps, rng_factory(4, "pair", 0))
    live = blocks[:, 1:]
    pairs = live[np.bitwise_count(live) == 2]
    assert len(pairs) == reps
    counts = Counter(pairs.tolist())
    assert sorted(counts) == sorted((1 << i) | (1 << j) for i, j in combinations(range(4), 2))
    assert chisquare(list(counts.values())).pvalue >= 1e-3


def test_path_kingman_second_merge_keeps_the_order_exchangeable(rng_factory):
    # after two Kingman events on 4 labels each 2+2 partition has
    # probability (2/6)(1/3) = 1/9 and each 3+1 partition (3/6)(1/3) = 1/6,
    # which holds only if the merged block's slot swap keeps the live
    # order exchangeable
    reps = 9000
    _, blocks = _labelled_chain(DELTA0, 0.0, 4, 2, reps, rng_factory(4, "pair2", 0))
    live = blocks[:, 2:]
    assert _partitions_labels(live, 4).all()
    counts = Counter(map(frozenset, live.tolist()))
    expected = {}
    for i, j in combinations(range(4), 2):
        pair = (1 << i) | (1 << j)
        expected[frozenset((pair, 0b1111 ^ pair))] = 1 / 9
    for i in range(4):
        expected[frozenset((1 << i, 0b1111 ^ (1 << i)))] = 1 / 6
    assert set(counts) == set(expected)
    keys = sorted(expected, key=sorted)
    observed = [counts[key] for key in keys]
    assert chisquare(observed, [reps * expected[key] for key in keys]).pvalue >= 1e-3


def test_frozen_path_partition_invariant(rng_factory):
    # with mu > 0 every row ends with all its blocks frozen, and the
    # frozen blocks partition the labels
    frozen, _ = _labelled_chain(POLY, 1.0, 6, 0, 50, rng_factory(4, "fpath", 0))
    assert _partitions_labels(frozen, 6).all()


def test_frozen_last_event_is_mutation(rng_factory):
    # a lone surviving block can only freeze: on the same streams, the run
    # to no live blocks is the run to one live block plus one more step,
    # which freezes that block
    frozen1, blocks1 = _labelled_chain(POLY, 1.5, 5, 1, 50, rng_factory(4, "fev", 0))
    frozen0, _ = _labelled_chain(POLY, 1.5, 5, 0, 50, rng_factory(4, "fev", 0))
    steps = np.arange(5)
    last = np.where(frozen0 != 0, steps, -1).max(1)
    assert (last > np.where(frozen1 != 0, steps, -1).max(1)).all()
    at = np.arange(50)
    assert (frozen0[at, last] == blocks1[:, -1]).all()
    frozen0[at, last] = 0
    assert (frozen0 == frozen1).all()


def test_frozen_zero_rate_raises(rng_factory):
    rates = build_rate_table(AtomicMeasure((), ()), 3)
    with pytest.raises(StuckChainError):
        simulate_frozen_coalescent(rates, 0.0, 3, rng_factory(4, "stuck", 0))


def test_family_partition_from_set_blocks():
    # families {{1,2,3,5,6},{4},{7}} give the vector 1^2 5^1
    blocks = [(1, 2, 3, 5, 6), (4,), (7,)]
    pv = PartitionVector.from_sizes(len(b) for b in blocks)
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
    # (rate(2,2) = 1); the replicates run a draw block at a time through
    # the lockstep block chain, which gives what one-replicate calls give
    # on the same streams
    table = prepare_shared("frozen", POLY, 0.5, 2)
    reps = 10**5
    hits = 0
    for lo in range(0, reps, _DRAW_BLOCK):
        rngs = [rng_factory(4, "n2", rep) for rep in range(lo, min(lo + _DRAW_BLOCK, reps))]
        draw = _SAMPLERS["frozen"].draw(POLY, 0.5, 2, table, rngs)
        hits += outcome_texts("frozen", draw).count("2^1")
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
