"""Exact recursion, partition-vector plumbing, and the closed-form pair
merger law.

Independent oracles: exact rational Ewens (conftest.ewens_exact), the
brute-force jump-chain enumeration (conftest.enumerate_family_distribution),
the last-event recursion written one partition at a time
(conftest.last_event_recursion), and a Fraction-arithmetic solve
cross-checking the float path.
"""

import math
from fractions import Fraction

import pytest

import lambdacoal as lc
from lambdacoal import (
    DEFAULT_PARTITION_CAP,
    MeasureSpecError,
    PartitionCapError,
    PartitionVector,
    StuckChainError,
    build_rate_table,
    enumerate_partition_vectors,
    ewens,
    parse_measure,
    solve,
    solve_exact,
)

from conftest import enumerate_family_distribution, ewens_exact, last_event_recursion

DELTA0 = parse_measure("delta:0")
DELTA1 = parse_measure("delta:1")
LEBESGUE = parse_measure("beta:1,1,1")
POLY = parse_measure("poly3x2")
HALF_ATOM = parse_measure("atoms:0.5=0.25")
BETA221 = parse_measure("beta:2,2,1")


# ---------------------------------------------------------------------------
# partition vectors
# ---------------------------------------------------------------------------


def test_partition_vector_basics():
    pv = PartitionVector((2, 0, 0, 0, 1))
    assert pv.n == 7
    assert pv.num_families == 3
    assert pv.to_text() == "1^2 5^1"
    assert PartitionVector.from_text("1^2 5^1") == pv
    assert PartitionVector.from_sizes([5, 1, 1]) == pv
    assert tuple(sorted(pv.sizes())) == (1, 1, 5)


def test_partition_vector_rejects_negative():
    with pytest.raises(ValueError):
        PartitionVector((1, -1))


def test_enumerate_n1():
    assert [pv.counts for pv in enumerate_partition_vectors(1)] == [(1,)]


def test_enumerate_n3():
    got = {pv.counts for pv in enumerate_partition_vectors(3)}
    assert got == {(0, 0, 1), (1, 1), (3,)}


def test_enumerate_n8_partition_count():
    # p(8) = 22
    assert len(enumerate_partition_vectors(8)) == 22


def test_enumerate_deterministic_order():
    a = [pv.counts for pv in enumerate_partition_vectors(6)]
    b = [pv.counts for pv in enumerate_partition_vectors(6)]
    assert a == b
    # single family first, all singletons last
    assert a[0] == (0, 0, 0, 0, 0, 1)
    assert a[-1] == (6,)


@pytest.mark.parametrize("n", [1, 5, 12, 16])
def test_enumerate_matches_recursive_order(n):
    # ewens_exact recurses over parts largest-first, so its keys come out in
    # reverse lexicographic order of the descending part lists
    got = [pv.counts for pv in enumerate_partition_vectors(n)]
    assert got == list(ewens_exact(Fraction(1), n))


def test_enumerate_cap():
    # every enumeration of the partitions of n, the recursions included,
    # applies the one cap
    assert len(enumerate_partition_vectors(40)) == 37338
    with pytest.raises(PartitionCapError):
        enumerate_partition_vectors(41)
    with pytest.raises(PartitionCapError):
        solve(build_rate_table(POLY, 41), 1.0, 41)
    with pytest.raises(PartitionCapError):
        solve_exact([(0.5, 0.25)], 1, 41)


# ---------------------------------------------------------------------------
# solve: hand-unrolled and degenerate cases
# ---------------------------------------------------------------------------


def test_solve_n2_hand_unrolled():
    # q((2,0)) = 2mu/(2mu + rate(2,2)), q((0,1)) = rate(2,2)/(2mu + rate(2,2))
    for measure, rate22 in [(DELTA0, 1.0), (HALF_ATOM, 0.25), (POLY, 1.0)]:
        for mu in [0.25, 1.0, 3.0]:
            dist = solve(build_rate_table(measure, 2), mu, 2)
            denom = 2.0 * mu + rate22
            assert dist.prob(PartitionVector((2,))) == pytest.approx(
                2.0 * mu / denom, abs=1e-14
            )
            assert dist.prob(PartitionVector((0, 1))) == pytest.approx(
                rate22 / denom, abs=1e-14
            )


def test_solve_kingman_theta1():
    # mu = 1/2 is theta = 1: probabilities (1/6, 1/2, 1/3)
    dist = solve(build_rate_table(DELTA0, 3), 0.5, 3)
    assert dist.prob(PartitionVector((3,))) == pytest.approx(1 / 6, abs=1e-12)
    assert dist.prob(PartitionVector((1, 1))) == pytest.approx(1 / 2, abs=1e-12)
    assert dist.prob(PartitionVector((0, 0, 1))) == pytest.approx(1 / 3, abs=1e-12)


def test_solve_mu_zero_single_family():
    for measure in [DELTA0, DELTA1, POLY]:
        dist = solve(build_rate_table(measure, 4), 0.0, 4)
        assert dist.prob(PartitionVector((0, 0, 0, 1))) == pytest.approx(
            1.0, abs=1e-12
        )
        for pv, p in dist.items_ordered():
            if pv.counts != (0, 0, 0, 1):
                assert p == 0.0


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_solve_rejects_non_finite_mu(mu):
    with pytest.raises(ValueError, match="finite"):
        solve(build_rate_table(POLY, 4), mu, 4)


def test_solve_n1():
    dist = solve(build_rate_table(DELTA0, 2), 0.7, 1)
    assert dist.prob(PartitionVector((1,))) == 1.0


def test_solve_stuck_chain():
    # mu = 0 with a zero-rate level cannot progress
    zero = lc.AtomicMeasure((), ())
    with pytest.raises(StuckChainError):
        solve(build_rate_table(zero, 3), 0.0, 3)


# ---------------------------------------------------------------------------
# ewens closed form
# ---------------------------------------------------------------------------


def test_ewens_theta1_n3():
    dist = ewens(1.0, 3)
    assert dist.prob(PartitionVector((3,))) == pytest.approx(1 / 6, rel=1e-12)
    assert dist.prob(PartitionVector((1, 1))) == pytest.approx(1 / 2, rel=1e-12)
    assert dist.prob(PartitionVector((0, 0, 1))) == pytest.approx(1 / 3, rel=1e-12)


def test_ewens_n1():
    assert ewens(3.7, 1).prob(PartitionVector((1,))) == pytest.approx(1.0)


def test_ewens_theta2_n2():
    dist = ewens(2.0, 2)
    assert dist.prob(PartitionVector((2,))) == pytest.approx(2 / 3, rel=1e-12)
    assert dist.prob(PartitionVector((0, 1))) == pytest.approx(1 / 3, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2), Fraction(7, 3)])
def test_ewens_matches_rational_oracle(theta, n):
    dist = ewens(float(theta), n)
    oracle = ewens_exact(theta, n)
    for key, frac in oracle.items():
        assert dist.prob(PartitionVector(key)) == pytest.approx(
            float(frac), rel=1e-12
        )


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 5, 10])
def test_ewens_equivalence(mu, n):
    dist = solve(build_rate_table(DELTA0, max(n, 2)), mu, n)
    ref = ewens(2.0 * mu, n)
    for pv, p in dist.items_ordered():
        assert abs(p - ref.prob(pv)) <= 1e-10


# ---------------------------------------------------------------------------
# solve vs independent enumeration oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,mu,n",
    [
        ("delta:1", 1.0, 5),
        ("delta:1", 0.5, 6),
        ("atoms:0.5=0.25", 1.0, 5),
        ("poly3x2", 0.7, 5),
        ("beta:1,1,1", 1.0, 4),
    ],
)
def test_solve_matches_event_tree_oracle(spec, mu, n):
    measure = parse_measure(spec)
    dist = solve(build_rate_table(measure, n), mu, n)
    oracle = enumerate_family_distribution(measure, mu, n)
    for sizes, p in oracle.items():
        counts = [0] * n
        for s in sizes:
            counts[s - 1] += 1
        assert dist.prob(PartitionVector(tuple(counts))) == pytest.approx(
            p, abs=1e-12
        )


@pytest.mark.parametrize("spec", ["poly3x2", "beta:2,2,1", "atoms:0.5=0.25"])
@pytest.mark.parametrize("mu", [0.0, 1.25])
def test_solve_matches_loop_recursion(spec, mu):
    rates = build_rate_table(parse_measure(spec), 14)
    dist = solve(rates, mu, 14)
    ref = last_event_recursion(rates.rate, mu, 14)
    assert list(dist.entries) == list(ref)
    # float64 sums of at most a few hundred positive terms per partition
    assert max(abs(dist.entries[k] - p) for k, p in ref.items()) <= 1e-14


TWO_ATOMS = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(9, 10), Fraction(1, 2))]


@pytest.mark.parametrize(
    "atoms, mu",
    [
        (TWO_ATOMS, Fraction(3, 4)),
        (TWO_ATOMS, Fraction(0)),
        # 0**0 = 1: an atom at 0 merges only pairs, an atom at 1 all lineages
        ([(0, Fraction(1, 3)), (1, Fraction(2, 5))], Fraction(3, 4)),
        # coprime denominators: nothing cancels between the levels' terms
        (
            [(Fraction(1, 3), Fraction(2, 7)), (Fraction(4, 5), Fraction(5, 11)),
             (Fraction(6, 13), Fraction(1, 17))],
            Fraction(7, 19),
        ),
    ],
    ids=["two-atoms", "mu0", "ends", "coprime"],
)
def test_solve_exact_matches_loop_recursion(atoms, mu):
    def rate(b, k):
        return sum(w * x ** (k - 2) * (1 - x) ** (b - k) for x, w in atoms)

    assert solve_exact(atoms, mu, 10) == last_event_recursion(rate, mu, 10)


def test_solve_exact_rational_matches_float():
    dist = solve(build_rate_table(HALF_ATOM, 5), 1.0, 5)
    exact = solve_exact(
        [(Fraction(1, 2), Fraction(1, 4))], Fraction(1), 5
    )
    total = Fraction(0)
    for pv, frac in exact.items():
        assert dist.prob(PartitionVector(pv)) == pytest.approx(
            float(frac), abs=1e-13
        )
        total += frac
    assert total == 1  # exactly, in rational arithmetic


@pytest.mark.parametrize(
    "spec", ["atoms:0.5=0.25", "atoms:0.25=0.5,0.75=0.125", "delta:0"]
)
@pytest.mark.parametrize("mu", [0.5, 1.25])
def test_solve_matches_solve_exact_n20(spec, mu):
    # dyadic locations, weights and mu: Fraction(float) is the float exactly
    measure = parse_measure(spec)
    dist = solve(build_rate_table(measure, 20), mu, 20)
    exact = solve_exact(zip(measure.locations, measure.weights), mu, 20)
    assert list(dist.entries) == list(exact)
    assert sum(exact.values()) == 1
    assert max(abs(dist.entries[k] / p - 1) for k, p in exact.items()) <= 1e-13


@pytest.mark.parametrize("mu", [Fraction(1, 4), Fraction(1), Fraction(3, 2)])
def test_solve_exact_is_rational_ewens(mu):
    # no tolerance: the integer levels must give the rational law exactly
    for n in range(1, 10):
        assert solve_exact([(0, 1)], mu, n) == ewens_exact(2 * mu, n)


def test_solve_at_partition_cap():
    n = DEFAULT_PARTITION_CAP
    dist = solve(build_rate_table(DELTA0, n), 0.75, n)
    ref = ewens(1.5, n)
    assert len(dist.entries) == len(ref.entries)
    assert max(abs(p - ref.prob(pv)) for pv, p in dist.items_ordered()) <= 1e-12
    assert solve(build_rate_table(POLY, n), 1.0, n).total() == pytest.approx(
        1.0, abs=1e-10
    )


@pytest.mark.parametrize(
    "mu, n, message",
    [
        (1, 0, "n must be at least 1"),
        (1, -1, "n must be at least 1"),
        (-1, 3, "mu must be nonnegative"),
        (math.inf, 3, "mu must be finite"),
        (math.nan, 3, "mu must be finite"),
    ],
)
def test_solve_exact_rejects_bad_arguments(mu, n, message):
    with pytest.raises(ValueError, match=message):
        solve_exact([(0, 1)], mu, n)


@pytest.mark.parametrize(
    "atom, message",
    [
        ((2, 1), "outside"),
        ((1 + Fraction(1, 10**30), 1), "outside"),
        ((Fraction(1, 2), -1), "positive"),
        ((Fraction(1, 2), 0), "positive"),
        ((Fraction(1, 2), Fraction(-1, 10**400)), "positive"),
        ((math.inf, 1), "finite"),
        ((Fraction(1, 2), math.nan), "finite"),
    ],
    ids=["x=2", "x=1+1e-30", "w=-1", "w=0", "w=-1e-400", "x=inf", "w=nan"],
)
def test_solve_exact_refuses_atoms_outside_the_measure_rules(atom, message):
    # an atom at 2 would make P(1^1 3^1) = -8/9 at n = 4
    with pytest.raises(MeasureSpecError, match=message):
        solve_exact([(Fraction(1, 2), 1), atom], 1, 4)


def test_solve_exact_empty_measure_without_mutation_is_stuck():
    with pytest.raises(StuckChainError):
        solve_exact([], 0, 3)


@pytest.mark.parametrize(
    "spec",
    ["delta:0", "delta:1", "beta:1,1,1", "poly3x2", "atoms:0.5=0.25", "beta:2,2,1"],
)
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 5.0])
def test_normalization(spec, mu):
    measure = parse_measure(spec)
    rates = build_rate_table(measure, 12)
    for n in [3, 8, 12]:
        dist = solve(rates, mu, n)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)


def test_distribution_text_round_trip():
    dist = solve(build_rate_table(POLY, 4), 1.0, 4)
    for pv, _ in dist.items_ordered():
        assert PartitionVector.from_text(pv.to_text()) == pv
