"""Exact family-size distributions by recursion on the last event.

A sample of n individuals, grouped into mutation families, is summarized
by the partition vector a where a[j] counts families of size j.  Looking
one event back in time from the observed sample: either the most recent
event was a mutation that froze a singleton family (weight mu * n), or it
was a merger of k of the then n-k+1 lineages (weight C(n,k) * rate(n,k)
for each k), which turns some family of size j in the smaller sample into
a family of size j+k-1.  Normalizing by the total event weight

    mu * n + sum_k C(n, k) * rate(n, k)

gives a linear recursion over sample sizes 1..n.  The binomially weighted
total is forced by normalization: the probabilities of "last event was a
mutation" and "last event merged some k-subset" must sum to one.

The recursion runs on ranked levels.  The partitions of each m are ranked
once, in reverse lexicographic order of their descending part lists, and
kept as an int8 count matrix (row i holds the multiplicities of partition
i), so the law of an m-sample is a vector indexed by rank.  Every pair
(partition b of s, part size j present in b) carries the integer weight
j * b_j; a merger of k lineages moves it to b - e_j + e_(j+k-1) in level
m = s+k-1 with coefficient C(m,k) * rate(m,k) / s.  The transition arrays
of level m are int32 ranks built with numpy and cached per m, since they
depend on m alone: the mutation targets (partition i of m-1 plus a
singleton) and the merger targets of the pairs of every level s < m.
Solving level m is a gather of the finished level's weighted pairs, one
scatter-add of all merger terms and one indexed add of the mutation term.
solve does this on float64 arrays.  solve_exact does the same steps in
exact integer arithmetic: level m is one object array of Python int
numerators over one int denominator, its weights C(m,k) * rate(m,k) / s
and mu * m are brought to one common denominator with math.lcm, and after
the division by the level total one math.gcd reduces the level.  The
rates themselves are integer numerators too: an atom a/b of weight p/q
adds p a**(k-2) (b-a)**(m-k) over q b**(m-2), brought to one denominator
per level.  Fractions are built only for the O(n^2) weights and for the
outputs.

For the pure pair-merger measure (unit atom at 0) the recursion collapses
to the classical Ewens sampling formula with theta = 2 * mu, which is
implemented in closed form as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MeasureSpecError, PartitionCapError, StuckChainError
from .measures import RateTable, _check_mu

__all__ = [
    "PartitionVector",
    "SamplingDistribution",
    "enumerate_partition_vectors",
    "solve",
    "solve_exact",
    "ewens",
    "DEFAULT_PARTITION_CAP",
]

DEFAULT_PARTITION_CAP = 40


@dataclass(frozen=True)
class PartitionVector:
    """Family-size multiplicities: counts[j-1] families of size j.

    Trailing zeros are trimmed on construction; the empty vector is not
    valid.  Text form: "1^a1 2^a2 ..." listing only nonzero entries,
    e.g. "1^2 5^1" for two singletons and one family of five.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        trimmed = _trim(self.counts)
        if not trimmed:
            raise ValueError("counts must contain a positive entry")
        if trimmed != self.counts:
            object.__setattr__(self, "counts", trimmed)

    @property
    def n(self) -> int:
        return sum((j + 1) * c for j, c in enumerate(self.counts))

    @property
    def num_families(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_sizes(cls, sizes) -> "PartitionVector":
        sizes = list(sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("need positive family sizes")
        counts = [0] * max(sizes)
        for s in sizes:
            counts[s - 1] += 1
        return cls(tuple(counts))

    @classmethod
    def from_text(cls, text: str) -> "PartitionVector":
        entries = {}
        for item in text.split():
            size_s, _, count_s = item.partition("^")
            size, count = int(size_s), int(count_s)
            if size < 1 or count < 1 or size in entries:
                raise ValueError(f"bad partition text {text!r}")
            entries[size] = count
        if not entries:
            raise ValueError("empty partition text")
        counts = [0] * max(entries)
        for size, count in entries.items():
            counts[size - 1] = count
        return cls(tuple(counts))

    def to_text(self) -> str:
        return " ".join(
            f"{j + 1}^{c}" for j, c in enumerate(self.counts) if c > 0
        )

    def sizes(self) -> list[int]:
        out = []
        for j, c in enumerate(self.counts):
            out.extend([j + 1] * c)
        return out


def _trim(counts) -> tuple[int, ...]:
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# Counts and part sizes never exceed m, and p(m) outgrows memory long
# before m reaches 127, so one byte holds them.
_SMALL = np.int8


@dataclass(frozen=True)
class _Level:
    """The partitions of one sample size m, ranked once.

    Row i of counts holds the multiplicities of partition i (column j-1
    counts families of size j); rows run in reverse lexicographic order of
    the descending part lists, so largest is nonincreasing.  The pair
    arrays list every (partition, distinct part size j) with the integer
    weight j * counts[j-1], in row-major order.
    """

    counts: np.ndarray  # (p(m), m) int8
    largest: np.ndarray  # (p(m),) int8
    pair_src: np.ndarray  # int32 row of each pair
    pair_part: np.ndarray  # int8 part size j of each pair
    pair_weight: np.ndarray  # int8 j * counts[row, j-1]


@lru_cache(maxsize=None)
def _level(m: int) -> _Level:
    if m == 0:
        counts = np.zeros((1, 0), _SMALL)
        largest = np.zeros(1, _SMALL)
    else:
        # partitions with largest part `first`, for first = m..1: `first`
        # prepended to the partitions of m - first with parts <= first,
        # which form a suffix of that level
        blocks = []
        for first in range(m, 0, -1):
            rest = _level(m - first)
            start = np.searchsorted(-rest.largest, -first)
            block = np.zeros((len(rest.largest) - start, m), _SMALL)
            block[:, : m - first] = rest.counts[start:]
            block[:, first - 1] += 1
            blocks.append(block)
        counts = np.concatenate(blocks)
        largest = np.repeat(
            np.arange(m, 0, -1, dtype=_SMALL), [len(b) for b in blocks]
        )
    rows, cols = np.nonzero(counts)
    return _Level(
        counts=counts,
        largest=largest,
        pair_src=rows.astype(np.int32),
        pair_part=(cols + 1).astype(_SMALL),
        pair_weight=((cols + 1) * counts[rows, cols]).astype(_SMALL),
    )


@lru_cache(maxsize=None)
def _keys(m: int) -> tuple[tuple[int, ...], ...]:
    """Trimmed counts tuples of the partitions of m, in rank order."""
    level = _level(m)
    return tuple(
        tuple(row[:top])
        for row, top in zip(level.counts.tolist(), level.largest.tolist())
    )


def _row_keys(counts: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row of an int8 count matrix."""
    counts = np.ascontiguousarray(counts)
    return counts.view(np.dtype((np.void, counts.shape[1]))).ravel()


@lru_cache(maxsize=None)
def _transitions(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank maps into level m >= 2, as int32 arrays.

    mutation[i] is the rank of partition i of m-1 plus a singleton.  merger
    concatenates, for s = 1..m-1 (k = m-s+1 lineages merging), the rank of
    b - e_j + e_(j+k-1) for every pair (b, j) of level s, in pair order.
    """
    keys = _row_keys(_level(m).counts)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def rank(rows):
        pos = np.searchsorted(sorted_keys, _row_keys(rows))
        return order[pos].astype(np.int32)

    prev = _level(m - 1)
    rows = np.zeros((len(prev.largest), m), _SMALL)
    rows[:, : m - 1] = prev.counts
    rows[:, 0] += 1
    mutation = rank(rows)
    merger = []
    for s in range(1, m):
        src = _level(s)
        k = m - s + 1
        rows = np.zeros((len(src.pair_src), m), _SMALL)
        rows[:, :s] = src.counts[src.pair_src]
        at = np.arange(len(rows))
        rows[at, src.pair_part - 1] -= 1
        rows[at, src.pair_part + (k - 2)] += 1
        merger.append(rank(rows))
    return mutation, np.concatenate(merger)


def _check_n(n: int) -> None:
    """The sample sizes every enumeration of the partitions of n takes:
    1 <= n <= DEFAULT_PARTITION_CAP."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEFAULT_PARTITION_CAP:
        raise PartitionCapError(
            f"partition cap exceeded: n={n} > cap={DEFAULT_PARTITION_CAP}"
        )


def enumerate_partition_vectors(n: int) -> list[PartitionVector]:
    """All partition vectors of n, in reverse lexicographic order of the
    descending part lists (single block first, all singletons last)."""
    _check_n(n)
    return [PartitionVector(key) for key in _keys(n)]


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Exact distribution over partition vectors of a fixed sample size."""

    n: int
    mu: float
    descriptor: str
    entries: dict  # trimmed counts tuple -> probability

    def prob(self, pv) -> float:
        key = pv.counts if isinstance(pv, PartitionVector) else _trim(pv)
        return self.entries.get(key, 0.0)

    def items_ordered(self):
        """(PartitionVector, prob) pairs in enumeration order, which is the
        order solve and ewens fill entries in."""
        for counts, p in self.entries.items():
            yield PartitionVector(counts), p

    def total(self):
        return math.fsum(self.entries.values())


def _solve_levels(rates, totals, mu: float, n: int) -> np.ndarray:
    """Probabilities of the partitions of n, in rank order.

    rates[b, k] and totals[b] are float64 arrays and mu a float.
    solve_exact takes the same steps on integer levels (one int denominator
    per level, see the module docstring).
    """
    q = np.ones(1)  # level 1: one singleton
    npairs = [len(_level(s).pair_src) for s in range(n)]
    # q[pair_src] * pair_weight of every finished level, end to end
    gathered = np.zeros(sum(npairs))
    end = 0
    for m in range(2, n + 1):
        denom = mu * m + totals[m]
        if denom == 0:
            raise _stuck(m)
        prev = _level(m - 1)
        gathered[end : end + npairs[m - 1]] = q[prev.pair_src] * prev.pair_weight
        end += npairs[m - 1]
        mutation, merger = _transitions(m)
        k = np.arange(m, 1, -1)  # merger size for source levels s = 1..m-1
        binom = np.array([math.comb(m, j) for j in k], dtype=float)
        coeff = binom * rates[m, k] / np.arange(1, m)
        acc = np.zeros(len(_level(m).largest))
        np.add.at(acc, merger, np.repeat(coeff, npairs[1:m]) * gathered[:end])
        acc[mutation] += mu * m * q
        q = acc / denom
    return q


def _stuck(m: int) -> StuckChainError:
    return StuckChainError(
        f"no events possible with {m} lineages (mu and all rates vanish)"
    )


def solve(rates: RateTable, mu: float, n: int) -> SamplingDistribution:
    """Exact family-size distribution for a sample of size n.

    Requires 1 <= n <= DEFAULT_PARTITION_CAP, rates.n_max >= n and
    0 <= mu <= 1e100 (_check_mu) with mu + total(m) > 0 for all
    2 <= m <= n.
    """
    _check_n(n)
    _check_mu(mu)
    if rates.n_max < n:
        raise ValueError(f"rate table covers n_max={rates.n_max} < n={n}")
    q = _solve_levels(rates.rates, rates.totals, float(mu), n)
    return SamplingDistribution(
        n=n,
        mu=float(mu),
        descriptor=rates.descriptor,
        entries=dict(zip(_keys(n), q.tolist())),
    )


def solve_exact(atoms, mu, n: int) -> dict:
    """Rational-arithmetic variant of solve for atomic measures.

    atoms is an iterable of (location, weight) pairs; locations, weights
    and mu must be Fraction-convertible, with locations in [0, 1] and
    weights > 0 as AtomicMeasure requires, and 1 <= n <=
    DEFAULT_PARTITION_CAP.  Returns a dict mapping trimmed counts tuples to
    exact Fraction probabilities.
    """
    _check_n(n)
    try:
        mu = Fraction(mu)
    except (OverflowError, ValueError):
        raise ValueError("mu must be finite") from None
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    # atom x = a/b of weight p/q: its rate(m, k) term
    # p a**(k-2) (b-a)**(m-k) / (q b**(m-2)) is an integer numerator over
    # the level's common denominator lcm(q b**(m-2)) of the atoms
    atoms = [
        (x.numerator, x.denominator - x.numerator, x.denominator, w.numerator, w.denominator)
        for x, w in (_exact_atom(x, w) for x, w in atoms)
    ]
    nums = np.ones(1, dtype=object)  # level 1: one singleton
    dens = [None, 1]
    npairs = [len(_level(s).pair_src) for s in range(n)]
    # nums[pair_src] * pair_weight of every finished level s, end to end,
    # each over its own level's denominator dens[s]
    gathered = np.zeros(sum(npairs), dtype=object)
    end = 0
    for m in range(2, n + 1):
        scales = [q * b ** (m - 2) for _, _, b, _, q in atoms]
        rate_den = math.lcm(*scales)
        terms = [
            (a, c, p * (rate_den // scale))
            for (a, c, _, p, _), scale in zip(atoms, scales)
        ]
        # C(m,k) rate(m,k) * rate_den for the merger sizes k = m..2 of the
        # source levels s = 1..m-1
        weights = [
            math.comb(m, k) * sum(f * a ** (k - 2) * c ** (m - k) for a, c, f in terms)
            for k in range(m, 1, -1)
        ]
        denom = mu * m + Fraction(sum(weights), rate_den)
        if denom == 0:
            raise _stuck(m)
        prev = _level(m - 1)
        gathered[end : end + npairs[m - 1]] = nums[prev.pair_src] * prev.pair_weight
        end += npairs[m - 1]
        mutation, merger = _transitions(m)
        coeff = [
            Fraction(w, rate_den * s * dens[s]) for s, w in enumerate(weights, start=1)
        ]
        coeff.append(mu * m / dens[m - 1])
        common = math.lcm(*(c.denominator for c in coeff))
        *merge, mutate = (c.numerator * (common // c.denominator) for c in coeff)
        merge = np.array(merge, dtype=object)  # int64 would overflow
        acc = np.zeros(len(_level(m).largest), dtype=object)
        np.add.at(acc, merger, np.repeat(merge, npairs[1:m]) * gathered[:end])
        acc[mutation] += mutate * nums
        # level m is acc / (common * denom)
        acc *= denom.denominator
        den = common * denom.numerator
        g = math.gcd(den, *acc)
        nums = acc // g
        dens.append(den // g)
    return {
        key: Fraction(num, dens[n]) for key, num in zip(_keys(n), nums.tolist())
    }


def _exact_atom(x, w) -> tuple[Fraction, Fraction]:
    """One (location, weight) pair as Fractions, under AtomicMeasure's rules,
    compared exactly."""
    try:
        x, w = Fraction(x), Fraction(w)
    except (OverflowError, ValueError):
        raise MeasureSpecError(
            f"atom ({x!r}, {w!r}) must have a finite location and weight"
        ) from None
    if not 0 <= x <= 1:
        raise MeasureSpecError(f"atom location {x} outside [0, 1]")
    if not w > 0:
        raise MeasureSpecError(f"atom weight {w} must be positive")
    return x, w


def ewens(theta: float, n: int) -> SamplingDistribution:
    """Closed-form family-size distribution of the pure pair-merger process
    with scaled mutation rate theta = 2 * mu."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    rising = math.fsum(math.log(theta + i) for i in range(n))
    entries = {}
    for pv in enumerate_partition_vectors(n):
        log_p = math.lgamma(n + 1) - rising
        for j, c in enumerate(pv.counts):
            if c == 0:
                continue
            size = j + 1
            log_p += c * (math.log(theta) - math.log(size)) - math.lgamma(c + 1)
        entries[pv.counts] = math.exp(log_p)
    return SamplingDistribution(
        n=n, mu=theta / 2.0, descriptor="ewens", entries=entries
    )
