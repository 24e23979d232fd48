"""Shared test oracles.

Everything here recomputes expectations by a route independent of the
implementation under test: scipy.integrate.quad for rate integrals, a
brute-force enumeration of the frozen jump chain for family-partition
laws, the last-event recursion written one partition at a time, the
first-part chain written as its own loop, the truncation search on the
full tail pair, and exact rational Ewens probabilities.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import math

import numpy as np
import pytest
import scipy.integrate

from lambdacoal import coalescence_rate, litter_intensity_tail


def quad_rate(density, b, k):
    """Rate integral of x**(k-2) (1-x)**(b-k) density(x) dx via scipy."""
    val, _ = scipy.integrate.quad(
        lambda x: x ** (k - 2) * (1.0 - x) ** (b - k) * density(x),
        0.0,
        1.0,
        points=[1e-6, 1e-3, 0.5, 1.0 - 1e-3],
        limit=200,
    )
    return val


def enumerate_family_distribution(measure, mu, n):
    """Exact family-size-partition law by brute-force enumeration of the
    embedded jump chain (freeze one of b blocks w.p. mu/(mu*b + total),
    merge a k-subset w.p. C(b,k) rate(b,k)/(mu*b + total)), independent
    of the recursion solver.  States track only the multiset of active
    block sizes plus the multiset of frozen family sizes.
    """
    rate = {
        (b, k): coalescence_rate(measure, b, k)
        for b in range(2, n + 1)
        for k in range(2, b + 1)
    }
    # states keyed by (active sizes desc, frozen sizes desc)
    start = (tuple([1] * n), ())
    frontier = {start: 1.0}
    out: dict[tuple, float] = {}
    while frontier:
        # active block count strictly decreases at each event, so
        # processing largest-b states first visits each state once
        (active, frozen), prob = max(
            frontier.items(), key=lambda kv: len(kv[0][0])
        )
        del frontier[(active, frozen)]
        b = len(active)
        if b == 0:
            out[frozen] = out.get(frozen, 0.0) + prob
            continue
        total = sum(comb(b, k) * rate[(b, k)] for k in range(2, b + 1))
        denom = mu * b + total
        assert denom > 0.0, "stuck chain in oracle"
        # freeze: each block equally likely
        for i in range(b):
            nxt_active = tuple(sorted(active[:i] + active[i + 1:], reverse=True))
            nxt_frozen = tuple(sorted(frozen + (active[i],), reverse=True))
            key = (nxt_active, nxt_frozen)
            frontier[key] = frontier.get(key, 0.0) + prob * mu / denom
        # merge: every k-subset of blocks
        for k in range(2, b + 1):
            if rate[(b, k)] == 0.0:
                continue
            p_each = rate[(b, k)] / denom
            for subset in combinations(range(b), k):
                merged = sum(active[i] for i in subset)
                rest = [active[i] for i in range(b) if i not in subset]
                nxt_active = tuple(sorted(rest + [merged], reverse=True))
                key = (nxt_active, frozen)
                frontier[key] = frontier.get(key, 0.0) + prob * p_each
    return out


def family_sizes_to_vector_text(sizes):
    """Frozen family sizes -> partition-vector text like '1^2 5^1'."""
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return " ".join(f"{j}^{counts[j]}" for j in sorted(counts))


def ewens_exact(theta: Fraction, n: int) -> dict[tuple, Fraction]:
    """Rational Ewens law over partition vectors (trimmed count tuples)."""
    rising = Fraction(1)
    for i in range(n):
        rising *= theta + i
    out = {}

    def rec(remaining, max_part, counts):
        if remaining == 0:
            key = tuple(counts)
            while key and key[-1] == 0:
                key = key[:-1]
            p = Fraction(factorial(n)) / rising
            for j, a in enumerate(counts, start=1):
                p *= (theta / j) ** a / factorial(a)
            out[key] = p
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            rec(remaining - part, part, counts)
            counts[part - 1] -= 1

    rec(n, n, [0] * n)
    return out


def last_event_recursion(rate, mu, n):
    """Family-size law by the last-event recursion on dicts of count
    tuples, one partition and one term at a time, in the arithmetic of
    rate(b, k) and mu.  The partitions of each m are the keys of
    ewens_exact, so nothing is shared with the array solver."""

    def trim(counts):
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        return tuple(counts)

    tables = {1: {(1,): mu * 0 + 1}}
    for m in range(2, n + 1):
        weights = {k: comb(m, k) * rate(m, k) for k in range(2, m + 1)}
        denom = mu * m + sum(weights.values())
        table = {}
        for key in ewens_exact(Fraction(1), m):
            a = list(key) + [0] * (m - len(key))
            acc = 0
            if a[0]:
                acc += mu * m * tables[m - 1][trim([a[0] - 1] + a[1:])]
            for k, w in weights.items():
                s = m - k + 1
                for j in range(1, s + 1):
                    if a[j + k - 2] == 0:
                        continue
                    b = list(a)
                    b[j - 1] += 1
                    b[j + k - 2] -= 1
                    acc += w * j * b[j - 1] * tables[s][trim(b)] / s
            table[key] = acc / denom
        tables[m] = table
    return tables[n]


def first_part_chain_reference(laws, n, rng):
    """Family sizes from the first-part chain, one loop with its own
    threshold lists and merge step, drawing from rng in the order the
    library's chain sampler does."""
    thresholds = [None] * (n + 1)
    for b in range(1, n + 1):
        law = laws[b]
        cum = [law.p_single_mutant, law.p_single_mutant + law.p_single_alone]
        for m in range(2, b + 1):
            cum.append(cum[-1] + law.probs[m - 1])
        thresholds[b] = np.array(cum)
    weights = [1] * n
    families = []
    while weights:
        b = len(weights)
        cum = thresholds[b]
        event = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        if event == 0:
            families.append(weights.pop(int(rng.integers(b))))
        elif event == 1:
            continue  # lone litter: no family boundary
        else:
            chosen = sorted(rng.choice(b, size=event, replace=False), reverse=True)
            merged = 0
            for idx in chosen:
                merged += weights.pop(idx)
            weights.append(merged)
    return families


def choose_truncation_reference(measure, horizon, budget=1e-6):
    """The cutoff search of an infinite-activity measure as 60 bisection
    steps on log eps, each reading the moment below eps off the full
    litter_intensity_tail pair."""
    lo, hi = math.log(1e-30), math.log(0.5)
    assert horizon * litter_intensity_tail(measure, math.exp(lo))[1] <= budget
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if horizon * litter_intensity_tail(measure, math.exp(mid))[1] <= budget:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


@pytest.fixture
def quadrature_calls(monkeypatch):
    """(a, b) of every adaptive_integral call made through the measures
    module while the test runs."""
    import lambdacoal.measures

    calls = []
    real = lambdacoal.measures.adaptive_integral

    def counted(fn, a, b, **kwargs):
        calls.append((a, b))
        return real(fn, a, b, **kwargs)

    monkeypatch.setattr(lambdacoal.measures, "adaptive_integral", counted)
    return calls


@pytest.fixture(scope="session")
def rng_factory():
    from lambdacoal import derive_rng

    return derive_rng
