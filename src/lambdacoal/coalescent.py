"""The block chain shared by every coalescent-type sampler.

A state is a list of blocks: ints (block weights) when only family sizes
matter, label tuples when a labelled path is recorded; merging blocks is
`+` either way.  With b blocks the next event is read off row b of a
cumulative event table whose columns are (freeze, stay, merge 2, ...,
merge b): one uniform picks the column, then the chain freezes a uniform
block as a finished family, does nothing, or merges a uniform k-subset.
_block_chain runs that step until few enough blocks remain; the callers
differ only in their table.

* Frozen coalescent: row b is [mu*b, 0, C(b,2) rate(b,2), ..., C(b,b)
  rate(b,b)], the multiple-merger coalescent in which mutation at rate mu
  freezes a lineage.  Only the embedded jump chain matters for family
  sizes, so simulate_frozen_coalescent never draws holding times.
* First-part chain: the row is the first-part law of the regenerative
  composition (population.sample_family_partition_chain); its merger
  weights are the coalescent's, and the stay column is the lone-litter
  first part.
* Paths: simulate_frozen_path and simulate_coalescent_path (mu = 0,
  stopped at one block) record, after each event, an exponential holding
  time at the row total of the state the event left, and a snapshot.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StuckChainError
from .measures import RateTable
from .sampling_formula import PartitionVector

__all__ = [
    "FrozenState",
    "SetPartition",
    "simulate_coalescent_path",
    "simulate_frozen_path",
    "simulate_frozen_coalescent",
]


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n}; blocks sorted internally and by least element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                raise ValueError("blocks must be nonempty and sorted")
            seen.update(block)
        labels = sorted(seen)
        n = len(labels)
        if sum(len(b) for b in self.blocks) != n or labels != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by least element")

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(canon)


@dataclass(frozen=True)
class FrozenState:
    """One step of the freezing coalescent: which blocks are still active,
    which are frozen families, and the event time."""

    time: float
    active: tuple[tuple[int, ...], ...]
    frozen: tuple[tuple[int, ...], ...]


def _block_chain(table: np.ndarray, blocks: list, rng, until: int = 0, record=None):
    """Run the block chain on `blocks` (mutated in place) until at most
    `until` blocks remain; returns the frozen blocks in freezing order.

    table[b] is the cumulative event row for b blocks (see the module
    docstring).  bisect_right finds the index np.searchsorted(...,
    side="right") would, at a fraction of the cost of a numpy call per
    event.  record, if given, is called after every event with the row
    total and the current blocks and frozen list.
    """
    frozen: list = []
    while len(blocks) > until:
        b = len(blocks)
        row = table[b]
        total = row[-1]
        if total <= 0.0:
            raise StuckChainError(f"stuck chain: no events from {b} blocks")
        event = bisect.bisect_right(row, rng.random() * total)
        if event == 0:
            frozen.append(blocks.pop(int(rng.integers(b))))
        elif event >= 2:
            chosen = sorted(rng.choice(b, size=event, replace=False), reverse=True)
            merged = blocks.pop(chosen[0])
            for idx in chosen[1:]:
                merged += blocks.pop(idx)
            blocks.append(merged)
        if record is not None:
            record(total, blocks, frozen)
    return frozen


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Read-only C(b, k) for 0 <= b, k <= n as floats."""
    c = np.array(
        [[math.comb(b, k) for k in range(n + 1)] for b in range(n + 1)], dtype=float
    )
    c.setflags(write=False)
    return c


def _frozen_table(rates: RateTable, mu: float, n: int) -> np.ndarray:
    """Cumulative event table of the frozen coalescent for up to n blocks;
    rates.rates is zero in columns 0 and 1, so only the freeze column
    needs filling in."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if not (1 <= n <= rates.n_max):
        raise ValueError(f"need 1 <= n <= {rates.n_max}")
    weights = _binomials(n) * rates.rates[: n + 1, : n + 1]
    weights[:, 0] = mu * np.arange(n + 1)
    return np.add.accumulate(weights, axis=1)


def _labelled_path(table: np.ndarray, n: int, rng, snapshot, until: int = 0) -> list:
    """Block chain on the labels 1..n, snapshotted at time 0 and after
    every event; the holding time before an event is exponential at the
    row total of the state it left."""
    blocks = [(i,) for i in range(1, n + 1)]
    t = 0.0
    path = [snapshot(t, blocks, [])]

    def record(total, active, frozen):
        nonlocal t
        t += rng.exponential(1.0 / total)
        path.append(snapshot(t, active, frozen))

    _block_chain(table, blocks, rng, until, record)
    return path


def simulate_coalescent_path(
    rates: RateTable, n: int, rng: np.random.Generator
) -> list[tuple[float, SetPartition]]:
    """Full merge path on labelled blocks, ending in the single-block state.

    Returns (time, partition) pairs starting with the singletons at time 0.
    """
    if not (2 <= n <= rates.n_max):
        raise ValueError(f"need 2 <= n <= {rates.n_max}")
    return _labelled_path(
        _frozen_table(rates, 0.0, n),
        n,
        rng,
        lambda t, active, frozen: (t, SetPartition.from_blocks(active)),
        until=1,
    )


def simulate_frozen_path(
    rates: RateTable, mu: float, n: int, rng: np.random.Generator
) -> list[FrozenState]:
    """Labelled freezing path; the final state has no active blocks."""

    def snapshot(t, active, frozen):
        return FrozenState(
            t,
            tuple(tuple(sorted(b)) for b in active),
            tuple(tuple(sorted(b)) for b in frozen),
        )

    return _labelled_path(_frozen_table(rates, mu, n), n, rng, snapshot)


def simulate_frozen_coalescent(
    rates: RateTable, mu: float, n: int, rng: np.random.Generator
) -> PartitionVector:
    """Family sizes of a sample of n under the freezing coalescent.

    Tracks only block weights; with b active blocks the next event freezes
    a uniform block with probability mu*b / (mu*b + total(b)) and is
    otherwise a k-merger of a uniform k-subset, with probability
    proportional to C(b,k) rate(b,k).
    """
    families = _block_chain(_frozen_table(rates, mu, n), [1] * n, rng)
    return PartitionVector.from_sizes(families)
