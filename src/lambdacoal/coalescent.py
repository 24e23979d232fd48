"""The block chain shared by every coalescent-type sampler.

A state is a row of integer block weights; merging blocks sums them.
With b live blocks the next event is read off row b of a cumulative
event table whose columns are (freeze, stay, merge 2, ..., merge b).
The stay column is always zero: a self-loop leaves the state as it is,
so dropping it leaves the law of the partition unchanged and the chain
that runs is the embedded jump chain, which ends within n events.

_block_chain advances R replicates in lockstep on an (R, n) block array.
Each replicate reads its uniforms from its own stream in one
rng.random((n, 2)) block: at step t the first uniform of row t picks the
event column, the second the slot a merged block moves to.  Live blocks
sit in the row's last b slots in an exchangeable order, so the first k
live slots are a uniform k-subset, and the first live slot a uniform
block.  A freeze takes the first live slot as a finished family; a
k-merger sums the first k live slots and swaps the merged block into a
uniform live slot, which keeps the order exchangeable.

* Frozen coalescent: row b is [mu*b, 0, C(b,2) rate(b,2), ..., C(b,b)
  rate(b,b)], the multiple-merger coalescent in which mutation at rate mu
  freezes a lineage.  Only the embedded jump chain matters for family
  sizes, so no holding times are drawn.
* First-part chain: row b is the first-part law of the regenerative
  composition of b (population.sample_family_partition_chain) without its
  lone-litter part.  Each of its rows, divided by its total, is the
  frozen coalescent's, so the two chains draw one law.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StuckChainError
from .measures import RateTable, _check_mu
from .sampling_formula import PartitionVector

__all__ = ["simulate_frozen_coalescent"]


def _block_chain(table: np.ndarray, blocks: np.ndarray, u: np.ndarray, until: int):
    """Advance every row of `blocks` (R, n) in lockstep until at most
    `until` blocks of each row are live; returns (frozen, blocks).

    table[b] is the cumulative event row for b blocks and u the (R, n, 2)
    uniforms (see the module docstring).  Row r's live blocks are its
    slots [start[r], n) of the returned blocks; frozen[r, t] is the block
    row r froze at its step t, 0 where that step merged or never ran.
    """
    R, n = blocks.shape
    blocks = blocks.copy()
    frozen = np.zeros_like(blocks)
    start = np.zeros(R, dtype=np.intp)
    u = u.transpose(1, 2, 0).copy()  # u[t, i] holds step t's i-th uniforms
    for t in range(n):
        live = (start < n - until).nonzero()[0]
        if not live.size:
            break
        first = start[live]
        rows = table[n - first]
        total = rows[:, -1]
        if not total.all():
            b = n - first[np.argmin(total)]
            raise StuckChainError(f"stuck chain: no events from {b} blocks")
        k = (rows <= (u[t, 0, live] * total)[:, None]).sum(1)
        freeze = k == 0
        k += freeze  # a freeze spends one slot, like a 1-merger
        sums = blocks[live].cumsum(1)
        at = np.arange(live.size)
        last = first + k - 1
        merged = sums[at, last] - sums[at, first] + blocks[live, first]
        frozen[live, t] = merged * freeze
        # a merged block moves to a uniform live slot; a frozen one stays
        slot = last + (u[t, 1, live] * (n - last)).astype(np.intp) * ~freeze
        blocks[live, last] = blocks[live, slot]
        blocks[live, slot] = merged
        start[live] = last + freeze
    return frozen, blocks


def _family_rows(table: np.ndarray, n: int, rngs) -> np.ndarray:
    """(R, n) family sizes, one row per generator, zeros to be skipped.

    A lone block can only freeze, so the chain stops at one live block
    and takes it as the last family; that also ends a run whose lone
    block cannot freeze (mu = 0) with the one family it merged into.
    """
    u = np.stack([rng.random((n, 2)) for rng in rngs])
    frozen, blocks = _block_chain(
        table, np.ones((len(rngs), n), dtype=np.int64), u, until=1
    )
    frozen[:, -1] = blocks[:, -1]  # a run to one block takes < n steps
    return frozen


def _family_texts(table: np.ndarray, n: int, rngs) -> list[str]:
    """Partition-vector texts of _family_rows, in generator order."""
    return _partition_texts(_family_rows(table, n, rngs))


def _partition_texts(sizes: np.ndarray) -> list[str]:
    """Partition-vector text of each row of (R, n) family sizes, zeros
    skipped."""
    R, n = sizes.shape
    counts = np.bincount(
        (sizes + (n + 1) * np.arange(R)[:, None]).ravel(), minlength=R * (n + 1)
    ).reshape(R, n + 1)[:, 1:]
    texts: dict = {}
    out = []
    for row in map(tuple, counts.tolist()):
        text = texts.get(row)
        if text is None:
            text = texts[row] = PartitionVector(row).to_text()
        out.append(text)
    return out


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
    _check_mu(mu)
    if not (1 <= n <= rates.n_max):
        raise ValueError(f"need 1 <= n <= {rates.n_max}")
    weights = _binomials(n) * rates.rates[: n + 1, : n + 1]
    weights[:, 0] = mu * np.arange(n + 1)
    return np.add.accumulate(weights, axis=1)


def simulate_frozen_coalescent(
    rates: RateTable, mu: float, n: int, rng: np.random.Generator
) -> PartitionVector:
    """Family sizes of a sample of n under the freezing coalescent.

    Tracks only block weights; with b active blocks the next event freezes
    a uniform block with probability mu*b / (mu*b + total(b)) and is
    otherwise a k-merger of a uniform k-subset, with probability
    proportional to C(b,k) rate(b,k).  At mu = 0 nothing freezes: the
    chain merges down to one block, which is the one family.
    """
    (sizes,) = _family_rows(_frozen_table(rates, mu, n), n, [rng])
    return PartitionVector.from_sizes(s for s in sizes.tolist() if s)
