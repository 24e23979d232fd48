"""Deterministic random stream derivation.

Monte Carlo runs address their generators by (master seed, fixture label,
replicate index), each an integer or a string (through a fixed, unsalted
64-bit digest, stable across processes and platforms).  One SHAKE-128 hash
of the address, written in decimal with its last index rounded down to a
multiple of 512, gives 512 rows of four little-endian uint64: the PCG64
seed words of that aligned block's streams (keyed, counter-style
derivation after Salmon et al., SC'11).  Distinct addresses give
independent streams, whatever the scheduling or worker count; a small LRU
keeps the recent blocks.  A derived generator pickles but does not spawn.

fan_out splits a run's replicate indices into spans, one per process of
a pool of at most one process per 512 replicates; since a replicate's
stream depends only on its index, the results do not depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# fan_out is shared by the CLI and the validation harness, not exported
__all__ = ["derive_rng"]

# values of the last index keyed by one hash; also the most replicates one
# draw call takes, which bounds a span's memory (its generators and
# block-chain arrays) whatever its length, and the grain of fan_out
_DRAW_BLOCK = 512


@functools.lru_cache(maxsize=1024)
def _hash_label(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _label_to_int(label) -> int:
    # a run hashes the same few tags once per replicate, so string digests
    # are cached; a bool or a float would silently alias an integer
    if isinstance(label, str):
        return _hash_label(label)
    if isinstance(label, bool):
        raise TypeError(f"a stream address holds integers and strings, not {label!r}")
    value = operator.index(label)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value


@functools.lru_cache(maxsize=16)
def _block_seeds(address: tuple) -> np.ndarray:
    """Read-only (512, 4) uint64 seed words: the address ends with a
    multiple of 512, and row i seeds that last index plus i."""
    key = " ".join(map(str, address)).encode()
    data = hashlib.shake_128(key).digest(_DRAW_BLOCK * 32)
    return np.frombuffer(data, dtype="<u8").reshape(_DRAW_BLOCK, 4)


class _Seeds(ISeedSequence):
    """A block row: PCG64's one generate_state(4, uint64) request."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a derived stream holds only PCG64's 4 uint64 seed words")
        return self.words


def derive_rng(master_seed: int, *indices) -> np.random.Generator:
    """Generator for the stream addressed by (master_seed, *indices).

    A numpy integer addresses the stream of the equal int; a bool or a
    float raises TypeError, a negative integer ValueError.
    """
    *prefix, last = map(_label_to_int, (master_seed, *indices))
    i = last % _DRAW_BLOCK
    return Generator(PCG64(_Seeds(_block_seeds((*prefix, last - i))[i])))


def fan_out(fn, args: tuple, reps: int, workers: int, executor=None) -> list:
    """[fn(*args, start, stop), ...] over spans covering replicates [0, reps).

    It uses min(workers, reps // _DRAW_BLOCK) processes, at most one per
    full draw block.  Below two, the whole range is one span run in this
    process and no pool is made, since a forked process's first span pays
    its copy-on-write faults and a lockstep span's numpy cost is per
    block, not per replicate.  Otherwise one span of ceil(reps /
    processes) replicates per process goes to the executor, or to a pool
    made for this call when none is given; results come back in span
    order.
    """
    workers = min(workers, reps // _DRAW_BLOCK)
    if workers <= 1:
        return [fn(*args, 0, reps)]
    if executor is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return fan_out(fn, args, reps, workers, pool)
    chunk = math.ceil(reps / workers)
    spans = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
    futures = [executor.submit(fn, *args, a, b) for a, b in spans]
    return [f.result() for f in futures]
