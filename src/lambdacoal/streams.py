"""Deterministic random stream derivation.

Monte Carlo runs address their generators by (master seed, fixture label,
replicate index).  The stream of (seed, *indices) is the PCG64 stream of
numpy's SeedSequence([seed, *ints]), an avalanche-quality integer mixer,
where ints are the indices as integers (a string through a fixed 64-bit
digest).  Distinct addresses give independent streams, and the assignment
does not depend on scheduling or worker count.

A generator is built from its block's cached hash.  SeedSequence's mixing
is ported to uint32 column arithmetic and run once over an aligned block of
512 values of the last index, giving each value's four PCG64 seed words; a
small LRU keeps the recent blocks.  The streams are those of SeedSequence,
bit for bit, spawning and pickling included.

fan_out splits a run's replicate indices into spans, one per process of
a pool of at most one process per 512 replicates; since a replicate's
stream depends only on its index, the results do not depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

# fan_out is shared by the CLI and the validation harness, not exported
__all__ = ["derive_rng"]

# SeedSequence's mixing constants (numpy/random/bit_generator.pyx); the
# algorithm is documented and stable, and its hash-constant sequence does
# not depend on the data
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)

# values of the last index hashed together (a multiple of 512 never carries
# into the 32-bit words above its low 9 bits); also the most replicates one
# draw call takes, which bounds a span's memory (its generators and
# block-chain arrays) whatever its length, and the grain of fan_out
_DRAW_BLOCK = 512


@functools.lru_cache(maxsize=1024)
def _hash_label(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _label_to_int(label) -> int:
    # a run hashes the same few tags once per replicate, so string digests
    # are cached
    if isinstance(label, str):
        return _hash_label(label)
    return int(label)


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from an integer, low word first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 2, 1) uint32: the xor and multiply constants of count
    successive hashmix steps from init."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult & _MASK32)
    return np.array([seq[:-1], seq[1:]], dtype=np.uint32).T[:, :, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of each row of values with its own step of consts."""
    v = (values ^ consts[:, 0]) * consts[:, 1]
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


@functools.lru_cache(maxsize=16)
def _block_state(prefix: tuple, block: int) -> np.ndarray:
    """Read-only (512, 4) uint64: SeedSequence([*prefix, v]).generate_state(
    4, uint64) for v = 512 * block + i in row i, every column at once."""
    words = [w for value in prefix for w in _words(value)]
    varying = len(words)
    # the block fixes the last index's word count: only its low word varies
    words += _words(block * _DRAW_BLOCK)
    size = len(words)
    entropy = np.zeros((max(size, _POOL), _DRAW_BLOCK), dtype=np.uint32)
    entropy[:size] = np.array(words, dtype=np.uint32)[:, None]
    entropy[varying] |= np.arange(_DRAW_BLOCK, dtype=np.uint32)
    consts = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, size - _POOL))
    pool = _hashmix(entropy[:_POOL], consts[:_POOL])
    step = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[step : step + 3]))
        step += 3
    for src in range(_POOL, size):
        pool = _mix(pool, _hashmix(entropy[src], consts[step : step + _POOL]))
        step += _POOL
    # generate_state cycles the pool; uint64 words pair uint32s low first
    state = _hashmix(np.concatenate([pool, pool]), _constants(_INIT_B, _MULT_B, 8))
    seeds = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    seeds = np.ascontiguousarray(seeds.T)
    seeds.flags.writeable = False
    return seeds


class _Row(ISpawnableSeedSequence):
    """SeedSequence(entropy) whose PCG64 seed words come from a cached row.

    The first generate_state(4, uint64) request, PCG64's own, is served
    from the (read-only) row; any other use (spawn, entropy, later
    generate_state calls, pickling) goes to one real SeedSequence(entropy),
    built on first use.
    """

    __slots__ = ("_entropy", "_state", "_seq")

    def __init__(self, entropy: tuple, state: np.ndarray):
        self._entropy = entropy
        self._state = state
        self._seq = None

    def _seed_sequence(self) -> SeedSequence:
        if self._seq is None:
            self._seq = SeedSequence(list(self._entropy))
        return self._seq

    def generate_state(self, n_words, dtype=np.uint32):
        if self._state is not None and n_words == 4 and dtype is np.uint64:
            state, self._state = self._state, None
            return state
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)

    def __getattr__(self, name):
        return getattr(self._seed_sequence(), name)

    def __reduce__(self):
        return self._seed_sequence().__reduce__()


def derive_rng(master_seed: int, *indices) -> np.random.Generator:
    """Generator for the stream addressed by (master_seed, *indices).

    String indices are hashed with a fixed (unsalted) 64-bit digest so the
    mapping is stable across processes and platforms; a negative seed or
    index raises ValueError.
    """
    entropy = (int(master_seed), *map(_label_to_int, indices))
    block, i = divmod(entropy[-1], _DRAW_BLOCK)
    return Generator(PCG64(_Row(entropy, _block_state(entropy[:-1], block)[i])))


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
