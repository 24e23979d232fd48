"""Deterministic random stream derivation.

Monte Carlo runs address their generators by (master seed, fixture label,
replicate index).  The triple is mixed through numpy's SeedSequence, an
avalanche-quality integer mixer, so distinct triples give independent
streams and the assignment does not depend on scheduling or worker count.
fan_out splits a run's replicate indices into spans for a process pool;
since a replicate's stream depends only on its index, the results do not
depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# fan_out is shared by the CLI and the validation harness, not exported
__all__ = ["derive_rng"]


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


def derive_rng(master_seed: int, *indices) -> np.random.Generator:
    """Generator for the stream addressed by (master_seed, *indices).

    String indices are hashed with a fixed (unsalted) 64-bit digest so the
    mapping is stable across processes and platforms.
    """
    entropy = [int(master_seed)] + [_label_to_int(ix) for ix in indices]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def fan_out(fn, args: tuple, reps: int, workers: int, executor=None) -> list:
    """[fn(*args, start, stop), ...] over spans covering replicates [0, reps).

    With workers <= 1 the whole range is one span run in this process.
    Otherwise spans of ceil(reps / (4 * workers)) replicates go to the
    executor, or to a pool of `workers` processes made for this call when
    none is given; results come back in span order.
    """
    if workers <= 1:
        return [fn(*args, 0, reps)]
    if executor is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return fan_out(fn, args, reps, workers, pool)
    chunk = max(1, math.ceil(reps / (workers * 4)))
    spans = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
    futures = [executor.submit(fn, *args, a, b) for a, b in spans]
    return [f.result() for f in futures]
