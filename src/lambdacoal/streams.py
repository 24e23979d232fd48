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

fan_out splits a run's replicate indices into spans, at most one per 512
replicates, and forks one child per span.  A child inherits the caller's
state (the parsed measure, its tables and caches), so nothing is pickled
on the way in; it sends its span's result back through a pipe.  Where
os.fork does not exist the whole range runs in the calling process.
Since a replicate's stream depends only on its index, the results do not
depend on the split.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import os
import pickle
import signal

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


def fan_out(fn, args: tuple, reps: int, workers: int) -> list:
    """[fn(*args, start, stop), ...] over spans covering replicates [0, reps).

    It uses min(workers, reps // _DRAW_BLOCK) processes, at most one per
    full draw block.  Below two the whole range is one span run in this
    process, since a forked process's first span pays its copy-on-write
    faults and a lockstep span's numpy cost is per block, not per
    replicate; so is it where os.fork does not exist.  Otherwise one span of
    ceil(reps / processes) replicates goes to each of that many forked
    children, and the caller only waits.  Results come back in span
    order; a span's exception is raised here, and a child that leaves
    without a result raises RuntimeError naming its span.  Every child is
    reaped before this returns or raises.
    """
    workers = min(workers, reps // _DRAW_BLOCK)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*args, 0, reps)]
    chunk = math.ceil(reps / workers)
    spans = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
    children, replies, statuses = [], [], []
    try:
        for start, stop in spans:
            children.append(_fork_span(fn, args, start, stop, [r for _, r in children]))
        replies = [_read_to_eof(r) for _, r in children]
    finally:
        for pid, r in children:
            os.close(r)
            if not replies:
                # a fork or a read failed: a child still drawing is killed,
                # not waited for
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results = []
    for (start, stop), data, status in zip(spans, replies, statuses):
        if status != 0:
            raise RuntimeError(
                f"the process drawing replicates [{start}, {stop}) left without a "
                f"result (wait status {status}, exit code {os.waitstatus_to_exitcode(status)})"
            )
        kind, value = pickle.loads(data)
        if kind == "err":
            raise value
        results.append(value)
    return results


def _fork_span(fn, args: tuple, start: int, stop: int, inherited: list) -> tuple:
    """(pid, read end of its pipe) of a forked child that writes the
    pickled ("ok", fn(*args, start, stop)) or ("err", exception) and exits
    0, or exits 1 without a reply if that does not pickle; `inherited` are
    the caller's read ends the child closes."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        for fd in (r, *inherited):
            os.close(fd)
        try:
            reply = ("ok", fn(*args, start, stop))
        except BaseException as exc:
            reply = ("err", exc)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # the child never returns into the caller's stack
        os._exit(code)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
