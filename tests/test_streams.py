"""derive_rng against the SeedSequence streams it reproduces, and
fan_out's split of a run over processes.

The reference generator is built the plain way,
default_rng(SeedSequence([seed, *ints])), with each index mapped to an
integer as derive_rng maps it: an int as itself, a string through its
64-bit digest.  Warnings are errors here, so a uint32 overflow warning in
the block hash cannot pass unseen.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest

import lambdacoal.streams
from lambdacoal import derive_rng, parse_measure
from lambdacoal.streams import _block_state, fan_out
from lambdacoal.validation import draw_span, prepare_shared

pytestmark = pytest.mark.filterwarnings("error")

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70 + 3]
LAST = [0, 511, 512, 2**32 - 1, 2**32, 2**40 + 3]
PREFIXES = [(), ("tag",), ("case-id", 2**40 + 7), (3, "label", 2**64 + 1)]


def _as_int(label):
    if isinstance(label, str):
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return label


def reference(seed, *indices):
    ints = [seed] + [_as_int(ix) for ix in indices]
    return np.random.default_rng(np.random.SeedSequence(ints))


def _same(a, b):
    return np.array_equal(
        a.integers(0, 2**63, 8, dtype=np.int64), b.integers(0, 2**63, 8, dtype=np.int64)
    ) and a.random() == b.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_only_stream_is_seed_sequence(seed):
    assert _same(derive_rng(seed), reference(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES, ids=["1", "2", "3", "4"])
@pytest.mark.parametrize("last", LAST)
def test_stream_is_seed_sequence(seed, prefix, last):
    indices = (*prefix, last)
    assert _same(derive_rng(seed, *indices), reference(seed, *indices))


@pytest.mark.parametrize("last", ["r", "a longer label", 2**96 + 5])
def test_string_and_multiword_last_index(last):
    for seed in (0, 2**70 + 3):
        assert _same(derive_rng(seed, "tag", last), reference(seed, "tag", last))


@pytest.mark.parametrize(
    "address", [(-1,), (-1, "tag", 5), (1, "tag", -1), (1, -1, 5), (1, "tag", -512, 0)]
)
def test_negative_seed_or_label_raises(address):
    with pytest.raises(ValueError):
        derive_rng(*address)


def test_outputs_do_not_depend_on_request_order():
    reps = [0, 1, 511, 512, 513, 1500, 2047]
    want = {r: reference(9, "order", r).random(3) for r in reps}
    _block_state.cache_clear()
    ascending = {r: derive_rng(9, "order", r).random(3) for r in reps}
    _block_state.cache_clear()
    descending = {r: derive_rng(9, "order", r).random(3) for r in reversed(reps)}
    # more prefixes than the cache holds, visited round robin, evict every
    # block before its next use
    tags = [f"order-{k}" for k in range(_block_state.cache_info().maxsize + 3)]
    interleaved = {}
    for r in reps:
        for tag in tags:
            interleaved[tag, r] = derive_rng(9, tag, r).random(3)
    for r in reps:
        assert np.array_equal(ascending[r], want[r])
        assert np.array_equal(descending[r], want[r])
        for tag in tags:
            assert np.array_equal(interleaved[tag, r], reference(9, tag, r).random(3))


def test_spawn_and_pickle_match_seed_sequence():
    for indices in [("spawn", 7), ("spawn", 2**40 + 3), ()]:
        got, want = derive_rng(4, *indices), reference(4, *indices)
        for _ in range(2):
            for a, b in zip(got.spawn(2), want.spawn(2)):
                assert _same(a, b)
        got.random(5)
        want.random(5)
        got, want = pickle.loads(pickle.dumps(got)), pickle.loads(pickle.dumps(want))
        assert _same(got, want)
        (a,), (b,) = got.spawn(1), want.spawn(1)
        assert _same(a, b)


def test_seed_sequence_requests_match():
    got = derive_rng(2, "seq", 3).bit_generator.seed_seq
    want = np.random.SeedSequence([2, _as_int("seq"), 3])
    assert got.entropy == want.entropy
    assert np.array_equal(got.generate_state(4, np.uint64), want.generate_state(4, np.uint64))
    assert np.array_equal(got.generate_state(5), want.generate_state(5))


# fan_out forks; on an interpreter that warns about forking a process with
# threads (numpy's BLAS pool), that warning is not the one these tests catch
forks = pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")


def _span_pid(start, stop):
    return os.getpid(), start, stop


@pytest.mark.parametrize("reps", [1, 511, 512, 1023])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_fan_out_below_two_blocks_runs_in_this_process(monkeypatch, reps, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was built for fewer than two draw blocks")

    monkeypatch.setattr(lambdacoal.streams, "ProcessPoolExecutor", refuse)
    assert fan_out(_span_pid, (), reps, workers) == [(os.getpid(), 0, reps)]


@forks
@pytest.mark.parametrize("reps, workers", [(1024, 2), (1024, 3), (1537, 3), (2048, 2)])
def test_fan_out_runs_one_span_per_full_block_in_other_processes(reps, workers):
    spans = fan_out(_span_pid, (), reps, workers)
    assert len(spans) == min(workers, reps // 512)
    assert os.getpid() not in {pid for pid, _, _ in spans}
    edges = [0] + [stop for _, _, stop in spans]
    assert [(a, b) for _, a, b in spans] == list(zip(edges, edges[1:]))
    assert edges[-1] == reps


@forks
@pytest.mark.parametrize("workers", [2, 3])
def test_fan_out_output_does_not_depend_on_the_worker_count(workers):
    names = ("frozen",)
    measure = parse_measure("poly3x2")
    shared = prepare_shared(names, measure, 1.0, 4)
    args = (names, measure, 1.0, 4, 7, "fan-out", shared)
    for reps in (1023, 1024, 1100, 1537):
        serial = fan_out(draw_span, args, reps, 1)
        assert len(serial) == 1 and len(serial[0]) == reps
        parallel = fan_out(draw_span, args, reps, workers)
        assert [text for span in parallel for text in span] == serial[0]
