"""derive_rng against the plain SHAKE-128 derivation it caches, the
independence of its streams, and fan_out's split of a run over processes.

The reference generator is built the plain way: the address's integers
(an int as itself, a string through its 64-bit digest), the last rounded
down to a multiple of 512, written in decimal, space-separated, and
hashed with SHAKE-128; row i of the output, as four little-endian uint64
words, seeds PCG64.  Warnings are errors here.
"""

import hashlib
import os
import pickle
import time

import numpy as np
import pytest

from lambdacoal import InfiniteActivityError, derive_rng, parse_measure
from lambdacoal.streams import _block_seeds, fan_out
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


def _seed_words(seed, *indices):
    ints = [seed] + [_as_int(ix) for ix in indices]
    block, i = divmod(ints[-1], 512)
    text = " ".join(map(str, ints[:-1] + [512 * block]))
    data = hashlib.shake_128(text.encode()).digest(512 * 32)
    return np.frombuffer(data[32 * i : 32 * (i + 1)], dtype="<u8").astype(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words


def reference(seed, *indices):
    return np.random.Generator(np.random.PCG64(_Words(_seed_words(seed, *indices))))


def _same(a, b):
    return np.array_equal(
        a.integers(0, 2**63, 8, dtype=np.int64), b.integers(0, 2**63, 8, dtype=np.int64)
    ) and a.random() == b.random()


# the two tests below are named for the SeedSequence streams these
# addresses had until the SHAKE-128 derivation replaced them
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


@pytest.mark.parametrize(
    "address",
    [
        (1, "t", 2.7),
        (1.9, "t", 2),
        (1, "t", 2.0),
        (True,),
        (1, "t", False),
        (1, True, 2),
        (np.float64(1), "t", 2),
        (1, "t", np.bool_(True)),
    ],
)
def test_non_integral_seed_or_index_raises(address):
    # int() would silently take such an address to an integer's stream
    with pytest.raises(TypeError):
        derive_rng(*address)


def test_numpy_integers_address_the_equal_int():
    for seed, tag, r in [(np.int64(5), np.uint32(3), np.int16(511)), (np.uint64(2**63), "t", np.int8(7))]:
        assert _same(derive_rng(seed, tag, r), derive_rng(int(seed), _as_int(tag), int(r)))


def test_seed_above_64_bits_is_hashed_not_truncated():
    for low in (0, 5, 2**64 - 1):
        for high in (2**64, 2**96):
            seed = high + low
            assert _same(derive_rng(seed, "t", 3), reference(seed, "t", 3))
            assert not _same(derive_rng(seed, "t", 3), derive_rng(low, "t", 3))


def _uniforms(*address):
    return derive_rng(*address).random(10**4)


@pytest.mark.parametrize(
    "a, b",
    [
        ((11, "pair", 6), (11, "pair", 7)),
        ((11, "pair", 511), (11, "pair", 512)),
        ((11, "pair-0", 6), (11, "pair-1", 6)),
        ((11, 41, 6), (11, 42, 6)),
        ((11, "pair", 6), (11 + 2**64, "pair", 6)),
    ],
    ids=["adjacent-replicates", "block-edge", "adjacent-tags", "adjacent-int-tags", "seed-2^64"],
)
def test_neighbouring_streams_are_uncorrelated(a, b):
    # under independence the sample correlation of 10^4 pairs has standard
    # deviation 1/100; 4 of them bound it
    corr = np.corrcoef(_uniforms(*a), _uniforms(*b))[0, 1]
    assert abs(corr) <= 4 / np.sqrt(10**4)


def test_outputs_do_not_depend_on_request_order():
    reps = [0, 1, 511, 512, 513, 1500, 2047]
    want = {r: reference(9, "order", r).random(3) for r in reps}
    _block_seeds.cache_clear()
    ascending = {r: derive_rng(9, "order", r).random(3) for r in reps}
    _block_seeds.cache_clear()
    descending = {r: derive_rng(9, "order", r).random(3) for r in reversed(reps)}
    # more prefixes than the cache holds, visited round robin, evict every
    # block before its next use
    tags = [f"order-{k}" for k in range(_block_seeds.cache_info().maxsize + 3)]
    interleaved = {}
    for r in reps:
        for tag in tags:
            interleaved[tag, r] = derive_rng(9, tag, r).random(3)
    for r in reps:
        assert np.array_equal(ascending[r], want[r])
        assert np.array_equal(descending[r], want[r])
        for tag in tags:
            assert np.array_equal(interleaved[tag, r], reference(9, tag, r).random(3))


def test_pickle_round_trip_and_spawn_refused():
    for indices in [("pickle", 7), ("pickle", 2**40 + 3), ()]:
        got = derive_rng(4, *indices)
        got.random(5)
        copy = pickle.loads(pickle.dumps(got))
        assert _same(copy, got)
        with pytest.raises(TypeError):
            got.spawn(1)


def test_seed_words_are_the_reference_row():
    seq = derive_rng(2, "seq", 515).bit_generator.seed_seq
    assert np.array_equal(seq.generate_state(4, np.uint64), _seed_words(2, "seq", 515))
    with pytest.raises(ValueError):
        seq.generate_state(5)


# fan_out forks; on an interpreter that warns about forking a process with
# threads (numpy's BLAS pool), that warning is not the one these tests catch
forks = pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")


def _span_pid(start, stop):
    return os.getpid(), start, stop


def _counting_forks(monkeypatch) -> list:
    """Patch os.fork to record each call's pid before forking."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("reps", [1, 511, 512, 1023])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_fan_out_below_two_blocks_runs_in_this_process(monkeypatch, reps, workers):
    calls = _counting_forks(monkeypatch)
    assert fan_out(_span_pid, (), reps, workers) == [(os.getpid(), 0, reps)]
    assert calls == []


def test_fan_out_without_fork_runs_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fan_out(_span_pid, (), 2048, 4) == [(os.getpid(), 0, 2048)]


@forks
@pytest.mark.parametrize("reps, workers", [(1024, 2), (1024, 3), (1537, 3), (2048, 2)])
def test_fan_out_runs_one_span_per_full_block_in_other_processes(monkeypatch, reps, workers):
    calls = _counting_forks(monkeypatch)
    spans = fan_out(_span_pid, (), reps, workers)
    assert len(spans) == len(calls) == min(workers, reps // 512)
    assert set(calls) == {os.getpid()}
    assert os.getpid() not in {pid for pid, _, _ in spans}
    edges = [0] + [stop for _, _, stop in spans]
    assert [(a, b) for _, a, b in spans] == list(zip(edges, edges[1:]))
    assert edges[-1] == reps
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_in_second_span(start, stop):
    if start > 0:
        raise InfiniteActivityError(f"span [{start}, {stop}) refused")
    return start, stop


def _exit_in_second_span(start, stop):
    if start > 0:
        os._exit(7)
    return start, stop


def _unpicklable_result(start, stop):
    return lambda: start


@forks
def test_fan_out_raises_a_span_exception_with_its_type_and_message():
    with pytest.raises(InfiniteActivityError, match=r"^span \[512, 1024\) refused$"):
        fan_out(_fail_in_second_span, (), 1024, 2)
    _assert_no_child_left()


@forks
def test_fan_out_reports_a_child_that_leaves_without_a_result():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"\[683, 1366\).*exit code 7"):
        fan_out(_exit_in_second_span, (), 2048, 3)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def _sleep_span(start, stop):
    time.sleep(60)


@forks
def test_fan_out_kills_its_children_when_a_fork_fails(monkeypatch):
    calls, fork = [], os.fork

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process left")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    start = time.monotonic()
    with pytest.raises(BlockingIOError):
        fan_out(_sleep_span, (), 2048, 3)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


@forks
def test_fan_out_reports_a_result_that_does_not_pickle():
    with pytest.raises(RuntimeError, match=r"\[0, 512\).*exit code 1\)"):
        fan_out(_unpicklable_result, (), 1024, 2)
    _assert_no_child_left()


# the 6-node table the CLI's stream pins use
PIN_TABLE_TEXT = "0.1 0.2\n0.26 1.0\n0.42 0.1\n0.58 0\n0.74 2\n0.9 1.5\n"


@forks
@pytest.mark.parametrize("workers", [2, 3])
def test_fan_out_output_does_not_depend_on_the_worker_count(tmp_path, workers):
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    for spec in ("poly3x2", f"density-file:{table}"):
        measure = parse_measure(spec)
        for sampler in ("frozen", "chain", "set", "composition"):
            names = (sampler,)
            shared = prepare_shared(names, measure, 1.0, 4)
            args = (names, measure, 1.0, 4, 7, "fan-out", shared)
            for reps in (1023, 1024, 1100, 1537):
                serial = fan_out(draw_span, args, reps, 1)
                assert len(serial) == 1 and len(serial[0]) == reps
                parallel = fan_out(draw_span, args, reps, workers)
                assert [text for span in parallel for text in span] == serial[0], (spec, sampler)
