"""Tests of the benchmark itself: its checks, its tracer and its contract.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import Tracer, layer_metrics, tail_percentile

lc = workloads.load_package()
HERE = Path(__file__).resolve().parent


def _w1_with_plan(plan, reps):
    work = workloads.ValidateDefault(lc, 7)
    work.plan = plan
    work.tally = workloads.ValidationTally(plan)
    work.reps_per_case = reps
    return work


@pytest.mark.parametrize("exact_mu, rejected", [(1.5, True), (None, False)])
def test_w1_check_rejects_exact_mu_shift(exact_mu, rejected):
    case = lc.ValidationCase(
        "frozen-poly3x2-n6", "sampler_vs_exact", "poly3x2", 1.0, 6, "frozen", exact_mu=exact_mu
    )
    work = _w1_with_plan([case], 2000)
    work.record(work.iteration(0))
    work.check()
    assert bool(work.failures) is rejected
    if rejected:
        assert work.failures[0].startswith("frozen-poly3x2-n6")
        assert work.failed_ops == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0, 100, -1, False],
        ["b", 10, 40, 0, False],
        ["d", 15, 20, 1, True],
        ["c", 50, 60, 0, False],
    ]
    rows = tracer.per_name()
    assert rows["a"]["self_s"] == pytest.approx(60e-9)
    assert rows["b"]["self_s"] == pytest.approx(25e-9)
    assert rows["d"]["failed"] == 1


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert tail_percentile(values) == (49.5, 89.0)
    assert tail_percentile(values[:10]) == (4.5, 0.0)


def test_install_wraps_names_where_callers_look_them_up():
    original = lc.coalescent.simulate_frozen_coalescent
    tracer = Tracer()
    tracer.install(lc)
    try:
        assert lc.validation.simulate_frozen_coalescent is not original
        assert lc.cli.simulate_frozen_coalescent is lc.validation.simulate_frozen_coalescent
        assert lc.simulate_frozen_coalescent is lc.validation.simulate_frozen_coalescent
    finally:
        tracer.uninstall()
    assert lc.validation.simulate_frozen_coalescent is original
    assert lc.cli.simulate_frozen_coalescent is original


def _traced_counts(work):
    tracer = Tracer()
    tracer.install(lc)
    try:
        result = work.iteration(0, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, workloads.W1_CASES, 0.0, 0.0, 0.0, 0)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return result, counts


def test_traced_counts_repeat_and_tracing_changes_no_output():
    work = workloads.ValidateDefault(lc, 3)
    work.reps_per_case = 100
    plain = work.iteration(0)
    first, counts_a = _traced_counts(work)
    second, counts_b = _traced_counts(work)
    assert counts_a == counts_b
    assert counts_a["streams.derive_rng.calls"] == 11 * 100
    assert counts_a["measures.sample_jump_sizes.draws"] == counts_a["subordinator.sample_window.points_realized"]
    assert work.fingerprint(first) == work.fingerprint(plain) == work.fingerprint(second)


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = layer_metrics(Tracer(), workloads.W1_CASES + workloads.W3_CASES, 0.0, 0.0, 0.0, 0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]
    assert {m["name"] for m in bench["workloads"]} == set(workloads.WORKLOADS)


def test_without_package_source_exits_nonzero_and_prints_no_result():
    bare = workloads.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-recursion", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
