"""lambdacoal benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its src/.
Workloads (see README.md in this directory for why each exists):
validate-default, exact-recursion, window-infinite, cli-density-table.

--trace 0 times the workload: set-up in fresh interpreters, a warm-up,
then iterations of fixed work until --seconds have passed.  --trace 1
runs one iteration untraced and the same iteration traced, single-worker,
and reports per-layer metrics.  Both check the outputs.

Standard output ends with two JSON lines: a report (every metric, the
named failures, the known-defect probes and machine metadata), then the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, here and in every child.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _key in PINNED:
    os.environ[_key] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, write_spans  # noqa: E402

SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
REF_LOOP = 200_000


def median(values):
    return statistics.median(values) if values else 0.0


def time_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(workloads.HERE / "probes.py"), "setup", name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def reference_s() -> float:
    """Median of 3 timings of a fixed pure-Python loop: the yardstick for
    the host's speed at the moment."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for k in range(REF_LOOP):
            acc += k * k
        samples.append(time.perf_counter() - start)
    return median(samples)


def run_iteration(work, i, workers, tracer=None):
    """(result, wall seconds); an exception is a failed operation."""
    start = time.perf_counter()
    try:
        result = work.iteration(i, workers=workers, tracer=tracer)
    except Exception as exc:  # noqa: BLE001 - the run must report, not die
        traceback.print_exc()
        work.attempted += 1
        work.fail(f"iteration {i}: {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - start
    return result, time.perf_counter() - start


def timed_run(work, seconds: int) -> tuple[dict, dict]:
    setup = time_setup(work.name, work.seed)
    work.setup()
    work.warm_up()
    walls, refs, reps = [], [], 0
    start = time.perf_counter()
    refs.append(reference_s())
    i = 0
    while True:
        result, wall = run_iteration(work, i, work.workers)
        i += 1
        if result is None:
            break
        walls.append(wall)
        refs.append(reference_s())
        reps += work.record(result)
        if time.perf_counter() - start >= seconds and i >= MIN_ITERATIONS:
            break
    # each iteration against the mean of the yardstick timed just before
    # and just after it, so the host's speed phases cancel
    per_ref = [w / (0.5 * (refs[k] + refs[k + 1])) for k, w in enumerate(walls)]
    metrics = {
        "wall_ref": (median(per_ref), "ref"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "wall_s": median(walls),
        "reps_per_s": reps / sum(walls) if reps and walls else None,
        "wall_s_samples": walls,
        "reference_s_samples": refs,
        "setup_s_samples": setup,
        "replicates": reps,
    }
    return metrics, extra


def points_expected(lc, windows) -> float:
    """Sum over (measure, window) pairs of T * nu(eps, 1], T being the
    horizon after any extensions, computed with tracing off."""
    cache = {}
    total = 0.0
    for m, w in windows:
        key = (
            (tuple(m.x), tuple(m.density), m.order) if isinstance(m, lc.DensityTableMeasure) else m,
            w.eps,
        )
        if key not in cache:
            cache[key] = lc.litter_intensity_tail(m, w.eps)[0]
        total += w.T * cache[key]
    return total


def traced_run(work, lc) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.install(lc)
    try:
        work.setup()
    finally:
        tracer.uninstall()
    work.warm_up()
    base, untraced = run_iteration(work, 0, 1)
    pool_efficiency = 0.0
    if base is not None and work.workers > 1:
        pooled, pooled_wall = run_iteration(work, 0, work.workers)
        if pooled is not None:
            pool_efficiency = untraced / (work.workers * pooled_wall)
            if work.fingerprint(pooled) != work.fingerprint(base):
                work.fail(f"output differs between 1 and {work.workers} workers")
    tracer.install(lc)
    try:
        traced, traced_wall = run_iteration(work, 0, 1, tracer)
    finally:
        tracer.uninstall()
    reps = 0
    if base is not None and traced is not None:
        if work.fingerprint(traced) != work.fingerprint(base):
            work.fail("output differs with tracing on")
        reps = work.record(traced)
    case_ids = workloads.W1_CASES + workloads.W3_CASES
    metrics = layer_metrics(
        tracer,
        case_ids,
        points_expected(lc, tracer.windows),
        traced_wall - untraced,
        pool_efficiency,
        work.output_bytes(traced) if traced is not None else 0,
    )
    workloads.OUT.mkdir(exist_ok=True)
    spans_path = workloads.OUT / f"spans-{work.name}-{work.seed}.csv"
    write_spans(tracer, spans_path)
    extra = {
        "untraced_s": untraced,
        "traced_s": traced_wall,
        "replicates": reps,
        "spans_file": str(spans_path.relative_to(workloads.ROOT)),
    }
    return metrics, extra


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "lambdacoal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        revision = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {key: os.environ[key] for key in PINNED},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        lc = workloads.load_package()
    except (FileNotFoundError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    work = workloads.WORKLOADS[args.workload](lc, args.seed)
    if args.trace:
        metrics, extra = traced_run(work, lc)
    else:
        metrics, extra = timed_run(work, args.seconds)
    try:
        work.check()
    except Exception as exc:  # noqa: BLE001 - the run must report, not die
        traceback.print_exc()
        work.fail(f"check: {type(exc).__name__}: {exc}")

    # failed_frac counts the reproduced known defects as failed operations;
    # the result line's "failed" counts unexpected failures only
    reproduced = sum(v.startswith("reproduced") for v in work.known.values())
    shown = dict(metrics)
    if not args.trace:
        shown["wall_s"] = (extra.pop("wall_s"), "s")
        reps_per_s = extra.pop("reps_per_s")
        if reps_per_s is not None:
            shown["reps_per_s"] = (reps_per_s, "1/s")
        shown["failed_frac"] = ((work.failed_ops + reproduced) / work.attempted, "ratio")
    report = {
        "workload": work.name,
        "mode": "traced" if args.trace else "timed",
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "failures": work.failures,
        "known_defects": work.known,
        "checks": work.details,
        "meta": metadata(args.seed),
        **extra,
    }
    print(json.dumps(report, default=float))
    result = {
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": work.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
