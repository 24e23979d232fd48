"""Child processes of the benchmark, one job per invocation.

    python3 perfbench/probes.py setup <workload> <seed>
        Times a fresh interpreter's set-up for the workload (package
        import plus the workload's set-up step, not input generation) and
        prints {"setup_s": ...}.

    python3 perfbench/probes.py window <mu> <seed> <limit_bytes>
        Draws one stationary-window family partition on beta:1.5,1,1 at
        n = 6 under an address-space limit on this process only, and
        prints what happened.  The auto cutoff asks for about 1.4e8 window
        points, far more than the limit holds.
"""

from __future__ import annotations

import json
import sys
import time


def time_setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import workloads

    lc = workloads.load_package()
    imported = time.perf_counter()
    work = workloads.WORKLOADS[workload](lc, seed)
    made_inputs = time.perf_counter()
    work.setup()
    done = time.perf_counter()
    return {"setup_s": (imported - t0) + (done - made_inputs)}


def blowup_window(mu: float, seed: int, limit: int) -> dict:
    import resource

    import workloads

    lc = workloads.load_package()
    measure = lc.parse_measure(workloads.BLOWUP_SPEC)
    horizon = lc.default_window_horizon(measure, mu, workloads.BLOWUP_N)
    eps = lc.choose_truncation(measure, horizon)
    out = {
        "eps": eps,
        "points_expected": horizon * lc.litter_intensity_tail(measure, eps)[0],
    }
    rng = lc.derive_rng(seed, "window-blowup", 0)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    start = time.perf_counter()
    try:
        pv = lc.sample_family_partition_set(measure, mu, workloads.BLOWUP_N, rng)
        out.update(outcome="ok", partition=pv.to_text())
    except MemoryError:
        out.update(outcome="MemoryError")
    except lc.LambdaCoalError as exc:
        out.update(outcome="refused", error=f"{type(exc).__name__}: {exc}")
    out["seconds"] = time.perf_counter() - start
    return out


def main(argv: list[str]) -> int:
    job = argv[0] if argv else ""
    if job == "setup" and len(argv) == 3:
        result = time_setup(argv[1], int(argv[2]))
    elif job == "window" and len(argv) == 4:
        result = blowup_window(float(argv[1]), int(argv[2]), int(argv[3]))
    else:
        sys.stderr.write(__doc__)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
