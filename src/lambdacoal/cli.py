"""Command-line frontend.

Every command is a pure function of its flags: randomized commands
require an explicit --seed (no wall-clock default) and replicate r of a
run always consumes the stream derived from (seed, tag, r), so repeated
invocations produce byte-identical output at any --workers count.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical or domain failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import LambdaCoalError, MeasureSpecError
from .measures import build_rate_table, measure_descriptor, parse_measure
from .population import LitterHistory, forward_simulate, rho_state
# perfbench's tracer test reads cli.simulate_frozen_coalescent
from .coalescent import simulate_frozen_coalescent  # noqa: F401
from .sampling_formula import DEFAULT_PARTITION_CAP, solve
from .streams import derive_rng, fan_out
from .subordinator import default_window_horizon
from .validation import (
    draw_span,
    load_plan,
    prepare_shared,
    reports_to_csv,
    reports_to_json,
    run_validation,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Largest (nmax + 1)**2 float64 grid `rates` builds, on the scale of the
# window point budget (subordinator.MAX_WINDOW_POINTS): nmax <= 3161.
MAX_RATE_CELLS = 1e7


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    measure = parse_measure(args.measure)
    table = build_rate_table(measure, args.nmax)
    if args.format == "json":
        payload = {
            "measure": measure_descriptor(measure),
            "nMax": args.nmax,
            "rates": {
                str(b): {str(k): table.rate(b, k) for k in range(2, b + 1)}
                for b in range(2, args.nmax + 1)
            },
            "totals": {str(b): table.total(b) for b in range(2, args.nmax + 1)},
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
        return EXIT_OK
    lines = []
    if args.format == "csv":
        lines.append("b,k,rate,total")
        for b in range(2, args.nmax + 1):
            for k in range(2, b + 1):
                lines.append(f"{b},{k},{table.rate(b, k)!r},{table.total(b)!r}")
    else:
        lines.append(f"# merger rates for {measure_descriptor(measure)}")
        lines.append("# rate(b, k): k of b lineages merge; total(b) includes")
        lines.append("# the binomial count of participant subsets")
        for b in range(2, args.nmax + 1):
            row = "  ".join(f"{table.rate(b, k):.12g}" for k in range(2, b + 1))
            lines.append(f"b={b:<3d} {row}  | total {table.total(b):.12g}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def cmd_exact(args) -> int:
    measure = parse_measure(args.measure)
    rates = build_rate_table(measure, args.n)
    dist = solve(rates, args.mu, args.n)
    items = dist.items_ordered()
    if args.format == "json":
        payload = {
            "measure": dist.descriptor,
            "mu": args.mu,
            "n": args.n,
            "probabilities": {pv.to_text(): p for pv, p in items},
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
        return EXIT_OK
    lines = []
    if args.format == "csv":
        lines.append("partition,probability")
        for pv, p in items:
            lines.append(f'"{pv.to_text()}",{p!r}')
    else:
        lines.append(
            f"# family-size distribution, {dist.descriptor}, mu={args.mu:g}, n={args.n}"
        )
        for pv, p in items:
            lines.append(f"{pv.to_text():<24s} {p:.12g}")
        lines.append(f"{'(sum)':<24s} {dist.total():.12g}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    measure = parse_measure(args.measure)
    if args.sampler == "forward":
        rng = derive_rng(args.seed, "simulate:forward", 0)
        path = forward_simulate(measure, args.mu, args.horizon, rng)
        lines = []
        for t, state in path:
            snap = state.to_snapshot(0.0)
            lines.append(
                json.dumps({"time": t, "state": snap}, sort_keys=True)
            )
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    names = (args.sampler,)
    shared = prepare_shared(names, measure, args.mu, args.n)
    tag = "simulate:" + args.sampler
    spans = fan_out(
        draw_span,
        (names, measure, args.mu, args.n, args.seed, tag, shared),
        args.reps,
        args.workers,
    )
    lines = [line for span in spans for line in span]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    plan = load_plan(args.plan) if args.plan else None
    reports = run_validation(plan, args.reps, args.seed, workers=args.workers)
    if args.format == "csv":
        _emit(reports_to_csv(reports), args.output)
    else:
        _emit(reports_to_json(reports) + "\n", args.output)
    if all(r.passed for r in reports):
        return EXIT_OK
    failing = [r.case_id for r in reports if not r.passed]
    sys.stderr.write("failing cases: " + ", ".join(failing) + "\n")
    return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# forward-snapshot
# ---------------------------------------------------------------------------


def cmd_forward_snapshot(args) -> int:
    measure = parse_measure(args.measure)
    rng = derive_rng(args.seed, "forward-snapshot", 0)
    if args.stationary:
        t0 = args.t0
        if t0 is None:
            t0 = default_window_horizon(measure, args.mu, 1)
        eps = "auto" if args.eps is None else args.eps
        history = LitterHistory.build(measure, args.mu, rng, T0=t0, eps=eps)
        state = rho_state(history)
        bias = history.window.truncation_bias()
    else:
        path = forward_simulate(
            measure, args.mu, args.horizon, rng, record_path=False
        )
        state = path[-1][1]
        bias = 0.0
    _emit(
        json.dumps(state.to_snapshot(bias), indent=2, sort_keys=True) + "\n",
        args.output,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, *, seed=False, output=True):
    if seed:
        p.add_argument("--seed", type=int, required=True, help="master RNG seed")
    if output:
        p.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdacoal",
        description=(
            "Multiple-merger coalescents with freezing mutations: exact "
            "family-size distributions, two independent simulators (the "
            "first-part chain runs the frozen chain's event table), stationary "
            "population snapshots, and a validation harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = (
        "at most this many processes, one per 512 replicates; "
        "output is the same at any count"
    )

    p = sub.add_parser(
        "rates",
        help="merger rate grid rate(b,k) plus per-b totals",
        description=(
            "Print the grid of merger rates: rate(b, k) is the rate at "
            "which a fixed k-subset of b lineages merges, the moment "
            "integral of x**(k-2) (1-x)**(b-k) against the driving "
            "measure; total(b) sums rate(b,k) over all C(b,k) subsets."
        ),
    )
    p.add_argument("--measure", required=True, help="measure spec, e.g. delta:0")
    p.add_argument("--nmax", type=int, required=True, help="largest block count")
    p.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    _add_common(p)
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser(
        "exact",
        help="exact family-size distribution by recursion",
        description=(
            "Solve the recursion for the distribution of frozen family "
            "sizes of an n-sample under mutation rate mu.  Output lines "
            "are partition vectors like '1^2 5^1' with probabilities."
        ),
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    _add_common(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser(
        "simulate",
        help="draw replicate samples from one of the simulators",
        description=(
            "Samplers: 'frozen' runs the coalescent with killing and "
            "prints family-size partition vectors; 'chain' runs the "
            "first-part chain, on the frozen event table behind refusals "
            "of its own (mu = 0, no population support); 'set' reads "
            "families off a stationary population window; 'composition' "
            "prints raw ordered compositions like '1,1,2,3'; 'forward' runs "
            "the population-valued jump process and prints one JSON state "
            "line per event (requires finite jump intensity, and at most "
            "1e7 expected jumps over --horizon)."
        ),
    )
    p.add_argument(
        "sampler", choices=["frozen", "chain", "set", "composition", "forward"]
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="sample size")
    p.add_argument("--reps", type=int, default=1, help="number of replicates")
    p.add_argument(
        "--horizon", type=float, default=None, help="forward sampler: run time"
    )
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "validate",
        help="run the cross-validation matrix and report pass/fail",
        description=(
            "Run every case of the validation plan (default: the standing "
            "matrix of simulators against the exact recursion, the "
            "closed-form pair-merger check, first-part laws, and the "
            "sequential-vs-window two-sample test).  Exit 0 if all cases "
            "pass, 1 otherwise."
        ),
    )
    p.add_argument("--plan", default=None, help="JSON plan file (default matrix)")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "forward-snapshot",
        help="one stationary or forward-evolved population snapshot",
        description=(
            "Emit a single population state as JSON {atoms, diffuse, "
            "truncationBias}.  With --stationary the state is read off a "
            "subordinator window at the given horizon; with --horizon T "
            "the population-valued jump process is run for time T from "
            "the pure-diffuse state."
        ),
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--mu", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--stationary", action="store_true", help="read the stationary state"
    )
    group.add_argument("--horizon", type=float, default=None)
    p.add_argument("--t0", type=float, default=None, help="window horizon override")
    p.add_argument("--eps", type=float, default=None, help="truncation override")
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_forward_snapshot)

    return parser


def _check_args(args) -> None:
    for flag in ("mu", "horizon", "t0"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise MeasureSpecError(f"--{flag} must be finite")
    if getattr(args, "reps", 1) is not None and getattr(args, "reps", 1) < 1:
        raise MeasureSpecError("replicates must be >= 1")
    nmax = getattr(args, "nmax", 2)
    if nmax < 2:
        raise MeasureSpecError("--nmax must be >= 2")
    if (nmax + 1) ** 2 > MAX_RATE_CELLS:
        raise MeasureSpecError(
            f"--nmax {nmax} needs a rate grid of {(nmax + 1) ** 2:.3g} cells, "
            f"above the budget of {MAX_RATE_CELLS:.0e}"
        )
    if getattr(args, "seed", 0) < 0:
        raise MeasureSpecError("--seed must be >= 0")
    if getattr(args, "workers", 1) < 1:
        raise MeasureSpecError("--workers must be >= 1")
    forward = args.command == "simulate" and args.sampler == "forward"
    if forward and args.horizon is None:
        raise MeasureSpecError("forward sampler requires --horizon")
    if args.command == "simulate" and not forward and args.n is None:
        raise MeasureSpecError(f"sampler {args.sampler!r} requires --n")
    if args.command in ("simulate", "exact") and not forward:
        if args.n < 1:
            raise MeasureSpecError("--n must be >= 1")
        if args.n > DEFAULT_PARTITION_CAP:
            raise MeasureSpecError(
                f"--n exceeds the partition cap {DEFAULT_PARTITION_CAP}"
            )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except MeasureSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LambdaCoalError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
