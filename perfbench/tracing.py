"""Spans and counters recorded from the benchmark's side of each layer.

A layer is a module of ``src/lambdacoal``.  ``Tracer.install`` replaces
each traced public function with a wrapper wherever the package looks it
up: every module attribute bound to the original function object is
rebound, so ``lambdacoal.validation.simulate_frozen_coalescent`` is traced
as well as ``lambdacoal.coalescent.simulate_frozen_coalescent``.
``Tracer.uninstall`` puts the originals back.  Nothing inside the package
is edited.

Spans live in memory as (name, start_ns, end_ns, parent index, failed) and
are written out by ``write_spans`` once the run is over.  A span's self
time is its duration minus the durations of its direct children; spans
come from one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function; a dotted attribute names a
# method on a class.  The second field is the span name, or None for a
# counter-only hook (resolve_root runs once per litter, and a span there
# would add more time than it measures).
TRACED = [
    ("streams", "derive_rng", "streams.derive_rng"),
    ("coalescent", "simulate_frozen_coalescent", "coalescent.simulate_frozen_coalescent"),
    ("population", "sample_family_partition_chain", "population.sample_family_partition_chain"),
    ("population", "sample_family_partition_set", "population.sample_family_partition_set"),
    ("population", "LitterHistory.build", "population.LitterHistory.build"),
    ("population", "LitterHistory.resolve_root", None),
    ("population", "rho_state", "population.rho_state"),
    ("subordinator", "sample_window", "subordinator.sample_window"),
    ("subordinator", "sample_composition_detailed", "subordinator.sample_composition_detailed"),
    ("subordinator", "sequential_composition", "subordinator.sequential_composition"),
    ("measures", "choose_truncation", "measures.choose_truncation"),
    ("measures", "litter_intensity_tail", "measures.litter_intensity_tail"),
    ("measures", "sample_jump_sizes", "measures.sample_jump_sizes"),
    ("measures", "parse_measure", "measures.parse_measure"),
    ("measures", "build_rate_table", "measures.build_rate_table"),
    ("measures", "first_part_laws_upto", "measures.first_part_laws_upto"),
    ("_quadrature", "adaptive_integral", "quadrature.adaptive_integral"),
    ("sampling_formula", "solve", "sampling_formula.solve"),
    ("sampling_formula", "solve_exact", "sampling_formula.solve_exact"),
]

SAMPLERS = [
    "coalescent.simulate_frozen_coalescent",
    "population.sample_family_partition_chain",
    "population.sample_family_partition_set",
]
SOLVE_LADDER = (20, 25, 30)
CLI_SAMPLERS = ("frozen", "chain", "set")


class Tracer:
    """In-memory spans plus exact counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.windows: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def observe_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span from the benchmark's code."""
        return _Span(self, name)

    def _wrap(self, name, fn, on_return=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name if name_of is None else name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                self._close(span)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _hook(self, fn, on_return):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(args, kwargs, result)
            return result

        return hooked

    # -- hooks that read counts off arguments and results -----------------

    def _on_window(self, args, kwargs, window):
        self.windows.append((args[0], window))

    def _on_jumps(self, args, kwargs, result):
        self.count("measures.sample_jump_sizes.draws", len(result))

    def _on_solve(self, args, kwargs, dist):
        self.count("sampling_formula.solve.partitions", len(dist.entries))

    def _on_root(self, args, kwargs, result):
        self.observe_max("population.resolve_root.height.max", result[1])

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Rebind every traced function throughout the loaded package."""
        hooks = {
            "subordinator.sample_window": self._on_window,
            "measures.sample_jump_sizes": self._on_jumps,
            "sampling_formula.solve": self._on_solve,
        }
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                elif span_name is None:
                    wrapped = self._hook(raw, self._on_root)
                else:
                    wrapped = self._wrap(span_name, raw)
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            name_of = None
            if span_name == "sampling_formula.solve":
                # one span name per sample size, so the ladder reads per n
                def name_of(args, kwargs):
                    n = args[2] if len(args) > 2 else kwargs["n"]
                    return f"sampling_formula.solve.n{n}"
            wrapped = self._wrap(span_name, original, hooks.get(span_name), name_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive and self seconds,
        and the inclusive duration of every call in microseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, failed in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, failed) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "us": []}
            )
            dur = end - start
            row["calls"] += 1
            row["failed"] += int(failed)
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[i]) * 1e-9
            row["us"].append(dur * 1e-3)
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[4] = exc_type is not None
        self.tracer._close(self.record)
        return False


def tail_percentile(values_us: list[float]) -> tuple[float, float]:
    """(median, highest percentile with at least 10 samples beyond it).

    With N samples the tail is the 11th largest, the 100 * (N - 10) / N
    percentile; fewer than 11 samples give no tail and read 0."""
    if not values_us:
        return 0.0, 0.0
    ordered = sorted(values_us)
    n = len(ordered)
    mid = n // 2
    p50 = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return p50, (ordered[n - 11] if n > 10 else 0.0)


def case_label(case_id: str) -> str:
    """Case id reduced to the metric-name alphabet [A-Za-z0-9_.-]."""
    return "".join(c if c.isascii() and (c.isalnum() or c in "_.-") else "_" for c in case_id)


def layer_metrics(
    tracer: Tracer,
    case_ids: list[str],
    points_expected: float,
    overhead_s: float,
    pool_efficiency: float,
    output_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); a layer the
    workload does not reach reads 0."""
    rows = tracer.per_name()
    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "us": []}

    def row(name):
        return rows.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    rng = row("streams.derive_rng")
    out["streams.derive_rng.calls"] = (rng["calls"], "count")
    out["streams.derive_rng.self_s"] = (rng["self_s"], "s")
    out["streams.derive_rng.us_per_call"] = (
        1e6 * rng["total_s"] / rng["calls"] if rng["calls"] else 0.0,
        "us",
    )
    for name in SAMPLERS:
        r = row(name)
        p50, ptail = tail_percentile(r["us"])
        out[f"{name}.calls"] = (r["calls"], "count")
        out[f"{name}.self_s"] = (r["self_s"], "s")
        out[f"{name}.rep_us.p50"] = (p50, "us")
        out[f"{name}.rep_us.ptail"] = (ptail, "us")
    out["population.LitterHistory.build.self_s"] = (row("population.LitterHistory.build")["self_s"], "s")
    out["population.rho_state.self_s"] = (row("population.rho_state")["self_s"], "s")
    out["population.resolve_root.height.max"] = (
        tracer.maxima.get("population.resolve_root.height.max", 0),
        "count",
    )
    win = row("subordinator.sample_window")
    out["subordinator.sample_window.calls"] = (win["calls"], "count")
    out["subordinator.sample_window.self_s"] = (win["self_s"], "s")
    out["subordinator.sample_window.points_expected"] = (points_expected, "count")
    out["subordinator.sample_window.points_realized"] = (
        sum(w.npoints for _, w in tracer.windows),
        "count",
    )
    out["subordinator.sample_window.extensions"] = (
        sum(w.n_extensions for _, w in tracer.windows),
        "count",
    )
    for name in ("sample_composition_detailed", "sequential_composition"):
        out[f"subordinator.{name}.self_s"] = (row(f"subordinator.{name}")["self_s"], "s")
    out["measures.choose_truncation.calls"] = (row("measures.choose_truncation")["calls"], "count")
    out["measures.choose_truncation.self_s"] = (row("measures.choose_truncation")["self_s"], "s")
    out["measures.litter_intensity_tail.calls"] = (
        row("measures.litter_intensity_tail")["calls"],
        "count",
    )
    jumps = row("measures.sample_jump_sizes")
    out["measures.sample_jump_sizes.calls"] = (jumps["calls"], "count")
    out["measures.sample_jump_sizes.draws"] = (
        tracer.counts.get("measures.sample_jump_sizes.draws", 0),
        "count",
    )
    out["measures.sample_jump_sizes.self_s"] = (jumps["self_s"], "s")
    out["measures.parse_measure.calls"] = (row("measures.parse_measure")["calls"], "count")
    out["measures.parse_measure.self_s"] = (row("measures.parse_measure")["self_s"], "s")
    out["measures.build_rate_table.self_s"] = (row("measures.build_rate_table")["self_s"], "s")
    out["measures.first_part_laws_upto.self_s"] = (
        row("measures.first_part_laws_upto")["self_s"],
        "s",
    )
    quad = row("quadrature.adaptive_integral")
    out["quadrature.adaptive_integral.calls"] = (quad["calls"], "count")
    out["quadrature.adaptive_integral.self_s"] = (quad["self_s"], "s")
    out["quadrature.adaptive_integral.failed"] = (quad["failed"], "count")
    for n in SOLVE_LADDER:
        out[f"sampling_formula.solve.s.n{n}"] = (row(f"sampling_formula.solve.n{n}")["total_s"], "s")
    out["sampling_formula.solve.partitions"] = (
        tracer.counts.get("sampling_formula.solve.partitions", 0),
        "count",
    )
    out["sampling_formula.solve_exact.self_s"] = (row("sampling_formula.solve_exact")["self_s"], "s")
    for case_id in case_ids:
        label = "validation.case_s." + case_label(case_id)
        out[label] = (row(label)["total_s"], "s")
    for sampler in CLI_SAMPLERS:
        out[f"cli.main.s.{sampler}"] = (row(f"cli.main.{sampler}")["total_s"], "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["cli.pool_efficiency"] = (pool_efficiency, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One line per span: index, parent index, name, start and end in ns
    relative to the first span, failed flag."""
    origin = tracer.spans[0][1] if tracer.spans else 0
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_ns,end_ns,failed\n")
        for i, (name, start, end, parent, failed) in enumerate(tracer.spans):
            fh.write(f"{i},{parent},{name},{start - origin},{end - origin},{int(failed)}\n")
