"""Span tracing of the basisopt layers from outside the package.

`Tracer.install()` wraps every public function (and public method of a
public class) defined in the traced modules and rebinds each module
attribute that refers to it, so a name imported into another module, such
as `criteria.reduced_overlap` next to `galerkin.reduced_overlap`, is traced
too. Each call records a span: name, start, end and parent span. The
callable returned by `criteria.make_criterion` is wrapped as the span
`criteria.value_and_grad`, since it is not a module attribute.

`layer_metrics()` turns the spans into the per-layer metrics of the
benchmark. A metric whose function no longer exists in the package is
absent from its result, not zero.

Run as a script, it executes one `basisopt` command under the tracer and
writes the spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json -- --config run.ini reference
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time

MODULES = (
    "grid",
    "hermite",
    "reference",
    "galerkin",
    "criteria",
    "stiefel",
    "evaluate",
    "cli",
)
PACKAGE = "basisopt"
VALUE_AND_GRAD = "criteria.value_and_grad"
CLI_STAGES = ("reference", "optimize", "evaluate", "report")


class Span:
    """One traced call; `parent` indexes the enclosing span, -1 at the top."""

    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.info]

    @classmethod
    def from_json(cls, row, offset=0) -> "Span":
        name, parent, start, end, info = row
        span = cls(name, parent if parent < 0 else parent + offset, start)
        span.end = end
        span.info = info
        return span


class Tracer:
    """Records spans of the traced basisopt functions while `active`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and rebind every module reference."""
        package = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if attr.startswith("_") or not defined_here:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{short}.{meth}"))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, info=None):
        self.wrapped.add(name)
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info
            if after is not None:
                result = after(self, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.span_info = info
        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            spans = [s.to_json() for s in self.spans]
            json.dump({"wrapped": sorted(self.wrapped), "spans": spans}, fh)


def load_spans(paths) -> tuple[list[Span], set[str]]:
    """Concatenate the span files written by traced processes."""
    spans: list[Span] = []
    wrapped: set[str] = set()
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        offset = len(spans)
        spans.extend(Span.from_json(row, offset) for row in doc["spans"])
        wrapped.update(doc["wrapped"])
    return spans, wrapped


# -- annotations taken from a call's arguments and result ----------------------


def _after_make_criterion(tracer, span, args, result):
    kind, offline = args[0], args[1]
    label = getattr(kind, "value", str(kind))
    info = {"k": len(offline), "label": label}
    return tracer._wrap(result, VALUE_AND_GRAD, info=info)


def _after_minimize(tracer, span, args, report):
    criterion = getattr(args[0], "span_info", None) or {"label": "?"}
    span.info = {
        "label": f"{criterion['label']} N_b={args[1].shape[1]}",
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "stalled": bool(report.stalled),
    }
    return report


def _after_load_cached(tracer, span, args, result):
    span.info = {"hit": result is not None}
    return result


def _after_save(tracer, span, args, path):
    span.info = {"bytes": os.path.getsize(path)}
    return path


def _after_write_csv(tracer, span, args, result):
    span.info = {"bytes": os.path.getsize(args[0])}
    return result


_AFTER = {
    "criteria.make_criterion": _after_make_criterion,
    "stiefel.minimize": _after_minimize,
    "reference.load_cached": _after_load_cached,
    "reference.save_offline_entry": _after_save,
    "cli.write_csv": _after_write_csv,
}


# -- span analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# per-layer metric -> the traced function whose calls or self time it counts
CALL_COUNTS = {
    "grid.matvec.calls": "grid.matvec",
    "hermite.assemble_dimer.calls": "hermite.assemble_dimer",
    "reference.eigensolves": "reference.solve_ground_pair",
    "reference.cache_writes": "reference.save_offline_entry",
    "galerkin.reduced_overlap.calls": "galerkin.reduced_overlap",
    "galerkin.inv_sqrt_spd.calls": "galerkin.inv_sqrt_spd",
    "evaluate.density_error.calls": "evaluate.density_error",
}
SELF_TIMES = {
    "grid.matvec.self_s": "grid.matvec",
    "hermite.assemble_dimer.self_s": "hermite.assemble_dimer",
    "reference.eigensolve.self_s": "reference.solve_ground_pair",
    "reference.assembly.self_s": "reference.build_offline_single",
    "galerkin.reduced_overlap.self_s": "galerkin.reduced_overlap",
    "galerkin.inv_sqrt_spd.self_s": "galerkin.inv_sqrt_spd",
    "galerkin.reduced_ground_pair.self_s": "galerkin.reduced_ground_pair",
    "evaluate.energy_curve.self_s": "evaluate.energy_curve",
    "evaluate.density_error.self_s": "evaluate.density_error",
    "evaluate.condition_sweep.self_s": "evaluate.overlap_condition_sweep",
    **{f"cli.{stage}.self_s": f"cli.cmd_{stage}" for stage in CLI_STAGES},
}
LOAD, SAVE = "reference.load_cached", "reference.save_offline_entry"
MINIMIZE, MAKE_CRITERION = "stiefel.minimize", "criteria.make_criterion"


def layer_metrics(spans, wrapped, wall_s: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    `wall_s` is the traced wall time the spans fall in; the part no span
    covers is reported as `trace.untraced_s`, so that the module self times
    plus it add up to `wall_s`. A metric is left out when a function it
    needs was not traced because the package no longer has it.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, st in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + st
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit, *needs):
        if all(n in wrapped for n in needs):
            out[metric] = (value, unit)

    def named(name):
        return [s for s in spans if s.name == name]

    for module in MODULES:
        share = sum(t for s, t in zip(spans, selfs) if s.name.split(".")[0] == module)
        put(f"{module}.self_s", share, "s")
    for metric, fn in CALL_COUNTS.items():
        put(metric, calls.get(fn, 0), "count", fn)
    for metric, fn in SELF_TIMES.items():
        put(metric, self_s.get(fn, 0.0), "s", fn)

    # a call that raised has no info: it is a miss and wrote nothing
    hits = sum(1 for s in named(LOAD) if s.info and s.info["hit"])
    put("reference.cache_hits", hits, "count", LOAD)
    put("reference.cache_misses", calls.get(LOAD, 0) - hits, "count", LOAD)
    put("reference.cache_read_s", sum(s.seconds for s in named(LOAD)), "s", LOAD)
    put("reference.cache_write_s", sum(s.seconds for s in named(SAVE)), "s", SAVE)
    written = sum((s.info or {}).get("bytes", 0) for s in named(SAVE))
    put("reference.cache_bytes_written", written, "B", SAVE)
    csv_bytes = sum((s.info or {}).get("bytes", 0) for s in named("cli.write_csv"))
    put("cli.csv_bytes_written", csv_bytes, "B", "cli.write_csv")

    # value+gradient calls, and the reduced solves made inside them
    vg_index = [i for i, s in enumerate(spans) if s.name == VALUE_AND_GRAD]
    vg_set = set(vg_index)
    solves_in_vg = 0
    for span in named("galerkin.inv_sqrt_spd"):
        parent = span.parent
        while parent >= 0 and parent not in vg_set:
            parent = spans[parent].parent
        solves_in_vg += parent >= 0
    put("criteria.vg_calls", len(vg_index), "count", MAKE_CRITERION)
    if vg_index:
        vg = [spans[i] for i in vg_index]
        vg_ms = [s.seconds * 1e3 for s in vg]
        per_config = [s.seconds * 1e6 / s.info["k"] for s in vg]
        configs = sum(s.info["k"] for s in vg)
        put("criteria.vg_ms_p50", statistics.median(vg_ms), "ms", MAKE_CRITERION)
        put("criteria.vg_ms_p90", _percentile(vg_ms, 90), "ms", MAKE_CRITERION)
        per_config_us = statistics.median(per_config)
        put("criteria.vg_us_per_config", per_config_us, "us", MAKE_CRITERION)
        put(
            "criteria.solves_per_config_eval",
            solves_in_vg / configs,
            "ratio",
            MAKE_CRITERION,
            "galerkin.inv_sqrt_spd",
        )

    # optimizer runs; each iteration accepts one value+gradient call after
    # the first, so the other calls are line-search trials thrown away
    runs = {i: s for i, s in enumerate(spans) if s.name == MINIMIZE and s.info}
    vg_per_run = {i: 0 for i in runs}
    for i in vg_index:
        if spans[i].parent in vg_per_run:
            vg_per_run[spans[i].parent] += 1
    iterations = sum(s.info["iterations"] for s in runs.values())
    discarded = sum(vg_per_run[i] - 1 - s.info["iterations"] for i, s in runs.items())
    put("stiefel.iterations", iterations, "count", MINIMIZE)
    if iterations:
        per_iter = sum(vg_per_run.values()) / iterations
        put("stiefel.vg_calls_per_iter", per_iter, "ratio", MINIMIZE)
    put("stiefel.discarded_grads", discarded, "count", MINIMIZE)
    not_converged = sum(not s.info["converged"] for s in runs.values())
    put("stiefel.not_converged", not_converged, "count", MINIMIZE)
    stalled = sum(s.info["stalled"] for s in runs.values())
    put("stiefel.stalled", stalled, "count", MINIMIZE)

    out["trace.spans"] = (len(spans), "count")
    out["trace.traced_wall_s"] = (wall_s, "s")
    out["trace.untraced_s"] = (wall_s - sum(selfs), "s")
    return out


def stiefel_runs(spans) -> list[dict]:
    """Label, iterations and flags of each traced optimizer run."""
    return [dict(s.info) for s in spans if s.name == "stiefel.minimize" and s.info]


# -- import time --------------------------------------------------------------


def import_times(importtime_log: str, packages=("numpy", "scipy", PACKAGE)) -> dict:
    """Seconds spent importing each package, from `python -X importtime`.

    Each module's self time goes to the nearest enclosing import (itself
    included) that belongs to one of `packages`, so a standard-library
    module pulled in by numpy counts for numpy, and the shares add up.
    """
    nodes = []  # (level, self_us, name, children)
    stack: list[tuple] = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        node = (level, self_us, name, children)
        stack.append(node)
    nodes = stack

    totals = {p: 0 for p in packages}

    def owner_of(name, inherited):
        for p in packages:
            if name == p or name.startswith(p + "."):
                return p
        return inherited

    def visit(node, inherited):
        _, self_us, name, children = node
        owner = owner_of(name, inherited)
        if owner is not None:
            totals[owner] += self_us
        for child in children:
            visit(child, owner)

    for node in nodes:
        visit(node, None)
    return {p: us / 1e6 for p, us in totals.items()}


def _run_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- BASISOPT-ARGS...")
    sys.exit(_run_cli(sys.argv[1], sys.argv[3:]))
