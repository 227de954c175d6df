"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py WORKLOAD --seed N --params JSON \
        --work DIR --out RESULT.json --mode {run,setup,trace,loop} [--seconds S]

The process sets up the workload (imports basisopt, generates the inputs
from the seed), stamps the monotonic clock at its first timed call, runs
the timed operations one after another, then checks their outputs outside
the timed region and writes one JSON result. `--mode setup` stops after
set-up; `--mode trace` runs the same operations with the layer tracer on;
`--mode loop` repeats calibrated rounds of them for `--seconds`.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import (  # noqa: E402
    CLI_STAGES,
    Tracer,
    layer_metrics,
    load_spans,
    stiefel_runs,
)

# Reference-table constants and the optimized-basis rule of the acceptance
# tests, at the tests' tolerances (reference setting only).
HBS_TABLE = {
    "JA_L2": ({1: -7.40829, 2: -7.70051, 3: -7.74312, 4: -7.77138}, "abs", 1e-3),
    "JA_H1": ({1: -10.5613, 2: -11.0566, 3: -11.1451, 4: -11.2402}, "abs", 5e-3),
    "JE": ({1: 3.77956e-2, 2: 3.98301e-3, 3: 1.86537e-3, 4: 1.35309e-4}, "rel", 0.02),
}
OPTIMIZED_TARGETS = {
    ("JA_L2", 2): -7.76479,
    ("JA_L2", 3): -7.77725,
    ("JA_H1", 2): -11.2338,
    ("JA_H1", 3): -11.2630,
    ("JE", 2): 1.92087e-4,
    ("JE", 3): 6.93394e-7,
}
CRITERIA = ("JA_L2", "JA_H1", "JE")


class Repetition:
    """Timed operations and output checks of one repetition.

    With `calibrate`, the calibration kernels run before the first
    operation and after each one, and each operation records which kernel
    calibrates it (`kernel`, see `calibrate.py`) and that kernel's mean
    time around it (`kernel_s`). `repeats` maps an operation kind to the
    number of back-to-back calls made of each operation of that kind;
    every call's time is kept in `calls`.
    """

    def __init__(self, calibrate: bool = False, repeats: dict | None = None):
        self.ops: list[dict] = []
        self.checks: list[dict] = []
        self.checksums: dict = {}
        self.repeats = repeats or {}
        self._kernel_s = None
        if calibrate:
            # imported here so that set-up times basisopt's imports alone
            from calibrate import kernel_seconds

            self._kernel_seconds = kernel_seconds
            self._kernel_s = kernel_seconds()

    def op(self, name: str, kind: str, fn):
        """Run one timed operation; a raised exception or warning fails it."""
        calls, error = [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(self.repeats.get(kind, 1)):
                start = time.perf_counter()
                try:
                    value = fn()
                except Exception as exc:  # a failed operation is counted, not fatal
                    value, error = None, f"{type(exc).__name__}: {exc}"
                calls.append(time.perf_counter() - start)
                if error is not None:
                    break
        if error is None and caught:
            error = f"{caught[0].category.__name__}: {caught[0].message}"
        entry = {
            "name": name,
            "kind": kind,
            "seconds": sum(calls) / len(calls),
            "calls": calls,
            "error": error,
        }
        if self._kernel_s is not None:
            after = self._kernel_seconds()
            kernel = KERNEL_OF_KIND.get(kind, "interp")
            entry["kernel"] = kernel
            entry["kernel_s"] = 0.5 * (self._kernel_s[kernel] + after[kernel])
            self._kernel_s = after
        self.ops.append(entry)
        if error is not None:
            raise OperationFailed(f"{name}: {error}")
        return value

    def check(self, op_name: str, ok: bool, detail: str):
        self.checks.append({"op": op_name, "ok": bool(ok), "detail": detail})

    def seconds(self, kind: str) -> float:
        return sum(op["seconds"] for op in self.ops if op["kind"] == kind)

    def failed_ops(self) -> set[str]:
        failed = {op["name"] for op in self.ops if op["error"]}
        return failed | {c["op"] for c in self.checks if not c["ok"]}


class OperationFailed(RuntimeError):
    pass


def _spacing_measure(rng, count, a_min=1.5, a_max=5.0):
    """Sorted seeded configurations in [a_min, a_max], each weighted by the
    length of the interval closer to it than to its neighbours."""
    import numpy as np

    points = np.sort(rng.uniform(a_min, a_max, count))
    edges = np.concatenate([[a_min], 0.5 * (points[1:] + points[:-1]), [a_max]])
    return points.tolist(), np.diff(edges).tolist()


def _criterion_values(R, offline):
    from basisopt.criteria import eval_JA, eval_JE

    return {
        "JA_L2": eval_JA(R, offline["L2"]),
        "JA_H1": eval_JA(R, offline["H1"]),
        "JE": eval_JE(R, offline["L2"]),
    }


def _build_offline(rep: Repetition, grid, measure, n_funcs) -> dict:
    """The L2 and H1 offline data, without a cache; one operation each."""
    from basisopt.reference import build_offline

    return {
        m: rep.op(
            f"reference {m}",
            "reference",
            lambda: build_offline(grid, measure, n_funcs, m),
        )
        for m in ("L2", "H1")
    }


def _metric(kind: str) -> str:
    return "H1" if kind == "JA_H1" else "L2"


# -- paper_tables ---------------------------------------------------------------


def paper_setup(params, seed, work):
    """The paper's fixed table setting; the seed is not used."""
    from basisopt.grid import build_grid
    from basisopt.reference import default_measure
    from basisopt.stiefel import OptimSettings

    return {
        "grid": build_grid(params["x_max"], params["n_points"]),
        "measure": default_measure(),
        "settings": OptimSettings(max_iter=params["max_iter"]),
    }


def paper_run(rep: Repetition, params, inputs):
    from basisopt.criteria import CriterionKind, make_criterion
    from basisopt.galerkin import hbs_coefficients
    from basisopt.stiefel import minimize

    grid, measure, n = inputs["grid"], inputs["measure"], params["n_funcs"]
    offline = _build_offline(rep, grid, measure, n)
    hbs = rep.op(
        "evaluate HBS rows",
        "evaluate",
        lambda: {
            nb: _criterion_values(hbs_coefficients(n, nb), offline)
            for nb in range(1, 5)
        },
    )
    reports = {}
    for kind in CRITERIA:
        for nb in range(1, 5):
            reports[(kind, nb)] = rep.op(
                f"optimize {kind} N_b={nb}",
                "optimize",
                lambda: minimize(
                    make_criterion(CriterionKind(kind), offline[_metric(kind)]),
                    hbs_coefficients(n, nb),
                    inputs["settings"],
                ),
            )
    optimized = rep.op(
        "evaluate optimized rows", "evaluate", lambda: _optimized_rows(reports, offline)
    )
    return {"hbs": hbs, "reports": reports, "optimized": optimized}


def _optimized_rows(reports, offline):
    return {key: _criterion_values(r.R_opt, offline) for key, r in reports.items()}


def paper_check(rep: Repetition, params, inputs, out):
    for kind, (table, mode, tol) in HBS_TABLE.items():
        for nb, expected in table.items():
            value = out["hbs"][nb][kind]
            err = abs(value - expected) / (abs(expected) if mode == "rel" else 1.0)
            rep.check(
                "evaluate HBS rows",
                err < tol,
                f"HBS {kind} N_b={nb} value={value:.6e} expected={expected}",
            )
    for (kind, nb), target in OPTIMIZED_TARGETS.items():
        final = out["reports"][(kind, nb)].final_value
        if kind == "JE":
            ok = final <= 2.0 * target
        else:
            hbs = HBS_TABLE[kind][0][nb]
            ok = final <= hbs + 0.5 * (target - hbs)
            if (kind, nb) == ("JA_L2", 2):
                ok = ok and final <= -7.764
        detail = f"{kind} N_b={nb} final={final!r} target={target}"
        rep.check(f"optimize {kind} N_b={nb}", ok, detail)
    rep.checksums = {
        "hbs": {
            f"{k} N_b={nb}": repr(row[k])
            for nb, row in out["hbs"].items()
            for k in CRITERIA
        },
        "runs": _run_checksums(out["reports"]),
    }


def _run_checksums(reports) -> dict:
    return {
        f"{kind} N_b={nb}": {
            "final": repr(r.final_value),
            "iterations": r.iterations,
            "converged": r.converged,
            "stalled": r.stalled,
        }
        for (kind, nb), r in reports.items()
    }


# -- dense_measure --------------------------------------------------------------


def dense_setup(params, seed, work):
    import numpy as np

    from basisopt.grid import build_grid
    from basisopt.reference import Measure
    from basisopt.stiefel import OptimSettings, random_stiefel

    rng = np.random.default_rng(seed)
    points, weights = _spacing_measure(rng, params["count"])
    return {
        "grid": build_grid(params["x_max"], params["n_points"]),
        "measure": Measure(points=tuple(points), weights=tuple(weights)),
        "R0": random_stiefel(rng, params["n_funcs"], params["n_basis"]),
        "Q": random_stiefel(rng, params["n_basis"], params["n_basis"]),
        "settings": OptimSettings(max_iter=params["max_iter"]),
    }


def dense_run(rep: Repetition, params, inputs):
    from basisopt.criteria import CriterionKind, make_criterion
    from basisopt.stiefel import minimize

    grid, measure, n = inputs["grid"], inputs["measure"], params["n_funcs"]
    offline = _build_offline(rep, grid, measure, n)
    start = rep.op(
        "evaluate start", "evaluate", lambda: _criterion_values(inputs["R0"], offline)
    )
    reports = {}
    for kind in CRITERIA:
        reports[(kind, params["n_basis"])] = rep.op(
            f"optimize {kind}",
            "optimize",
            lambda: minimize(
                make_criterion(CriterionKind(kind), offline[_metric(kind)]),
                inputs["R0"],
                inputs["settings"],
            ),
        )
    final = rep.op(
        "evaluate optimized", "evaluate", lambda: _optimized_rows(reports, offline)
    )
    return {"offline": offline, "start": start, "reports": reports, "final": final}


def dense_check(rep: Repetition, params, inputs, out):
    import numpy as np

    from basisopt.criteria import eval_JA, eval_JE, grad_JA, grad_JE

    offline, Q = out["offline"], inputs["Q"]
    values = [*out["start"].values()]
    values += [v for row in out["final"].values() for v in row.values()]
    rep.check("evaluate optimized", all(np.isfinite(values)), "criterion values finite")
    for (kind, nb), report in out["reports"].items():
        name = f"optimize {kind}"
        data = offline[_metric(kind)]
        value, grad = (eval_JE, grad_JE) if kind == "JE" else (eval_JA, grad_JA)
        R = report.R_opt
        f0, f1 = float(report.trajectory[0]), report.final_value
        detail = f"{kind} final={f1!r} start={f0!r}"
        rep.check(name, np.isfinite(f1) and f1 <= f0, detail)
        j, jq = value(R, data), value(R @ Q, data)
        rep.check(name, abs(jq - j) <= 1e-9 * abs(j), f"{kind} J(RQ)-J(R)={jq - j:.2e}")
        G = grad(R, data)
        lhs, scale = np.linalg.norm(R.T @ G), np.linalg.norm(G)
        detail = f"{kind} |R^T grad J|={lhs:.2e} |grad J|={scale:.2e}"
        rep.check(name, lhs <= 1e-8 * scale + 1e-12, detail)
    rep.checksums = {"runs": _run_checksums(out["reports"])}


# -- cli_pipeline ---------------------------------------------------------------

STAGE_TIMEOUT_S = 60  # below the parent's limit on this whole process


def cli_setup(params, seed, work):
    launcher = Launcher()  # first, while this process is still small
    import numpy as np

    from basisopt.cli import load_config

    rng = np.random.default_rng(seed)
    points, weights = _spacing_measure(rng, params["count"])
    config = os.path.join(work, "run.ini")
    with open(config, "w") as fh:
        fh.write(
            f"[grid]\nx_max = {params['x_max']!r}\nn_points = {params['n_points']}\n"
            f"[basis]\nn_funcs = {params['n_funcs']}\nn_basis = {params['n_basis']}\n"
            f"[criterion]\nkind = JE\n"
            f"[measure]\nkind = explicit\n"
            f"points = {','.join(map(repr, points))}\n"
            f"weights = {','.join(map(repr, weights))}\n"
            f"[report]\ncurve_points = {params['curve_points']}\n"
        )
    load_config(config)  # the generated file must be a valid configuration
    return {"config": config, "work": work, "launcher": launcher}


def _stage_argv(inputs, stage, out_dir, n_basis):
    args = ["--config", inputs["config"], "--cache", inputs["cache"], "--out", out_dir]
    args.append(stage)
    if stage in ("evaluate", "report"):
        artifact = os.path.join(out_dir, f"basis_JE_Nb{n_basis}.json")
        args += [artifact, "--hbs", str(n_basis)]
    return args


def cli_run(rep: Repetition, params, inputs, spans_dir=None):
    work = inputs["work"]
    inputs["cache"] = os.path.join(work, "cache")
    outputs = {}
    for phase in ("cold", "warm"):
        out_dir = os.path.join(work, f"out_{phase}")
        outputs[phase] = out_dir
        for stage in CLI_STAGES:
            argv = _stage_argv(inputs, stage, out_dir, params["n_basis"])
            if spans_dir is None:
                cmd = [sys.executable, "-m", "basisopt.cli", *argv]
            else:
                spans = os.path.join(spans_dir, f"{phase}_{stage}.json")
                tracer = os.path.join(HERE, "tracer.py")
                cmd = [sys.executable, tracer, spans, "--", *argv]
            run_stage = inputs["launcher"].run
            rep.op(f"{phase} {stage}", f"cli_{phase}_{stage}", lambda: run_stage(cmd))
        if phase == "cold":
            outputs["cache_after_cold"] = _snapshot(inputs["cache"])
    outputs["cache_after_warm"] = _snapshot(inputs["cache"])
    return outputs


_LAUNCHER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    cmd, timeout = json.loads(line)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        reply = [proc.returncode, proc.stderr.strip()[-400:]]
    except subprocess.TimeoutExpired:
        reply = [None, f"timed out after {timeout} s"]
    reply.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(reply), flush=True)
"""


class Launcher:
    """Runs the commands from a small helper process, one at a time.

    A child's peak resident size counts its parent's size at the fork, so
    commands started from this process, which holds numpy and the inputs,
    would report this process's size. The helper starts before those
    imports and reports the peak over the commands it has run.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-c", _LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.peak_rss_kb = 0
        atexit.register(self.close)

    def run(self, cmd):
        self._proc.stdin.write(json.dumps([cmd, STAGE_TIMEOUT_S]) + "\n")
        self._proc.stdin.flush()
        code, stderr, peak_kb = json.loads(self._proc.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, peak_kb)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr}")

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=STAGE_TIMEOUT_S)


def _snapshot(directory) -> dict:
    return {
        name: os.stat(os.path.join(directory, name)).st_mtime_ns
        for name in sorted(os.listdir(directory))
    }


def cli_check(rep: Repetition, params, inputs, out):
    nb, curve, n_points = params["n_basis"], params["curve_points"], params["n_points"]
    labels = (f"JE_Nb{nb}", f"HBS_Nb{nb}")
    expected_rows = {
        ("evaluate", "criteria_table.csv"): 2,
        ("report", f"condition_Nb{nb}.csv"): 40,
    }
    for label in labels:
        expected_rows[("report", f"energy_curve_{label}.csv")] = curve
        expected_rows[("report", f"density_error_{label}.csv")] = curve
        expected_rows[("report", f"basis_functions_{label}.csv")] = n_points
    json_files = [f"basis_JE_Nb{nb}.json", f"optim_JE_Nb{nb}.json"]
    digest = hashlib.sha256()
    for phase in ("cold", "warm"):
        out_dir = out[phase]
        for (stage, name), rows in expected_rows.items():
            path = os.path.join(out_dir, name)
            got = _data_rows(path)
            detail = f"{phase}/{name}: {got} rows, expected {rows}"
            rep.check(f"{phase} {stage}", got == rows, detail)
        for name in json_files:
            path = os.path.join(out_dir, name)
            ok = os.path.exists(path)
            if ok:
                with open(path) as fh:
                    ok = isinstance(json.load(fh), dict)
            rep.check(f"{phase} optimize", ok, f"{phase}/{name} is a JSON object")
    cold_files = sorted(os.listdir(out["cold"]))
    for name in cold_files:
        with open(os.path.join(out["cold"], name), "rb") as fh:
            cold = fh.read()
        warm = None
        warm_path = os.path.join(out["warm"], name)
        if os.path.exists(warm_path):
            with open(warm_path, "rb") as fh:
                warm = fh.read()
        digest.update(name.encode() + b"\0" + cold)
        stage = _stage_of(name)
        rep.check(f"warm {stage}", warm == cold, f"warm {name} matches cold")
    before, after = out["cache_after_cold"], out["cache_after_warm"]
    detail = f"warm pass left the {len(before)} cache entries untouched"
    rep.check("warm reference", before == after, detail)
    rep.checksums = {
        "outputs_sha256": digest.hexdigest()[:16],
        "output_files": len(cold_files),
        "cache_entries_written_cold": len(before),
    }


def _data_rows(path) -> int | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _stage_of(name: str) -> str:
    if name.startswith(("basis_JE", "optim_")):
        return "optimize"
    return "evaluate" if name == "criteria_table.csv" else "report"


# Operations whose work is mostly the FD layer's; the rest are calibrated
# with the interpreter-bound kernel.
KERNEL_OF_KIND = {"reference": "array"}

MIN_ROUNDS = 2

# Back-to-back calls of each short operation in a calibrated round, so that
# its median rests on enough calls; the operations are deterministic.
LOOP_REPEATS = {
    "paper_tables": {"reference": 4, "evaluate": 10},
    "dense_measure": {"evaluate": 4},
}

WORKLOADS = {
    "paper_tables": (paper_setup, paper_run, paper_check),
    "dense_measure": (dense_setup, dense_run, dense_check),
    "cli_pipeline": (cli_setup, cli_run, cli_check),
}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_repetition(name, seed, params, work, mode) -> dict:
    setup, run, check = WORKLOADS[name]
    inputs = setup(params, seed, work)
    tracer = spans_dir = None
    if mode == "trace" and name == "cli_pipeline":
        # each command traces itself in its own process
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"t_first": t_first}
    if mode == "setup":
        return result

    rep = Repetition()
    start = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        if spans_dir:
            out = run(rep, params, inputs, spans_dir)
        else:
            out = run(rep, params, inputs)
    except OperationFailed:
        out = None
    finally:
        if tracer is not None:
            tracer.active = False
    wall = time.perf_counter() - start
    if out is not None:
        try:
            check(rep, params, inputs, out)
        except Exception as exc:  # a broken check fails the repetition
            rep.check("checks", False, f"{type(exc).__name__}: {exc}")
    if mode == "trace":
        if spans_dir:
            files = [os.path.join(spans_dir, f) for f in sorted(os.listdir(spans_dir))]
            spans, wrapped = load_spans(files)
            traced_wall = sum(op["seconds"] for op in rep.ops)
        else:
            spans, wrapped, traced_wall = tracer.spans, tracer.wrapped, wall
        result["layers"] = layer_metrics(spans, wrapped, traced_wall)
        untraced = result["layers"]["trace.untraced_s"][0]
        detail = f"spans cover {traced_wall - untraced:.6f} s of {traced_wall:.6f} s"
        rep.check("trace", untraced >= 0, detail)
        result["stiefel_runs"] = stiefel_runs(spans)

    failed_ops = rep.failed_ops()
    if name == "cli_pipeline":
        stages = {f"cli_{s}_s": rep.seconds(f"cli_cold_{s}") for s in CLI_STAGES}
        stages["cli_warm_s"] = sum(rep.seconds(f"cli_warm_{s}") for s in CLI_STAGES)
        timings = {
            "reference_s": stages["cli_reference_s"],
            "optimize_s": stages["cli_optimize_s"],
            "evaluate_s": stages["cli_evaluate_s"] + stages["cli_report_s"],
            "pipeline_s": wall,
        }
        result["stages"] = stages
    else:
        timings = {
            "reference_s": rep.seconds("reference"),
            "optimize_s": rep.seconds("optimize"),
            "evaluate_s": rep.seconds("evaluate"),
            "pipeline_s": wall,
        }
    result.update(
        timings=timings,
        peak_rss_mb=_peak_rss_mb(inputs),
        ops=rep.ops,
        attempted=len(rep.ops),
        failed=len(failed_ops),
        checks=rep.checks,
        checksums=rep.checksums,
        env=environment(),
    )
    return result


def run_loop(name, seed, params, work, seconds) -> dict:
    """Set up once, then run calibrated rounds of the workload's operations
    until another round would end past `seconds` from the start; at least
    MIN_ROUNDS run, so that every median rests on more than one round.

    Every round is checked, in a scratch directory of its own, and must
    give the same checksums as the first.
    """
    started, longest = time.perf_counter(), 0.0
    setup, run, check = WORKLOADS[name]
    inputs = setup(params, seed, work)
    result = {"t_first": time.clock_gettime(time.CLOCK_MONOTONIC)}
    rounds, checksums, attempted, failed = [], None, 0, 0
    while True:
        t0 = time.perf_counter()
        inputs["work"] = os.path.join(work, f"round_{len(rounds)}")
        os.makedirs(inputs["work"])
        rep = Repetition(calibrate=True, repeats=LOOP_REPEATS.get(name))
        try:
            out = run(rep, params, inputs)
        except OperationFailed:
            out = None
        if out is not None:
            try:
                check(rep, params, inputs, out)
            except Exception as exc:  # a broken check fails the round
                rep.check("checks", False, f"{type(exc).__name__}: {exc}")
            if checksums is None:
                checksums = rep.checksums
            detail = f"round {len(rounds)} outputs match round 0"
            rep.check("checksums", rep.checksums == checksums, detail)
        shutil.rmtree(inputs["work"], ignore_errors=True)
        out = None  # so that no two rounds' outputs are held at once
        attempted += sum(len(op["calls"]) for op in rep.ops)
        failed += len(rep.failed_ops())
        rounds.append(rep)
        longest = max(longest, time.perf_counter() - t0)
        enough = len(rounds) >= MIN_ROUNDS
        if enough and time.perf_counter() - started + longest > seconds:
            break
    result.update(
        ops=[op for rep in rounds for op in rep.ops],
        rounds=len(rounds),
        peak_rss_mb=_peak_rss_mb(inputs),
        attempted=attempted,
        failed=failed,
        checks=[c for rep in rounds for c in rep.checks],
        checksums=checksums or {},
        env=environment(),
    )
    return result


def _peak_rss_mb(inputs) -> float:
    """Peak resident size of the commands cli_pipeline runs, or else of
    this process, which runs the workload's operations itself."""
    if "launcher" in inputs:
        return inputs["launcher"].peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--params", required=True, help="workload parameters as JSON")
    parser.add_argument("--work", required=True, help="scratch directory to use")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument(
        "--mode", choices=("run", "setup", "trace", "loop"), default="run"
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0, help="time budget of --mode loop"
    )
    args = parser.parse_args(argv)
    params = json.loads(args.params)
    if args.mode == "loop":
        result = run_loop(args.workload, args.seed, params, args.work, args.seconds)
    else:
        result = run_repetition(args.workload, args.seed, params, args.work, args.mode)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
