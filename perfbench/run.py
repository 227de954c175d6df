"""Benchmark of the basisopt pipeline: offline data, optimization, evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it uses the package sources under `src/`).
The benchmark pins itself and its processes to one CPU and BLAS to one
thread, and issues one operation at a time (closed loop, one caller).

`--trace 0` starts SETUPS fresh interpreters that only set up, then one
process that sets up once and repeats rounds of the workload's operations,
checking every round, until `--seconds` would be exceeded (at least two
rounds run). Each operation is timed in calibrated seconds (see
`calibrate.py`), and each metric below is a median over set-ups or a sum
of per-operation medians:
  setup_s      fresh interpreter start to the first timed call: importing
               basisopt and generating the inputs
  reference_s  building the L2 and H1 offline data without a cache; on
               cli_pipeline the cold `basisopt reference` command
  optimize_s   the optimizer runs; on cli_pipeline the cold `optimize`
  evaluate_s   criterion tables at the start and optimized bases; on
               cli_pipeline the cold `evaluate` plus `report` commands
  pipeline_s   all operations of a round; on cli_pipeline both the cold and
               the warm pass of the four commands
  peak_rss_mb  peak resident memory of the workload's processes

`--trace 1` runs pairs of untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see `tracer.py`), with
`trace.overhead_pct`, the traced over the untraced `pipeline_s`.

Lines before the last one describe the run: environment, per-operation
(or per-repetition) figures, output checksums and failed checks. The last
line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCE_S, calibrated, kernel_seconds, pin_to_one_cpu
from tracer import CLI_STAGES
from tracer import import_times as parse_import_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 120

BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUPS = 5
_KIND_METRICS = ("reference_s", "optimize_s", "evaluate_s")

# Workload inputs, and why each workload is in the benchmark (as in BENCHMARK.json).
WORKLOADS = {
    "paper_tables": {
        "why": "The paper's fixed table setting: 12 optimizations to tolerance; "
        "the reduced layer and optimizer do ~99% of the work, the FD layer ~1%; "
        "the seed is not used",
        "params": {
            "n_points": 1999,
            "x_max": 20.0,
            "n_funcs": 10,
            "count": 10,
            "max_iter": 500,
        },
    },
    "dense_measure": {
        "why": "Seeded K=200 measure on 8000 points with N=20: the FD offline "
        "build dominates and per-configuration cost of the reduced layer shows "
        "at large K",
        "params": {
            "n_points": 8000,
            "x_max": 25.0,
            "n_funcs": 20,
            "n_basis": 6,
            "count": 200,
            "max_iter": 30,
        },
    },
    "cli_pipeline": {
        "why": "The four CLI commands as processes, on a fresh cache and then a "
        "warm one: start-up, cache writes and reads, and the evaluate module",
        "params": {
            "n_points": 1999,
            "x_max": 20.0,
            "n_funcs": 10,
            "n_basis": 2,
            "count": 10,
            "curve_points": 50,
        },
    },
}

END_TO_END = {
    "setup_s": "s",
    "reference_s": "s",
    "optimize_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(workload, seed, params, mode, work_root, seconds=0.0) -> dict:
    """One repetition (or with mode "loop", rounds of them for `seconds`) in
    a fresh interpreter; returns its result document with `setup_s` added,
    or {"error": ...} when the process failed."""
    work = tempfile.mkdtemp(dir=work_root)
    out = os.path.join(work, "result.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        workload,
        "--seed",
        str(seed),
        "--params",
        json.dumps(params),
        "--work",
        work,
        "--out",
        out,
        "--mode",
        mode,
        "--seconds",
        str(seconds),
    ]
    timeout = CHILD_TIMEOUT_S + seconds
    try:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            cmd,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0 or not os.path.exists(out):
            return {"error": f"exit code {proc.returncode}: {proc.stderr[-600:]}"}
        with open(out) as fh:
            doc = json.load(fh)
        doc["setup_s"] = doc["t_first"] - spawned
        return doc
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_times() -> dict:
    """Import time of numpy, scipy and basisopt for `import basisopt.cli`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import basisopt.cli"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"importing basisopt.cli failed: {proc.stderr[-600:]}")
    times = parse_import_times(proc.stderr)
    return {f"cli.import.{pkg}_s": (s, "s") for pkg, s in times.items()}


def environment(workload, seed, seconds, params, child_env: dict) -> dict:
    """Where and on what the run was made; the revision is None outside git."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "basisopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "params": params,
        "git_revision": rev or None,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "calibration_reference_s": REFERENCE_S,
        "blas_threads": BLAS_THREADS,
        **child_env,
    }


def run_benchmark(workload, seed, seconds, trace, params=None) -> dict:
    """Measure one workload; returns the result document and the details.

    `params` overrides entries of the workload's parameters.
    """
    if not os.path.isfile(os.path.join(SRC, "basisopt", "__init__.py")):
        raise BenchmarkError(f"no basisopt sources under {SRC}")
    params = dict(WORKLOADS[workload]["params"], **(params or {}))
    pin_to_one_cpu()
    os.makedirs(WORK, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=WORK, prefix=f"{workload}_")
    try:
        return _measure(workload, seed, seconds, trace, params, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _measure(workload, seed, seconds, trace, params, work_root) -> dict:
    if trace:
        return _measure_traced(workload, seed, seconds, params, work_root)
    return _measure_untraced(workload, seed, seconds, params, work_root)


def _measure_untraced(workload, seed, seconds, params, work_root) -> dict:
    """SETUPS fresh set-ups, then one process of calibrated rounds for the
    rest of `seconds`; each metric is a median over calibrated calls."""
    started = time.perf_counter()
    details = _details(workload, seed, seconds, params, {})
    setups, kernel = [], kernel_seconds()["interp"]
    for _ in range(SETUPS):
        probe = spawn(workload, seed, params, "setup", work_root)
        if "error" in probe:
            details["failures"].append(probe["error"])
            return _result(False, 1, 1, {}, details)
        after = kernel_seconds()["interp"]
        setups.append(calibrated(probe["setup_s"], "interp", 0.5 * (kernel + after)))
        kernel = after
    details["setup_samples_s"] = setups
    left = max(0.0, seconds - (time.perf_counter() - started))
    loop = spawn(workload, seed, params, "loop", work_root, seconds=left)
    if "error" in loop:
        details["failures"].append(loop["error"])
        return _result(False, 1, 1, {}, details)

    details["env"].update(loop["env"])
    details["failures"] += [c["detail"] for c in loop["checks"] if not c["ok"]]
    details["failures"] += [op["error"] for op in loop["ops"] if op["error"]]
    details["rounds"] = loop["rounds"]
    calls: dict[str, tuple[str, list, list]] = {}  # name -> kind, raw, calibrated
    for op in loop["ops"]:
        kind, raw, cal = calls.setdefault(op["name"], (op["kind"], [], []))
        raw += op["calls"]
        cal += [calibrated(c, op["kernel"], op["kernel_s"]) for c in op["calls"]]
    details["operations"] = {
        name: {
            "calls": len(raw),
            "median_s": statistics.median(cal),
            "raw_median_s": statistics.median(raw),
        }
        for name, (_, raw, cal) in calls.items()
    }
    details["kernel_median_s"] = {
        k: statistics.median(op["kernel_s"] for op in loop["ops"] if op["kernel"] == k)
        for k in sorted({op["kernel"] for op in loop["ops"]})
    }
    per_kind: dict[str, float] = {}
    for name, (kind, _, _) in calls.items():
        median = details["operations"][name]["median_s"]
        per_kind[kind] = per_kind.get(kind, 0.0) + median
    if workload == "cli_pipeline":
        kinds = {f"cli_{p}_{s}" for p in ("cold", "warm") for s in CLI_STAGES}
    else:
        kinds = {k.removesuffix("_s") for k in _KIND_METRICS}
    if not kinds <= per_kind.keys():  # a failed operation stopped every round
        return _result(False, loop["attempted"], loop["failed"], {}, details)
    if workload == "cli_pipeline":
        stages = {f"cli_{s}_s": per_kind[f"cli_cold_{s}"] for s in CLI_STAGES}
        stages["cli_warm_s"] = sum(per_kind[f"cli_warm_{s}"] for s in CLI_STAGES)
        details["cli_stages_s"] = stages
        timings = {
            "reference_s": stages["cli_reference_s"],
            "optimize_s": stages["cli_optimize_s"],
            "evaluate_s": stages["cli_evaluate_s"] + stages["cli_report_s"],
        }
    else:
        timings = {k: per_kind[k.removesuffix("_s")] for k in _KIND_METRICS}
    values = {
        "setup_s": statistics.median(setups),
        **timings,
        "pipeline_s": sum(per_kind.values()),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
    details["checksums"] = loop["checksums"]
    failed = loop["failed"]
    return _result(failed == 0, loop["attempted"], failed, metrics, details)


def _measure_traced(workload, seed, seconds, params, work_root) -> dict:
    """Pairs of untraced and traced repetitions, each in a fresh process."""
    reps = {"run": [], "trace": []}
    longest = 0.0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for mode in reps:
            reps[mode].append(spawn(workload, seed, params, mode, work_root))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - started + longest > seconds:
            break

    every = [r for group in reps.values() for r in group]
    ok = [r for r in every if "error" not in r]
    attempted = sum(1 if "error" in r else r["attempted"] for r in every)
    failed = sum(1 if "error" in r else r["failed"] for r in every)
    details = _details(workload, seed, seconds, params, ok[0]["env"] if ok else {})
    details["repetitions"] = [_summary(r) for r in every]
    details["failures"] += [r["error"] for r in every if "error" in r]
    details["failures"] += [c["detail"] for r in ok for c in r["checks"] if not c["ok"]]
    details["failures"] += [op["error"] for r in ok for op in r["ops"] if op["error"]]
    if len(ok) < len(every):
        return _result(False, attempted, failed, {}, details)

    metrics = _layer_medians([r["layers"] for r in reps["trace"]])
    metrics.update(import_times())
    untraced = statistics.median(r["timings"]["pipeline_s"] for r in reps["run"])
    traced = statistics.median(r["timings"]["pipeline_s"] for r in reps["trace"])
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    optimized = reps["trace"][0]["stiefel_runs"]
    details["stiefel_not_converged"] = [
        r["label"] for r in optimized if not r["converged"]
    ]
    details["stiefel_stalled"] = [r["label"] for r in optimized if r["stalled"]]
    details["checksums"] = reps["run"][0]["checksums"]
    return _result(failed == 0, attempted, failed, metrics, details)


def _details(workload, seed, seconds, params, child_env) -> dict:
    return {
        "env": environment(workload, seed, seconds, params, child_env),
        "why": WORKLOADS[workload]["why"],
        "failures": [],
    }


def _layer_medians(layers: list[dict]) -> dict:
    names = [n for n in layers[0] if all(n in layer for layer in layers)]
    return {
        n: (statistics.median(layer[n][0] for layer in layers), layers[0][n][1])
        for n in names
    }


def _summary(rep: dict) -> dict:
    if "error" in rep:
        return {"error": rep["error"]}
    return {
        "setup_s": rep["setup_s"],
        **rep["timings"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "traced": "layers" in rep,
        "ops": rep["attempted"],
        "failed": rep["failed"],
    }


def _result(correct, attempted, failed, metrics, details) -> dict:
    return {
        "result": {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        },
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        doc = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    details = doc["details"]
    for key in (
        "env",
        "why",
        "setup_samples_s",
        "rounds",
        "kernel_median_s",
        "cli_stages_s",
        "checksums",
        "stiefel_not_converged",
        "stiefel_stalled",
    ):
        if key in details:
            print(f"# {key}: {json.dumps(details[key], sort_keys=True)}")
    for name, op in details.get("operations", {}).items():
        print(f"# operation {name}: {json.dumps(op, sort_keys=True)}")
    for i, rep in enumerate(details.get("repetitions", [])):
        print(f"# repetition {i}: {json.dumps(rep, sort_keys=True)}")
    for failure in details["failures"]:
        print(f"# FAILED: {failure}")
    for name, m in doc["result"]["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not doc["result"]["metrics"]:
        print("benchmark produced no measurements", file=sys.stderr)
        return 1
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
