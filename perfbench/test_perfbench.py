"""Self-test of the benchmark: tracer bookkeeping and the output schema of
tiny runs of every workload. No timing assertions.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "paper_tables": {"max_iter": 3},
    "dense_measure": {
        "n_points": 600,
        "n_funcs": 6,
        "n_basis": 2,
        "count": 4,
        "max_iter": 3,
    },
    "cli_pipeline": {"n_points": 399, "n_funcs": 4, "count": 3, "curve_points": 4},
}


def test_tracer_rebinds_imported_names_and_restores_them():
    import basisopt
    from basisopt import criteria, galerkin

    original = galerkin.reduced_overlap
    with tracer.Tracer() as t:
        assert criteria.reduced_overlap is galerkin.reduced_overlap
        assert basisopt.reduced_overlap is galerkin.reduced_overlap
        assert galerkin.reduced_overlap.__wrapped__ is original
        from basisopt.grid import build_grid
        from basisopt.reference import build_offline, uniform_measure
        from basisopt.stiefel import OptimSettings, minimize

        offline = build_offline(build_grid(20.0, 199), uniform_measure(1.5, 5.0, 2), 3)
        t.active = True
        vg = criteria.make_criterion(criteria.CriterionKind.JE, offline)
        minimize(vg, galerkin.hbs_coefficients(3, 1), OptimSettings(max_iter=2))
        t.active = False
    assert galerkin.reduced_overlap is original
    assert criteria.reduced_overlap is original

    names = [s.name for s in t.spans]
    assert "criteria.value_and_grad" in names and "galerkin.reduced_overlap" in names
    by_index = {i: s for i, s in enumerate(t.spans)}
    for span in t.spans:
        if span.name == "criteria.value_and_grad":
            assert by_index[span.parent].name == "stiefel.minimize"
    runs = tracer.stiefel_runs(t.spans)
    assert runs and runs[0]["label"] == "JE N_b=1"


def _span(name, parent, start, end, info=None):
    span = tracer.Span(name, parent, start)
    span.end = end
    span.info = info
    return span


def test_self_times_and_accounting_add_up():
    run_info = {"label": "JE N_b=1", "iterations": 2}
    run_info.update(converged=True, stalled=False)
    spans = [
        _span("stiefel.minimize", -1, 0.0, 10.0, run_info),
        _span("criteria.value_and_grad", 0, 1.0, 5.0, {"k": 4, "label": "JE"}),
        _span("galerkin.inv_sqrt_spd", 1, 2.0, 3.0),
        _span("criteria.value_and_grad", 0, 5.0, 7.0, {"k": 4, "label": "JE"}),
        _span("criteria.value_and_grad", 0, 7.0, 8.0, {"k": 4, "label": "JE"}),
        _span("grid.matvec", -1, 11.0, 11.5),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0, 0.5]
    wrapped = {
        "stiefel.minimize",
        "criteria.make_criterion",
        "galerkin.inv_sqrt_spd",
        "grid.matvec",
    }
    m = tracer.layer_metrics(spans, wrapped, wall_s=12.0)
    module_self = sum(m[f"{mod}.self_s"][0] for mod in tracer.MODULES)
    assert module_self + m["trace.untraced_s"][0] == pytest.approx(12.0)
    assert m["criteria.vg_calls"][0] == 3
    assert m["stiefel.discarded_grads"][0] == 0
    assert m["stiefel.vg_calls_per_iter"][0] == pytest.approx(1.5)
    assert m["criteria.solves_per_config_eval"][0] == pytest.approx(1 / 12)
    assert m["stiefel.self_s"][0] == pytest.approx(3.0)


def test_metric_of_a_missing_function_is_absent():
    spans = [_span("grid.matvec", -1, 0.0, 1.0)]
    m = tracer.layer_metrics(spans, {"grid.matvec"}, wall_s=1.0)
    assert "grid.matvec.calls" in m
    assert "galerkin.reduced_overlap.calls" not in m
    assert "galerkin.reduced_overlap.self_s" not in m


def test_import_times_attribute_nested_modules():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     json",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy.linalg",
            "import time:        10 |         60 |   scipy",
            "import time:        40 |        400 | basisopt",
        ]
    )
    assert tracer.import_times(log) == pytest.approx(
        {"numpy": 3e-4, "scipy": 6e-5, "basisopt": 4e-5}
    )


def test_calibration_scales_with_the_kernel_time():
    for kernel, ref in calibrate.REFERENCE_S.items():
        assert calibrate.calibrated(3.0, kernel, ref) == pytest.approx(3.0)
        assert calibrate.calibrated(3.0, kernel, 2 * ref) == pytest.approx(1.5)
    times = calibrate.kernel_seconds()
    assert set(times) == set(calibrate.REFERENCE_S)
    assert all(t > 0 for t in times.values())


def test_benchmark_json_matches_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w["why"] for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_schema(workload, trace):
    doc = run.run_benchmark(
        workload, seed=3, seconds=0, trace=bool(trace), params=TINY[workload]
    )
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    json.dumps(result)
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if workload != "paper_tables":  # the paper checks need the full optimizer budget
        assert result["correct"], doc["details"]["failures"]


def test_exits_without_result_when_sources_are_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    with pytest.raises(run.BenchmarkError):
        run.run_benchmark("paper_tables", seed=0, seconds=0, trace=False)
