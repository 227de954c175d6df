import csv
import importlib.util
import json
import os
import numpy as np
import pytest

from basisopt import reference
from basisopt.grid import build_grid
from basisopt.stiefel import OptimReport, OptimSettings

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


def load_script(name):
    path = os.path.join(SCRIPTS, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
def test_run_tables_one_solve_per_configuration(tmp_path, monkeypatch, capsys, cache):
    # one FD solve per configuration serves the L2 and the H1 tables
    calls = []
    solve = reference.solve_ground_pair
    monkeypatch.setattr(
        reference, "solve_ground_pair", lambda *args: calls.append(args) or solve(*args)
    )
    out = tmp_path / "tables.csv"
    argv = ["--n-points", "399", "--n-funcs", "4", "--csv", str(out)]
    if cache:
        argv += ["--cache", str(tmp_path / "cache")]
    assert load_script("run_tables").main(argv) == 0
    assert len(calls) == len(reference.default_measure().points)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    reasons = {
        ("True", "False"): "converged",
        ("False", "True"): "line search stalled",
        ("False", "False"): "max_iter reached",
    }
    for row in rows:
        assert row["stalled"] in ("True", "False")
        assert row["stop_reason"] == reasons[row["converged"], row["stalled"]]
        assert float(row["grad_norm"]) >= 0.0
        assert float(row["seconds"]) > 0.0
        assert int(row["evaluations"]) >= int(row["iterations"]) + 1
        if row["converged"] == "True":
            assert float(row["grad_norm"]) <= 1e-7
    # the summary line adds up the rows of the CSV
    summary = capsys.readouterr().out.splitlines()[-2]
    iterations = sum(int(row["iterations"]) for row in rows)
    evaluations = sum(int(row["evaluations"]) for row in rows)
    seconds = sum(float(row["seconds"]) for row in rows)
    converged = sum(row["converged"] == "True" for row in rows)
    expected = f"total: 12 runs, {iterations} iterations, {evaluations} evaluations, "
    expected += f"{seconds:.3f} s; {converged} of 12 converged; "
    assert summary == expected + repr(OptimSettings())
    # each row names the settings of its run
    for row in rows:
        assert (row["grad_tol"], row["max_iter"], row["lbfgs_memory"]) == (
            repr(OptimSettings().grad_tol),
            str(OptimSettings().max_iter),
            str(OptimSettings().lbfgs_memory),
        )


def test_run_tables_draw_zero_is_the_plain_run(tmp_path, capsys):
    # draw 0 is the records as built: its rows are the plain run's, bit for
    # bit, apart from the wall time; every draw makes the 12 rows
    module = load_script("run_tables")
    argv = ["--n-points", "399", "--n-funcs", "4", "--csv"]
    assert module.main([*argv, str(tmp_path / "plain.csv")]) == 0
    plain_out = capsys.readouterr().out.splitlines()
    assert module.main([*argv, str(tmp_path / "draws.csv"), "--draws", "2"]) == 0
    out = capsys.readouterr().out.splitlines()

    def rows(name):
        with open(tmp_path / name) as fh:
            return [{**row, "seconds": None} for row in csv.DictReader(fh)]

    plain, drawn = rows("plain.csv"), rows("draws.csv")
    assert [row["draw"] for row in drawn] == ["0"] * 12 + ["1"] * 12 + ["2"] * 12
    assert drawn[:12] == plain
    assert [line for line in out if line.startswith("draw 0  ")] == [
        "draw 0  " + line for line in plain_out[:12]
    ]
    spread = [line for line in out if line.startswith("spread ")]
    assert len(spread) == 13 and all("over 3 draws" in line for line in spread)
    assert spread[-1].startswith("spread over 3 draws: ")
    assert out[-2].startswith("total: 36 runs, ")


def test_rounding_draw_moves_the_last_bits_only():
    module = load_script("run_tables")
    points = reference.default_measure().points
    pairs = reference.load_or_build_each(build_grid(20.0, 399), points, 4, None)
    stacks = reference.stack_offline([r for r, _ in pairs], [1.0] * len(points))
    drawn = module.rounding_draw(stacks, 1)
    again = module.rounding_draw(stacks, 1)
    for metric in ("L2", "H1"):
        for name in ("g_a", "s_a", "m_e", "s_b"):
            before, after = getattr(stacks[metric], name), getattr(drawn[metric], name)
            assert np.array_equal(after, getattr(again[metric], name))
            assert not np.array_equal(after, before)
            assert np.abs(after - before).max() <= 2e-15 * np.abs(before).max()
        for name in ("a", "weight", "e_ref"):
            assert getattr(drawn[metric], name) is getattr(stacks[metric], name)
    # a shared array stays shared: the L2 s_a is s_b, and m_e serves both
    assert drawn["L2"].s_a is drawn["L2"].s_b
    assert drawn["L2"].m_e is drawn["H1"].m_e


def test_distinct_groups_to_a_relative_tolerance():
    distinct = load_script("run_tables").distinct
    assert distinct([1.0]) == 1
    assert distinct([1.0, 1.0 + 5e-8, 1.0 + 2e-7]) == 2
    assert distinct([-2.0, 3.0, -2.0 * (1 + 1e-9)]) == 2


@pytest.mark.parametrize(
    "converged, stalled, note",
    [
        (True, False, ""),
        (False, True, " (not converged: line search stalled, grad norm 2.0e-05)"),
        (False, False, " (not converged: max_iter reached, grad norm 2.0e-05)"),
    ],
)
def test_run_tables_names_what_ended_a_run(converged, stalled, note):
    if converged:
        reason = "converged"
    else:
        reason = "line search stalled" if stalled else "max_iter reached"
    result = OptimReport(
        R_opt=np.eye(3, 2),
        trajectory=np.zeros(6),
        grad_norm=2e-5,
        evaluations=7,
        stop_reason=reason,
    )
    # the flags and the iteration count derive from the stored reason
    assert (result.converged, result.stalled, result.iterations) == (
        converged,
        stalled,
        5,
    )
    assert load_script("run_tables")._stop_note(result) == note


def test_run_tables_csv_into_a_missing_directory(tmp_path, monkeypatch):
    # the CSV goes through the atomic writer: the directory is made, no
    # temporary file is left, and the rows end in csv's own \r\n
    module = load_script("run_tables")
    monkeypatch.setattr(
        module,
        "minimize",
        lambda fun, R0, settings: OptimReport(R0, np.zeros(1), 0.0, 1, "converged"),
    )
    out = tmp_path / "missing" / "deeper" / "tables.csv"
    assert module.main(["--n-points", "399", "--n-funcs", "4", "--csv", str(out)]) == 0
    assert os.listdir(out.parent) == ["tables.csv"]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    # byte for byte what csv writes to a file opened with newline=""
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert out.read_bytes() == expected.read_bytes()
    assert out.read_bytes().count(b"\r\n") == 13


def test_sampling_study_one_curve_pass(monkeypatch, capsys):
    # 5 training configurations, then one solve per curve point for the
    # HBS start and the three trained bases together
    calls = []
    solve = reference.solve_ground_pair
    monkeypatch.setattr(
        reference, "solve_ground_pair", lambda *args: calls.append(args) or solve(*args)
    )
    module = load_script("sampling_study")
    assert module.main(["sampling", "--n-points", "399"]) == 0
    training = sum(len(m.points) for m in module.SPARSE_MEASURES.values())
    assert len(calls) == training + 50 == 55
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(module.SPARSE_MEASURES)


def test_committed_bench_records_pass():
    assert load_script("check_bench_records").problems(os.path.dirname(SCRIPTS)) == []


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("correct", False, "not correct"),
        ("failed", 2, "failed is 2, not 0"),
        ("metrics", "peak_rss_mb", "missing peak_rss_mb"),
    ],
)
def test_bench_record_problems_are_named(tmp_path, key, value, problem):
    with open(os.path.join(os.path.dirname(SCRIPTS), "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in benchmark["end_to_end"]}
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    bad = dict(good)
    if key == "metrics":  # one metric left out
        bad["metrics"] = {k: v for k, v in metrics.items() if k != value}
    else:
        bad[key] = value
    runs = [
        {"workload": "w", "seed": 1, "side": "parent", "result": good},
        {"workload": "w", "seed": 1, "side": "change", "result": bad},
    ]
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"runs": runs}))
    module = load_script("check_bench_records")
    found = module.problems(str(tmp_path))
    assert len(found) == 1 and found[0].endswith(problem), found
    assert "run 1 (w, seed 1, change)" in found[0]
    assert module.main([str(tmp_path)]) == 1


def test_bench_records_absent_or_unreadable(tmp_path):
    module = load_script("check_bench_records")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    assert module.problems(str(tmp_path)) == [f"no BENCH_*.json in {tmp_path}"]
    (tmp_path / "BENCH_x.json").write_text("{")
    (tmp_path / "BENCH_y.json").write_text(json.dumps({"runs": [[]]}))
    found = module.problems(str(tmp_path))
    assert found[0].startswith("BENCH_x.json: unreadable")
    assert found[1] == "BENCH_y.json: run 0: no result"


def test_bench_summary_is_recomputed_from_the_runs(tmp_path):
    module = load_script("check_bench_records")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    values = {"parent": [1.0, 2.0, 4.0], "change": [0.5, 3.0, 1.0]}
    runs = [
        {
            "workload": "w",
            "seed": seed,
            "side": side,
            "result": {
                "correct": True,
                "failed": 0,
                "metrics": {"optimize_s": {"value": column[seed - 1]}},
            },
        }
        for side, column in values.items()
        for seed in (1, 2, 3)
    ]
    stated = {
        "parent_median": 2.0,
        "parent_quartiles": [1.5, 3.0],
        "change_median": 1.0,
        "change_quartiles": [0.75, 2.0],
        "pairs_change_lower": "2 of 3",
    }

    def problems(summary, runs=runs):
        record = {"runs": runs, "summary": {"w": {"seeds": [1, 2, 3], **summary}}}
        (tmp_path / "BENCH_x.json").write_text(json.dumps(record))
        return module.problems(str(tmp_path))

    assert problems({"optimize_s": stated}) == []
    doctored = {**stated, "parent_median": 2.5, "pairs_change_lower": "3 of 3"}
    assert problems({"optimize_s": doctored}) == [
        "BENCH_x.json: summary w optimize_s: parent_median is 2.5, runs give 2.0",
        "BENCH_x.json: summary w optimize_s: pairs_change_lower is '3 of 3', "
        "runs give '2 of 3'",
    ]
    assert problems({"optimize_s": stated}, runs[:-1]) == [
        "BENCH_x.json: summary w optimize_s: no run for change seed 3"
    ]


def test_bench_stated_identical_checksums_are_checked(tmp_path):
    module = load_script("check_bench_records")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def run(workload, side, value):
        result = {"correct": True, "failed": 0, "metrics": {}}
        checksums = {"runs": {"JE N_b=1": value}}
        return {
            "workload": workload,
            "seed": 1,
            "side": side,
            "result": result,
            "checksums": checksums,
        }

    def problems(change_values, **record):
        runs = [run("w", "parent", "0.25"), run("v", "parent", "0.5")]
        runs += [run("w", "change", value) for value in change_values]
        (tmp_path / "BENCH_x.json").write_text(json.dumps({"runs": runs, **record}))
        return module.problems(str(tmp_path))

    assert problems(["0.25"], identical_checksums=True) == []
    assert problems(["0.25", "0.2500001"], identical_checksums=True) == [
        "BENCH_x.json: runs 0 and 3 (w, seed 1, parent and change): checksums differ"
    ]
    # a record that states nothing, as every earlier one, is not checked
    assert problems(["0.2500001"]) == []
    assert module.main([str(tmp_path)]) == 0
