import csv
import importlib.util
import os
import numpy as np
import pytest

from basisopt import reference
from basisopt.stiefel import OptimReport

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
    expected = f"total: 12 runs, {iterations} iterations, {evaluations} evaluations, "
    assert summary == expected + f"{seconds:.3f} s"


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
        lambda fun, R0: OptimReport(R0, np.zeros(1), 0.0, 1, "converged"),
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
