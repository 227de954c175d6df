import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import basisopt
from basisopt import cli, evaluate, reference
from basisopt.cli import ConfigError, RunConfig, load_artifact, load_config, main
from basisopt.criteria import CriterionKind, eval_JA, eval_JE
from basisopt.galerkin import hbs_coefficients
from basisopt.hermite import TailOverflowWarning
from basisopt.reference import build_offline
from basisopt.stiefel import OptimSettings

SMALL_CONFIG = """\
[grid]
n_points = 699

[basis]
n_funcs = 5
n_basis = 1

[criterion]
kind = JE

[measure]
kind = uniform
a_min = 1.5
a_max = 3.0
count = 3

[optimize]
max_iter = 200
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run(args, tmp_path, config=None):
    argv = ["--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]
    if config:
        argv += ["--config", config]
    return main(argv + args)


@pytest.fixture
def solves(monkeypatch):
    """The FD eigensolves made while the test runs."""
    calls = []
    solve = reference.solve_ground_pair
    monkeypatch.setattr(
        reference, "solve_ground_pair", lambda *args: calls.append(args) or solve(*args)
    )
    return calls


def snapshot(directory):
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}


def artifact_doc(cfg, n_basis):
    """An artifact document, as `optimize` writes one, of the HBS
    coefficients on the grid and n_funcs of cfg."""
    return {
        "schema_version": 1,
        "R": hbs_coefficients(cfg.n_funcs, n_basis).tolist(),
        "n_funcs": cfg.n_funcs,
        "n_basis": n_basis,
        "criterion": "JE",
        "grid": {"x_max": cfg.grid().x_max, "n_points": cfg.n_points},
    }


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.grid().x_max == 20.0
        assert cfg.n_points == 1999

    def test_parse(self, small_config):
        cfg = load_config(small_config)
        assert cfg.n_funcs == 5
        assert cfg.measure.points == (1.5, 2.25, 3.0)
        assert cfg.grid().x_max == 18.0  # a_max + 15

    def test_empty_sections_keep_the_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[criterion]\n[measure]\n[optimize]\n[report]\n")
        assert load_config(str(path)) == RunConfig()

    def test_every_scalar_key_sets_its_field(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(
            "[grid]\nx_max = 21.5\nn_points = 999\n"
            "[basis]\nn_funcs = 7\nn_basis = 3\n"
            "[criterion]\nkind = JA_H1\n"
            "[optimize]\ngrad_tol = 1e-9\nmax_iter = 42\nlbfgs_memory = 4\n"
            "random_start = yes\n"
            "[report]\ncurve_points = 9\n"
        )
        assert load_config(str(path)) == RunConfig(
            x_max=21.5,
            n_points=999,
            n_funcs=7,
            n_basis=3,
            criterion=CriterionKind.JA_H1,
            settings=OptimSettings(grad_tol=1e-9, max_iter=42, lbfgs_memory=4),
            random_start=True,
            curve_points=9,
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[basis]\nn_funcs = 5\nspline_order = 3\n")
        with pytest.raises(ConfigError, match="spline_order"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[plotting]\ndpi = 300\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize(
        "command",
        [
            ["reference"],
            ["optimize"],
            ["evaluate", "--hbs", "1"],
            ["report", "--hbs", "1"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "text",
        [
            SMALL_CONFIG.replace("max_iter = 200", "max_iter = 200\nmax_iter = 300"),
            SMALL_CONFIG + "\n[basis]\nn_funcs = 6\n",
            "n_points = 699\n" + SMALL_CONFIG,
            SMALL_CONFIG.replace("kind = JE", "kind = %(foo)s"),
            SMALL_CONFIG.replace("kind = JE", "kind = \xff"),
        ],
        ids=[
            "duplicate_option",
            "duplicate_section",
            "no_section",
            "interpolation",
            "not_utf8",
        ],
    )
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "malformed.ini"
        path.write_text(text, encoding="latin-1")
        assert run(command, tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("basis", "n_funcs", "abc"),
            ("measure", "count", "x"),
            ("criterion", "kind", "JX"),
        ],
        ids=["int", "measure_int", "criterion_kind"],
    )
    def test_invalid_value_names_its_key(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        assert run(["reference"], tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"configuration error: [{section}] {key}: ")
        assert repr(value) in line
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "section, text, reason",
        [
            (
                "measure",
                "kind = explicit\npoints = 1.5,1.5",
                "configurations must be strictly increasing",
            ),
            ("measure", "count = 0", "count must be >= 1"),
            (
                "measure",
                "kind = explicit\npoints = 1.5,2.0\nweights = 1",
                "points and weights must have equal length",
            ),
            ("optimize", "grad_tol = -1", "grad_tol must be positive and finite"),
        ],
        ids=["repeated_point", "zero_count", "one_weight", "negative_grad_tol"],
    )
    def test_value_a_dataclass_rejects_names_its_section(
        self, tmp_path, capsys, section, text, reason
    ):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{text}\n")
        assert run(["reference"], tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"configuration error: [{section}] invalid value: ")
        assert reason in line
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nn_points = 99\n", "[DEFAULT]\nn_points = 99\n[basis]\n"],
        ids=["alone", "next_to_basis"],
    )
    def test_default_section_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "default.ini"
        path.write_text(text)
        assert run(["reference"], tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error: [DEFAULT] ")
        assert "n_points" in line and "[basis]" not in line
        assert not (tmp_path / "cache").exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.ini"), "reference"])
        assert code == 2

    def test_invalid_basis_sizes(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[basis]\nn_funcs = 3\nn_basis = 5\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize(
        "command, measure",
        [
            ("reference", "points = 1.5,nan,3.0"),
            ("optimize", "points = 1.5,2.0,3.0\nweights = 0.5,nan,0.5"),
            ("reference", "weights = 1.0"),  # no points
        ],
        ids=["nan_point", "nan_weight", "no_points"],
    )
    def test_non_finite_measure_is_config_error(
        self, tmp_path, capsys, command, measure
    ):
        path = tmp_path / "nan.ini"
        path.write_text(
            SMALL_CONFIG.split("[measure]")[0]
            + f"[measure]\nkind = explicit\n{measure}\n"
        )
        assert run([command], tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["reference"],
            ["optimize"],
            ["evaluate", "--hbs", "1"],
            ["report", "--hbs", "1"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "grid",
        ["n_points = 2", "x_max = -3", "x_max = nan", "x_max = 1e154", "x_max = 1e200"],
        ids=["two_points", "negative_x_max", "nan_x_max", "x_max_1e154", "x_max_1e200"],
    )
    def test_invalid_grid_is_config_error(self, tmp_path, capsys, command, grid):
        path = tmp_path / "grid.ini"
        path.write_text(SMALL_CONFIG.replace("n_points = 699", grid))
        assert run(command, tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error: invalid grid:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            (["optimize"], "lbfgs_memory = -1\n"),
            (["report", "--hbs", "1"], "\n[report]\ncurve_points = -1\n"),
            (["optimize"], "grad_tol = nan\n"),
            (["optimize"], "grad_tol = inf\n"),
            (["--seed", "-1", "optimize"], "random_start = true\n"),
        ],
        ids=["lbfgs_memory", "curve_points", "grad_tol_nan", "grad_tol_inf", "seed"],
    )
    def test_negative_count_is_config_error(self, tmp_path, capsys, command, extra):
        path = tmp_path / "neg.ini"
        path.write_text(SMALL_CONFIG + extra)
        assert run(command, tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("x_max", ["10.0", "16.0"])
    def test_report_box_below_curve_start_is_config_error(
        self, tmp_path, capsys, x_max
    ):
        # the box fits the measure, but report's curve would end below a = 1.5
        path = tmp_path / "box.ini"
        path.write_text(SMALL_CONFIG.replace("[grid]", f"[grid]\nx_max = {x_max}"))
        assert run(["report", "--hbs", "1"], tmp_path, str(path)) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error: report needs x_max >= 16.5")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()
        # evaluate needs no curve: it runs, warning of the small box
        with pytest.warns(TailOverflowWarning):
            assert run(["evaluate", "--hbs", "1"], tmp_path, str(path)) == 0


class TestReference:
    def test_populates_cache(self, tmp_path, small_config, capsys):
        assert run(["reference"], tmp_path, small_config) == 0
        entries = os.listdir(tmp_path / "cache")
        assert len(entries) == 3
        assert "3 computed" in capsys.readouterr().out

    def test_idempotent(self, tmp_path, small_config, capsys):
        run(["reference"], tmp_path, small_config)
        capsys.readouterr()
        assert run(["reference"], tmp_path, small_config) == 0
        assert "0 computed" in capsys.readouterr().out

    def test_default_config_ten_entries(self, tmp_path):
        assert run(["reference"], tmp_path) == 0
        assert len(os.listdir(tmp_path / "cache")) == 10

    def test_corrupt_entry_rebuilt(self, tmp_path, small_config, capsys):
        run(["reference"], tmp_path, small_config)
        entries = sorted((tmp_path / "cache").iterdir())

        def truncate(path):
            path.write_bytes(path.read_bytes()[:100])

        truncate(entries[0])
        assert run(["optimize"], tmp_path, small_config) == 0
        truncate(entries[1])
        capsys.readouterr()
        assert run(["reference"], tmp_path, small_config) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 cached, 1 rebuilt" in out
        assert sorted((tmp_path / "cache").iterdir()) == entries

    def test_unwritable_cache_dir(self, small_config, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")  # parent is a file, mkdir fails
        code = main(
            ["--cache", str(blocked / "cache"), "--config", small_config, "reference"]
        )
        assert code == 2
        assert "blocked" in capsys.readouterr().err


class TestOptimize:
    def test_artifact_round_trip(self, tmp_path, small_config):
        assert run(["optimize"], tmp_path, small_config) == 0
        artifact = load_artifact(str(tmp_path / "out" / "basis_JE_Nb1.json"))
        cfg = load_config(small_config)
        offline = build_offline(
            cfg.grid(), cfg.measure, cfg.n_funcs, "L2", str(tmp_path / "cache")
        )
        revalued = eval_JE(artifact["R"], offline)
        assert revalued == pytest.approx(artifact["final_value"], abs=1e-10)
        assert artifact["schema_version"] == 1
        assert artifact["converged"] is True

    def test_report_counts_evaluations(self, tmp_path, small_config):
        assert run(["optimize"], tmp_path, small_config) == 0
        with open(tmp_path / "out" / "optim_JE_Nb1.json") as fh:
            report = json.load(fh)
        assert report["evaluations"] >= report["iterations"] + 1

    @pytest.mark.parametrize(
        "max_iter, stop_reason",
        [(200, "converged"), (1, "max_iter reached")],
        ids=["converged", "max_iter"],
    )
    def test_report_writes_stop_reason(self, tmp_path, max_iter, stop_reason):
        path = tmp_path / "run.ini"
        text = SMALL_CONFIG.replace("max_iter = 200", f"max_iter = {max_iter}")
        path.write_text(text)
        assert run(["optimize"], tmp_path, str(path)) == 0
        with open(tmp_path / "out" / "optim_JE_Nb1.json") as fh:
            report = json.load(fh)
        assert report["stop_reason"] == stop_reason
        assert report["converged"] is (stop_reason == "converged")
        assert report["stalled"] is False

    def test_random_start_deterministic(self, tmp_path, small_config):
        values = []
        for _ in range(2):
            path = tmp_path / "rand.ini"
            path.write_text(SMALL_CONFIG + "random_start = true\n")
            assert run(["--seed", "7", "optimize"], tmp_path, str(path)) == 0
            values.append(
                load_artifact(str(tmp_path / "out" / "basis_JE_Nb1.json"))[
                    "final_value"
                ]
            )
        assert values[0] == values[1]

    def test_failed_report_write_keeps_previous_file(
        self, tmp_path, small_config, monkeypatch, capsys
    ):
        assert run(["optimize"], tmp_path, small_config) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        dump = json.dump

        def dump_fails_on_report(doc, fh, **kwargs):
            if "trajectory" not in doc:
                return dump(doc, fh, **kwargs)
            fh.write('{"iterations": ')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_fails_on_report)
        assert run(["optimize"], tmp_path, small_config) == 2
        assert "I/O error" in capsys.readouterr().err
        # the report file is intact and no temporary file is left behind
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        path = tmp_path / "short.ini"
        path.write_text(SMALL_CONFIG.replace("max_iter = 200", "max_iter = 1"))
        code = run(["--strict", "optimize"], tmp_path, str(path))
        assert code == 4


class TestEvaluateReport:
    def test_evaluate_hbs_baseline(self, tmp_path, small_config, capsys):
        assert run(["evaluate", "--hbs", "1", "--hbs", "2"], tmp_path, small_config) == 0
        table = (tmp_path / "out" / "criteria_table.csv").read_text().splitlines()
        assert table[0] == "basis,n_basis,J_L2,J_H1,J_E"
        assert len(table) == 3

    @pytest.mark.filterwarnings("error::basisopt.hermite.TailOverflowWarning")
    def test_report_row_counts(self, tmp_path, small_config):
        path = tmp_path / "rep.ini"
        path.write_text(SMALL_CONFIG + "\n[report]\ncurve_points = 7\n")
        assert run(["report", "--hbs", "1"], tmp_path, str(path)) == 0
        curve = (tmp_path / "out" / "energy_curve_HBS_Nb1.csv").read_text()
        assert len(curve.splitlines()) == 1 + 7
        dens = (tmp_path / "out" / "density_error_HBS_Nb1.csv").read_text()
        assert len(dens.splitlines()) == 1 + 7
        assert (tmp_path / "out" / "condition_Nb1.csv").exists()
        basis_csv = (tmp_path / "out" / "basis_functions_HBS_Nb1.csv").read_text()
        assert len(basis_csv.splitlines()) == 1 + 699

    @pytest.mark.filterwarnings("error::basisopt.hermite.TailOverflowWarning")
    def test_report_deterministic(self, tmp_path, small_config):
        path = tmp_path / "rep.ini"
        path.write_text(SMALL_CONFIG + "\n[report]\ncurve_points = 5\n")
        run(["report", "--hbs", "1"], tmp_path, str(path))
        first = (tmp_path / "out" / "energy_curve_HBS_Nb1.csv").read_bytes()
        run(["report", "--hbs", "1"], tmp_path, str(path))
        second = (tmp_path / "out" / "energy_curve_HBS_Nb1.csv").read_bytes()
        assert first == second

    def test_no_artifacts_is_usage_error(self, tmp_path, small_config):
        assert run(["evaluate"], tmp_path, small_config) == 2

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize(
        "mismatch", [{"n_funcs": 10}, {"n_points": 999}], ids=["n_funcs", "grid"]
    )
    def test_artifact_config_mismatch(
        self, tmp_path, small_config, capsys, command, mismatch
    ):
        doc = artifact_doc(replace(load_config(small_config), **mismatch), 1)
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)], tmp_path, small_config) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=str)
    def test_non_finite_artifact_is_config_error(
        self, tmp_path, small_config, capsys, command, value
    ):
        doc = artifact_doc(load_config(small_config), 1)
        doc["R"][2][0] = value  # json writes NaN and Infinity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)], tmp_path, small_config) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:") and "non-finite" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_overcomplete_basis_is_numerical_failure(
        self, tmp_path, capsys, command
    ):
        # ten Hermite functions per centre: cond(S) is about 6e14 at a = 1.5
        path = tmp_path / "ten.ini"
        path.write_text(SMALL_CONFIG.replace("n_funcs = 5", "n_funcs = 10"))
        assert run([command, "--hbs", "10"], tmp_path, str(path)) == 3
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("numerical failure:") and "at a=1.5" in line
        out = tmp_path / "out"
        written = [p.name for p in out.iterdir()] if out.exists() else []
        assert not [n for n in written if n.startswith(("energy_", "density_"))]

    def test_incompatible_artifacts_rejected(self, tmp_path, small_config):
        doc = artifact_doc(load_config(small_config), 1)
        doc["n_funcs"] = 7  # mismatch with the configuration
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(doc))
        code = run(["evaluate", str(path), "--hbs", "1"], tmp_path, small_config)
        assert code == 2


    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize(
        "criterion",
        ["/../../escaped/x", "not-a-criterion", "je", None, 3],
        ids=["path", "unknown", "lowercase", "null", "number"],
    )
    def test_artifact_criterion_outside_the_kinds_is_config_error(
        self, tmp_path, small_config, capsys, command, criterion
    ):
        # the label names the report's files: "/../../escaped/x" would put
        # them outside --out
        doc = artifact_doc(load_config(small_config), 1)
        doc["criterion"] = criterion
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)], tmp_path, small_config) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:") and "criterion" in line
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "escaped").exists()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize(
        "n_basis, n_funcs, columns",
        [(0, 5, 0), (6, 5, 6), (True, 5, 1), (1.0, 5, 1), ("1", 5, 1), (1, 5.0, 1)],
        ids=["zero", "above-n_funcs", "bool", "float", "string", "float-n_funcs"],
    )
    def test_artifact_n_basis_outside_range_is_config_error(
        self, tmp_path, small_config, capsys, command, n_basis, n_funcs, columns
    ):
        doc = artifact_doc(load_config(small_config), 1)
        doc.update(R=[[0.0] * columns] * 5, n_basis=n_basis, n_funcs=n_funcs)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)], tmp_path, small_config) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:")
        assert "1 <= n_basis <= n_funcs" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize(
        "twice", ["same-file", "same-label", "hbs"], ids=str
    )
    def test_duplicate_basis_label_is_config_error(
        self, tmp_path, small_config, capsys, command, twice
    ):
        # one label per row of the table and per set of report files
        doc = artifact_doc(load_config(small_config), 1)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(doc))
        doc["R"][0][0] = -1.0  # another basis with the same criterion and N_b
        second.write_text(json.dumps(doc))
        args = {
            "same-file": [str(first), str(first)],
            "same-label": [str(first), str(second)],
            "hbs": ["--hbs", "1", "--hbs", "1"],
        }[twice]
        assert run([command, *args], tmp_path, small_config) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:")
        assert ("HBS_Nb1" if twice == "hbs" else "JE_Nb1") in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_non_orthonormal_artifact_is_config_error(
        self, tmp_path, small_config, capsys, command, scale
    ):
        # the same span as an orthonormal R, but R^T R overflows or
        # underflows: one line, exit 2, no warning and no file written
        doc = artifact_doc(load_config(small_config), 2)
        doc["R"] = (scale * np.asarray(doc["R"])).tolist()
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, str(path)], tmp_path, small_config) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("configuration error:") and "orthonormal" in line
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    def test_optimize_artifact_passes_the_orthonormality_check(self, tmp_path):
        path = tmp_path / "nb2.ini"
        path.write_text(SMALL_CONFIG.replace("n_basis = 1", "n_basis = 2"))
        assert run(["optimize"], tmp_path, str(path)) == 0
        artifact = str(tmp_path / "out" / "basis_JE_Nb2.json")
        assert run(["evaluate", artifact], tmp_path, str(path)) == 0


class TestStartupAndSolves:
    def test_import_cli_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(basisopt.__file__))
        code = (
            "import sys, basisopt.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_fd_solve_leaves_scipy_linalg_unloaded(self):
        # the solver loads LAPACK's extension module, which CPython records
        # under its name, and no scipy package
        src = os.path.dirname(os.path.dirname(basisopt.__file__))
        code = (
            "import sys\n"
            "from basisopt import reference\n"
            "from basisopt.grid import build_grid\n"
            "reference.solve_configuration(build_grid(20.0, 199), 2.0)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['scipy.linalg._flapack']"

    def test_report_one_solve_per_curve_point(self, tmp_path, solves):
        path = tmp_path / "rep.ini"
        path.write_text(SMALL_CONFIG + "\n[report]\ncurve_points = 4\n")
        args = ["report", "--hbs", "1", "--hbs", "2"]
        # the curve points build their records from these solves: report
        # neither reads nor writes the offline cache, cold or warm
        assert run(args, tmp_path, str(path)) == 0
        assert len(solves) == 4
        assert not (tmp_path / "cache").exists()
        assert run(["reference"], tmp_path, str(path)) == 0
        warm = snapshot(tmp_path / "cache")
        solves.clear()
        assert run(args, tmp_path, str(path)) == 0
        assert len(solves) == 4
        assert snapshot(tmp_path / "cache") == warm

    def test_report_one_reduced_solve_per_basis_and_point(self, tmp_path, monkeypatch):
        # one reduced solve serves a point's energy and its density errors
        calls = []
        solve = evaluate.reduced_ground_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(evaluate, "reduced_ground_pair", counted)
        path = tmp_path / "rep.ini"
        path.write_text(SMALL_CONFIG + "\n[report]\ncurve_points = 4\n")
        assert run(["report", "--hbs", "1", "--hbs", "2"], tmp_path, str(path)) == 0
        assert len(calls) == 2 * 4

    def test_report_one_dimer_basis_for_all_artifacts(self, tmp_path, monkeypatch):
        # one basis per curve point, and one for every basis-function file
        calls = []
        assemble = cli.assemble_dimer

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(cli, "assemble_dimer", counted)
        monkeypatch.setattr(evaluate, "assemble_dimer", counted)
        path = tmp_path / "rep.ini"
        path.write_text(SMALL_CONFIG + "\n[report]\ncurve_points = 4\n")
        assert run(["report", "--hbs", "1", "--hbs", "2"], tmp_path, str(path)) == 0
        assert len(calls) == 4 + 1
        out = tmp_path / "out"
        assert len(list(out.glob("basis_functions_*.csv"))) == 2

    def test_evaluate_reads_each_entry_once(self, tmp_path, monkeypatch):
        path = tmp_path / "ten.ini"
        path.write_text(SMALL_CONFIG.replace("count = 3", "count = 10"))
        assert run(["reference"], tmp_path, str(path)) == 0
        reads = []
        load = reference.load_cached
        monkeypatch.setattr(
            reference, "load_cached", lambda *args: reads.append(args) or load(*args)
        )
        assert run(["evaluate", "--hbs", "1", "--hbs", "2"], tmp_path, str(path)) == 0
        assert len(reads) == 10
        # the table one offline build per metric gives, bit for bit
        cfg = load_config(str(path))
        off = {
            m: build_offline(cfg.grid(), cfg.measure, cfg.n_funcs, m)
            for m in ("L2", "H1")
        }
        expected = ["basis,n_basis,J_L2,J_H1,J_E"]
        for nb in (1, 2):
            R = hbs_coefficients(cfg.n_funcs, nb)
            values = (
                nb,
                eval_JA(R, off["L2"]),
                eval_JA(R, off["H1"]),
                eval_JE(R, off["L2"]),
            )
            expected.append(",".join([f"HBS_Nb{nb}", *map(repr, map(float, values))]))
        table = (tmp_path / "out" / "criteria_table.csv").read_text().splitlines()
        assert table == expected

    def test_evaluate_after_reference_solves_nothing(
        self, tmp_path, small_config, solves
    ):
        assert run(["reference"], tmp_path, small_config) == 0
        solves.clear()
        assert run(["evaluate", "--hbs", "1"], tmp_path, small_config) == 0
        assert solves == []
