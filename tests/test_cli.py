import json
import os

import numpy as np
import pytest

from basisopt.cli import (
    ConfigError,
    RunConfig,
    hbs_artifact,
    load_artifact,
    load_config,
    main,
)
from basisopt.criteria import eval_JE
from basisopt.reference import build_offline

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

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.ini"), "reference"])
        assert code == 2

    def test_invalid_basis_sizes(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[basis]\nn_funcs = 3\nn_basis = 5\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


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

    def test_incompatible_artifacts_rejected(self, tmp_path, small_config):
        cfg = load_config(small_config)
        doc = hbs_artifact(cfg, 1)
        doc["R"] = doc["R"].tolist()
        doc["n_funcs"] = 7  # mismatch with cfg-derived HBS artifact
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(doc))
        code = run(["evaluate", str(path), "--hbs", "1"], tmp_path, small_config)
        assert code == 2


def test_hbs_artifact_is_identity_prefix():
    doc = hbs_artifact(RunConfig(), 3)
    np.testing.assert_array_equal(doc["R"], np.eye(10)[:, :3])
