"""Command-line driver: offline references, optimization, evaluation, CSV
reports.

Exit codes: 0 success, 2 configuration, usage or I/O error, 3 numerical
failure, 4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .criteria import CriterionKind, eval_JA, eval_JE, make_criterion
from .evaluate import (
    CURVE_A_MAX,
    CURVE_A_MIN,
    curves,
    default_curve_points,
    overlap_condition_sweep,
)
from .galerkin import OvercompletenessError, expand, hbs_coefficients
from .grid import R_MAX, Grid, build_grid, default_x_max
from .hermite import assemble_dimer
from .reference import (
    METRICS,
    Measure,
    NumericalFailure,
    build_offline,
    cache_key,
    default_measure,
    load_or_build_each,
    stack_offline,
    uniform_measure,
)
from .stiefel import OptimSettings, minimize, random_stiefel

ARTIFACT_SCHEMA = 1


class ConfigError(ValueError):
    """Invalid configuration file or command-line usage."""


@dataclass(frozen=True)
class RunConfig:
    x_max: float | None = None  # None: derived from the measure
    n_points: int = 1999
    n_funcs: int = 10
    n_basis: int = 2
    criterion: CriterionKind = CriterionKind.JE
    measure: Measure = field(default_factory=default_measure)
    settings: OptimSettings = field(default_factory=OptimSettings)
    random_start: bool = False
    curve_points: int = 50
    out_dir: str = "out"
    cache_dir: str = "cache"

    def grid(self) -> Grid:
        x_max = self.x_max
        if x_max is None:
            x_max = default_x_max(self.measure.a_max)
        return build_grid(x_max, self.n_points)


_KNOWN_KEYS = {
    "grid": {"x_max", "n_points"},
    "basis": {"n_funcs", "n_basis"},
    "criterion": {"kind"},
    "measure": {"kind", "a_min", "a_max", "count", "points", "weights"},
    "optimize": {"grad_tol", "max_iter", "lbfgs_memory", "random_start"},
    "report": {"curve_points"},
}


def load_config(path: str) -> RunConfig:
    """Parse the INI-style run configuration; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).splitlines())  # some messages span lines
        raise ConfigError(f"malformed config file {path}: {detail}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}"
            )
    try:
        if parser.has_section("grid"):
            g = parser["grid"]
            cfg = replace(
                cfg,
                x_max=g.getfloat("x_max", fallback=None),
                n_points=g.getint("n_points", fallback=cfg.n_points),
            )
        if parser.has_section("basis"):
            b = parser["basis"]
            cfg = replace(
                cfg,
                n_funcs=b.getint("n_funcs", fallback=cfg.n_funcs),
                n_basis=b.getint("n_basis", fallback=cfg.n_basis),
            )
        if parser.has_section("criterion"):
            cfg = replace(
                cfg, criterion=CriterionKind(parser["criterion"]["kind"])
            )
        if parser.has_section("measure"):
            cfg = replace(cfg, measure=_parse_measure(parser["measure"]))
        if parser.has_section("optimize"):
            o, base = parser["optimize"], cfg.settings
            cfg = replace(
                cfg,
                settings=OptimSettings(
                    grad_tol=o.getfloat("grad_tol", fallback=base.grad_tol),
                    max_iter=o.getint("max_iter", fallback=base.max_iter),
                    lbfgs_memory=o.getint("lbfgs_memory", fallback=base.lbfgs_memory),
                ),
                random_start=o.getboolean("random_start", fallback=cfg.random_start),
            )
        if parser.has_section("report"):
            cfg = replace(
                cfg,
                curve_points=parser["report"].getint(
                    "curve_points", fallback=cfg.curve_points
                ),
            )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    _validate(cfg)
    return cfg


def _parse_measure(section) -> Measure:
    kind = section.get("kind", "uniform")
    if kind == "uniform":
        default = default_measure()
        return uniform_measure(
            section.getfloat("a_min", fallback=default.points[0]),
            section.getfloat("a_max", fallback=default.a_max),
            section.getint("count", fallback=len(default.points)),
        )
    if kind == "explicit":
        points = tuple(float(v) for v in section["points"].split(","))
        if "weights" in section:
            weights = tuple(float(v) for v in section["weights"].split(","))
        else:
            weights = (1.0,) * len(points)
        return Measure(points=points, weights=weights)
    raise ConfigError(f"unknown measure kind {kind!r}")


def _validate(cfg: RunConfig):
    if not 1 <= cfg.n_basis <= cfg.n_funcs:
        raise ConfigError(
            f"need 1 <= n_basis <= n_funcs, got {cfg.n_basis}, {cfg.n_funcs}"
        )
    if cfg.curve_points < 1:
        raise ConfigError(f"need curve_points >= 1, got {cfg.curve_points}")
    try:
        grid = cfg.grid()
    except ValueError as exc:  # a non-positive x_max or too few points
        raise ConfigError(f"invalid grid: {exc}") from exc
    if cfg.measure.a_max + 1.0 >= grid.x_max:
        raise ConfigError(
            f"largest configuration {cfg.measure.a_max} does not fit the box "
            f"[-{grid.x_max}, {grid.x_max}]"
        )


# -- artifacts ----------------------------------------------------------------


def _artifact_grid(cfg: RunConfig) -> dict:
    return {"x_max": cfg.grid().x_max, "n_points": cfg.n_points}


def _artifact_doc(cfg: RunConfig, R, n_basis: int, criterion: str) -> dict:
    return {
        "schema_version": ARTIFACT_SCHEMA,
        "tool_version": __version__,
        "R": R,
        "n_funcs": cfg.n_funcs,
        "n_basis": n_basis,
        "criterion": criterion,
        "grid": _artifact_grid(cfg),
        "measure": {
            "points": list(cfg.measure.points),
            "weights": list(cfg.measure.weights),
        },
    }


def _write_json(path: str, doc: dict) -> None:
    """Write doc atomically: a failed write leaves the previous file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_artifact(path: str, R: np.ndarray, cfg: RunConfig, report) -> None:
    doc = {
        **_artifact_doc(cfg, R.tolist(), cfg.n_basis, cfg.criterion.value),
        "final_value": report.final_value,
        "iterations": report.iterations,
        "converged": report.converged,
        "grad_norm": report.grad_norm,
    }
    _write_json(path, doc)


def load_artifact(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        doc["R"] = np.asarray(doc["R"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"unreadable artifact {path}: {exc!r}") from exc
    if not np.isfinite(doc["R"]).all():
        raise ConfigError(f"artifact {path} has non-finite entries in R")
    if doc.get("schema_version") != ARTIFACT_SCHEMA:
        raise ConfigError(f"unsupported artifact schema in {path}")
    if not {"n_funcs", "n_basis", "criterion", "grid"} <= doc.keys():
        raise ConfigError(f"artifact {path} lacks n_funcs, n_basis, criterion or grid")
    return doc


def hbs_artifact(cfg: RunConfig, n_basis: int) -> dict:
    """Pseudo-artifact for the plain Hermite basis (no optimization)."""
    R = hbs_coefficients(cfg.n_funcs, n_basis)
    return {**_artifact_doc(cfg, R, n_basis, "HBS"), "label": f"HBS_Nb{n_basis}"}


def _artifact_label(doc: dict) -> str:
    return doc.get("label") or f"{doc['criterion']}_Nb{doc['n_basis']}"


# -- CSV helpers ---------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(v if isinstance(v, str) else _fmt(v) for v in row)
                + "\n"
            )


# -- subcommands ---------------------------------------------------------------


def cmd_reference(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    counts = {"computed": 0, "cached": 0, "rebuilt": 0}
    points = cfg.measure.points
    records = load_or_build_each(grid, points, cfg.n_funcs, cfg.cache_dir)
    for a, (_, status) in zip(points, records):
        counts[status] += 1
        print(f"a={a:.6f}  key={cache_key(grid, a, cfg.n_funcs)}  {status}")
    print("reference: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    offline = build_offline(
        grid, cfg.measure, cfg.n_funcs, cfg.criterion.metric, cfg.cache_dir
    )
    if cfg.random_start:
        rng = np.random.default_rng(args.seed)
        R0 = random_stiefel(rng, cfg.n_funcs, cfg.n_basis)
    else:
        R0 = hbs_coefficients(cfg.n_funcs, cfg.n_basis)
    report = minimize(make_criterion(cfg.criterion, offline), R0, cfg.settings)

    name = f"{cfg.criterion.value}_Nb{cfg.n_basis}"
    artifact_path = os.path.join(cfg.out_dir, f"basis_{name}.json")
    save_artifact(artifact_path, report.R_opt, cfg, report)
    _write_json(
        os.path.join(cfg.out_dir, f"optim_{name}.json"),
        {
            "iterations": report.iterations,
            "converged": report.converged,
            "stalled": report.stalled,
            "grad_norm": report.grad_norm,
            "trajectory": report.trajectory.tolist(),
        },
    )
    print(
        f"{name}: value={report.final_value!r} iterations={report.iterations} "
        f"converged={report.converged} -> {artifact_path}"
    )
    if args.strict and not report.converged:
        print("non-convergence with --strict", file=sys.stderr)
        return 4
    return 0


def _gather_artifacts(cfg: RunConfig, args) -> list[dict]:
    if not all(1 <= nb <= cfg.n_funcs for nb in args.hbs or []):
        raise ConfigError(f"--hbs needs 1 <= N_B <= n_funcs = {cfg.n_funcs}")
    docs = [load_artifact(p) for p in args.artifacts]
    docs += [hbs_artifact(cfg, nb) for nb in args.hbs or []]
    if not docs:
        raise ConfigError("no artifacts given (paths or --hbs)")
    grid = _artifact_grid(cfg)
    for doc in docs:
        shape = (cfg.n_funcs, doc["n_basis"])
        dims = (doc["n_funcs"], doc["R"].shape)
        if doc["grid"] != grid or dims != (cfg.n_funcs, shape):
            raise ConfigError(
                f"artifact {_artifact_label(doc)} (grid {doc['grid']}, R of shape "
                f"{doc['R'].shape}) does not match the configuration (grid {grid}, "
                f"(n_funcs, n_basis) = {shape})"
            )
    return docs


def cmd_evaluate(cfg: RunConfig, args) -> int:
    docs = _gather_artifacts(cfg, args)
    grid = cfg.grid()
    m = cfg.measure
    pairs = load_or_build_each(grid, m.points, cfg.n_funcs, cfg.cache_dir)
    records = [record for record, _ in pairs]  # one read serves both metrics
    off = {metric: stack_offline(records, m.weights, metric) for metric in METRICS}
    rows = []
    for doc in docs:
        R = doc["R"]
        rows.append(
            (
                _artifact_label(doc),
                doc["n_basis"],
                eval_JA(R, off["L2"]),
                eval_JA(R, off["H1"]),
                eval_JE(R, off["L2"]),
            )
        )
        print(
            f"{rows[-1][0]:>12}  Nb={rows[-1][1]}  J_L2={rows[-1][2]!r}  "
            f"J_H1={rows[-1][3]!r}  J_E={rows[-1][4]!r}"
        )
    write_csv(
        os.path.join(cfg.out_dir, "criteria_table.csv"),
        ["basis", "n_basis", "J_L2", "J_H1", "J_E"],
        [(label, _fmt(nb), j2, jh, je) for label, nb, j2, jh, je in rows],
    )
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    docs = _gather_artifacts(cfg, args)
    grid = cfg.grid()
    # end the curve where the box still holds the basis tails
    a_end = min(CURVE_A_MAX, grid.x_max - R_MAX)
    if a_end < CURVE_A_MIN:
        raise ConfigError(
            f"report needs x_max >= {CURVE_A_MIN + R_MAX} for its curve from "
            f"a = {CURVE_A_MIN}, got x_max = {grid.x_max}"
        )
    a_values = default_curve_points(cfg.curve_points, a_end)
    bases = [doc["R"] for doc in docs]
    per_doc = curves(bases, a_values, grid, cfg.n_funcs)
    for doc, curve in zip(docs, per_doc):
        label = _artifact_label(doc)
        write_csv(
            os.path.join(cfg.out_dir, f"energy_curve_{label}.csv"),
            ["a", "E_ref", "E_basis", "abs_error", "cond"],
            [(p.a, p.e_ref, p.e_basis, p.abs_error, p.cond) for p in curve],
        )
        write_csv(
            os.path.join(cfg.out_dir, f"density_error_{label}.csv"),
            ["a", "l1", "h1", "vw"],
            [(p.a, p.l1, p.h1, p.vw) for p in curve],
        )
    _write_basis_functions(cfg, grid, docs)
    sweep_a = np.geomspace(0.1, CURVE_A_MAX, 40)
    for nb in sorted({doc["n_basis"] for doc in docs}):
        sweep = overlap_condition_sweep(nb, sweep_a)
        write_csv(
            os.path.join(cfg.out_dir, f"condition_Nb{nb}.csv"),
            ["a", "cond"],
            sweep,
        )
    print(f"report: CSV files written to {cfg.out_dir}")
    return 0


def _write_basis_functions(cfg: RunConfig, grid: Grid, docs: list[dict]):
    """Every artifact's basis functions at the first measure point, from one
    dimer basis, which is freed before the report goes on."""
    basis = assemble_dimer(grid, cfg.measure.points[0], cfg.n_funcs)
    for doc in docs:
        # scale back to true function values (undo the sqrt(dx) convention)
        columns = basis @ expand(doc["R"]) / np.sqrt(grid.dx)
        header = ["x"] + [f"chi_{i}" for i in range(columns.shape[1])]
        write_csv(
            os.path.join(cfg.out_dir, f"basis_functions_{_artifact_label(doc)}.csv"),
            header,
            [(x, *row) for x, row in zip(grid.points, columns)],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basisopt",
        description="Optimal atom-centered basis sets for the 1D double-well "
        "diatomic model.",
        epilog="Measure weights: [measure] kind = uniform gives each point the "
        "spacing (a_max - a_min) / (count - 1) as its weight (1.0 for a single "
        "point); kind = explicit without a weights key gives each point "
        "weight 1.0.",
    )
    parser.add_argument("--config", help="INI run configuration file")
    parser.add_argument("--cache", help="offline cache directory")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--strict", action="store_true", help="exit 4 on non-convergence"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "reference",
        help="populate the offline cache",
        description="One cache entry per (grid, a, n_funcs) serves L2 and H1. "
        "Each configuration is reported as computed (no entry: FD solve, entry "
        "written), cached (entry read) or rebuilt (unreadable or foreign entry "
        "replaced).",
    )
    sub.add_parser("optimize", help="optimize a basis and store the artifact")
    for name, help_ in (
        ("evaluate", "criterion values for stored artifacts"),
        ("report", "emit energy/density/condition/basis CSV files"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("artifacts", nargs="*", help="artifact JSON paths")
        p.add_argument(
            "--hbs",
            type=int,
            action="append",
            metavar="N_B",
            help="include the HBS pseudo-artifact of this size",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.cache:
            cfg = replace(cfg, cache_dir=args.cache)
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        handler = {
            "reference": cmd_reference,
            "optimize": cmd_optimize,
            "evaluate": cmd_evaluate,
            "report": cmd_report,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. a cache or output directory not writable
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, OvercompletenessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
