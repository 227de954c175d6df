"""Command-line driver: offline references, optimization, evaluation, CSV
reports.

Exit codes: 0 success, 2 configuration, usage, I/O or out-of-memory error,
3 numerical failure, 4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .criteria import CriterionKind, make_criterion
from .evaluate import (
    CURVE_A_MAX,
    CURVE_A_MIN,
    curves,
    default_curve_points,
    overlap_condition_sweep,
)
from .galerkin import OvercompletenessError, expand, hbs_coefficients
from .grid import Grid, box_margin, build_grid, default_x_max
from .hermite import assemble_dimer
from .reference import (
    Measure,
    NumericalFailure,
    build_offline,
    cache_key,
    default_measure,
    load_or_build_each,
    stack_offline,
    uniform_measure,
    write_atomically,
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

    def __post_init__(self):
        if not 1 <= self.n_basis <= self.n_funcs:
            raise ConfigError(
                f"need 1 <= n_basis <= n_funcs, got {self.n_basis}, {self.n_funcs}"
            )
        if self.curve_points < 1:
            raise ConfigError(f"need curve_points >= 1, got {self.curve_points}")
        try:
            grid = self.grid()
        except ValueError as exc:  # a non-positive x_max or too few points
            raise ConfigError(f"invalid grid: {exc}") from exc
        # h_{N-1} oscillates at wavenumber sqrt(2N - 1) near its centre; a
        # grid with fewer than 4 points per wavelength is rejected
        bound = np.pi / (2.0 * np.sqrt(2.0 * self.n_funcs - 1.0))
        if grid.dx > bound:
            raise ConfigError(
                f"grid too coarse for n_funcs = {self.n_funcs}: dx = {grid.dx:.4g} "
                f"exceeds pi / (2 sqrt(2 n_funcs - 1)) = {bound:.4g}"
            )
        if self.measure.a_max + 1.0 >= grid.x_max:
            raise ConfigError(
                f"largest configuration {self.measure.a_max} does not fit the box "
                f"[-{grid.x_max}, {grid.x_max}]"
            )

    def grid(self) -> Grid:
        x_max = self.x_max
        if x_max is None:
            x_max = default_x_max(self.measure.a_max, self.n_funcs)
        return build_grid(x_max, self.n_points)


def _boolean(text: str) -> bool:
    try:  # the words configparser takes: 1/yes/true/on, 0/no/false/off
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# [measure] kind -> its builder, whose parameters are the kind's other keys
_MEASURES = {"uniform": uniform_measure, "explicit": Measure}


def _measure_kind(text: str) -> str:
    if text not in _MEASURES:
        raise ValueError(f"unknown measure kind {text!r}")
    return text


# [section] key -> reader. A key sets the OptimSettings field of its name if
# there is one, else the RunConfig field; [criterion] kind sets criterion and
# _parse_measure builds the measure from the [measure] keys.
_KEYS = {
    "grid": {"x_max": float, "n_points": int},
    "basis": {"n_funcs": int, "n_basis": int},
    "criterion": {"kind": CriterionKind},
    "measure": {
        "kind": _measure_kind,
        "a_min": float,
        "a_max": float,
        "count": int,
        "points": _floats,
        "weights": _floats,
    },
    "optimize": {
        "grad_tol": float,
        "max_iter": int,
        "lbfgs_memory": int,
        "random_start": _boolean,
    },
    "report": {"curve_points": int},
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
    if parser.defaults():  # configparser would copy these into every section
        keys = ", ".join(sorted(parser.defaults()))
        raise ConfigError(f"[DEFAULT] is not supported; put {keys} in a section")
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - _KEYS[name].keys()
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {', '.join(sorted(unknown))}")
    run, settings = {}, {}
    for name in parser.sections():
        values = _read(parser[name])
        if name == "measure":
            values = {"measure": _parse_measure(values)}
        elif "kind" in values:  # [criterion] kind
            values = {"criterion": values["kind"]}
        for key, value in values.items():
            optim = key in OptimSettings.__dataclass_fields__
            (settings if optim else run)[key] = value
    return RunConfig(**run, settings=_checked("optimize", OptimSettings, **settings))


def _read(section) -> dict:
    """Every key of one section through its reader; a value that the reader
    rejects is a ConfigError that names the key."""
    values = {}
    for key, text in section.items():
        try:
            values[key] = _KEYS[section.name][key](text)
        except ValueError as exc:
            raise ConfigError(f"[{section.name}] {key}: {exc}") from exc
    return values


def _checked(section: str, make, **kwargs):
    """make(**kwargs); a ValueError becomes a ConfigError naming the section."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] invalid value: {exc}") from exc


def _parse_measure(values: dict) -> Measure:
    kind = values.pop("kind", "uniform")
    build = _MEASURES[kind]
    foreign = values.keys() - inspect.signature(build).parameters
    if foreign:
        raise ConfigError(
            f"[measure] kind = {kind} takes no {', '.join(sorted(foreign))}"
        )
    if kind == "explicit":
        if "points" not in values:
            raise ConfigError("[measure] kind = explicit needs points")
        values.setdefault("weights", (1.0,) * len(values["points"]))
    return _checked("measure", build, **values)


# -- artifacts ----------------------------------------------------------------


def _artifact_grid(cfg: RunConfig) -> dict:
    return {"x_max": cfg.grid().x_max, "n_points": cfg.n_points}


def _write_json(path: str, doc: dict) -> None:
    def write(fh):
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    write_atomically(path, write)


def save_artifact(path: str, cfg: RunConfig, report) -> None:
    doc = {
        "schema_version": ARTIFACT_SCHEMA,
        "tool_version": __version__,
        "R": report.R_opt.tolist(),
        "n_funcs": cfg.n_funcs,
        "n_basis": cfg.n_basis,
        "criterion": cfg.criterion.value,
        "grid": _artifact_grid(cfg),
        "measure": {
            "points": list(cfg.measure.points),
            "weights": list(cfg.measure.weights),
        },
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
    # the label f"{criterion}_Nb{n_basis}" names the report's files
    kinds = [kind.value for kind in CriterionKind]
    if doc["criterion"] not in kinds:
        raise ConfigError(
            f"artifact {path} has criterion {doc['criterion']!r}, "
            f"not one of {', '.join(kinds)}"
        )
    n_basis, n_funcs = doc["n_basis"], doc["n_funcs"]
    # type(...) is int rejects JSON's true and 2.0, which compare equal to 1 and 2
    if not (type(n_basis) is type(n_funcs) is int and 1 <= n_basis <= n_funcs):
        raise ConfigError(
            f"artifact {path} needs integers 1 <= n_basis <= n_funcs, "
            f"got {n_basis!r}, {n_funcs!r}"
        )
    return doc


# -- CSV helpers ---------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (v if isinstance(v, str) else _fmt(v) for v in row)
            fh.write(",".join(cells) + "\n")

    write_atomically(path, write)


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
    seed = args.seed if cfg.random_start else None
    if cfg.random_start:
        rng = np.random.default_rng(seed)
        R0 = random_stiefel(rng, cfg.n_funcs, cfg.n_basis)
    else:
        R0 = hbs_coefficients(cfg.n_funcs, cfg.n_basis)
    report = minimize(make_criterion(cfg.criterion, offline), R0, cfg.settings)

    name = f"{cfg.criterion.value}_Nb{cfg.n_basis}"
    artifact_path = os.path.join(cfg.out_dir, f"basis_{name}.json")
    save_artifact(artifact_path, cfg, report)
    _write_json(
        os.path.join(cfg.out_dir, f"optim_{name}.json"),
        {
            # the run's start and settings: with basis_*.json, what reproduces it
            "start": "random" if cfg.random_start else "hbs",
            "seed": seed,
            "settings": asdict(cfg.settings),
            "iterations": report.iterations,
            "evaluations": report.evaluations,
            "converged": report.converged,
            "stalled": report.stalled,
            "stop_reason": report.stop_reason,
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


def _bases(cfg: RunConfig, args) -> list[tuple[str, np.ndarray]]:
    """(label, R) of each basis named on the command line: the artifact
    files, then the plain Hermite basis (HBS) of each --hbs size."""
    hbs = args.hbs or []
    if not all(1 <= nb <= cfg.n_funcs for nb in hbs):
        raise ConfigError(f"--hbs needs 1 <= N_B <= n_funcs = {cfg.n_funcs}")
    if not args.artifacts and not hbs:
        raise ConfigError("no artifacts given (paths or --hbs)")
    grid = _artifact_grid(cfg)
    bases = []
    for path in args.artifacts:
        doc = load_artifact(path)
        label = f"{doc['criterion']}_Nb{doc['n_basis']}"
        shape = (cfg.n_funcs, doc["n_basis"])
        dims = (doc["n_funcs"], doc["R"].shape)
        if doc["grid"] != grid or dims != (cfg.n_funcs, shape):
            raise ConfigError(
                f"artifact {label} (grid {doc['grid']}, R of shape "
                f"{doc['R'].shape}) does not match the configuration (grid {grid}, "
                f"(n_funcs, n_basis) = {shape})"
            )
        with np.errstate(all="ignore"):  # R scaled far from 1: R^T R over/underflows
            error = np.linalg.norm(doc["R"].T @ doc["R"] - np.eye(doc["n_basis"]))
        if not error <= 1e-10:
            raise ConfigError(
                f"artifact {label}: R is not orthonormal, |R^T R - I|_F = {error:.1e}"
            )
        bases.append((label, doc["R"]))
    bases += [(f"HBS_Nb{nb}", hbs_coefficients(cfg.n_funcs, nb)) for nb in hbs]
    labels = [label for label, _ in bases]
    for label in labels:
        if labels.count(label) > 1:  # its table rows and CSV files would clash
            raise ConfigError(f"basis {label} is given more than once")
    return bases


def cmd_evaluate(cfg: RunConfig, args) -> int:
    bases = _bases(cfg, args)
    grid = cfg.grid()
    m = cfg.measure
    pairs = load_or_build_each(grid, m.points, cfg.n_funcs, cfg.cache_dir)
    stacks = stack_offline([r for r, _ in pairs], m.weights)  # one read, one pass
    criteria = [make_criterion(kind, stacks[kind.metric]) for kind in CriterionKind]
    rows = []
    for label, R in bases:
        nb, (j_l2, j_h1, j_e) = R.shape[1], (J(R)[0] for J in criteria)
        print(f"{label:>12}  Nb={nb}  J_L2={j_l2!r}  J_H1={j_h1!r}  J_E={j_e!r}")
        rows.append((label, _fmt(nb), j_l2, j_h1, j_e))
    write_csv(
        os.path.join(cfg.out_dir, "criteria_table.csv"),
        ["basis", "n_basis", "J_L2", "J_H1", "J_E"],
        rows,
    )
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    bases = _bases(cfg, args)
    grid = cfg.grid()
    # end the curve where the box still holds the basis tails
    margin = box_margin(cfg.n_funcs)
    a_end = min(CURVE_A_MAX, grid.x_max - margin)
    if a_end < CURVE_A_MIN:
        raise ConfigError(
            f"report needs x_max >= {CURVE_A_MIN + margin} for its curve from "
            f"a = {CURVE_A_MIN}, got x_max = {grid.x_max}"
        )
    a_values = default_curve_points(cfg.curve_points, a_end)
    per_basis = curves([R for _, R in bases], a_values, grid, cfg.n_funcs)
    for (label, _), curve in zip(bases, per_basis):
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
    _write_basis_functions(cfg, grid, bases)
    sweep_a = np.geomspace(0.1, CURVE_A_MAX, 40)
    for nb in sorted({R.shape[1] for _, R in bases}):
        sweep = overlap_condition_sweep(nb, sweep_a)
        write_csv(
            os.path.join(cfg.out_dir, f"condition_Nb{nb}.csv"),
            ["a", "cond"],
            sweep,
        )
    print(f"report: CSV files written to {cfg.out_dir}")
    return 0


def _write_basis_functions(cfg: RunConfig, grid: Grid, bases):
    """Every basis's functions at the first measure point, from one dimer
    basis, which is freed before the report goes on."""
    dimer = assemble_dimer(grid, cfg.measure.points[0], cfg.n_funcs)
    for label, R in bases:
        # scale back to true function values (undo the sqrt(dx) convention)
        columns = dimer @ expand(R) / np.sqrt(grid.dx)
        header = ["x"] + [f"chi_{i}" for i in range(columns.shape[1])]
        write_csv(
            os.path.join(cfg.out_dir, f"basis_functions_{label}.csv"),
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
    ).set_defaults(handler=cmd_reference)
    sub.add_parser(
        "optimize", help="optimize a basis and store the artifact"
    ).set_defaults(handler=cmd_optimize)
    for name, handler, help_ in (
        ("evaluate", cmd_evaluate, "criterion values for stored artifacts"),
        ("report", cmd_report, "emit energy/density/condition/basis CSV files"),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("artifacts", nargs="*", help="artifact JSON paths")
        p.add_argument(
            "--hbs",
            type=int,
            action="append",
            metavar="N_B",
            help="include the plain Hermite basis (HBS) of this size",
        )
    return parser


def _one_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: one line, without its source."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.cache:
            cfg = replace(cfg, cache_dir=args.cache)
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. a cache or output directory not writable
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a grid or curve too large to allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, OvercompletenessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
