"""Post-optimization studies: dissociation curves, density errors,
overlap conditioning sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .galerkin import OvercompletenessError, lcao_density, reduced_ground_pair
from .grid import Grid
from .hermite import hermite_functions
from .reference import (
    OfflineRecord,
    SolvedConfiguration,
    build_offline_single,
    load_or_build_each,
    solve_configuration,
)


@dataclass(frozen=True)
class CurvePoint:
    a: float
    e_ref: float
    e_basis: float
    abs_error: float
    cond: float

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.e_basis)


@dataclass(frozen=True)
class DensityError:
    a: float
    l1: float
    h1: float
    vw: float


# Right end of the report's curves: the training interval is [1.5, 5].
CURVE_A_MAX = 5.0


def default_curve_points(count: int = 50, a_max: float = CURVE_A_MAX) -> np.ndarray:
    """Fine evaluation sampling of [1.5, a_max], by default the training
    interval [1.5, 5]."""
    return np.linspace(1.5, a_max, count)


def curve_point(R: np.ndarray, record: OfflineRecord) -> CurvePoint:
    """Reference vs reduced ground-state energy at one configuration.

    Overcompleteness failures are recorded as NaN points, not raised, so a
    sweep into the ill-conditioned small-a region stays usable.
    """
    try:
        pair = reduced_ground_pair(record.m_e, record.s_b, R, a=record.a)
        e_basis, cond = pair.energy, pair.cond
    except OvercompletenessError as exc:
        e_basis, cond = np.nan, exc.cond
    return CurvePoint(
        a=record.a,
        e_ref=record.e_ref,
        e_basis=float(e_basis),
        abs_error=float(abs(record.e_ref - e_basis)),
        cond=float(cond),
    )


def energy_curve(
    R: np.ndarray,
    a_values,
    grid: Grid,
    n_funcs: int,
    cache_dir: str | None = None,
) -> list[CurvePoint]:
    """Reference vs reduced ground-state energies along the curve."""
    a_values = np.asarray(a_values, dtype=float)
    return [
        curve_point(R, record)
        for record, _ in load_or_build_each(grid, a_values, n_funcs, cache_dir)
    ]


def _diff(values: np.ndarray, dx: float) -> np.ndarray:
    """Central differences, one-sided at the endpoints."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx)
    out[0] = (values[1] - values[0]) / dx
    out[-1] = (values[-1] - values[-2]) / dx
    return out


def density_error(
    R: np.ndarray,
    a: float,
    grid: Grid,
    n_funcs: int,
    fd: SolvedConfiguration | None = None,
    record: OfflineRecord | None = None,
) -> DensityError:
    """L1, H1 and von-Weizsacker distances between LCAO and FD densities.

    A caller that evaluates several bases at a passes its FD solve and
    offline record, so they are made once.
    """
    if fd is None:
        fd = solve_configuration(grid, a, n_funcs)
    if record is None:
        record = build_offline_single(grid, a, 1.0, n_funcs, None, fd)
    rho_ref = (fd.pair.phi1**2 + fd.pair.phi2**2) / grid.dx
    pair = reduced_ground_pair(record.m_e, record.s_b, R, a=a)
    rho = lcao_density(fd.basis, R, pair.C, grid)

    delta = rho - rho_ref
    d_delta = _diff(delta, grid.dx)
    d_sqrt = _diff(np.sqrt(np.clip(rho, 0.0, None)) - np.sqrt(rho_ref), grid.dx)
    dx = grid.dx
    return DensityError(
        a=float(a),
        l1=float(dx * np.sum(np.abs(delta))),
        h1=float(np.sqrt(dx * np.sum(delta**2) + dx * np.sum(d_delta**2))),
        vw=float(np.sqrt(dx * np.sum(d_sqrt**2))),
    )


def overlap_condition_sweep(n_basis: int, a_values) -> list[tuple[float, float]]:
    """Condition number of the analytic-quadrature HBS overlap per a.

    Uses a dedicated wide fine grid so even a = 0.1 is resolved; the 2x2
    block structure [[I, Sigma], [Sigma^T, I]] is built from quadrature on
    that grid.
    """
    out = []
    quad_grid_x = np.linspace(-30.0, 30.0, 12001)
    dxq = quad_grid_x[1] - quad_grid_x[0]
    for a in np.asarray(a_values, dtype=float):
        h_plus = hermite_functions(quad_grid_x - a, n_basis).T.copy()
        h_minus = hermite_functions(quad_grid_x + a, n_basis).T.copy()
        sigma = dxq * (h_plus.T @ h_minus)
        overlap = np.block(
            [[np.eye(n_basis), sigma], [sigma.T, np.eye(n_basis)]]
        )
        vals = np.linalg.eigvalsh(overlap)
        cond = abs(vals[-1] / vals[0]) if vals[0] != 0 else np.inf
        out.append((float(a), float(cond)))
    return out
