"""Post-optimization studies: dissociation curves, density errors,
overlap conditioning sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .galerkin import OvercompletenessError, lcao_density, reduced_ground_pair
from .grid import Grid, fd_hamiltonian
from .hermite import assemble_dimer, hermite_functions
from .reference import build_offline_single, solve_ground_pair


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


def energy_curve(
    R: np.ndarray,
    a_values,
    grid: Grid,
    n_funcs: int,
    cache_dir: str | None = None,
) -> list[CurvePoint]:
    """Reference vs reduced ground-state energies along the curve.

    Overcompleteness failures are recorded as NaN points, not raised, so a
    sweep into the ill-conditioned small-a region stays usable.
    """
    points = []
    for a in np.asarray(a_values, dtype=float):
        data = _offline_at(grid, a, n_funcs, cache_dir)
        try:
            pair = reduced_ground_pair(data.m_e_offline, data.s_b, R, a=a)
            e_basis, cond = pair.energy, pair.cond
        except OvercompletenessError as exc:
            e_basis, cond = np.nan, exc.cond
        points.append(
            CurvePoint(
                a=float(a),
                e_ref=data.e_ref,
                e_basis=float(e_basis),
                abs_error=float(abs(data.e_ref - e_basis)),
                cond=float(cond),
            )
        )
    return points


def _offline_at(grid, a, n_funcs, cache_dir):
    from .reference import load_cached, save_offline_entry

    if cache_dir is not None:
        cached = load_cached(cache_dir, grid, a, n_funcs, "L2")
        if cached is not None:
            return cached
    data = build_offline_single(grid, a, 1.0, n_funcs, "L2")
    if cache_dir is not None:
        save_offline_entry(cache_dir, grid, data, "L2")
    return data


def _diff(values: np.ndarray, dx: float) -> np.ndarray:
    """Central differences, one-sided at the endpoints."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx)
    out[0] = (values[1] - values[0]) / dx
    out[-1] = (values[-1] - values[-2]) / dx
    return out


def density_error(
    R: np.ndarray, a: float, grid: Grid, n_funcs: int
) -> DensityError:
    """L1, H1 and von-Weizsacker distances between LCAO and FD densities."""
    ref = solve_ground_pair(fd_hamiltonian(grid, a), grid)
    rho_ref = (ref.phi1**2 + ref.phi2**2) / grid.dx
    basis = assemble_dimer(grid, a, n_funcs)
    data = build_offline_single(grid, a, 1.0, n_funcs, "L2")
    pair = reduced_ground_pair(data.m_e_offline, data.s_b, R, a=a)
    rho = lcao_density(basis.columns, R, pair.C, grid)

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
        h_plus = hermite_functions(quad_grid_x - a, n_basis)
        h_minus = hermite_functions(quad_grid_x + a, n_basis)
        sigma = dxq * (h_plus.T @ h_minus)
        overlap = np.block(
            [[np.eye(n_basis), sigma], [sigma.T, np.eye(n_basis)]]
        )
        vals = np.linalg.eigvalsh(overlap)
        cond = abs(vals[-1] / vals[0]) if vals[0] != 0 else np.inf
        out.append((float(a), float(cond)))
    return out
