"""Post-optimization studies: dissociation curves with their density
errors, overlap conditioning sweeps.

`curves` judges bases along the dissociation curve by both measures of the
paper at once: each curve point takes one FD solve and one offline record
assembled from it, shared by every basis, and each basis one reduced solve
there, which gives its energy error and, through its LCAO density, its
density errors. The offline cache serves the training measure only; a
curve reads and writes none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galerkin import lcao_density, reduced_ground_pair
from .grid import Grid
from .hermite import assemble_dimer, hermite_functions
from .reference import FDWorkspace, build_offline_single, solve_configuration


@dataclass(frozen=True)
class CurvePoint:
    """One basis at one configuration: reference vs reduced ground-state
    energy, the reduced overlap's condition number, and the L1, H1 and
    von-Weizsacker distances between the LCAO and FD densities."""

    a: float
    e_ref: float
    e_basis: float
    abs_error: float
    cond: float
    l1: float
    h1: float
    vw: float


# Ends of the report's curves: the training interval is [1.5, 5].
CURVE_A_MIN = 1.5
CURVE_A_MAX = 5.0


def default_curve_points(count: int = 50, a_max: float = CURVE_A_MAX) -> np.ndarray:
    """Fine evaluation sampling of [1.5, a_max], by default the training
    interval [1.5, 5]."""
    return np.linspace(CURVE_A_MIN, a_max, count)


def curves(bases, a_values, grid: Grid, n_funcs: int) -> list[list[CurvePoint]]:
    """The curve of each coefficient matrix in `bases`: one CurvePoint per a.

    Each a takes one FD solve and one offline record built from it, shared
    by every basis; each basis takes one reduced solve per a. The pass
    makes no cache reads or writes. Raises OvercompletenessError at the
    first point where a basis's reduced overlap is ill-conditioned. The
    grid-size FD buffers are freed when it returns.
    """
    out = [[] for _ in bases]
    workspace = FDWorkspace(grid, n_funcs)
    # the full-grid B of the LCAO densities and its Hermite recurrence rows
    basis = np.empty((grid.n_points, 2 * n_funcs))
    rows = np.empty((n_funcs, 2, grid.n_points))
    for a in np.asarray(a_values, dtype=float):
        fd = solve_configuration(grid, a)
        record = build_offline_single(grid, a, n_funcs, fd, workspace)
        B = assemble_dimer(grid, a, n_funcs, basis, rows)
        rho_ref = (fd.phi1**2 + fd.phi2**2) / grid.dx
        for R, curve in zip(bases, out):
            pair = reduced_ground_pair(record.m_e, record.s_b, R, a=a)
            rho = lcao_density(B, R, pair.C, grid)
            l1, h1, vw = density_error(rho, rho_ref, grid.dx)
            curve.append(
                CurvePoint(
                    a=record.a,
                    e_ref=record.e_ref,
                    e_basis=float(pair.energy),
                    abs_error=float(abs(record.e_ref - pair.energy)),
                    cond=float(pair.cond),
                    l1=l1,
                    h1=h1,
                    vw=vw,
                )
            )
    return out


# The benchmark's tracer (perfbench/tracer.py) times the curve pass as
# `evaluate.energy_curve.self_s`, under this name; the alias goes once the
# tracer maps that metric to `curves`.
energy_curve = curves


def _diff(values: np.ndarray, dx: float) -> np.ndarray:
    """Central differences, one-sided at the endpoints."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx)
    out[0] = (values[1] - values[0]) / dx
    out[-1] = (values[-1] - values[-2]) / dx
    return out


def density_error(
    rho: np.ndarray, rho_ref: np.ndarray, dx: float
) -> tuple[float, float, float]:
    """L1, H1 and von-Weizsacker distances between the grid densities rho
    and rho_ref."""
    delta = rho - rho_ref
    d_delta = _diff(delta, dx)
    d_sqrt = _diff(np.sqrt(np.clip(rho, 0.0, None)) - np.sqrt(rho_ref), dx)
    return (
        float(dx * np.sum(np.abs(delta))),
        float(np.sqrt(dx * np.sum(delta**2) + dx * np.sum(d_delta**2))),
        float(np.sqrt(dx * np.sum(d_sqrt**2))),
    )


def overlap_condition_sweep(n_basis: int, a_values) -> list[tuple[float, float]]:
    """Condition number of the analytic-quadrature HBS overlap per a.

    The overlap is the Gram matrix of the sampled columns
    sqrt(dx) [H_+, H_-] of the two centres' N_b Hermite functions, so its
    condition number is (s_max / s_min)^2 from their singular values,
    infinite when s_min is 0. Reading it from the columns, not from the
    Gram matrix, keeps it accurate up to about 1/eps^2 rather than 1/eps.
    The columns are sampled on a dedicated wide fine grid, so even a = 0.1
    is resolved.
    """
    out = []
    quad_grid_x = np.linspace(-30.0, 30.0, 12001)
    dxq = quad_grid_x[1] - quad_grid_x[0]
    for a in np.asarray(a_values, dtype=float):
        rows = np.vstack(
            [
                hermite_functions(quad_grid_x - a, n_basis),
                hermite_functions(quad_grid_x + a, n_basis),
            ]
        )
        # of the 12001 x 2 N_b columns: faster than of their transpose
        s = np.linalg.svd(np.sqrt(dxq) * rows.T, compute_uv=False)
        cond = (s[0] / s[-1]) ** 2 if s[-1] > 0 else np.inf
        out.append((float(a), float(cond)))
    return out
