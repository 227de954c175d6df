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

from .galerkin import expand, reduced_ground_pair
from .grid import Grid, build_grid
from .hermite import _dimer_rows, assemble_dimer
from .reference import build_offline_single, solve_configuration


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
    first point where a basis's reduced overlap is ill-conditioned and
    warns where its occupied pair is degenerate. The full-grid B is
    assembled once per a, and each basis's sampled columns B I_R once per
    a, serving both its condition number and its LCAO density.
    """
    out = [[] for _ in bases]
    for a in np.asarray(a_values, dtype=float):
        fd = solve_configuration(grid, a)
        record = build_offline_single(grid, a, n_funcs, fd)
        B = assemble_dimer(grid, a, n_funcs)
        rho_ref = (fd.phi1**2 + fd.phi2**2) / grid.dx
        for R, curve in zip(bases, out):
            pair = reduced_ground_pair(record.m_e, record.s_b, R, a=a)
            columns = B @ expand(R)
            # the sqrt(dx) column convention makes the occupied orbitals
            # B I_R C unit vectors; dividing their squares by dx gives the
            # density, with dx * sum(rho) = 2
            rho = ((columns @ pair.C) ** 2).sum(axis=1) / grid.dx
            l1, h1, vw = density_error(rho, rho_ref, grid.dx)
            curve.append(
                CurvePoint(
                    a=record.a,
                    e_ref=record.e_ref,
                    e_basis=float(pair.energy),
                    abs_error=float(abs(record.e_ref - pair.energy)),
                    cond=_condition_number(columns),
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


def density_error(
    rho: np.ndarray, rho_ref: np.ndarray, dx: float
) -> tuple[float, float, float]:
    """L1, H1 and von-Weizsacker distances between the grid densities rho
    and rho_ref; derivatives by central differences, one-sided at the ends."""
    delta = rho - rho_ref
    d_delta = np.gradient(delta, dx)
    d_sqrt = np.gradient(np.sqrt(np.clip(rho, 0.0, None)) - np.sqrt(rho_ref), dx)
    return (
        float(dx * np.sum(np.abs(delta))),
        float(np.sqrt(dx * np.sum(delta**2) + dx * np.sum(d_delta**2))),
        float(np.sqrt(dx * np.sum(d_sqrt**2))),
    )


_EPS = np.finfo(float).eps


def _condition_number(columns: np.ndarray) -> float:
    """Condition number of the Gram matrix of the sampled columns,
    (s_max / s_min)^2 from their singular values: accurate up to about
    1/eps^2, where an eigensolve of the Gram matrix stops at 1/eps
    (Higham, Accuracy and Stability, ch. 20). Past that limit, when
    s_min <= eps s_max, the singular values cannot resolve it and the
    result is inf. `columns` may be in either memory order."""
    # of the tall columns: faster than of their transpose
    s = np.linalg.svd(columns, compute_uv=False)
    return float((s[0] / s[-1]) ** 2) if s[-1] > _EPS * s[0] else np.inf


def overlap_condition_sweep(n_basis: int, a_values) -> list[tuple[float, float]]:
    """Condition number of the analytic-quadrature HBS overlap per a.

    The overlap is the Gram matrix of the dimer basis of the two centres'
    N_b Hermite functions, sampled on a dedicated wide fine grid (range
    +-30, step 0.005), so even a = 0.1 is resolved.
    """
    grid = build_grid(30.005, 12001)
    return [
        (float(a), _condition_number(_dimer_rows(grid, a, n_basis).T))
        for a in np.asarray(a_values, dtype=float)
    ]
