"""Sampled normalized Hermite functions and the two-center dimer basis."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


def hermite_functions(
    x: np.ndarray, n_funcs: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the first n_funcs orthonormal Hermite functions at x.

    Uses the normalized three-term recurrence
        h_0(x) = pi^{-1/4} exp(-x^2/2)
        h_1(x) = sqrt(2) x h_0(x)
        h_{n+1}(x) = sqrt(2/(n+1)) x h_n(x) - sqrt(n/(n+1)) h_{n-1}(x),
    which stays normalized (no factorial overflow) for moderate n.

    The recurrence runs on contiguous rows: returns an array of shape
    (n_funcs, *x.shape) whose row n is h_n(x), in `out` when given.
    """
    if n_funcs < 1:
        raise ValueError(f"n_funcs must be >= 1, got {n_funcs}")
    x = np.asarray(x, dtype=float)
    h = np.empty((n_funcs, *x.shape)) if out is None else out
    np.square(x, out=h[0])
    np.multiply(-0.5, h[0], out=h[0])
    np.exp(h[0], out=h[0])
    np.multiply(np.pi ** (-0.25), h[0], out=h[0])
    if n_funcs > 1:
        np.multiply(np.sqrt(2.0), x, out=h[1])
        np.multiply(h[1], h[0], out=h[1])
    tmp = np.empty_like(x)
    for n in range(1, n_funcs - 1):
        np.multiply(np.sqrt(2.0 / (n + 1)), x, out=h[n + 1])
        np.multiply(h[n + 1], h[n], out=h[n + 1])
        np.multiply(np.sqrt(n / (n + 1.0)), h[n - 1], out=tmp)
        np.subtract(h[n + 1], tmp, out=h[n + 1])
    return h


@dataclass(frozen=True)
class SampledBasis:
    """Hermite functions sampled on the grid, columns scaled by sqrt(dx).

    With that scaling the discrete L2 inner products are plain matrix
    products, and column norms are ~1 (trapezoidal quadrature of the exact
    normalization).
    """

    grid: Grid
    center: float
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.columns.setflags(write=False)

    @property
    def n_funcs(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class DimerBasis:
    """[h_n(. - a) | h_n(. + a)] block matrix, sqrt(dx)-scaled columns."""

    grid: Grid
    a: float
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.columns.setflags(write=False)

    @property
    def n_funcs(self) -> int:
        return self.columns.shape[1] // 2


class TailOverflowWarning(UserWarning):
    """Basis function tails not representable inside the Dirichlet box."""


def _check_center(grid: Grid, center: float):
    if not (-grid.x_max < center < grid.x_max):
        raise ValueError(
            f"center {center} outside the open box (-{grid.x_max}, {grid.x_max})"
        )


def hermite_columns(grid: Grid, center: float, n_funcs: int) -> SampledBasis:
    """Sample the first n_funcs Hermite functions translated to `center`."""
    _check_center(grid, center)
    cols = np.sqrt(grid.dx) * hermite_functions(grid.points - center, n_funcs).T
    return SampledBasis(grid=grid, center=center, columns=cols)


def assemble_dimer(
    grid: Grid,
    a: float,
    n_funcs: int,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> DimerBasis:
    """Assemble B_a = [basis at +a | basis at -a], shape (n_points, 2 n_funcs).

    Both centres run through one Hermite recurrence on contiguous rows,
    shape (n_funcs, 2, n_points), which are scaled and copied once into the
    column layout of B. A C-contiguous `out` receives B and `rows` holds
    the recurrence when given; the returned basis then views `out`.

    The classical turning point of h_{n-1} is ~sqrt(2n - 1); ten more units
    of Gaussian decay push the tails below double precision. Violations only
    warn: truncation degrades accuracy, not validity.
    """
    if a + np.sqrt(2.0 * n_funcs) + 10.0 >= grid.x_max:
        warnings.warn(
            f"Hermite tails for a={a}, n_funcs={n_funcs} may be truncated by "
            f"the box [-{grid.x_max}, {grid.x_max}]",
            TailOverflowWarning,
            stacklevel=2,
        )
    _check_center(grid, a)  # the box is symmetric, so -a fits as well
    centers = np.array([[a], [-a]], dtype=float)
    rows = hermite_functions(grid.points - centers, n_funcs, rows)
    if out is None:
        out = np.empty((grid.n_points, 2 * n_funcs))
    # B[:, s * n_funcs + k] = sqrt(dx) h_k(x - centre_s)
    np.multiply(
        np.sqrt(grid.dx),
        rows.transpose(2, 1, 0),
        out=out.reshape(grid.n_points, 2, n_funcs),
    )
    return DimerBasis(grid=grid, a=float(a), columns=out.view())
