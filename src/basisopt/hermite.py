"""Sampled normalized Hermite functions and the two-center dimer basis."""

from __future__ import annotations

import warnings

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


class TailOverflowWarning(UserWarning):
    """Basis function tails not representable inside the Dirichlet box."""


def _check_centers(grid: Grid, a: float, n_funcs: int) -> None:
    """Warn when the tails of the functions at +-a may not fit in the box,
    and reject a centre outside it.

    The classical turning point of h_{n-1} is ~sqrt(2n - 1); ten more units
    of Gaussian decay push the tails below double precision. Violations only
    warn: truncation degrades accuracy, not validity.
    """
    if a + np.sqrt(2.0 * n_funcs) + 10.0 >= grid.x_max:
        warnings.warn(
            f"Hermite tails for a={a}, n_funcs={n_funcs} may be truncated by "
            f"the box [-{grid.x_max}, {grid.x_max}]",
            TailOverflowWarning,
            stacklevel=3,
        )
    if not -grid.x_max < a < grid.x_max:  # the box is symmetric: -a fits too
        raise ValueError(
            f"center {a} outside the open box (-{grid.x_max}, {grid.x_max})"
        )


def assemble_dimer(
    grid: Grid,
    a: float,
    n_funcs: int,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble B_a = [basis at +a | basis at -a], shape (n_points, 2 n_funcs),
    as read-only sqrt(dx)-scaled columns.

    With that scaling the discrete L2 inner products are plain matrix
    products, and column norms are ~1 (trapezoidal quadrature of the exact
    normalization).

    Both centres run through one Hermite recurrence on contiguous rows,
    shape (n_funcs, 2, n_points), which are scaled and copied once into the
    column layout of B. A C-contiguous `out` receives B and `rows` holds
    the recurrence when given; the returned array then views `out`. Tails
    cut by the box warn, a centre outside it raises ValueError.
    """
    _check_centers(grid, a, n_funcs)
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
    B = out.view()
    B.setflags(write=False)
    return B


def assemble_parity(
    grid: Grid,
    a: float,
    n_funcs: int,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """The even and odd parts of B_a on the half grid x >= 0, shape
    (2, n_half, n_funcs) with n_half = n_points - n_points // 2:

        out[0] = sqrt(dx) h_k(x - a) + sqrt(dx) h_k(-x - a)  (even under x -> -x)
        out[1] = sqrt(dx) h_k(x - a) - sqrt(dx) h_k(-x - a)  (odd)

    at the points x = points[n_points // 2:], the centre x = 0 first on an
    odd grid. On the mirror-symmetric grid, with P the reflection and
    D = diag((-1)^k), the -a block of B is P B_+ D, so these are sqrt(2)
    times E, O = (B_+ +- P B_+) / sqrt(2), and B = [E O] T with
    T = [[I, D], [I, -D]] / sqrt(2).

    Both arguments run through one Hermite recurrence, rows of shape
    (n_funcs, 2, n_half), held in `rows` when given; `out`, which may be a
    strided view, receives the result. The checks are those of
    assemble_dimer.
    """
    _check_centers(grid, a, n_funcs)
    x = grid.points[grid.n_points // 2 :]
    rows = hermite_functions(np.array([x - a, -x - a]), n_funcs, rows)
    np.multiply(np.sqrt(grid.dx), rows, out=rows)
    if out is None:
        out = np.empty((2, len(x), n_funcs))
    plus, minus = rows[:, 0].T, rows[:, 1].T
    np.add(plus, minus, out=out[0])
    np.subtract(plus, minus, out=out[1])
    return out
