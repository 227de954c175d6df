"""Sampled normalized Hermite functions and the two-center dimer basis."""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .grid import Grid, tail_reach


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

    The tails reach tail_reach(n_funcs) beyond the centre. Violations only
    warn: truncation degrades accuracy, not validity.
    """
    if a + tail_reach(n_funcs) >= grid.x_max:
        # the warning names the first caller outside this module
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"Hermite tails for a={a}, n_funcs={n_funcs} may be truncated by "
            f"the box [-{grid.x_max}, {grid.x_max}]",
            TailOverflowWarning,
            stacklevel=level,
        )
    if not -grid.x_max < a < grid.x_max:  # the box is symmetric: -a fits too
        raise ValueError(
            f"center {a} outside the open box (-{grid.x_max}, {grid.x_max})"
        )


def _rows(grid: Grid, a: float, n_funcs: int, out=None) -> np.ndarray:
    """sqrt(dx) h_k(x - a) at every grid point, rows of shape
    (n_funcs, n_points), in `out` when given, after _check_centers.

    The grid is mirror-symmetric bit for bit, fl(-x - a) = -fl(x + a), and
    the recurrence maps y -> -y to (-1)^k h_k(y) exactly: sqrt(dx)
    h_k(x + a) is (-1)^k rows[k, ::-1], the -a basis bit for bit.
    """
    _check_centers(grid, a, n_funcs)
    rows = hermite_functions(grid.points - a, n_funcs, out)
    np.multiply(np.sqrt(grid.dx), rows, out=rows)
    return rows


def assemble_dimer(grid: Grid, a: float, n_funcs: int) -> np.ndarray:
    """Assemble B_a = [basis at +a | basis at -a], shape (n_points, 2 n_funcs),
    as read-only sqrt(dx)-scaled columns.

    With that scaling the discrete L2 inner products are plain matrix
    products, and column norms are ~1 (trapezoidal quadrature of the exact
    normalization).

    The 2 n_funcs rows of _dimer_rows are copied once into the columns of
    B. Tails cut by the box warn, a centre outside it raises ValueError.
    """
    # C order: B @ R rounds as it is tested
    B = np.ascontiguousarray(_dimer_rows(grid, a, n_funcs).T)
    B.setflags(write=False)
    return B


def _dimer_rows(grid: Grid, a: float, n_funcs: int) -> np.ndarray:
    """The rows of B_a, shape (2 n_funcs, n_points): B_a^T, which B_a
    copies. One Hermite recurrence gives the +a rows; the -a rows are
    those mirrored, times (-1)^k."""
    both = np.empty((2 * n_funcs, grid.n_points))
    rows = _rows(grid, a, n_funcs, both[:n_funcs])
    sign = (-1.0) ** np.arange(n_funcs)[:, None]
    np.multiply(rows[:, ::-1], sign, out=both[n_funcs:])
    return both


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

    One Hermite recurrence runs over the whole grid, rows of shape
    (n_funcs, n_points) as in assemble_dimer, held in `rows` when given:
    h_k(x - a) is their right half and h_k(-x - a) their left half read
    backwards. `out`, which may be a strided view, receives the result.
    The checks are those of assemble_dimer.
    """
    rows = _rows(grid, a, n_funcs, rows)
    half = grid.n_points - grid.n_points // 2
    if out is None:
        out = np.empty((2, half, n_funcs))
    plus, minus = rows[:, grid.n_points // 2 :].T, rows[:, half - 1 :: -1].T
    np.add(plus, minus, out=out[0])
    np.subtract(plus, minus, out=out[1])
    return out
