"""Uniform 1D finite-difference grid, double-well potential and FD operators.

The domain is [-x_max, x_max] with homogeneous Dirichlet conditions; the
boundary nodes are excluded, so the grid carries n_points interior nodes
x_j = (j - (n_points + 1)/2) dx, j = 1..n_points, dx = 2*x_max / (n_points + 1).
The factor j - (n_points + 1)/2 is an exact integer or half-integer, so the
grid is mirror-symmetric bit for bit, x_{n+1-j} = -x_j, with x = 0 exactly
at the centre point of an odd grid; so are V and the FD Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Radius beyond which the atomic densities vanish at double precision;
# default x_max = a_max + R_MAX recovers [-20, 20] for a_max = 5.
R_MAX = 15.0


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid with Dirichlet endpoints excluded."""

    x_max: float
    n_points: int
    dx: float
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.points.setflags(write=False)


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal operator stored in banded form.

    `diag` has length n, `offdiag` length n-1 (a single value shared by the
    sub- and super-diagonal, so symmetry is structural).
    """

    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.diag.setflags(write=False)
        self.offdiag.setflags(write=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector or to each column of a matrix."""
        v = np.asarray(v)
        bcast = (-1,) + (1,) * (v.ndim - 1)
        d, o = self.diag.reshape(bcast), self.offdiag.reshape(bcast)
        out = d * v
        out[:-1] += o * v[1:]
        out[1:] += o * v[:-1]
        return out


def build_grid(x_max: float, n_points: int) -> Grid:
    """Build the uniform Dirichlet grid on [-x_max, x_max]."""
    if not 0 < x_max < np.inf:  # NaN fails the comparison too
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    if n_points < 3:
        raise ValueError(f"n_points must be at least 3, got {n_points}")
    dx = 2.0 * x_max / (n_points + 1)
    # the FD Hamiltonian holds 1/dx^2 and V_a, whose factors (x -+ a)^2 reach
    # (2 x_max)^2 for a centre in the box; products of Python floats overflow
    # to inf without numpy's RuntimeWarning
    dx2, edge = float(dx) * float(dx), 4.0 * float(x_max) * float(x_max)
    if not (dx2 > 0.0 and 1.0 / dx2 < np.inf and edge * edge < np.inf):
        raise ValueError(
            f"the FD Hamiltonian on [-{x_max}, {x_max}] with {n_points} points "
            "is not finite"
        )
    points = dx * (np.arange(1, n_points + 1) - 0.5 * (n_points + 1))
    return Grid(x_max=float(x_max), n_points=int(n_points), dx=dx, points=points)


def default_x_max(a_max: float) -> float:
    """Default box half-width for a measure with largest configuration a_max."""
    return a_max + R_MAX


def potential(a: float, x):
    """Double-well potential with minima at -a and +a.

    V_a(x) = (x-a)^2 (x+a)^2 / (8 a^2 + 4); a = 0 gives the quartic
    oscillator x^4 / 4.
    """
    if a < 0:
        raise ValueError(f"configuration half-distance must be >= 0, got {a}")
    x = np.asarray(x, dtype=float)
    return (x - a) ** 2 * (x + a) ** 2 / (8.0 * a**2 + 4.0)


def fd_hamiltonian(grid: Grid, a: float) -> TridiagOperator:
    """3-point FD discretization of -1/2 d^2/dx^2 + V_a with Dirichlet BCs."""
    inv_dx2 = 1.0 / grid.dx**2
    diag = inv_dx2 + potential(a, grid.points)
    offdiag = np.full(grid.n_points - 1, -0.5 * inv_dx2)
    return TridiagOperator(diag=diag, offdiag=offdiag)


def fd_gradient(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """D v: differences over the n_points + 1 cells, with the Dirichlet
    zeros at both ends; the 3-point FD -Laplacian is D^T D / dx^2. The
    result, shape (n_points + 1, ...), goes into `out` when given."""
    d = np.empty((v.shape[0] + 1, *v.shape[1:])) if out is None else out
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[-1] = -v[-1]
    return d

