"""Riemannian L-BFGS on the Grassmannian Gr(N, N_b), in Stiefel coordinates.

The criteria depend on R only through span(R), J(RM) = J(R), so only the
horizontal part G - R (R^T G) of a gradient matters. The QR retraction fixes
the signs of its R factor, so consecutive iterates agree in column signs and
the memory holds raw pairs s = step * direction, y = g_new - g, with no
vector transport; pairs failing the positivity check are dropped. The
memory is the compact form of Byrd, Nocedal & Schnabel (Math. Program. 63,
1994; Nocedal & Wright, Numerical Optimization, sec. 7.2): the pairs as
rows of S and Y and the inverse of the upper triangle of their products
s_i . y_j, which gains one row per pair, so that H g takes a fixed handful
of matrix-vector products for any number of pairs. Each step projects
H g, which makes the direction horizontal at R, and the new gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# backtracking Armijo line search: sufficient-decrease constant, first
# trial step and the number of halvings before the search gives up
ARMIJO_C1 = 1e-4
INITIAL_STEP = 1.0
MAX_LINE_SEARCH = 40


class RetractionError(RuntimeError):
    """R + T rank deficient; no QR retraction exists."""


@dataclass(frozen=True)
class OptimSettings:
    grad_tol: float = 1e-7
    max_iter: int = 500
    lbfgs_memory: int = 100

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:  # NaN fails the comparison too
            raise ValueError(
                f"grad_tol must be positive and finite, got {self.grad_tol}"
            )
        for name in ("max_iter", "lbfgs_memory"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.lbfgs_memory < 0:
            raise ValueError("lbfgs_memory must be >= 0")


@dataclass(frozen=True)
class OptimReport:
    R_opt: np.ndarray = field(repr=False)
    trajectory: np.ndarray = field(repr=False)  # criterion value per iterate
    grad_norm: float  # final tangent-projected gradient norm
    evaluations: int  # value+gradient calls: the initial one and every trial
    # "converged", "line search stalled", "max_iter reached" or
    # "non-finite value or gradient"
    stop_reason: str

    @property
    def final_value(self) -> float:
        return float(self.trajectory[-1])

    @property
    def iterations(self) -> int:
        return len(self.trajectory) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def stalled(self) -> bool:
        return self.stop_reason == "line search stalled"


def tangent_project(R: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the horizontal space at R, the
    directions orthogonal to span(R)."""
    return G - R @ (R.T @ G)


def retract(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Thin-QR retraction of R + T with positive R-factor diagonal."""
    n, n_basis = R.shape
    if n_basis > n:
        raise ValueError(
            f"St(n, n_basis) needs n_basis <= n, got n={n}, n_basis={n_basis}"
        )
    Q, Rf = np.linalg.qr(R + T)
    d = Rf.diagonal()
    size = abs(d)
    if (size < 1e-14 * max(1.0, size.max(initial=0.0))).any():
        raise RetractionError("R + T is numerically rank deficient")
    return Q * np.sign(d)


def random_stiefel(rng: np.random.Generator, n: int, n_basis: int) -> np.ndarray:
    """Haar-ish random point on St(n, n_basis) from a Gaussian QR."""
    return retract(np.zeros((n, n_basis)), rng.standard_normal((n, n_basis)))


def minimize(
    value_and_grad,
    R0: np.ndarray,
    settings: OptimSettings = OptimSettings(),
) -> OptimReport:
    """L-BFGS with backtracking Armijo line search on the Grassmannian.

    `value_and_grad(R)` must return the criterion value and its Euclidean
    gradient; projection onto the horizontal space happens here. The
    memory keeps the newest min(lbfgs_memory, max_iter) curvature pairs in
    compact form; memory 0 is steepest descent. A direction that is not a
    descent direction, or not finite, restarts from -g with an empty
    memory. A NaN or infinite value or gradient at an accepted iterate, the
    start included, ends the run at once. An R0 with more columns than rows
    raises ValueError.
    """
    R = retract(R0, np.zeros_like(R0))  # guard against slightly infeasible R0
    f, G = value_and_grad(R)
    evaluations = 1
    g = tangent_project(R, G)
    trajectory = [f]
    # pairs cannot outnumber iterations
    memory = _PairStore(min(settings.lbfgs_memory, settings.max_iter), R.size)
    g_norm = _norm(g)

    while math.isfinite(f) and math.isfinite(g_norm):
        if g_norm <= settings.grad_tol:
            stop_reason = "converged"
            break
        if len(trajectory) > settings.max_iter:
            stop_reason = "max_iter reached"
            break
        direction, slope = _direction(R, g, g_norm, memory)

        step = INITIAL_STEP
        R_new = f_new = None
        for _ in range(MAX_LINE_SEARCH):
            try:
                candidate = retract(R, step * direction)
            except RetractionError:
                step *= 0.5
                continue
            f_cand, G_cand = value_and_grad(candidate)
            evaluations += 1
            if f_cand <= f + ARMIJO_C1 * step * slope:
                R_new, f_new = candidate, f_cand
                break
            step *= 0.5
        if R_new is None:
            stop_reason = "line search stalled"
            break

        g_new = tangent_project(R_new, G_cand)
        s = step * direction
        y = g_new - g
        if _inner(s, y) > 1e-14 * _norm(s) * _norm(y):
            memory.append(s, y)

        R, f, g = R_new, f_new, g_new
        g_norm = _norm(g)
        trajectory.append(f)
    else:
        stop_reason = "non-finite value or gradient"

    return OptimReport(
        R, np.asarray(trajectory), float(g_norm), evaluations, stop_reason
    )


def _direction(R, g, g_norm, memory):
    """The projected L-BFGS direction -H g and its slope against g; when
    that is not a descent direction or not finite, -g and its slope, with
    the memory emptied."""
    direction = -tangent_project(R, memory.apply(g))
    slope = _inner(direction, g)
    if not -math.inf < slope <= -1e-14 * g_norm * _norm(direction):  # NaN fails
        direction = -g
        memory.clear()
        slope = _inner(direction, g)
    return direction, slope


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product: np.sum's pairwise sum without its wrappers."""
    return float(np.add.reduce(a * b, axis=None))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm: the dot and sqrt np.linalg.norm makes, without its
    wrapper."""
    flat = a.ravel("K")
    return math.sqrt(flat.dot(flat))


class _PairStore:
    """The newest `rows` curvature pairs (s, y), oldest first, in the
    compact form of the L-BFGS inverse Hessian: the rows of S and Y, the
    products d_i = s_i . y_i and the inverse of the upper triangle R of
    the products s_i . y_j (i <= j), kept transposed. A pair adds one row
    to R^-T, from one product with the rows before it (the column-oriented
    triangular inversion of LAPACK's dtrti2). A trailing block of R^-1 is
    the inverse of R's trailing block, so a full store drops its oldest
    pair by shifting everything up and left by one; a restart empties it.
    The arrays double as pairs arrive, up to `rows`, so a memory far above
    the pairs a run makes costs nothing."""

    def __init__(self, rows: int, size: int):
        self.rows = rows
        capacity = min(rows, 16)
        self.S = np.empty((capacity, size))
        self.Y = np.empty((capacity, size))
        self.sy = np.empty(capacity)
        self.inv_t = np.zeros((capacity, capacity))  # zero above the diagonal
        self.count = 0

    def clear(self) -> None:
        self.count = 0

    def append(self, s: np.ndarray, y: np.ndarray) -> None:
        k = self.count
        if k == self.rows:  # full, or memory 0
            if k == 0:
                return
            self.S[:-1] = self.S[1:]  # drop the oldest pair
            self.Y[:-1] = self.Y[1:]
            self.sy[:-1] = self.sy[1:]
            self.inv_t[:-1, :-1] = self.inv_t[1:, 1:]
            k -= 1
        elif k == len(self.S):
            self._grow(min(2 * k, self.rows))
        self.S[k] = s.ravel()
        self.Y[k] = y.ravel()
        r = np.add.reduce(self.S[: k + 1] * self.Y[k], axis=1)  # s_i . y_k
        self.sy[k] = r[k]
        # R^-1 r summed over the outer axis, one term at a time in order, so
        # each entry is the same whatever older pairs have been dropped
        row = np.add.reduce(self.inv_t[:k, :k] * r[:k, None], axis=0)
        self.inv_t[k, :k] = row / -r[k]
        self.inv_t[k, k] = 1.0 / r[k]
        self.count = k + 1

    def _grow(self, capacity: int) -> None:
        k, size = self.count, self.S.shape[1]
        S, Y = np.empty((capacity, size)), np.empty((capacity, size))
        sy, inv_t = np.empty(capacity), np.zeros((capacity, capacity))
        S[:k], Y[:k], sy[:k] = self.S[:k], self.Y[:k], self.sy[:k]
        inv_t[:k, :k] = self.inv_t[:k, :k]
        self.S, self.Y, self.sy, self.inv_t = S, Y, sy, inv_t

    def apply(self, g: np.ndarray) -> np.ndarray:
        """H g for the L-BFGS inverse Hessian of the stored pairs with
        H_0 = gamma I, gamma = s . y / y . y of the newest pair:
        H g = gamma (g - Y^T a) + S^T b, with a = R^-1 S g and
        b = R^-T (D a + gamma Y (Y^T a - g)), D = diag(d) (Nocedal & Wright,
        eq. 7.24)."""
        k = self.count
        if k == 0:
            return g
        S, Y, inv_t, sy = self.S[:k], self.Y[:k], self.inv_t[:k, :k], self.sy[:k]
        flat = g.ravel()
        gamma = sy[-1] / Y[-1].dot(Y[-1])
        a = (S @ flat) @ inv_t
        w = a @ Y
        b = inv_t @ (sy * a + gamma * (Y @ (w - flat)))
        return (gamma * (flat - w) + b @ S).reshape(g.shape)
