"""Riemannian L-BFGS on the Grassmannian Gr(N, N_b), in Stiefel coordinates.

The criteria depend on R only through span(R), J(RM) = J(R), so only the
horizontal part G - R (R^T G) of a gradient matters. The QR retraction fixes
the signs of its R factor, so consecutive iterates agree in column signs and
the memory holds raw pairs s = step * direction, y = g_new - g, with no
vector transport; pairs failing the positivity check are dropped. Each step
projects the two-loop output, which makes the direction horizontal at R,
and the new gradient.
"""

from __future__ import annotations

import math
from collections import deque
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
    lbfgs_memory: int = 10

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:  # NaN fails the comparison too
            raise ValueError(
                f"grad_tol must be positive and finite, got {self.grad_tol}"
            )
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
    gradient; projection onto the horizontal space happens here. A NaN or
    infinite value or gradient at an accepted iterate, the start included,
    ends the run at once. An R0 with more columns than rows raises
    ValueError.
    """
    R = retract(R0, np.zeros_like(R0))  # guard against slightly infeasible R0
    f, G = value_and_grad(R)
    evaluations = 1
    g = tangent_project(R, G)
    trajectory = [f]
    pairs = deque(maxlen=settings.lbfgs_memory)  # (s, y, s . y), oldest first
    g_norm = _norm(g)

    while math.isfinite(f) and math.isfinite(g_norm):
        if g_norm <= settings.grad_tol:
            stop_reason = "converged"
            break
        if len(trajectory) > settings.max_iter:
            stop_reason = "max_iter reached"
            break
        direction = -tangent_project(R, _two_loop(g, pairs))
        slope = _inner(direction, g)
        if slope > -1e-14 * g_norm * _norm(direction):
            direction = -g  # not a descent direction; restart from steepest
            pairs.clear()
            slope = _inner(direction, g)

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
        sy = _inner(s, y)
        if sy > 1e-14 * _norm(s) * _norm(y):
            pairs.append((s, y, sy))

        R, f, g = R_new, f_new, g_new
        g_norm = _norm(g)
        trajectory.append(f)
    else:
        stop_reason = "non-finite value or gradient"

    return OptimReport(
        R, np.asarray(trajectory), float(g_norm), evaluations, stop_reason
    )


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product: np.sum's pairwise sum without its wrappers."""
    return float(np.add.reduce(a * b, axis=None))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm: the dot and sqrt np.linalg.norm makes, without its
    wrapper."""
    flat = a.ravel("K")
    return math.sqrt(flat.dot(flat))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """Standard L-BFGS two-loop recursion over the stored triples
    (s, y, s . y) of steps and gradient changes, oldest first; each s . y
    is the one the curvature check computed."""
    q = g.copy()
    if not pairs:
        return q
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = (1.0 / sy) * _inner(s, q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = pairs[-1]
    q *= sy / _inner(y, y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        beta = (1.0 / sy) * _inner(y, q)
        q += (alpha - beta) * s
    return q
