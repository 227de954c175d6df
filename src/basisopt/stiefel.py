"""Riemannian L-BFGS over the Stiefel manifold St(N, N_b).

Geometry: tangent projection G - R sym(R^T G), QR retraction with
sign-fixed R factor, vector transport by projection onto the new tangent
space. After each accepted step one `tangent_project` call on a stacked
(4 + 2k, N, N_b) array projects the new gradient, the old gradient, the
k stored steps and the new one and the k stored gradient changes at once;
each slice of the result is bit for bit the projection of that matrix
alone. The curvature memory is two (k, N, N_b) slices of the projected
stack, so the two-loop recursion runs on transported tangent vectors;
curvature pairs failing the positivity check are dropped.
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


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def tangent_project(R: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient, or a (k, N, N_b) stack of them, onto
    the tangent space at R."""
    return G - R @ sym(R.T @ G)


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
    """L-BFGS with backtracking Armijo line search on the Stiefel manifold.

    `value_and_grad(R)` must return the criterion value and its Euclidean
    gradient; projection onto the tangent space happens here. A NaN or
    infinite value or gradient at an accepted iterate, the start included,
    ends the run at once. An R0 with more columns than rows raises
    ValueError.
    """
    R = retract(R0, np.zeros_like(R0))  # guard against slightly infeasible R0
    f, G = value_and_grad(R)
    evaluations = 1
    g = tangent_project(R, G)
    trajectory = [f]
    S = Y = np.empty((0, *R.shape))  # the curvature pairs, oldest first
    g_norm = _norm(g)

    while math.isfinite(f) and math.isfinite(g_norm):
        if g_norm <= settings.grad_tol:
            stop_reason = "converged"
            break
        if len(trajectory) > settings.max_iter:
            stop_reason = "max_iter reached"
            break
        direction = -_two_loop(g, S, Y)
        slope = _inner(direction, g)
        if slope > -1e-14 * g_norm * _norm(direction):
            direction = -g  # not a descent direction; restart from steepest
            S = Y = S[:0]
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

        # project the new gradient and transport the step, the old gradient
        # and the stored pairs to the new tangent space, all in one call on
        # the stack [G_cand, g, S, step, Y, slot for the new gradient change]
        k = len(S)
        # zeros, not empty: the last slot is projected before y fills it
        stack = np.zeros((2 * k + 4, *R.shape))
        stack[0] = G_cand
        stack[1] = g
        stack[2 : 2 + k] = S
        np.multiply(direction, step, out=stack[2 + k])
        stack[3 + k : 3 + 2 * k] = Y
        projected = tangent_project(R_new, stack)
        g_new, s = projected[0], projected[2 + k]
        y = np.subtract(g_new, projected[1], out=projected[-1])
        if _inner(s, y) > 1e-14 * _norm(s) * _norm(y):
            # a full memory drops its oldest pair
            first = max(0, k + 1 - settings.lbfgs_memory)
            S, Y = projected[2 + first : 3 + k], projected[3 + k + first :]
        else:
            S, Y = projected[2 : 2 + k], projected[3 + k : 3 + 2 * k]

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


def _two_loop(g: np.ndarray, S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Standard L-BFGS two-loop recursion over the (k, N, N_b) stacks of
    stored steps S and gradient changes Y, oldest first.

    All k products y_i . s_i come from one reduction over the stacks; each
    is bit for bit the pairwise sum of that pair alone.
    """
    q = g.copy()
    if not len(S):
        return q
    ys = np.add.reduce(Y * S, axis=(1, 2)).tolist()
    rhos = [1.0 / v for v in ys]
    alphas = []
    for rho, s, y in zip(reversed(rhos), S[::-1], Y[::-1]):
        alpha = rho * _inner(s, q)
        q -= alpha * y
        alphas.append(alpha)
    q *= ys[-1] / _inner(Y[-1], Y[-1])
    for rho, alpha, s, y in zip(rhos, reversed(alphas), S, Y):
        beta = rho * _inner(y, q)
        q += (alpha - beta) * s
    return q
