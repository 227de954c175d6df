"""Riemannian L-BFGS over the Stiefel manifold St(N, N_b).

Geometry: tangent projection G - R sym(R^T G), QR retraction with
sign-fixed R factor, vector transport by projection onto the new tangent
space. After each accepted step one `tangent_project` call on a stacked
(3 + 2m, N, N_b) array projects the new gradient, the step, the old
gradient and the m stored curvature pairs at once; each slice of the
result is bit for bit the projection of that matrix alone. The two-loop
recursion runs on transported tangent vectors; curvature pairs failing
the positivity check are dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

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
    iterations: int
    converged: bool
    trajectory: np.ndarray = field(repr=False)  # criterion value per iterate
    grad_norm: float  # final tangent-projected gradient norm
    evaluations: int  # value+gradient calls: the initial one and every trial
    stalled: bool = False  # line search failed before convergence

    @property
    def final_value(self) -> float:
        return float(self.trajectory[-1])

    @property
    def stop_reason(self) -> str:
        """Why the run ended: "converged", "line search stalled" or
        "max_iter reached"."""
        if self.converged:
            return "converged"
        return "line search stalled" if self.stalled else "max_iter reached"


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
    d = np.diagonal(Rf)
    if np.any(np.abs(d) < 1e-14 * max(1.0, np.abs(d).max(initial=0.0))):
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
    gradient; projection onto the tangent space happens here. An R0 with
    more columns than rows raises ValueError.
    """
    R = retract(R0, np.zeros_like(R0))  # guard against slightly infeasible R0
    f, G = value_and_grad(R)
    evaluations = 1
    g = tangent_project(R, G)
    trajectory = [f]
    history: deque = deque(maxlen=settings.lbfgs_memory)
    g_norm = np.linalg.norm(g)
    stalled = False
    it = 0

    while g_norm > settings.grad_tol and it < settings.max_iter:
        direction = -_two_loop(g, history)
        slope = _inner(direction, g)
        if slope > -1e-14 * g_norm * np.linalg.norm(direction):
            direction = -g  # not a descent direction; restart from steepest
            history.clear()
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
            stalled = True
            break

        # project the new gradient and transport the step, the old gradient
        # and the stored pairs to the new tangent space, all in one call
        stack = [G_cand, step * direction, g, *chain.from_iterable(history)]
        projected = tangent_project(R_new, np.stack(stack))
        g_new, s = projected[0], projected[1]
        y = g_new - projected[2]
        history = deque(
            zip(projected[3::2], projected[4::2]), maxlen=settings.lbfgs_memory
        )
        if _inner(s, y) > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            history.append((s, y))

        R, f, g = R_new, f_new, g_new
        g_norm = np.linalg.norm(g)
        trajectory.append(f)
        it += 1

    return OptimReport(
        R_opt=R,
        iterations=it,
        converged=bool(g_norm <= settings.grad_tol),
        trajectory=np.asarray(trajectory),
        grad_norm=float(g_norm),
        evaluations=evaluations,
        stalled=stalled,
    )


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product: np.sum's pairwise sum without its wrapper."""
    return float((a * b).sum())


def _two_loop(g: np.ndarray, history) -> np.ndarray:
    """Standard L-BFGS two-loop recursion on flattened tangent matrices."""
    q = g.copy()
    alphas = []
    for s, y in reversed(history):
        rho = 1.0 / _inner(y, s)
        alpha = rho * _inner(s, q)
        q -= alpha * y
        alphas.append((rho, alpha, s, y))
    if history:
        s_last, y_last = history[-1]
        gamma = _inner(s_last, y_last) / _inner(y_last, y_last)
        q *= gamma
    for rho, alpha, s, y in reversed(alphas):
        beta = rho * _inner(y, q)
        q += (alpha - beta) * s
    return q
