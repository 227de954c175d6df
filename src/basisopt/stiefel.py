"""Riemannian L-BFGS over the Stiefel manifold St(N, N_b).

Geometry: tangent projection G - R sym(R^T G), QR retraction with
sign-fixed R factor, vector transport by projection onto the new tangent
space. The two-loop recursion runs on transported tangent vectors;
curvature pairs failing the positivity check are dropped.
"""

from __future__ import annotations

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
    iterations: int
    converged: bool
    trajectory: np.ndarray = field(repr=False)  # criterion value per iterate
    grad_norm: float  # final tangent-projected gradient norm
    stalled: bool = False  # line search failed before convergence

    @property
    def final_value(self) -> float:
        return float(self.trajectory[-1])


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def tangent_project(R: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at R."""
    return G - R @ sym(R.T @ G)


def retract(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Thin-QR retraction of R + T with positive R-factor diagonal."""
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
    gradient; projection onto the tangent space happens here.
    """
    R = retract(R0, np.zeros_like(R0))  # guard against slightly infeasible R0
    f, G = value_and_grad(R)
    g = tangent_project(R, G)
    trajectory = [f]
    history: deque = deque(maxlen=settings.lbfgs_memory)
    g_norm = np.linalg.norm(g)
    stalled = False
    it = 0

    while g_norm > settings.grad_tol and it < settings.max_iter:
        direction = -_two_loop(g, history)
        if float(np.sum(direction * g)) > -1e-14 * g_norm * np.linalg.norm(direction):
            direction = -g  # not a descent direction; restart from steepest
            history.clear()

        step = INITIAL_STEP
        slope = float(np.sum(direction * g))
        R_new = f_new = None
        for _ in range(MAX_LINE_SEARCH):
            try:
                candidate = retract(R, step * direction)
            except RetractionError:
                step *= 0.5
                continue
            f_cand, G_cand = value_and_grad(candidate)
            if f_cand <= f + ARMIJO_C1 * step * slope:
                R_new, f_new = candidate, f_cand
                break
            step *= 0.5
        if R_new is None:
            stalled = True
            break

        g_new = tangent_project(R_new, G_cand)
        # transport stored pairs and the step to the new tangent space
        s = tangent_project(R_new, step * direction)
        y = g_new - tangent_project(R_new, g)
        history = deque(
            (
                (tangent_project(R_new, si), tangent_project(R_new, yi))
                for si, yi in history
            ),
            maxlen=settings.lbfgs_memory,
        )
        if float(np.sum(s * y)) > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
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
        stalled=stalled,
    )


def _two_loop(g: np.ndarray, history) -> np.ndarray:
    """Standard L-BFGS two-loop recursion on flattened tangent matrices."""
    q = g.copy()
    alphas = []
    for s, y in reversed(history):
        rho = 1.0 / float(np.sum(y * s))
        alpha = rho * float(np.sum(s * q))
        q -= alpha * y
        alphas.append((rho, alpha, s, y))
    if history:
        s_last, y_last = history[-1]
        gamma = float(np.sum(s_last * y_last)) / float(np.sum(y_last * y_last))
        q *= gamma
    for rho, alpha, s, y in reversed(alphas):
        beta = rho * float(np.sum(y * q))
        q += (alpha - beta) * s
    return q
