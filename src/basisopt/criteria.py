"""Density-projection and energy-error criteria and their gradients in R.

Both criteria are weighted sums over the sampling measure of terms that
depend on R only through the reduced 2N_b x 2N_b matrices of each
configuration. The offline matrices of the K configurations are stacked
once into (K, 2N, 2N) arrays, next to weight, a and e_ref vectors. A call
forms all K reduced matrices with one matmul against I_R = expand(R),
makes one batched solve over K and returns the value and the Euclidean
gradient from it; eval_* and grad_* are thin wrappers over the same
kernels.

The per-configuration terms are reduced in measure order by fixed-shape
NumPy reductions, so values are bit-reproducible.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .galerkin import (
    expand,
    inv_sqrt_spd,
    reduced_ground_pair,
    reduced_overlap,
)
from .reference import OfflineConfigData

GAP_TOL = 1e-10


class CriterionKind(str, Enum):
    JA_L2 = "JA_L2"
    JA_H1 = "JA_H1"
    JE = "JE"

    @property
    def metric(self) -> str:
        return {"JA_L2": "L2", "JA_H1": "H1", "JE": "L2"}[self.value]


class DegenerateGapWarning(UserWarning):
    """Third Ritz value degenerate with the occupied pair."""


def _stack(offline: list[OfflineConfigData], energy: bool):
    """(K, 2N, 2N) stacks of the matrices the criterion reads, then the
    weight, a and e_ref vectors, all in measure order."""
    m = [d.m_e_offline if energy else d.m_a_offline for d in offline]
    s = [d.s_b if energy else d.s_a_b for d in offline]
    vectors = np.array([(d.weight, d.a, d.e_ref) for d in offline]).T
    return (np.stack(m), np.stack(s), *vectors)


def _diag_blocks_sum(M: np.ndarray) -> np.ndarray:
    """M^{++} + M^{--} for a 2x2-block matrix with equal block shapes."""
    n = M.shape[0] // 2
    m = M.shape[1] // 2
    return M[:n, :m] + M[n:, m:]


def _ja(R, m, s, weight, a, e_ref):
    """Value and gradient of J_A = -sum_n w_n Tr(M_red S_red^{-1})."""
    S_red = reduced_overlap(s, R)
    M_red = reduced_overlap(m, R)
    S_inv_sqrt, _ = inv_sqrt_spd(S_red, a=a)
    S_inv = S_inv_sqrt @ S_inv_sqrt
    value = -float(weight @ np.sum(S_inv * M_red, axis=(1, 2)))
    # d/dI_R Tr(M_red S_red^{-1}) = 2 (M I_R S^{-1} - S I_R S^{-1} M_red S^{-1})
    I_R = expand(R)
    D = m @ I_R @ S_inv - s @ I_R @ (S_inv @ M_red @ S_inv)
    return value, -2.0 * _diag_blocks_sum(np.tensordot(weight, D, axes=1))


def _je(R, m, s, weight, a, e_ref):
    """Value and gradient of J_E = sum_n w_n (E_ref - E_R)^2."""
    pair = reduced_ground_pair(m, s, R, a=a)
    gap = pair.mu3 - pair.mu2
    for n in np.flatnonzero(gap < GAP_TOL):
        warnings.warn(
            f"third Ritz value degenerate with the occupied pair at "
            f"a={a[n]} (gap {gap[n]:.3e})",
            DegenerateGapWarning,
            stacklevel=3,
        )
    residual = e_ref - pair.energy
    value = float(weight @ residual**2)
    # dE_R/dI_R = 2 (M I_R P - S I_R Q), P = C C^T, Q = C diag(mu1, mu2) C^T
    C = pair.C
    Ct = np.swapaxes(C, 1, 2)
    mu = np.stack([pair.mu1, pair.mu2], axis=1)
    I_R = expand(R)
    D = m @ I_R @ (C @ Ct) - s @ I_R @ ((C * mu[:, None, :]) @ Ct)
    coef = weight * residual
    return value, -4.0 * _diag_blocks_sum(np.tensordot(coef, D, axes=1))


def eval_JA(R: np.ndarray, offline: list[OfflineConfigData]) -> float:
    """-sum_n w_n Tr(M_A(a_n) I_R [S^A(B I_R)]^{-1} I_R^T)."""
    return _ja(R, *_stack(offline, energy=False))[0]


def grad_JA(R: np.ndarray, offline: list[OfflineConfigData]) -> np.ndarray:
    """Euclidean gradient of eval_JA with respect to R."""
    return _ja(R, *_stack(offline, energy=False))[1]


def eval_JE(R: np.ndarray, offline: list[OfflineConfigData]) -> float:
    """sum_n w_n |E_ref(a_n) - E_R(a_n)|^2."""
    return _je(R, *_stack(offline, energy=True))[0]


def grad_JE(R: np.ndarray, offline: list[OfflineConfigData]) -> np.ndarray:
    """Euclidean gradient of eval_JE with respect to R."""
    return _je(R, *_stack(offline, energy=True))[1]


def make_criterion(kind: CriterionKind, offline: list[OfflineConfigData]):
    """Value-and-gradient callable for the optimizer.

    The offline matrices are stacked once here; each call makes one
    batched solve over all configurations.
    """
    energy = kind is CriterionKind.JE
    kernel = _je if energy else _ja
    stack = _stack(offline, energy)

    def value_and_grad(R):
        return kernel(R, *stack)

    return value_and_grad
