"""Density-projection and energy-error criteria and their gradients in R.

Both criteria are weighted sums over the sampling measure of terms that
depend on R only through the reduced 2N_b x 2N_b matrices of each
configuration. They read an OfflineStack of the K configurations. A call
forms all K reduced matrices with one matmul against I_R = expand(R),
makes one batched solve over K and returns the value and the Euclidean
gradient from it. Callers take make_criterion(kind, stacks[kind.metric]);
eval_* and grad_*, thin wrappers over the same kernels, serve the
benchmark harness. The solve is one batched Cholesky factorization
S_red = L L^T, used through X = L^{-1} (Golub & Van Loan, Matrix
Computations, sec. 8.7), which LAPACK's triangular inverse dtrtri forms
one configuration at a time; J_E adds one batched eigh of X H_red X^T.
J_A takes the rank-2 FD density matrix from its 2 x 2N factor G_A and
forms neither M_red nor S_red^{-1} (Higham, Accuracy and Stability of
Numerical Algorithms, chs. 10 and 20).

The per-configuration terms are reduced in measure order by fixed-shape
NumPy reductions, so values are bit-reproducible.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .galerkin import (
    expand,
    inv_sqrt_spd,
    reduced_ground_pair,
    reduced_overlap,
)
from .reference import OfflineStack


class CriterionKind(str, Enum):
    JA_L2 = "JA_L2"
    JA_H1 = "JA_H1"
    JE = "JE"

    @property
    def metric(self) -> str:
        return {"JA_L2": "L2", "JA_H1": "H1", "JE": "L2"}[self.value]


def _diag_blocks_sum(M: np.ndarray) -> np.ndarray:
    """M^{++} + M^{--} for a 2x2-block matrix with equal block shapes."""
    n = M.shape[0] // 2
    m = M.shape[1] // 2
    return M[:n, :m] + M[n:, m:]


def _weighted_sum(w: np.ndarray, D: np.ndarray) -> np.ndarray:
    """sum_n w_n D_n: the one dot that np.tensordot(w, D, axes=1) makes."""
    return np.dot(w[None], D.reshape(len(D), -1)).reshape(D.shape[1:])


def _ja(R, offline: OfflineStack):
    """Value and gradient of J_A = -sum_n w_n |G_A I_R X^T|_F^2, where
    X = L^{-1} for S_red = L L^T, so X^T X = S_red^{-1}."""
    g, s, weight = offline.g_a, offline.s_a, offline.weight
    X = inv_sqrt_spd(reduced_overlap(s, R), a=offline.a)
    I_R = expand(R)
    Z = g @ I_R @ X.swapaxes(1, 2)
    value = -float(weight @ (Z * Z).sum(axis=(1, 2)))
    # d/dI_R |Z|_F^2 = 2 (G^T W - S I_R W^T W), W = Z X = G I_R S_red^{-1}
    W = Z @ X
    D = g.swapaxes(1, 2) @ W - s @ I_R @ (W.swapaxes(1, 2) @ W)
    return value, -2.0 * _diag_blocks_sum(_weighted_sum(weight, D))


def _je(R, offline: OfflineStack):
    """Value and gradient of J_E = sum_n w_n (E_ref - E_R)^2."""
    m, s, weight, a = offline.m_e, offline.s_b, offline.weight, offline.a
    pair = reduced_ground_pair(m, s, R, a=a)
    residual = offline.e_ref - pair.energy
    value = float(weight @ residual**2)
    # dE_R/dI_R = 2 (M I_R P - S I_R Q), P = C C^T, Q = C diag(mu1, mu2) C^T
    C = pair.C
    Ct = C.swapaxes(1, 2)
    mu = np.array((pair.mu1, pair.mu2)).T  # (K, 2)
    I_R = expand(R)
    D = m @ I_R @ (C @ Ct) - s @ I_R @ ((C * mu[:, None, :]) @ Ct)
    return value, -4.0 * _diag_blocks_sum(_weighted_sum(weight * residual, D))


def eval_JA(R: np.ndarray, offline: OfflineStack) -> float:
    """-sum_n w_n Tr(G_A^T G_A(a_n) I_R [S^A(B I_R)]^{-1} I_R^T), for the
    benchmark harness; package code uses make_criterion."""
    return _ja(R, offline)[0]


def grad_JA(R: np.ndarray, offline: OfflineStack) -> np.ndarray:
    """Euclidean gradient of eval_JA in R, for the benchmark harness."""
    return _ja(R, offline)[1]


def eval_JE(R: np.ndarray, offline: OfflineStack) -> float:
    """sum_n w_n |E_ref(a_n) - E_R(a_n)|^2, for the benchmark harness."""
    return _je(R, offline)[0]


def grad_JE(R: np.ndarray, offline: OfflineStack) -> np.ndarray:
    """Euclidean gradient of eval_JE in R, for the benchmark harness."""
    return _je(R, offline)[1]


def make_criterion(kind: CriterionKind, offline: OfflineStack):
    """Value-and-gradient callable for the optimizer; each call makes one
    batched solve over all configurations of the stack."""
    kernel = _je if kind is CriterionKind.JE else _ja

    def value_and_grad(R):
        return kernel(R, offline)

    return value_and_grad
