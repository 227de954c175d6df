"""Reduced generalized eigenproblem machinery in the compressed basis.

The optimization variable is R in St(N, N_b); the working basis is
X_a = B_a I_R with I_R = diag(R, R). Everything here operates on the
compressed 2N x 2N offline matrices, never on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

DEFAULT_COND_LIMIT = 1e12


class OvercompletenessError(RuntimeError):
    """Reduced overlap numerically singular (near-linear-dependent basis)."""

    def __init__(self, message: str, cond: float, a: float | None = None):
        super().__init__(message)
        self.cond = cond
        self.a = a


def expand(R: np.ndarray) -> np.ndarray:
    """I_R = diag(R, R): duplicate R for the two centers."""
    n, nb = R.shape
    out = np.zeros((2 * n, 2 * nb))
    out[:n, :nb] = R
    out[n:, nb:] = R
    return out


def hbs_coefficients(n_funcs: int, n_basis: int) -> np.ndarray:
    """First-n_basis-identity-columns R: the plain Hermite basis set."""
    if not 1 <= n_basis <= n_funcs:
        raise ValueError(f"need 1 <= n_basis <= n_funcs, got {n_basis}, {n_funcs}")
    return np.eye(n_funcs)[:, :n_basis].copy()


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def reduced_overlap(s_block: np.ndarray, R: np.ndarray) -> np.ndarray:
    """I_R^T S I_R; leading batch axes of S carry through.

    One matmul against I_R = expand(R) forms every reduced matrix of a
    (K, 2N, 2N) stack at once.
    """
    I_R = expand(R)
    return _sym(I_R.T @ s_block @ I_R)


def inv_sqrt_spd(S: np.ndarray, cond_limit: float = DEFAULT_COND_LIMIT, a=None):
    """Symmetric (Lowdin) inverse square root of an SPD matrix or a stack.

    Returns (S^{-1/2}, condition number); for a (K, n, n) stack both carry
    the leading axis, and `a` holds one configuration per matrix. Raises
    OvercompletenessError for the first matrix whose spectrum is
    non-positive or whose condition number exceeds cond_limit.
    """
    vals, vecs = np.linalg.eigh(_sym(S))
    smin, smax = vals[..., 0], vals[..., -1]
    cond = np.divide(smax, smin, out=np.full_like(smin, np.inf), where=smin > 0)
    bad = np.flatnonzero((smin <= 0) | (cond > cond_limit))
    if bad.size:
        n = bad[0]
        a_n = None if a is None else float(np.ravel(a)[n])
        where = "" if a_n is None else f" at a={a_n}"
        raise OvercompletenessError(
            f"overlap matrix ill-conditioned{where}: min eigenvalue "
            f"{smin.flat[n]:.3e}, condition number {cond.flat[n]:.3e}",
            cond=float(cond.flat[n]),
            a=a_n,
        )
    inv_sqrt = (vecs * vals[..., None, :] ** -0.5) @ np.swapaxes(vecs, -1, -2)
    return _sym(inv_sqrt), cond[()]  # [()]: a scalar for a single matrix


@dataclass(frozen=True)
class ReducedGroundPair:
    """Two lowest Ritz pairs of the reduced generalized eigenproblem.

    For a stack of K configurations every field carries the leading axis.
    """

    mu1: float
    mu2: float
    mu3: float  # third Ritz value, kept for gap diagnostics
    C: np.ndarray = field(repr=False)  # 2N_b x 2, S-orthonormal
    cond: float  # condition number of the reduced overlap

    @property
    def energy(self) -> float:
        return self.mu1 + self.mu2


def reduced_ground_pair(
    m_e_offline: np.ndarray,
    s_block: np.ndarray,
    R: np.ndarray,
    cond_limit: float = DEFAULT_COND_LIMIT,
    a=None,
) -> ReducedGroundPair:
    """Solve the reduced problem by Lowdin symmetric orthogonalization.

    The offline matrices may be (K, 2N, 2N) stacks, with `a` holding one
    configuration per matrix; one batched eigensolve then serves all K.
    """
    S_red = reduced_overlap(s_block, R)
    H_red = reduced_overlap(m_e_offline, R)
    S_inv_sqrt, cond = inv_sqrt_spd(S_red, cond_limit, a=a)
    vals, vecs = np.linalg.eigh(_sym(S_inv_sqrt @ H_red @ S_inv_sqrt))
    mu3 = vals[..., 2] if vals.shape[-1] > 2 else np.inf
    return ReducedGroundPair(
        mu1=vals[..., 0],
        mu2=vals[..., 1],
        mu3=mu3,
        C=S_inv_sqrt @ vecs[..., :2],
        cond=cond,
    )


def lcao_density(
    b_columns: np.ndarray, R: np.ndarray, C: np.ndarray, grid: Grid
) -> np.ndarray:
    """Grid density of the two occupied LCAO orbitals.

    The sqrt(dx) column convention makes B I_R C unit-norm coefficient
    vectors; dividing the squared orbitals by dx restores a true density
    with dx * sum(rho) = 2.
    """
    orbitals = b_columns @ (expand(R) @ C)  # N_g x 2
    return (orbitals**2).sum(axis=1) / grid.dx
