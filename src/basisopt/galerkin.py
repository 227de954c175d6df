"""Reduced generalized eigenproblem machinery in the compressed basis.

The optimization variable is R in St(N, N_b); the working basis is
X_a = B_a I_R with I_R = diag(R, R). Everything here operates on the
compressed 2N x 2N offline matrices, never on the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._lapack import flapack

DEFAULT_COND_LIMIT = 1e12
GAP_TOL = 1e-10


class OvercompletenessError(RuntimeError):
    """Reduced overlap numerically singular (near-linear-dependent basis)."""

    def __init__(self, message: str, cond: float, a: float | None = None):
        super().__init__(message)
        self.cond = cond
        self.a = a


class DegenerateGapWarning(UserWarning):
    """Third Ritz value degenerate with the occupied pair."""


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
    return 0.5 * (M + M.swapaxes(-1, -2))


def reduced_overlap(s_block: np.ndarray, R: np.ndarray) -> np.ndarray:
    """I_R^T S I_R; leading batch axes of S carry through.

    One matmul against I_R = expand(R) forms every reduced matrix of a
    (K, 2N, 2N) stack at once.
    """
    I_R = expand(R)
    return _sym(I_R.T @ s_block @ I_R)


def _condition(vals: np.ndarray) -> np.ndarray:
    """Condition numbers from ascending eigenvalues; a non-positive
    spectrum gives inf."""
    smin, smax = vals[..., 0], vals[..., -1]
    return np.divide(smax, smin, out=np.full(smin.shape, np.inf), where=smin > 0)


def _inv_lower(L: np.ndarray) -> np.ndarray | None:
    """L^{-1} of a lower triangular matrix or stack, as np.linalg.cholesky
    returns it (zero above the diagonal), or None when LAPACK's dtrtri
    reports a zero pivot.

    dtrtri inverts each matrix in place, in L's memory: the transpose of a
    C-ordered lower matrix is a Fortran-ordered upper one, and the zeros
    above the diagonal are not touched."""
    dtrtri = flapack().dtrtri
    # f2py overwrites only a float64 Fortran-ordered argument, x.T of a
    # C-ordered x; any other it would copy, and X would keep L
    X = np.ascontiguousarray(L, dtype=float)
    for x in X.reshape(-1, *X.shape[-2:]):
        if dtrtri(x.T, lower=0, overwrite_c=1)[1]:
            return None
    return X


def inv_sqrt_spd(S: np.ndarray, a=None) -> np.ndarray:
    """Inverse Cholesky square root X = L^{-1} of an SPD matrix or stack,
    where S = L L^T; then X^T X = S^{-1} and X S X^T = I. L comes from
    np.linalg.cholesky and X from LAPACK's triangular inverse dtrtri, a
    stable inversion (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 14), so X is exactly lower triangular.

    S must be symmetric, as `reduced_overlap` returns it. For a (K, n, n)
    stack X carries the leading axis, and `a` holds one configuration per
    matrix. Raises OvercompletenessError for the first matrix whose
    spectrum is non-positive or whose condition number exceeds
    DEFAULT_COND_LIMIT, never LinAlgError.

    The bound |S|_F |X|_F^2 >= cond_2(S) clears a stack at the cost of two
    norms. Its factor of 2 below the limit covers the rounding of the bound
    and of the eigenvalue test, each about n eps cond relative, so a
    cleared stack is one the test would clear too. Any other stack, and
    one whose factorization breaks down or whose dtrtri reports a zero
    pivot, goes to the eigenvalue test: one
    `eigh` of the stack (which reads the lower triangle of S only), with a
    matrix holding a non-finite entry taken as singular.
    """
    try:
        X = _inv_lower(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:  # not positive definite in working precision
        X = None
    if X is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test
            bound = np.linalg.norm(S, axis=(-2, -1)) * (X * X).sum(axis=(-2, -1))
        if np.all(bound <= 0.5 * DEFAULT_COND_LIMIT):
            return X
    finite = np.isfinite(S).all(axis=(-2, -1))[..., None, None]
    vals, vecs = np.linalg.eigh(np.where(finite, S, 0.0))
    cond = _condition(vals)
    bad = cond > DEFAULT_COND_LIMIT
    if bad.any():
        n = bad.argmax()  # the first bad matrix
        a_n = None if a is None else float(np.ravel(a)[n])
        where = "" if a_n is None else f" at a={a_n}"
        raise OvercompletenessError(
            f"overlap matrix ill-conditioned{where}: min eigenvalue "
            f"{vals[..., 0].flat[n]:.3e}, condition number {cond.flat[n]:.3e}",
            cond=float(cond.flat[n]),
            a=a_n,
        )
    if X is None:  # the test cleared S: its eigenvectors give an X instead
        X = vals[..., :, None] ** -0.5 * vecs.swapaxes(-1, -2)
    return X


@dataclass(frozen=True)
class ReducedGroundPair:
    """Two lowest Ritz pairs of the reduced generalized eigenproblem.

    For a stack of K configurations every field carries the leading axis.
    """

    mu1: float
    mu2: float
    C: np.ndarray = field(repr=False)  # 2N_b x 2, S-orthonormal

    @property
    def energy(self) -> float:
        return self.mu1 + self.mu2


def reduced_ground_pair(
    m_e_offline: np.ndarray,
    s_block: np.ndarray,
    R: np.ndarray,
    a=None,
) -> ReducedGroundPair:
    """Solve the reduced problem by Cholesky reduction to standard form.

    With X = L^{-1} from S_red = L L^T, the Ritz values are the eigenvalues
    of X H_red X^T and C = X^T U[:, :2] (Golub & Van Loan, Matrix
    Computations, sec. 8.7). The offline matrices may be (K, 2N, 2N)
    stacks, with `a` holding one configuration per matrix; one batched
    factorization and one batched eigensolve then serve all K. Warns
    DegenerateGapWarning for each matrix whose third Ritz value is within
    GAP_TOL of the second (N_b = 1 has no third).
    """
    X = inv_sqrt_spd(reduced_overlap(s_block, R), a=a)
    Xt = X.swapaxes(-1, -2)
    H_red = reduced_overlap(m_e_offline, R)
    vals, vecs = np.linalg.eigh(_sym(X @ H_red @ Xt))
    gap = vals[..., 2:3] - vals[..., 1:2]  # empty when N_b = 1
    for n in np.flatnonzero(gap < GAP_TOL):
        where = "" if a is None else f" at a={np.ravel(a)[n]}"
        warnings.warn(
            f"third Ritz value degenerate with the occupied pair{where} "
            f"(gap {gap.flat[n]:.3e})",
            DegenerateGapWarning,
            stacklevel=2,
        )
    return ReducedGroundPair(mu1=vals[..., 0], mu2=vals[..., 1], C=Xt @ vecs[..., :2])
