import numpy as np
import pytest
import scipy.linalg

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import (
    TridiagOperator,
    build_grid,
    fd_gradient,
    fd_hamiltonian,
    potential,
)
from basisopt.hermite import assemble_dimer, hermite_functions
from basisopt.reference import OfflineRecord, build_offline, default_measure
from basisopt.stiefel import OptimSettings, minimize


# -- oracles -------------------------------------------------------------------


def to_dense(op: TridiagOperator) -> np.ndarray:
    """The full matrix of a tridiagonal operator."""
    return np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)


def h1_metric(grid) -> TridiagOperator:
    """H1 metric I - Laplacian with the 3-point FD Laplacian; SPD."""
    inv_dx2 = 1.0 / grid.dx**2
    diag = np.full(grid.n_points, 1.0 + 2.0 * inv_dx2)
    offdiag = np.full(grid.n_points - 1, -inv_dx2)
    return TridiagOperator(diag=diag, offdiag=offdiag)


def hermite_columns(grid, center: float, n_funcs: int) -> np.ndarray:
    """The first n_funcs Hermite functions translated to `center`, sampled
    on the grid as columns scaled by sqrt(dx): one centre's block of
    `assemble_dimer`, from its own recurrence call."""
    return np.sqrt(grid.dx) * hermite_functions(grid.points - center, n_funcs).T


def full_grid_record(grid, a: float, n_funcs: int) -> OfflineRecord:
    """The offline record from one full-size eigensolve and the full-grid
    B = assemble_dimer(grid, a, n_funcs): the build formulas without the
    parity split."""
    H = fd_hamiltonian(grid, a)
    vals, phis = scipy.linalg.eigh_tridiagonal(
        H.diag, H.offdiag, select="i", select_range=(0, 1)
    )
    B = assemble_dimer(grid, a, n_funcs)
    DB = fd_gradient(B)
    inv_dx2 = 1.0 / grid.dx**2

    def sym(m):
        return 0.5 * (m + m.T)

    s_lap = sym(DB.T @ DB) * inv_dx2
    return OfflineRecord(
        a=float(a),
        e_ref=float(vals[0] + vals[1]),
        g=phis.T @ B,
        g_lap=(fd_gradient(phis).T @ DB) * inv_dx2,
        s_b=sym(B.T @ B),
        m_e=sym(B.T @ (potential(a, grid.points)[:, None] * B)) + 0.5 * s_lap,
        s_lap=s_lap,
    )


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="session")
def grid_main():
    """The reference setting: [-20, 20] with 1999 interior points."""
    return build_grid(20.0, 1999)


@pytest.fixture(scope="session")
def measure():
    return default_measure()


@pytest.fixture(scope="session")
def offline_l2(grid_main, measure):
    return build_offline(grid_main, measure, 10, "L2")


@pytest.fixture(scope="session")
def offline_h1(grid_main, measure):
    return build_offline(grid_main, measure, 10, "H1")


@pytest.fixture(scope="session")
def offline_l2_n5(grid_main, measure):
    return build_offline(grid_main, measure, 5, "L2")


@pytest.fixture(scope="session")
def optimized(offline_l2, offline_h1):
    """Optimized coefficient matrices from the HBS start, cached per
    (criterion, n_basis)."""
    cache = {}
    offline = {
        CriterionKind.JA_L2: offline_l2,
        CriterionKind.JA_H1: offline_h1,
        CriterionKind.JE: offline_l2,
    }

    def run(kind: CriterionKind, n_basis: int):
        key = (kind, n_basis)
        if key not in cache:
            fun = make_criterion(kind, offline[kind])
            cache[key] = minimize(
                fun, hbs_coefficients(10, n_basis), OptimSettings()
            )
        return cache[key]

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
