import numpy as np
import pytest

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import TridiagOperator, build_grid
from basisopt.hermite import hermite_functions
from basisopt.reference import build_offline, default_measure
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
