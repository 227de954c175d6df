import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.galerkin import hbs_coefficients
from basisopt.stiefel import (
    OptimSettings,
    RetractionError,
    minimize,
    random_stiefel,
    retract,
    tangent_project,
)


def random_case(seed):
    rng = np.random.default_rng(seed)
    n, nb = 7, 3
    R = random_stiefel(rng, n, nb)
    G = rng.standard_normal((n, nb))
    return R, G


class TestTangentProject:
    def test_radial_direction_removed(self, rng):
        R = random_stiefel(rng, 8, 3)
        assert np.linalg.norm(tangent_project(R, R)) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_result_is_tangent(self, seed):
        R, G = random_case(seed)
        T = tangent_project(R, G)
        assert np.abs(R.T @ T + T.T @ R).max() < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        R, G = random_case(seed)
        T = tangent_project(R, G)
        np.testing.assert_allclose(tangent_project(R, T), T, atol=1e-12)


class TestRetract:
    def test_zero_step(self, rng):
        R = random_stiefel(rng, 6, 2)
        np.testing.assert_allclose(retract(R, np.zeros_like(R)), R, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_feasible(self, seed):
        R, G = random_case(seed)
        out = retract(R, tangent_project(R, G))
        np.testing.assert_allclose(out.T @ out, np.eye(3), atol=1e-12)

    def test_first_order_agreement(self, rng):
        R = random_stiefel(rng, 8, 3)
        T = tangent_project(R, rng.standard_normal((8, 3)))
        errors = {
            t: np.linalg.norm(retract(R, t * T) - (R + t * T))
            for t in (1e-2, 1e-3)
        }
        # O(t^2) error: two orders of magnitude per decade in t
        assert errors[1e-3] < 1e-5
        assert errors[1e-2] / errors[1e-3] == pytest.approx(100.0, rel=0.3)

    def test_rank_deficiency(self, rng):
        R = random_stiefel(rng, 5, 2)
        with pytest.raises(RetractionError):
            retract(R, -R)


class TestMinimize:
    def test_rayleigh_ritz_sanity(self, rng):
        M = rng.standard_normal((8, 8))
        M = M + M.T
        target = np.sort(np.linalg.eigvalsh(M))[:2].sum()

        def value_and_grad(R):
            return float(np.trace(R.T @ M @ R)), 2.0 * M @ R

        report = minimize(value_and_grad, random_stiefel(rng, 8, 2))
        assert report.converged
        assert report.final_value == pytest.approx(target, abs=1e-8)

    def test_je_from_hbs_start(self, offline_l2):
        report = minimize(
            make_criterion(CriterionKind.JE, offline_l2), hbs_coefficients(10, 2)
        )
        assert report.converged
        assert report.final_value <= 4e-4
        # soft check against reported iteration counts (19 for this case)
        assert report.iterations <= 3 * 19

    def test_iterates_feasible_and_monotone(self, offline_l2):
        report = minimize(
            make_criterion(CriterionKind.JA_L2, offline_l2),
            hbs_coefficients(10, 2),
        )
        R = report.R_opt
        np.testing.assert_allclose(R.T @ R, np.eye(2), atol=1e-8)
        assert np.all(np.diff(report.trajectory) <= 1e-12)

    def test_random_restarts_reach_same_value(self, offline_l2):
        fun = make_criterion(CriterionKind.JE, offline_l2)
        values = []
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            report = minimize(fun, random_stiefel(rng, 10, 2))
            assert report.converged
            values.append(report.final_value)
        assert max(values) - min(values) < 1e-6

    def test_max_iter_returns_unconverged_report(self, offline_l2):
        report = minimize(
            make_criterion(CriterionKind.JE, offline_l2),
            hbs_coefficients(10, 3),
            OptimSettings(max_iter=2),
        )
        assert not report.converged
        assert report.iterations == 2

    def test_settings_validation(self):
        for grad_tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                OptimSettings(grad_tol=grad_tol)
        with pytest.raises(ValueError):
            OptimSettings(max_iter=0)
