import numpy as np
import pytest

from basisopt.criteria import CriterionKind, eval_JE
from basisopt.evaluate import (
    curves,
    default_curve_points,
    density_error,
    overlap_condition_sweep,
)
from basisopt.galerkin import OvercompletenessError, hbs_coefficients


def curve_point(R, a, grid):
    """The CurvePoint of one basis at one configuration."""
    return curves([R], [a], grid, 10)[0][0]


@pytest.fixture(scope="module")
def e_obs_nb4(optimized):
    return optimized(CriterionKind.JE, 4).R_opt


@pytest.fixture(scope="module")
def l2_obs_nb3(optimized):
    return optimized(CriterionKind.JA_L2, 3).R_opt


class TestEnergyCurve:
    def test_variational_inequality(self, grid_main):
        (curve,) = curves(
            [hbs_coefficients(10, 2)], default_curve_points(12), grid_main, 10
        )
        for point in curve:
            assert point.e_basis >= point.e_ref - 1e-10
            assert point.abs_error >= 0.0

    def test_training_error_bounded_by_criterion(
        self, grid_main, measure, offline_l2
    ):
        R = hbs_coefficients(10, 3)
        je = eval_JE(R, offline_l2)
        (curve,) = curves([R], measure.points, grid_main, 10)
        for point, w in zip(curve, measure.weights):
            assert w * point.abs_error**2 <= je + 1e-15

    def test_optimized_beats_hbs_by_three_orders(self, grid_main, e_obs_nb4):
        a_values = default_curve_points(50)
        hbs, obs = curves(
            [hbs_coefficients(10, 4), e_obs_nb4], a_values, grid_main, 10
        )
        mse_hbs = np.mean([p.abs_error**2 for p in hbs])
        mse_obs = np.mean([p.abs_error**2 for p in obs])
        assert mse_hbs / mse_obs >= 1e3

    def test_no_extrapolation_gain_at_small_a(self, grid_main, e_obs_nb4):
        # a = 0.5 sits outside the training window [1.5, 5]: the optimized
        # basis gives no improvement there, yet stays usable
        hbs = curve_point(hbs_coefficients(10, 4), 0.5, grid_main)
        obs = curve_point(e_obs_nb4, 0.5, grid_main)
        assert obs.abs_error >= 0.5 * hbs.abs_error
        assert obs.abs_error < 0.1


class TestDensityError:
    def test_zero_for_identical_densities(self, grid_main):
        from basisopt.evaluate import _diff

        rho = np.exp(-grid_main.points**2)
        delta = rho - rho
        assert np.linalg.norm(_diff(delta, grid_main.dx)) == 0.0
        err = curve_point(hbs_coefficients(10, 10), 3.0, grid_main)
        # full N-function span: only the Hermite truncation error remains
        assert err.l1 < 1e-3 and err.h1 < 1e-3 and err.vw < 1e-3

    def test_norms_nonnegative(self, grid_main):
        err = curve_point(hbs_coefficients(10, 2), 2.0, grid_main)
        assert err.l1 >= 0 and err.h1 >= 0 and err.vw >= 0

    def test_optimized_beats_hbs_at_a3(self, grid_main, l2_obs_nb3):
        hbs = curve_point(hbs_coefficients(10, 3), 3.0, grid_main)
        obs = curve_point(l2_obs_nb3, 3.0, grid_main)
        assert obs.l1 < hbs.l1

    def test_hbs_errors_decrease_with_n_basis(self, grid_main):
        # equilibrium configuration, 10% slack on monotonicity
        errors = [
            curve_point(hbs_coefficients(10, nb), 1.925, grid_main).l1
            for nb in range(1, 5)
        ]
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= 1.1 * prev


class TestConditionSweep:
    def test_monotone_and_blowup(self):
        # the second input is report's sweep, which reaches cond ~ 1e18
        for a_values in (np.linspace(0.1, 5.0, 25), np.geomspace(0.1, 5, 40)):
            sweep = overlap_condition_sweep(4, a_values)
            conds = [c for _, c in sweep]
            for prev, cur in zip(conds, conds[1:]):
                assert cur <= prev * (1 + 1e-10)
            assert conds[0] / conds[-1] > 1e4

    def test_one_function_per_centre_closed_form(self):
        # N_b = 1: Sigma = exp(-a^2), so cond = (1 + Sigma) / (1 - Sigma)
        # = (2 - t) / t with t = 1 - exp(-a^2), down to a near-singular pair
        a_values = np.array([1e-6, 1e-5, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0])
        t = -np.expm1(-(a_values**2))
        conds = [c for _, c in overlap_condition_sweep(1, a_values)]
        np.testing.assert_allclose(conds, (2 - t) / t, rtol=1e-9)

    def test_larger_basis_blows_up_sooner(self):
        a_values = np.linspace(0.5, 5.0, 10)
        cond2 = dict(overlap_condition_sweep(2, a_values))
        cond8 = dict(overlap_condition_sweep(8, a_values))
        for a in a_values:
            assert cond8[float(a)] >= cond2[float(a)] - 1e-9


class TestCurves:
    def test_one_pass_equals_one_pass_per_basis(self, grid_main, l2_obs_nb3):
        # the FD solve and record a point shares change no basis's numbers
        bases = [hbs_coefficients(10, 2), l2_obs_nb3, hbs_coefficients(10, 3)]
        a_values = [1.5, 2.75, 4.0]
        shared = curves(bases, a_values, grid_main, 10)
        alone = [curves([R], a_values, grid_main, 10)[0] for R in bases]
        assert shared == alone

    def test_density_error_zero_for_identical_densities(self, grid_main):
        rho = np.exp(-grid_main.points**2)
        assert density_error(rho, rho, grid_main.dx) == (0.0, 0.0, 0.0)

    def test_overcomplete_basis_raises(self, grid_main):
        with pytest.raises(OvercompletenessError, match="at a=1.5") as info:
            bases = [hbs_coefficients(10, 2), hbs_coefficients(10, 10)]
            curves(bases, [1.5], grid_main, 10)
        assert info.value.a == 1.5
