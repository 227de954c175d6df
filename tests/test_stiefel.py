from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basisopt import stiefel
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

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_result_is_horizontal(self, seed):
        # orthogonal to span(R): no skew R^T G part is kept
        R, G = random_case(seed)
        assert np.abs(R.T @ tangent_project(R, G)).max() < 1e-12


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

    def test_more_columns_than_rows(self, rng):
        with pytest.raises(ValueError, match="n=3, n_basis=5"):
            random_stiefel(rng, 3, 5)
        with pytest.raises(ValueError, match="n=3, n_basis=5"):
            minimize(lambda R: (0.0, np.zeros_like(R)), np.eye(3, 5))

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
        assert report.converged and report.stop_reason == "converged"
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
        assert report.stop_reason == "max_iter reached"

    def test_nan_gradient_does_not_converge(self, rng):
        def value_and_grad(R):
            return float(np.trace(R.T @ R)), np.full(R.shape, np.nan)

        report = minimize(value_and_grad, random_stiefel(rng, 6, 2))
        assert not report.converged
        assert report.stop_reason == "non-finite value or gradient"
        assert report.iterations == 0
        assert report.evaluations == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_value_ends_the_run(self, rng, bad):
        report = minimize(lambda R: (bad, np.ones_like(R)), random_stiefel(rng, 6, 2))
        assert report.stop_reason == "non-finite value or gradient"
        assert report.evaluations == 1

    def test_accepted_step_to_minus_infinity_ends_the_run(self, rng):
        values = iter([1.0, -np.inf])
        report = minimize(
            lambda R: (next(values), np.ones_like(R)), random_stiefel(rng, 6, 2)
        )
        assert report.stop_reason == "non-finite value or gradient"
        assert (report.iterations, report.evaluations) == (1, 2)

    def test_settings_validation(self):
        for grad_tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                OptimSettings(grad_tol=grad_tol)
        with pytest.raises(ValueError):
            OptimSettings(max_iter=0)

    def test_evaluations_count_every_call(self, offline_l2):
        calls = []
        fun = make_criterion(CriterionKind.JE, offline_l2)
        report = minimize(lambda R: calls.append(R) or fun(R), hbs_coefficients(10, 3))
        assert report.evaluations == len(calls)
        assert report.evaluations >= report.iterations + 1


def per_pair_minimize(value_and_grad, R0, settings):
    """The optimizer with a deque of raw curvature pairs, np.sum inner
    products and one projection of the two-loop output: the oracle that
    `minimize` must match bit for bit."""
    R = retract(R0, np.zeros_like(R0))
    f, G = value_and_grad(R)
    g = tangent_project(R, G)
    trajectory = [f]
    history = deque(maxlen=settings.lbfgs_memory)
    g_norm = np.linalg.norm(g)
    stalled = False
    it = 0
    while g_norm > settings.grad_tol and it < settings.max_iter:
        direction = -tangent_project(R, per_pair_two_loop(g, history))
        if float(np.sum(direction * g)) > -1e-14 * g_norm * np.linalg.norm(direction):
            direction = -g
            history.clear()
        step = stiefel.INITIAL_STEP
        slope = float(np.sum(direction * g))
        R_new = f_new = None
        for _ in range(stiefel.MAX_LINE_SEARCH):
            try:
                candidate = retract(R, step * direction)
            except RetractionError:
                step *= 0.5
                continue
            f_cand, G_cand = value_and_grad(candidate)
            if f_cand <= f + stiefel.ARMIJO_C1 * step * slope:
                R_new, f_new = candidate, f_cand
                break
            step *= 0.5
        if R_new is None:
            stalled = True
            break
        g_new = tangent_project(R_new, G_cand)
        s = step * direction
        y = g_new - g
        if float(np.sum(s * y)) > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            history.append((s, y))
        R, f, g = R_new, f_new, g_new
        g_norm = np.linalg.norm(g)
        trajectory.append(f)
        it += 1
    return R, np.asarray(trajectory), it, bool(g_norm <= settings.grad_tol), stalled


def per_pair_two_loop(g, history):
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


# memory 1 and 3 fill up and evict within a few iterations; JA_L2 N_b=4 is a
# row that stalls in a line search, where rounding decides the path
@pytest.mark.parametrize("memory", [0, 1, 3, 10])
@pytest.mark.parametrize(
    "kind, n_basis",
    [(CriterionKind.JA_L2, 2), (CriterionKind.JE, 3), (CriterionKind.JA_L2, 4)],
)
def test_minimize_matches_per_pair_oracle(offline_l2, kind, n_basis, memory):
    fun = make_criterion(kind, offline_l2)
    settings = OptimSettings(lbfgs_memory=memory)
    report = minimize(fun, hbs_coefficients(10, n_basis), settings)
    R, trajectory, iterations, converged, stalled = per_pair_minimize(
        fun, hbs_coefficients(10, n_basis), settings
    )
    assert np.array_equal(report.R_opt, R)
    assert np.array_equal(report.trajectory, trajectory)
    flags = (report.iterations, report.converged, report.stalled)
    assert flags == (iterations, converged, stalled)


@pytest.mark.parametrize("n, n_basis", [(10, 1), (10, 2), (10, 3), (10, 4), (20, 6)])
def test_two_loop_products_match_each_pair(rng, n, n_basis):
    # the two-loop recursion takes every y_i . s_i from one reduction over
    # the stacked memory; each must be the pairwise sum of that pair alone
    S = rng.standard_normal((10, n, n_basis))
    Y = S * rng.uniform(0.5, 2.0, S.shape)
    stacked = np.add.reduce(Y * S, axis=(1, 2))
    assert all(stacked[i] == np.sum(Y[i] * S[i]) for i in range(len(S)))
    history = deque(zip(S, Y))
    g = rng.standard_normal((n, n_basis))
    assert np.array_equal(stiefel._two_loop(g, S, Y), per_pair_two_loop(g, history))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(10, 1), (10, 4), (20, 6), (7, 7)])
def test_norm_matches_numpy_norm(rng, shape, order):
    # minimize's stopping and curvature tests compare against these norms
    a = np.asarray(rng.standard_normal(shape), order=order)
    assert stiefel._norm(a) == np.linalg.norm(a)
