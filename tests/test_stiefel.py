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

    @pytest.mark.parametrize("name", ["max_iter", "lbfgs_memory"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_settings_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OptimSettings(**{name: value})

    def test_settings_take_numpy_integers(self):
        settings = OptimSettings(max_iter=np.int64(5), lbfgs_memory=np.int32(0))
        assert (settings.max_iter, settings.lbfgs_memory) == (5, 0)

    def test_evaluations_count_every_call(self, offline_l2):
        calls = []
        fun = make_criterion(CriterionKind.JE, offline_l2)
        report = minimize(lambda R: calls.append(R) or fun(R), hbs_coefficients(10, 3))
        assert report.evaluations == len(calls)
        assert report.evaluations >= report.iterations + 1


def per_pair_minimize(value_and_grad, R0, settings):
    """The optimizer with a deque of raw curvature pairs, np.sum inner
    products and one projection of the compact-form H g rebuilt from the
    pairs at every iteration: the oracle that `minimize` must match bit for
    bit."""
    R = retract(R0, np.zeros_like(R0))
    f, G = value_and_grad(R)
    g = tangent_project(R, G)
    trajectory = [f]
    history = deque(maxlen=settings.lbfgs_memory)
    g_norm = np.linalg.norm(g)
    stalled = False
    it = 0
    while g_norm > settings.grad_tol and it < settings.max_iter:
        direction = -tangent_project(R, per_pair_compact(g, history))
        slope = float(np.sum(direction * g))
        if not -np.inf < slope <= -1e-14 * g_norm * np.linalg.norm(direction):
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


def per_pair_compact(g, history):
    """H g by the compact formula of `_PairStore.apply`, with S, Y, the
    s_i . y_i and the inverse triangle rebuilt from the pairs, oldest first,
    at every call: one inner product per entry of the triangle and one row
    of its transposed inverse per pair."""
    if not history:
        return g
    S = np.array([s.ravel() for s, _ in history])
    Y = np.array([y.ravel() for _, y in history])
    k = len(history)
    sy, inv_t = np.empty(k), np.zeros((k, k))
    for j in range(k):
        r = np.array([np.sum(S[i] * Y[j]) for i in range(j + 1)])
        sy[j] = r[j]
        inv_t[j, :j] = np.add.reduce(inv_t[:j, :j] * r[:j, None], axis=0)
        inv_t[j, :j] /= -r[j]
        inv_t[j, j] = 1.0 / r[j]
    flat = g.ravel()
    gamma = sy[-1] / Y[-1].dot(Y[-1])
    a = (S @ flat) @ inv_t
    w = a @ Y
    b = inv_t @ (sy * a + gamma * (Y @ (w - flat)))
    return (gamma * (flat - w) + b @ S).reshape(g.shape)


def per_pair_two_loop(g, history):
    """The L-BFGS two-loop recursion over the pairs, oldest first."""
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


# memory 1 and 3 fill up and evict within a few iterations; JA_L2 N_b=4 runs
# to max_iter below memory 100, the default, with its path set by rounding
@pytest.mark.parametrize("memory", [0, 1, 3, 10, 100])
@pytest.mark.parametrize(
    "kind, n_basis",
    [(CriterionKind.JA_L2, 2), (CriterionKind.JE, 3), (CriterionKind.JA_L2, 4)],
)
def test_minimize_matches_per_pair_oracle(offline_l2, kind, n_basis, memory):
    assert_matches_per_pair_oracle(make_criterion(kind, offline_l2), n_basis, memory)


def test_minimize_matches_per_pair_oracle_through_a_stall(offline_h1):
    # JA_H1 N_b=4 at memory 30 ends in a line-search stall (iteration 218
    # when this was written; rounding sets the path), a stop the rows above
    # do not reach
    fun = make_criterion(CriterionKind.JA_H1, offline_h1)
    assert_matches_per_pair_oracle(fun, 4, 30)


def assert_matches_per_pair_oracle(fun, n_basis, memory):
    settings = OptimSettings(lbfgs_memory=memory)
    report = minimize(fun, hbs_coefficients(10, n_basis), settings)
    R, trajectory, iterations, converged, stalled = per_pair_minimize(
        fun, hbs_coefficients(10, n_basis), settings
    )
    assert np.array_equal(report.R_opt, R)
    assert np.array_equal(report.trajectory, trajectory)
    flags = (report.iterations, report.converged, report.stalled)
    assert flags == (iterations, converged, stalled)


def random_pairs(rng, count, shape):
    """Pairs with s . y > 0: y is s scaled entrywise by 0.5 to 2."""
    for _ in range(count):
        s = rng.standard_normal(shape)
        yield s, s * rng.uniform(0.5, 2.0, shape)


@pytest.mark.parametrize("n, n_basis", [(10, 1), (10, 2), (10, 3), (10, 4), (20, 6)])
def test_two_loop_products_match_each_pair(rng, n, n_basis):
    # the compact form's H g is the two-loop recursion's in exact
    # arithmetic: through filling, eviction and a clear it agrees with the
    # per-pair oracle to rounding
    for memory in (1, 3, 10, 50):
        store = stiefel._PairStore(memory, n * n_basis)
        history = deque(maxlen=memory)
        for i, (s, y) in enumerate(random_pairs(rng, 2 * memory + 5, (n, n_basis))):
            if i == memory + 2:
                store.clear()
                history.clear()
            store.append(s, y)
            history.append((s, y))
            assert store.count == len(history)
            g = rng.standard_normal((n, n_basis))
            expected = per_pair_two_loop(g, history)
            error = np.linalg.norm(store.apply(g) - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("memory", [1, 3, 10, 50])
def test_compact_form_meets_the_secant_condition(rng, memory):
    # H y = s for the newest pair, full memory or not
    store = stiefel._PairStore(memory, 12)
    for count, (s, y) in enumerate(random_pairs(rng, memory + 3, (6, 2)), 1):
        store.append(s, y)
        assert store.count == min(count, memory)
        np.testing.assert_allclose(store.apply(y), s, rtol=1e-12, atol=1e-12)


def test_empty_store_is_steepest_descent(rng):
    # memory 0 keeps no pair, and an emptied store gives g back as it is
    g = rng.standard_normal((6, 2))
    pair = next(random_pairs(rng, 1, (6, 2)))
    none = stiefel._PairStore(0, 12)
    none.append(*pair)
    assert none.count == 0 and none.apply(g) is g
    emptied = stiefel._PairStore(3, 12)
    emptied.append(*pair)
    emptied.clear()
    assert emptied.apply(g) is g


def test_non_finite_direction_restarts_from_steepest_descent(rng):
    # a pair that passes the curvature check, with s, y, g and their norms
    # finite, at scales where gamma = s . y / y . y = 1e250 takes H g past
    # the largest double
    R = random_stiefel(rng, 6, 2)
    u = tangent_project(R, rng.standard_normal((6, 2)))
    s, y = 1e100 * u, 1e-150 * u * rng.uniform(0.5, 2.0, u.shape)
    assert stiefel._inner(s, y) > 1e-14 * stiefel._norm(s) * stiefel._norm(y)
    store = stiefel._PairStore(3, 12)
    store.append(s, y)
    g = 1e150 * tangent_project(R, rng.standard_normal((6, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(store.apply(g)).all()
        direction, slope = stiefel._direction(R, g, stiefel._norm(g), store)
    assert np.array_equal(direction, -g)
    assert slope == stiefel._inner(-g, g) < 0
    assert store.count == 0


def test_store_grows_by_doubling_up_to_its_bound(rng):
    store = stiefel._PairStore(10**9, 12)  # a memory no run can fill
    assert store.S.shape == store.Y.shape == (16, 12)
    store = stiefel._PairStore(40, 12)
    capacity = []
    for s, y in random_pairs(rng, 45, (6, 2)):
        store.append(s, y)
        capacity.append(len(store.S))
        assert store.inv_t.shape == (capacity[-1], capacity[-1])
    assert capacity[15:17] == [16, 32] and capacity[31:33] == [32, 40]
    assert capacity[-1] == 40 and store.count == 40


def test_huge_memory_and_max_iter_run(rng):
    # a store sized for 10**9 pairs up front would not fit in memory
    M = rng.standard_normal((8, 8))
    M = M + M.T
    report = minimize(
        lambda R: (float(np.trace(R.T @ M @ R)), 2.0 * M @ R),
        random_stiefel(rng, 8, 2),
        OptimSettings(max_iter=10**9, lbfgs_memory=10**9),
    )
    assert report.converged
    target = np.sort(np.linalg.eigvalsh(M))[:2].sum()
    assert report.final_value == pytest.approx(target, abs=1e-8)


def test_memory_is_bounded_by_max_iter(offline_l2):
    # pairs cannot outnumber iterations: a huge memory runs as max_iter's
    fun = make_criterion(CriterionKind.JA_L2, offline_l2)
    huge, bounded = (
        minimize(fun, hbs_coefficients(10, 4), settings)
        for settings in (
            OptimSettings(max_iter=20, lbfgs_memory=10**9),
            OptimSettings(max_iter=20, lbfgs_memory=20),
        )
    )
    # the runs last all 20 iterations, so both memories fill to the bound
    assert huge.iterations == 20 and huge.stop_reason == "max_iter reached"
    assert np.array_equal(huge.R_opt, bounded.R_opt)
    assert np.array_equal(huge.trajectory, bounded.trajectory)
    assert (huge.grad_norm, huge.evaluations, huge.stop_reason) == (
        bounded.grad_norm,
        bounded.evaluations,
        bounded.stop_reason,
    )


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(10, 1), (10, 4), (20, 6), (7, 7)])
def test_norm_matches_numpy_norm(rng, shape, order):
    # minimize's stopping and curvature tests compare against these norms
    a = np.asarray(rng.standard_normal(shape), order=order)
    assert stiefel._norm(a) == np.linalg.norm(a)
