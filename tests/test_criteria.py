import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from basisopt.criteria import (
    CriterionKind,
    DegenerateGapWarning,
    eval_JA,
    eval_JE,
    grad_JA,
    grad_JE,
    make_criterion,
)
from basisopt.galerkin import (
    OvercompletenessError,
    expand,
    hbs_coefficients,
    reduced_overlap,
)
from basisopt.grid import build_grid, fd_hamiltonian
from basisopt.hermite import hermite_columns
from basisopt.reference import OfflineConfigData, solve_ground_pair
from basisopt.stiefel import random_stiefel, tangent_project


def finite_difference_gradient(f, R, step=1e-5):
    """Central differences of f over feasibility-ignoring perturbations."""
    G = np.zeros_like(R)
    for idx in np.ndindex(R.shape):
        plus, minus = R.copy(), R.copy()
        plus[idx] += step
        minus[idx] -= step
        G[idx] = (f(plus) - f(minus)) / (2.0 * step)
    return G


class TestEvalJA:
    def test_hbs_table_values_l2(self, offline_l2):
        expected = {1: -7.40829, 2: -7.70051, 3: -7.74312, 4: -7.77138}
        for nb, value in expected.items():
            assert eval_JA(hbs_coefficients(10, nb), offline_l2) == pytest.approx(
                value, abs=1e-3
            )

    def test_hbs_table_values_h1(self, offline_h1):
        expected = {1: -10.5613, 2: -11.0566, 3: -11.1451, 4: -11.2402}
        for nb, value in expected.items():
            assert eval_JA(hbs_coefficients(10, nb), offline_h1) == pytest.approx(
                value, abs=5e-3
            )

    def test_finite_and_bounded(self, offline_l2, rng):
        # per unit weight the projected trace cannot exceed 2
        total_weight = sum(d.weight for d in offline_l2)
        value = eval_JA(random_stiefel(rng, 10, 2), offline_l2)
        assert -2.0 * total_weight <= value < 0.0

    def test_exact_pair_capture_is_optimal(self, grid_main, rng):
        # augmented basis whose first columns are the FD pair: capture = 2
        pair = solve_ground_pair(fd_hamiltonian(grid_main, 2.0), grid_main)
        pad = hermite_columns(grid_main, 2.0, 2).columns
        block_plus = np.column_stack([pair.phi1, pad])
        block_minus = np.column_stack([pair.phi2, pad])
        B = np.hstack([block_plus, block_minus])
        phis = np.column_stack([pair.phi1, pair.phi2])
        G = phis.T @ B
        data = OfflineConfigData(
            a=2.0,
            weight=1.0,
            e_ref=pair.energy,
            m_a_offline=G.T @ G,
            s_a_b=B.T @ B,
            m_e_offline=B.T @ fd_hamiltonian(grid_main, 2.0).matvec(B),
            s_b=B.T @ B,
        )
        R_exact = np.zeros((3, 1))
        R_exact[0, 0] = 1.0
        best = eval_JA(R_exact, [data])
        assert best == pytest.approx(-2.0, abs=1e-8)
        for _ in range(5):
            assert best <= eval_JA(random_stiefel(rng, 3, 1), [data]) + 1e-10


class TestEvalJE:
    def test_hbs_table_values(self, offline_l2):
        expected = {1: 3.77956e-2, 2: 3.98301e-3, 3: 1.86537e-3, 4: 1.35309e-4}
        for nb, value in expected.items():
            assert eval_JE(hbs_coefficients(10, nb), offline_l2) == pytest.approx(
                value, rel=2e-2
            )

    def test_nonnegative(self, offline_l2, rng):
        for _ in range(3):
            assert eval_JE(random_stiefel(rng, 10, 2), offline_l2) >= 0.0

    def test_hbs_row_independent_of_n_funcs(self, offline_l2, offline_l2_n5):
        for nb in range(1, 5):
            v10 = eval_JE(hbs_coefficients(10, nb), offline_l2)
            v5 = eval_JE(hbs_coefficients(5, nb), offline_l2_n5)
            assert v5 == pytest.approx(v10, rel=1e-10)


class TestGradients:
    @pytest.mark.parametrize("n_basis", [1, 2, 3])
    def test_grad_ja_matches_finite_differences(self, offline_l2, rng, n_basis):
        R = random_stiefel(rng, 10, n_basis)
        analytic = grad_JA(R, offline_l2)
        numeric = finite_difference_gradient(lambda X: eval_JA(X, offline_l2), R)
        assert np.linalg.norm(analytic - numeric) < 1e-6 * np.linalg.norm(numeric)

    def test_grad_ja_h1_matches_finite_differences(self, offline_h1, rng):
        R = random_stiefel(rng, 10, 2)
        analytic = grad_JA(R, offline_h1)
        numeric = finite_difference_gradient(lambda X: eval_JA(X, offline_h1), R)
        assert np.linalg.norm(analytic - numeric) < 1e-6 * np.linalg.norm(numeric)

    @pytest.mark.parametrize("n_basis", [1, 2, 3])
    def test_grad_je_matches_finite_differences(self, offline_l2, rng, n_basis):
        R = random_stiefel(rng, 10, n_basis)
        analytic = grad_JE(R, offline_l2)
        numeric = finite_difference_gradient(lambda X: eval_JE(X, offline_l2), R)
        assert np.linalg.norm(analytic - numeric) < 1e-6 * np.linalg.norm(numeric)

    def test_full_space_gradient_has_no_tangent_component(self, grid_main):
        # N_b = N: the span is the whole space, the criterion is constant
        # on the fiber, so the Riemannian gradient vanishes; a well-separated
        # dimer keeps the full overlap invertible
        from basisopt.reference import build_offline_single

        data = [build_offline_single(grid_main, 3.5, 1.0, 6, "L2")]
        R = np.eye(6)
        for grad in (grad_JA, grad_JE):
            T = tangent_project(R, grad(R, data))
            assert np.linalg.norm(T) < 1e-8

    def test_grad_je_zero_at_exact_fit(self, offline_l2):
        from basisopt.galerkin import reduced_ground_pair

        R = hbs_coefficients(10, 2)
        fitted = [
            dataclasses.replace(
                d,
                e_ref=reduced_ground_pair(d.m_e_offline, d.s_b, R).energy,
            )
            for d in offline_l2
        ]
        assert np.linalg.norm(grad_JE(R, fitted)) < 1e-12

    def test_degenerate_gap_warns(self):
        data = OfflineConfigData(
            a=1.0,
            weight=1.0,
            e_ref=1.0,
            m_a_offline=np.eye(4),
            s_a_b=np.eye(4),
            m_e_offline=np.eye(4),
            s_b=np.eye(4),
        )
        with pytest.warns(DegenerateGapWarning):
            grad_JE(hbs_coefficients(2, 2), [data])


class TestSpanInvariance:
    def test_criteria_invariant_under_rotation(self, offline_l2, offline_h1, rng):
        R = random_stiefel(rng, 10, 3)
        O = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert eval_JA(R, offline_l2) == pytest.approx(
            eval_JA(R @ O, offline_l2), abs=1e-10
        )
        assert eval_JA(R, offline_h1) == pytest.approx(
            eval_JA(R @ O, offline_h1), abs=1e-10
        )
        assert eval_JE(R, offline_l2) == pytest.approx(
            eval_JE(R @ O, offline_l2), abs=1e-10
        )


def _well_conditioned(rng, n):
    """Invertible n x n matrix with singular values in [0.5, 2]."""
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U @ np.diag(rng.uniform(0.5, 2.0, n)) @ V


class TestSpanProperties:
    """J depends on R only through span(R): J(RM) = J(R) for invertible M,
    hence R^T grad J = 0 at every R."""

    @pytest.fixture(scope="class")
    def criteria(self, offline_l2, offline_h1):
        return {
            "JA_L2": (eval_JA, grad_JA, offline_l2),
            "JA_H1": (eval_JA, grad_JA, offline_h1),
            "JE": (eval_JE, grad_JE, offline_l2),
        }

    @given(seed=st.integers(0, 10_000), n_basis=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_invertible_change_of_basis(self, criteria, seed, n_basis):
        rng = np.random.default_rng(seed)
        R = random_stiefel(rng, 10, n_basis)
        M = _well_conditioned(rng, n_basis)
        for name, (value, _, offline) in criteria.items():
            j = value(R, offline)
            assert value(R @ M, offline) == pytest.approx(j, rel=1e-9), name

    @given(seed=st.integers(0, 10_000), n_basis=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_gradient_orthogonal_to_span(self, criteria, seed, n_basis):
        R = random_stiefel(np.random.default_rng(seed), 10, n_basis)
        for name, (_, grad, offline) in criteria.items():
            G = grad(R, offline)
            assert np.linalg.norm(R.T @ G) <= 1e-8 * np.linalg.norm(G), name


def _dense_single_value(kind, R, data):
    """One configuration's weighted term from the dense I_R^T S I_R."""
    I_R = expand(R)
    if kind is CriterionKind.JE:
        H = I_R.T @ data.m_e_offline @ I_R
        S = I_R.T @ data.s_b @ I_R
        mu = scipy.linalg.eigh(H, S, eigvals_only=True)
        return data.weight * (data.e_ref - mu[0] - mu[1]) ** 2
    M = I_R.T @ data.m_a_offline @ I_R
    S = I_R.T @ data.s_a_b @ I_R
    return -data.weight * np.trace(np.linalg.solve(S, M))


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_stack_equals_sum_of_single_solves(
        self, kind, offline_l2, offline_h1, rng
    ):
        offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
        R = random_stiefel(rng, 10, 3)
        vg = make_criterion(kind, offline)
        value, grad = vg(R)
        singles = [make_criterion(kind, [d])(R) for d in offline]
        for (single, _), data in zip(singles, offline):
            dense = _dense_single_value(kind, R, data)
            assert single == pytest.approx(dense, rel=1e-10, abs=1e-14)
        assert value == pytest.approx(sum(v for v, _ in singles), rel=1e-13)
        np.testing.assert_allclose(
            grad, sum(g for _, g in singles), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_ill_conditioned_config_mid_stack_is_named(
        self, kind, offline_l2, offline_h1
    ):
        offline = list(offline_h1 if kind is CriterionKind.JA_H1 else offline_l2)
        # nearly coincident centers: the two blocks span almost the same
        # functions, so the overlap has condition number ~1e13
        bad = offline[4]
        n = bad.n_funcs
        coupling = np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]])
        overlap = np.kron(coupling, bad.s_b[:n, :n])
        offline[4] = dataclasses.replace(bad, s_a_b=overlap, s_b=overlap)
        with pytest.raises(OvercompletenessError) as exc_info:
            make_criterion(kind, offline)(hbs_coefficients(10, 2))
        assert exc_info.value.a == bad.a
        assert exc_info.value.cond > 1e12
        assert f"a={bad.a}" in str(exc_info.value)


def test_block_compression_identity(offline_l2, rng):
    data = offline_l2[0]
    R = random_stiefel(rng, 10, 2)
    I_R = expand(R)
    np.testing.assert_allclose(
        reduced_overlap(data.m_e_offline, R),
        I_R.T @ data.m_e_offline @ I_R,
        atol=1e-12,
    )


def test_make_criterion_dispatch(offline_l2):
    R = hbs_coefficients(10, 2)
    value, grad = make_criterion(CriterionKind.JE, offline_l2)(R)
    assert value == pytest.approx(eval_JE(R, offline_l2))
    np.testing.assert_array_equal(grad, grad_JE(R, offline_l2))
    value, grad = make_criterion(CriterionKind.JA_L2, offline_l2)(R)
    assert value == pytest.approx(eval_JA(R, offline_l2))
