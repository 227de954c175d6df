import dataclasses
import pickle

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
from basisopt.reference import (
    OfflineStack,
    build_offline_single,
    solve_ground_pair,
    stack_offline,
)
from basisopt.stiefel import random_stiefel, tangent_project
from conftest import hermite_columns


def config(offline: OfflineStack, k: int) -> OfflineStack:
    """Configuration k of a stack, as a stack of one."""
    names = [f.name for f in dataclasses.fields(offline)]
    return OfflineStack(**{name: getattr(offline, name)[k : k + 1] for name in names})


def single_stack(a, weight, e_ref, g_a, s_a, m_e, s_b) -> OfflineStack:
    """A stack of one configuration from its 2 x 2N factor and 2N x 2N
    matrices."""
    return OfflineStack(
        np.array([a]),
        np.array([weight]),
        np.array([e_ref]),
        *(m[None] for m in (g_a, s_a, m_e, s_b)),
    )


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
        total_weight = offline_l2.weight.sum()
        value = eval_JA(random_stiefel(rng, 10, 2), offline_l2)
        assert -2.0 * total_weight <= value < 0.0

    def test_exact_pair_capture_is_optimal(self, grid_main, rng):
        # augmented basis whose first columns are the FD pair: capture = 2
        pair = solve_ground_pair(fd_hamiltonian(grid_main, 2.0))
        pad = hermite_columns(grid_main, 2.0, 2)
        block_plus = np.column_stack([pair.phi1, pad])
        block_minus = np.column_stack([pair.phi2, pad])
        B = np.hstack([block_plus, block_minus])
        phis = np.column_stack([pair.phi1, pair.phi2])
        G = phis.T @ B
        data = single_stack(
            a=2.0,
            weight=1.0,
            e_ref=pair.energy,
            g_a=G,
            s_a=B.T @ B,
            m_e=B.T @ fd_hamiltonian(grid_main, 2.0).matvec(B),
            s_b=B.T @ B,
        )
        R_exact = np.zeros((3, 1))
        R_exact[0, 0] = 1.0
        best = eval_JA(R_exact, data)
        assert best == pytest.approx(-2.0, abs=1e-8)
        for _ in range(5):
            assert best <= eval_JA(random_stiefel(rng, 3, 1), data) + 1e-10


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
        data = stack_offline([build_offline_single(grid_main, 3.5, 6)], [1.0])["L2"]
        R = np.eye(6)
        for grad in (grad_JA, grad_JE):
            T = tangent_project(R, grad(R, data))
            assert np.linalg.norm(T) < 1e-8

    def test_grad_je_zero_at_exact_fit(self, offline_l2):
        from basisopt.galerkin import reduced_ground_pair

        R = hbs_coefficients(10, 2)
        fitted = dataclasses.replace(
            offline_l2,
            e_ref=np.array(
                [
                    reduced_ground_pair(m_e, s_b, R).energy
                    for m_e, s_b in zip(offline_l2.m_e, offline_l2.s_b)
                ]
            ),
        )
        assert np.linalg.norm(grad_JE(R, fitted)) < 1e-12

    def test_degenerate_gap_warns(self):
        data = single_stack(
            a=1.0,
            weight=1.0,
            e_ref=1.0,
            g_a=np.eye(2, 4),
            s_a=np.eye(4),
            m_e=np.eye(4),
            s_b=np.eye(4),
        )
        with pytest.warns(DegenerateGapWarning):
            grad_JE(hbs_coefficients(2, 2), data)


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


def _dense_single_value(kind, R, offline, k):
    """Configuration k's weighted term from the dense I_R^T S I_R."""
    I_R = expand(R)
    if kind is CriterionKind.JE:
        H = I_R.T @ offline.m_e[k] @ I_R
        S = I_R.T @ offline.s_b[k] @ I_R
        mu = scipy.linalg.eigh(H, S, eigvals_only=True)
        return offline.weight[k] * (offline.e_ref[k] - mu[0] - mu[1]) ** 2
    M = I_R.T @ (offline.g_a[k].T @ offline.g_a[k]) @ I_R
    S = I_R.T @ offline.s_a[k] @ I_R
    return -offline.weight[k] * np.trace(np.linalg.solve(S, M))


def _ja_multiprecision(R, offline, digits=50):
    """J_A and its gradient from the stack's own g_a and s_a, evaluated in
    `digits`-digit arithmetic: with W = G I_R S_red^{-1}, the value is
    -sum_n w_n Tr(W (G I_R)^T) and the I_R gradient -2 sum_n w_n
    (G^T W - s I_R W^T W), summed over its diagonal blocks."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        I_R = mpmath.matrix(expand(R).tolist())
        value, grad = mpmath.mpf(0), mpmath.zeros(I_R.rows, I_R.cols)
        for g, s, w in zip(offline.g_a, offline.s_a, offline.weight.tolist()):
            G, S = mpmath.matrix(g.tolist()), mpmath.matrix(s.tolist())
            GI, SI = G * I_R, S * I_R
            W = GI * mpmath.inverse(I_R.T * SI)
            value -= w * sum((W * GI.T)[i, i] for i in range(2))
            grad -= 2 * w * (G.T * W - SI * (W.T * W))
        grad = np.array(grad.tolist(), dtype=float)
        return float(value), _diag_blocks_oracle(grad)


@pytest.mark.parametrize("n_basis", [6, 7])
@pytest.mark.parametrize("kind", [CriterionKind.JA_L2, CriterionKind.JA_H1])
def test_ja_matches_multiprecision_evaluation(kind, n_basis, offline_l2, offline_h1):
    # the HBS reduced overlap reaches cond 7.7e7 at N_b = 7 (L2). Measured:
    # at most 1.2e-16 relative in J and 5.3e-10 in grad J; through the
    # Lowdin S_red^{-1/2} these were 5.7e-14 and 1.3e-9, and from the formed
    # M_red and S_red^{-1} 9.5e-11 and 2.4 (L2 N_b = 7)
    offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
    R = hbs_coefficients(10, n_basis)
    value, grad = make_criterion(kind, offline)(R)
    exact_value, exact_grad = _ja_multiprecision(R, offline)
    assert abs(value - exact_value) <= 1e-15 * abs(exact_value)
    assert np.linalg.norm(grad - exact_grad) <= 5e-9 * np.linalg.norm(exact_grad)


def _je_multiprecision(R, offline, digits=50):
    """J_E and its gradient from the stack's own m_e and s_b, evaluated in
    `digits`-digit arithmetic: the Ritz pair from the Cholesky reduction
    L^{-1} H_red L^{-T} of each configuration, then the I_R gradient
    -4 sum_n w_n r_n (M I_R C C^T - S I_R C diag(mu1, mu2) C^T), summed over
    its diagonal blocks."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        I_R = mpmath.matrix(expand(R).tolist())
        value, grad = mpmath.mpf(0), mpmath.zeros(I_R.rows, I_R.cols)
        rows = zip(offline.m_e, offline.s_b, offline.weight.tolist(), offline.e_ref)
        for m, s, w, e_ref in rows:
            MI = mpmath.matrix(m.tolist()) * I_R
            SI = mpmath.matrix(s.tolist()) * I_R
            L_inv = mpmath.inverse(mpmath.cholesky(I_R.T * SI))
            mu, U = mpmath.eigsy(L_inv * (I_R.T * MI) * L_inv.T)
            lowest = sorted(range(len(mu)), key=lambda i: mu[i])[:2]
            U_low = mpmath.matrix([[U[r, c] for c in lowest] for r in range(U.rows)])
            C = L_inv.T * U_low
            residual = mpmath.mpf(float(e_ref)) - mu[lowest[0]] - mu[lowest[1]]
            value += w * residual**2
            Q = C * mpmath.diag([mu[c] for c in lowest]) * C.T
            grad -= 4 * w * residual * (MI * (C * C.T) - SI * Q)
        grad = np.array(grad.tolist(), dtype=float)
        return float(value), _diag_blocks_oracle(grad)


# relative error bound on J_E and grad J_E at HBS per N_b, about 10x the
# larger of the two measured (1.2e-14, 8.9e-14, 3.6e-13, 1.3e-12 for N_b =
# 3..6); the Lowdin S_red^{-1/2} measured 7.1e-15, 4.8e-14, 1.4e-12, 1.7e-12
JE_MULTIPRECISION_RTOL = {3: 2e-13, 4: 1e-12, 5: 4e-12, 6: 2e-11}


@pytest.mark.parametrize("n_basis", sorted(JE_MULTIPRECISION_RTOL))
def test_je_matches_multiprecision_evaluation(n_basis, offline_l2):
    R = hbs_coefficients(10, n_basis)
    value, grad = make_criterion(CriterionKind.JE, offline_l2)(R)
    exact_value, exact_grad = _je_multiprecision(R, offline_l2)
    rtol = JE_MULTIPRECISION_RTOL[n_basis]
    assert abs(value - exact_value) <= rtol * abs(exact_value)
    assert np.linalg.norm(grad - exact_grad) <= rtol * np.linalg.norm(exact_grad)


# Spread of J over 200 rotations R -> RM, M orthogonal, at the N_b = 4 end
# points of the table runs, relative to |J|. Measured over 4 rotation seeds:
# JA_L2 5.7e-16 to 8.0e-16, JA_H1 9.5e-16 to 1.3e-15, JE 7.6e-11 to 1.3e-10.
# Through the Lowdin S_red^{-1/2} these were 4.5e-15 to 5.3e-15, 4.9e-15 to
# 5.2e-15 and 3.7e-10 to 5.1e-10 at its own end points.
ROTATION_SPREAD_RTOL = {
    CriterionKind.JA_L2: 3e-15,
    CriterionKind.JA_H1: 3e-15,
    CriterionKind.JE: 3e-10,
}


@pytest.mark.parametrize("kind", list(CriterionKind))
def test_rotation_spread_at_table_end_point(kind, optimized, offline_l2, offline_h1):
    offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
    result = optimized(kind, 4)
    vg = make_criterion(kind, offline)
    rng = np.random.default_rng(0)
    values = [
        vg(result.R_opt @ np.linalg.qr(rng.standard_normal((4, 4)))[0])[0]
        for _ in range(200)
    ]
    spread = np.ptp(values) / abs(result.final_value)
    assert spread <= ROTATION_SPREAD_RTOL[kind], spread


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_stack_equals_sum_of_single_solves(
        self, kind, offline_l2, offline_h1, rng
    ):
        offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
        R = random_stiefel(rng, 10, 3)
        vg = make_criterion(kind, offline)
        value, grad = vg(R)
        singles = [
            make_criterion(kind, config(offline, k))(R) for k in range(len(offline))
        ]
        for k, (single, _) in enumerate(singles):
            dense = _dense_single_value(kind, R, offline, k)
            assert single == pytest.approx(dense, rel=1e-10, abs=1e-14)
        assert value == pytest.approx(sum(v for v, _ in singles), rel=1e-13)
        np.testing.assert_allclose(
            grad, sum(g for _, g in singles), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_ill_conditioned_config_mid_stack_is_named(
        self, kind, offline_l2, offline_h1
    ):
        offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
        # nearly coincident centers: the two blocks span almost the same
        # functions, so the overlap has condition number ~1e13
        n = offline.s_b.shape[1] // 2
        coupling = np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]])
        overlap = np.kron(coupling, offline.s_b[4, :n, :n])
        s_a, s_b = offline.s_a.copy(), offline.s_b.copy()
        s_a[4] = s_b[4] = overlap
        offline = dataclasses.replace(offline, s_a=s_a, s_b=s_b)
        a_bad = float(offline.a[4])
        with pytest.raises(OvercompletenessError) as exc_info:
            make_criterion(kind, offline)(hbs_coefficients(10, 2))
        assert exc_info.value.a == a_bad
        assert exc_info.value.cond > 1e12
        assert f"a={a_bad}" in str(exc_info.value)


def test_block_compression_identity(offline_l2, rng):
    m_e = offline_l2.m_e[0]
    R = random_stiefel(rng, 10, 2)
    I_R = expand(R)
    np.testing.assert_allclose(
        reduced_overlap(m_e, R),
        I_R.T @ m_e @ I_R,
        atol=1e-12,
    )


def test_make_criterion_dispatch(offline_l2):
    R = hbs_coefficients(10, 2)
    value, grad = make_criterion(CriterionKind.JE, offline_l2)(R)
    assert value == pytest.approx(eval_JE(R, offline_l2))
    np.testing.assert_array_equal(grad, grad_JE(R, offline_l2))
    value, grad = make_criterion(CriterionKind.JA_L2, offline_l2)(R)
    assert value == pytest.approx(eval_JA(R, offline_l2))


# -- bit-identity oracles --------------------------------------------------------
# The criteria kernels as they were before the hot path was cut to fewer NumPy
# calls: a second symmetrization before each factorization, expand(R) per
# reduced matrix, np.sum and np.tensordot. Stalling L-BFGS runs are chaotic
# under rounding, so the kernels must match these bit for bit, not to a
# tolerance.


def _sym_oracle(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _reduced_oracle(block, R):
    I_R = expand(R)
    return _sym_oracle(I_R.T @ block @ I_R)


def _inv_cholesky_oracle(S):
    """X = L^{-1} for S = L L^T."""
    return np.linalg.inv(np.linalg.cholesky(_sym_oracle(S)))


def _diag_blocks_oracle(M):
    n, m = M.shape[0] // 2, M.shape[1] // 2
    return M[:n, :m] + M[n:, m:]


def ja_oracle(R, offline):
    g, s, weight = offline.g_a, offline.s_a, offline.weight
    X = _inv_cholesky_oracle(_reduced_oracle(s, R))
    I_R = expand(R)
    Z = g @ I_R @ np.swapaxes(X, 1, 2)
    value = -float(weight @ np.sum(Z * Z, axis=(1, 2)))
    W = Z @ X
    D = np.swapaxes(g, 1, 2) @ W - s @ I_R @ (np.swapaxes(W, 1, 2) @ W)
    return value, -2.0 * _diag_blocks_oracle(np.tensordot(weight, D, axes=1))


def je_oracle(R, offline):
    m, s, weight = offline.m_e, offline.s_b, offline.weight
    S_red = _reduced_oracle(s, R)
    H_red = _reduced_oracle(m, R)
    X = _inv_cholesky_oracle(S_red)
    vals, vecs = np.linalg.eigh(_sym_oracle(X @ H_red @ np.swapaxes(X, 1, 2)))
    C = np.swapaxes(X, 1, 2) @ vecs[..., :2]
    residual = offline.e_ref - (vals[..., 0] + vals[..., 1])
    value = float(weight @ residual**2)
    Ct = np.swapaxes(C, 1, 2)
    mu = np.stack([vals[..., 0], vals[..., 1]], axis=1)
    I_R = expand(R)
    D = m @ I_R @ (C @ Ct) - s @ I_R @ ((C * mu[:, None, :]) @ Ct)
    coef = weight * residual
    return value, -4.0 * _diag_blocks_oracle(np.tensordot(coef, D, axes=1))


def _assert_bit_identical(kind, R, offline):
    oracle = je_oracle if kind is CriterionKind.JE else ja_oracle
    value, grad = make_criterion(kind, offline)(R)
    expected_value, expected_grad = oracle(R, offline)
    assert value == expected_value
    assert np.array_equal(grad, expected_grad)


def synthetic_stack(rng, k, n_funcs) -> OfflineStack:
    """K random configurations with SPD overlaps, laid out as stack_offline
    lays out its vectors (strided columns of one (K, 3) array)."""
    size = 2 * n_funcs

    def gram():
        B = rng.standard_normal((k, 2 * size, size))
        return _sym_oracle(np.swapaxes(B, 1, 2) @ B)

    columns = (rng.uniform(0.1, 1, k), np.linspace(1.5, 5.0, k), rng.uniform(-1, 1, k))
    weight, a, e_ref = np.array(list(zip(*columns))).T
    s_b = gram()
    return OfflineStack(
        a=a,
        weight=weight,
        e_ref=e_ref,
        g_a=rng.standard_normal((k, 2, size)),
        s_a=s_b + gram(),
        m_e=gram(),
        s_b=s_b,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("n_basis", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_reference_stacks(self, kind, n_basis, offline_l2, offline_h1):
        offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
        rng = np.random.default_rng(n_basis)
        _assert_bit_identical(kind, hbs_coefficients(10, n_basis), offline)
        for _ in range(3):
            _assert_bit_identical(kind, random_stiefel(rng, 10, n_basis), offline)

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_dense_size_stack(self, kind):
        # the dense benchmark's sizes: K=200 configurations, N=20, N_b=6
        rng = np.random.default_rng(200)
        offline = synthetic_stack(rng, 200, 20)
        _assert_bit_identical(kind, random_stiefel(rng, 20, 6), offline)


@pytest.mark.parametrize("kind", list(CriterionKind))
def test_pickled_stack_gives_the_same_bits(kind, offline_l2, offline_h1):
    # a stack's vectors are contiguous, so a copy of it, such as a pickle
    # round trip makes, takes the same BLAS paths
    offline = offline_h1 if kind is CriterionKind.JA_H1 else offline_l2
    copy = pickle.loads(pickle.dumps(offline))
    rng = np.random.default_rng(7)
    for n_basis in (1, 2, 3, 4):
        for R in (hbs_coefficients(10, n_basis), random_stiefel(rng, 10, n_basis)):
            value, grad = make_criterion(kind, offline)(R)
            value_copy, grad_copy = make_criterion(kind, copy)(R)
            assert value_copy == value, (n_basis, value_copy - value)
            assert np.array_equal(grad_copy, grad), n_basis


# -- mirror symmetry -------------------------------------------------------------
# Reflecting x -> -x maps span(B I_R) to span(B I_DR), D = diag((-1)^k), with
# the two centres swapped; the grid, V and the FD pair are mirror-symmetric,
# so J(DR) = J(R) and grad J(DR) = D grad J(R). Over 400 random R the largest
# gaps were 4.2e-13 relative in J (JA_H1) and 3.1e-12 of max|grad J| in the
# gradient (JA_L2); the bounds below sit about 25x and 30x above them.
MIRROR_VALUE_RTOL = 1e-11
MIRROR_GRAD_RTOL = 1e-10


def _mirror(n):
    return np.diag((-1.0) ** np.arange(n))


def _sector_point(rng, n, n_basis):
    """R on St(n, n_basis) whose span D maps onto itself: each column is
    even (even k only) or odd (odd k only)."""
    n_even = int(rng.integers(0, n_basis + 1))
    R = np.zeros((n, n_basis))
    for parity, cols in ((0, slice(0, n_even)), (1, slice(n_even, n_basis))):
        rows = np.arange(parity, n, 2)
        width = cols.stop - cols.start
        if width:
            R[rows, cols] = np.linalg.qr(rng.standard_normal((len(rows), width)))[0]
    return R[:, rng.permutation(n_basis)]


class TestMirrorSymmetry:
    @pytest.fixture(scope="class")
    def kernels(self, offline_l2, offline_h1):
        offline = {CriterionKind.JA_H1: offline_h1}
        return {
            kind: make_criterion(kind, offline.get(kind, offline_l2))
            for kind in CriterionKind
        }

    @given(seed=st.integers(0, 10_000), n_basis=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_value_invariant(self, kernels, seed, n_basis):
        R = random_stiefel(np.random.default_rng(seed), 10, n_basis)
        D = _mirror(10)
        for kind, vg in kernels.items():
            j, jd = vg(R)[0], vg(D @ R)[0]
            assert abs(jd - j) <= MIRROR_VALUE_RTOL * abs(j), kind.value

    @given(seed=st.integers(0, 10_000), n_basis=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_gradient_equivariant_at_sector_point(self, kernels, seed, n_basis):
        R = _sector_point(np.random.default_rng(seed), 10, n_basis)
        D = _mirror(10)
        assert np.allclose(R @ (R.T @ D @ R), D @ R)  # span(DR) = span(R)
        for kind, vg in kernels.items():
            G, G_mirror = vg(R)[1], vg(D @ R)[1]
            gap = np.abs(G_mirror - D @ G).max()
            assert gap <= MIRROR_GRAD_RTOL * np.abs(G).max(), kind.value
