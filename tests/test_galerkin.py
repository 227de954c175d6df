import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from basisopt import galerkin
from basisopt.galerkin import (
    DegenerateGapWarning,
    OvercompletenessError,
    expand,
    hbs_coefficients,
    inv_sqrt_spd,
    reduced_ground_pair,
    reduced_overlap,
)
from basisopt.grid import build_grid, fd_hamiltonian
from basisopt.hermite import assemble_dimer
from basisopt.reference import solve_ground_pair
from basisopt.stiefel import random_stiefel
from conftest import inv_cholesky


class TestExpand:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(expand(np.eye(4)), np.eye(8))

    def test_block_layout(self, rng):
        R = rng.standard_normal((5, 2))
        I_R = expand(R)
        np.testing.assert_array_equal(I_R[:5, :2], R)
        np.testing.assert_array_equal(I_R[5:, 2:], R)
        assert np.all(I_R[:5, 2:] == 0) and np.all(I_R[5:, :2] == 0)

    def test_orthonormal_columns_preserved(self, rng):
        R = random_stiefel(rng, 6, 3)
        I_R = expand(R)
        np.testing.assert_allclose(I_R.T @ I_R, np.eye(6), atol=1e-12)

    def test_hbs_selects_leading_hermites(self):
        R = hbs_coefficients(5, 2)
        np.testing.assert_array_equal(R, np.eye(5)[:, :2])
        I_R = expand(R)
        picked = np.flatnonzero(I_R.any(axis=1))
        np.testing.assert_array_equal(picked, [0, 1, 5, 6])


class TestReducedOverlap:
    def test_identity(self, rng):
        R = random_stiefel(rng, 5, 3)
        np.testing.assert_allclose(
            reduced_overlap(np.eye(10), R), np.eye(6), atol=1e-12
        )

    def test_against_dense_product(self, rng):
        R = random_stiefel(rng, 6, 2)
        S = rng.standard_normal((12, 12))
        S = S + S.T
        I_R = expand(R)
        np.testing.assert_allclose(
            reduced_overlap(S, R), I_R.T @ S @ I_R, atol=1e-12
        )

    def test_stack_matches_dense_products(self, rng):
        R = random_stiefel(rng, 6, 2)
        S = rng.standard_normal((3, 12, 12))
        I_R = expand(R)
        expected = [I_R.T @ (s + s.T) @ I_R for s in S]
        np.testing.assert_allclose(
            reduced_overlap(S + np.swapaxes(S, 1, 2), R), expected, atol=1e-12
        )

    def test_hbs_diagonal_blocks(self, rng):
        sigma = 0.1 * rng.standard_normal((4, 4))
        S = np.block([[np.eye(4), sigma], [sigma.T, np.eye(4)]])
        R = random_stiefel(rng, 4, 2)
        red = reduced_overlap(S, R)
        np.testing.assert_allclose(red[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(red[2:, 2:], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(red[:2, 2:], R.T @ sigma @ R, atol=1e-12)


def _eigenvalue_guard(S, a=None):
    """The condition test as it was before the Cholesky factor: one eigh of
    the stack, then the first matrix whose condition number exceeds 1e12
    (inf for a non-positive spectrum) is named. Returns the message it
    raised with, or None."""
    vals = np.linalg.eigh(S)[0]
    smin, smax = vals[..., 0], vals[..., -1]
    cond = np.divide(smax, smin, out=np.full(smin.shape, np.inf), where=smin > 0)
    bad = cond > 1e12
    if not bad.any():
        return None
    n = bad.argmax()
    where = "" if a is None else f" at a={float(np.ravel(a)[n])}"
    return (
        f"overlap matrix ill-conditioned{where}: min eigenvalue "
        f"{smin.flat[n]:.3e}, condition number {cond.flat[n]:.3e}"
    )


def _spd(rng, eigenvalues):
    """Symmetric matrix with the given spectrum and random eigenvectors."""
    n = len(eigenvalues)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = (Q * np.asarray(eigenvalues)) @ Q.T
    return 0.5 * (S + S.T)


class TestInvSqrtSpd:
    """inv_sqrt_spd: the inverse Cholesky square root X = L^{-1} of an SPD
    matrix, X^T X = S^{-1}, and the condition test that guards it."""

    def test_identity(self):
        np.testing.assert_array_equal(inv_sqrt_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        result = inv_sqrt_spd(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(result, np.diag([0.5, 1.0]), atol=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse_square_root_property(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 8))
        S = M @ M.T + 0.5 * np.eye(8)
        X = inv_sqrt_spd(S)
        assert np.array_equal(X, np.tril(X))
        np.testing.assert_allclose(X @ S @ X.T, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(X.T @ X, np.linalg.inv(S), atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.diag([1.0, 0.0]), a=1.5)
        assert exc_info.value.a == 1.5

    def test_condition_limit(self):
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.diag([1e13, 1.0]))
        assert exc_info.value.cond == pytest.approx(1e13)

    def test_stack_matches_single_matrices(self, rng):
        M = rng.standard_normal((5, 4, 4))
        stack = M @ np.swapaxes(M, 1, 2) + 0.5 * np.eye(4)
        result = inv_sqrt_spd(stack)
        assert result.shape == (5, 4, 4)
        for S, res in zip(stack, result):
            assert np.array_equal(res, inv_sqrt_spd(S))

    def test_dense_size_stack_is_lower_triangular(self, rng):
        # the dense benchmark's reduced overlaps: K = 200 of size 2 N_b = 12
        stack = np.stack([_spd(rng, np.geomspace(1.0, 1e-4, 12)) for _ in range(200)])
        X = inv_sqrt_spd(stack)
        assert np.array_equal(X, np.tril(X))
        assert np.array_equal(X, inv_cholesky(stack))
        # the componentwise residual bound of a stable triangular inverse,
        # |X L - I| <= n eps |X| |L| (Higham, Accuracy and Stability, ch. 14),
        # which holds with zeros where |X| |L| is zero
        L = np.linalg.cholesky(stack)
        eps = np.finfo(float).eps
        assert (np.abs(X @ L - np.eye(12)) <= 12 * eps * (np.abs(X) @ np.abs(L))).all()

    def test_zero_pivot_goes_to_the_eigenvalue_test(self, monkeypatch):
        # a dtrtri that reports a singular factor: the eigenvalue test
        # decides, and gives an X from the eigenvectors when it clears S
        class Singular:
            @staticmethod
            def dtrtri(c, lower, overwrite_c):
                return c, 1

        monkeypatch.setattr(galerkin, "flapack", lambda: Singular)
        S = np.diag([4.0, 1.0])
        X = inv_sqrt_spd(S)
        np.testing.assert_allclose(X @ S @ X.T, np.eye(2), atol=1e-15)
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.stack([S, np.diag([1e13, 1.0])]), a=[1.5, 2.0])
        assert exc_info.value.a == 2.0

    def test_stack_names_first_bad_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, -1.0])])
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(stack, a=[1.5, 2.0, 2.5])
        assert exc_info.value.a == 2.0
        assert exc_info.value.cond == np.inf

    def test_loose_bound_goes_to_the_eigenvalue_test(self, rng, monkeypatch):
        # six unit eigenvalues and six at 2e-12: cond 5e11 passes, but
        # |S|_F |X|_F^2 is about 7e12, so the bound does not clear the stack
        stack = np.stack([_spd(rng, [1.0] * 6 + [2e-12] * 6) for _ in range(3)])
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S) or eigh(S))
        X = inv_sqrt_spd(stack, a=[1.5, 2.0, 2.5])
        assert len(calls) == 1 and _eigenvalue_guard(stack) is None
        np.testing.assert_array_equal(X, inv_cholesky(stack))

    def test_tight_bound_skips_the_eigenvalue_test(self, rng, monkeypatch):
        stack = np.stack([_spd(rng, np.geomspace(1.0, 1e-6, 12)) for _ in range(3)])
        monkeypatch.setattr(np.linalg, "eigh", None)  # any call fails
        X = inv_sqrt_spd(stack)
        np.testing.assert_array_equal(X, inv_cholesky(stack))

    def test_ill_conditioned_mid_stack_message_unchanged(self, rng):
        spectra = ([1.0] * 11 + [1e-6], [1.0] * 11 + [0.98e-12], [1.0] * 11 + [1e-3])
        stack = np.stack([_spd(rng, spectrum) for spectrum in spectra])
        a = [1.5, 2.0, 2.5]
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(stack, a=a)
        assert exc_info.value.a == 2.0
        assert 1e12 < exc_info.value.cond < 1.1e12
        assert str(exc_info.value) == _eigenvalue_guard(stack, a)

    @pytest.mark.parametrize(
        "S",
        [
            np.diag([1.0, -1e-3, 1.0]),  # indefinite
            np.diag([1.0, 0.0, 1.0]),  # singular
            np.ones((3, 3)),  # singular, not diagonal
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite, unit diagonal
            np.full((3, 3), np.nan),
        ],
    )
    def test_not_positive_definite_is_overcompleteness(self, S):
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.stack([np.eye(len(S)), S]), a=[1.5, 2.0])
        assert exc_info.value.a == 2.0 and exc_info.value.cond == np.inf

    def test_breakdown_on_a_cleared_matrix_uses_eigenvectors(self, rng, monkeypatch):
        # a factorization that breaks down on a matrix the eigenvalue test
        # clears still returns an X with X S X^T = I
        S = _spd(rng, np.geomspace(1.0, 1e-4, 6))

        def breaks_down(_):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", breaks_down)
        X = inv_sqrt_spd(S)
        np.testing.assert_allclose(X @ S @ X.T, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(X.T @ X, np.linalg.inv(S), rtol=1e-10)

    def test_condition_sweep_decides_as_before(self):
        # cond from 1e10 to 1e13, densest around the limit; each matrix is
        # raised on exactly when the eigenvalue test alone raised on it
        rng = np.random.default_rng(12)
        conds = np.concatenate(
            [np.geomspace(1e10, 1e13, 61), 1e12 * (1 + np.linspace(-2e-3, 2e-3, 41))]
        )
        decisions = {True: 0, False: 0}
        for cond in conds:
            for n, fill in ((2, None), (6, 1.0), (12, 1e-6)):
                middle = [] if fill is None else [fill] * (n - 2)
                S = _spd(rng, [1.0, *middle, 1.0 / cond])
                expected = _eigenvalue_guard(S)
                try:
                    inv_sqrt_spd(S)
                    raised = None
                except OvercompletenessError as exc:
                    raised = str(exc)
                assert raised == expected, (cond, n)
                decisions[raised is not None] += 1
        assert decisions[True] > 50 and decisions[False] > 50


class TestReducedGroundPair:
    def test_c_is_overlap_orthonormal(self, offline_l2):
        m_e, s_b = offline_l2.m_e[0], offline_l2.s_b[0]
        R = hbs_coefficients(10, 3)
        pair = reduced_ground_pair(m_e, s_b, R)
        S_red = reduced_overlap(s_b, R)
        np.testing.assert_allclose(
            pair.C.T @ S_red @ pair.C, np.eye(2), atol=1e-8
        )

    def test_span_invariance(self, offline_l2, rng):
        m_e, s_b = offline_l2.m_e[4], offline_l2.s_b[4]
        R = random_stiefel(rng, 10, 3)
        O = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        e1 = reduced_ground_pair(m_e, s_b, R).energy
        e2 = reduced_ground_pair(m_e, s_b, R @ O).energy
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_variational_bound(self, offline_l2):
        d = offline_l2
        for m_e, s_b, e_ref in zip(d.m_e, d.s_b, d.e_ref):
            for nb in (1, 2, 4):
                pair = reduced_ground_pair(m_e, s_b, hbs_coefficients(10, nb))
                assert pair.energy >= e_ref - 1e-10

    def test_ritz_values_bound_fd_values(self, grid_main, offline_l2):
        d = offline_l2
        for a, m_e, s_b in zip(d.a[::3], d.m_e[::3], d.s_b[::3]):
            fd = solve_ground_pair(fd_hamiltonian(grid_main, a))
            pair = reduced_ground_pair(m_e, s_b, hbs_coefficients(10, 3))
            assert pair.mu1 >= fd.lambda1 - 1e-10
            assert pair.mu2 >= fd.lambda2 - 1e-10

    def test_variational_ordering_in_n_basis(self, offline_l2):
        for m_e, s_b in zip(offline_l2.m_e, offline_l2.s_b):
            energies = [
                reduced_ground_pair(m_e, s_b, hbs_coefficients(10, nb)).energy
                for nb in range(1, 5)
            ]
            assert all(
                e_next <= e + 1e-12 for e, e_next in zip(energies, energies[1:])
            )

    def test_stack_matches_single_solves(self, offline_l2):
        R = hbs_coefficients(10, 3)
        H, S = offline_l2.m_e, offline_l2.s_b
        stacked = reduced_ground_pair(H, S, R, a=offline_l2.a)
        for k in range(len(offline_l2)):
            pair = reduced_ground_pair(H[k], S[k], R)
            assert stacked.energy[k] == pytest.approx(pair.energy, rel=1e-13)
            assert stacked.mu2[k] == pytest.approx(pair.mu2, rel=1e-13)
            # C up to the signs of its columns: the occupied projector
            P = pair.C @ pair.C.T
            np.testing.assert_allclose(
                stacked.C[k] @ stacked.C[k].T, P, rtol=1e-10, atol=1e-12
            )

    def test_fields_are_the_ritz_pair_only(self, offline_l2):
        pair = reduced_ground_pair(
            offline_l2.m_e[0], offline_l2.s_b[0], hbs_coefficients(10, 3)
        )
        assert [f.name for f in dataclasses.fields(pair)] == ["mu1", "mu2", "C"]

    def test_degenerate_pencil_warns_with_its_configuration(self):
        # m = s = I: every Ritz value is 1, so the third meets the second
        gap = r"at a=2\.5 \(gap 0\.000e\+00\)"
        with pytest.warns(DegenerateGapWarning, match=gap):
            reduced_ground_pair(np.eye(4), np.eye(4), np.eye(2), a=2.5)
        with pytest.warns(DegenerateGapWarning, match="pair \\(gap"):
            reduced_ground_pair(np.eye(4), np.eye(4), np.eye(2))

    def test_stack_warns_for_each_degenerate_matrix_only(self, offline_l2):
        # the separated pencil of configuration 0 next to two degenerate ones
        R = hbs_coefficients(10, 2)
        eye = np.eye(20)
        H = np.stack([offline_l2.m_e[0], eye, eye])
        S = np.stack([offline_l2.s_b[0], eye, eye])
        with pytest.warns(DegenerateGapWarning) as record:
            reduced_ground_pair(H, S, R, a=np.array([1.5, 2.0, 3.25]))
        messages = [str(w.message) for w in record]
        assert len(messages) == 2
        assert "a=2.0 " in messages[0] and "a=3.25 " in messages[1]

    def test_one_function_per_centre_has_no_gap_to_check(self):
        # N_b = 1 gives two Ritz values: nothing to warn of, even when equal
        pair = reduced_ground_pair(np.eye(2), np.eye(2), np.eye(1), a=1.0)
        assert pair.mu1 == pair.mu2 == 1.0

    def test_full_space_matches_dense_rayleigh_ritz(self, grid_main):
        # dual route: generalized eigensolver on the explicit columns
        a = 5.0
        basis = assemble_dimer(grid_main, a, 10)
        H = fd_hamiltonian(grid_main, a)
        R = hbs_coefficients(10, 10)
        M = basis.T @ H.matvec(basis)
        S = basis.T @ basis
        pair = reduced_ground_pair(M, S, R)
        dense_vals = scipy.linalg.eigh(M, S, eigvals_only=True)
        assert pair.mu1 == pytest.approx(dense_vals[0], abs=1e-10)
        assert pair.mu2 == pytest.approx(dense_vals[1], abs=1e-10)


@pytest.fixture(scope="module")
def density(grid_main, offline_l2):
    R = hbs_coefficients(10, 3)
    pair = reduced_ground_pair(offline_l2.m_e[2], offline_l2.s_b[2], R)
    basis = assemble_dimer(grid_main, offline_l2.a[2], 10)
    return ((basis @ (expand(R) @ pair.C)) ** 2).sum(axis=1) / grid_main.dx


class TestLcaoDensity:
    def test_integral_is_two(self, grid_main, density):
        assert grid_main.dx * density.sum() == pytest.approx(2.0, abs=1e-8)

    def test_nonnegative(self, density):
        assert np.all(density >= 0.0)

    def test_even_about_origin(self, density):
        np.testing.assert_allclose(density, density[::-1], atol=1e-8)
