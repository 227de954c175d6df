import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from basisopt.galerkin import (
    OvercompletenessError,
    expand,
    hbs_coefficients,
    inv_sqrt_spd,
    lcao_density,
    reduced_ground_pair,
    reduced_overlap,
)
from basisopt.grid import build_grid, fd_hamiltonian
from basisopt.hermite import assemble_dimer
from basisopt.reference import solve_ground_pair
from basisopt.stiefel import random_stiefel


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


class TestInvSqrtSpd:
    def test_identity(self):
        result, cond = inv_sqrt_spd(np.eye(3))
        np.testing.assert_allclose(result, np.eye(3), atol=1e-14)
        assert cond == pytest.approx(1.0)

    def test_diagonal(self):
        result, _ = inv_sqrt_spd(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(result, np.diag([0.5, 1.0]), atol=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse_square_root_property(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 8))
        S = M @ M.T + 0.5 * np.eye(8)
        result, cond = inv_sqrt_spd(S)
        np.testing.assert_allclose(result @ S @ result, np.eye(8), atol=1e-10)
        assert cond >= 1.0

    def test_singular_raises(self):
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.diag([1.0, 0.0]), a=1.5)
        assert exc_info.value.a == 1.5

    def test_condition_limit(self):
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(np.diag([1e9, 1.0]), cond_limit=1e6)
        assert exc_info.value.cond == pytest.approx(1e9)

    def test_stack_matches_single_matrices(self, rng):
        M = rng.standard_normal((5, 4, 4))
        stack = M @ np.swapaxes(M, 1, 2) + 0.5 * np.eye(4)
        result, cond = inv_sqrt_spd(stack)
        assert result.shape == (5, 4, 4) and cond.shape == (5,)
        for S, res, c in zip(stack, result, cond):
            single, single_cond = inv_sqrt_spd(S)
            np.testing.assert_allclose(res, single, rtol=1e-12, atol=1e-14)
            assert c == pytest.approx(single_cond, rel=1e-12)

    def test_stack_names_first_bad_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, -1.0])])
        with pytest.raises(OvercompletenessError) as exc_info:
            inv_sqrt_spd(stack, a=[1.5, 2.0, 2.5])
        assert exc_info.value.a == 2.0
        assert exc_info.value.cond == np.inf


class TestReducedGroundPair:
    def test_c_is_overlap_orthonormal(self, offline_l2):
        data = offline_l2[0]
        R = hbs_coefficients(10, 3)
        pair = reduced_ground_pair(data.m_e_offline, data.s_b, R)
        S_red = reduced_overlap(data.s_b, R)
        np.testing.assert_allclose(
            pair.C.T @ S_red @ pair.C, np.eye(2), atol=1e-8
        )

    def test_span_invariance(self, offline_l2, rng):
        data = offline_l2[4]
        R = random_stiefel(rng, 10, 3)
        O = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        e1 = reduced_ground_pair(data.m_e_offline, data.s_b, R).energy
        e2 = reduced_ground_pair(data.m_e_offline, data.s_b, R @ O).energy
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_variational_bound(self, offline_l2):
        for data in offline_l2:
            for nb in (1, 2, 4):
                pair = reduced_ground_pair(
                    data.m_e_offline, data.s_b, hbs_coefficients(10, nb)
                )
                assert pair.energy >= data.e_ref - 1e-10

    def test_ritz_values_bound_fd_values(self, grid_main, offline_l2):
        for data in offline_l2[::3]:
            fd = solve_ground_pair(fd_hamiltonian(grid_main, data.a), grid_main)
            pair = reduced_ground_pair(
                data.m_e_offline, data.s_b, hbs_coefficients(10, 3)
            )
            assert pair.mu1 >= fd.lambda1 - 1e-10
            assert pair.mu2 >= fd.lambda2 - 1e-10

    def test_variational_ordering_in_n_basis(self, offline_l2):
        for data in offline_l2:
            energies = [
                reduced_ground_pair(
                    data.m_e_offline, data.s_b, hbs_coefficients(10, nb)
                ).energy
                for nb in range(1, 5)
            ]
            assert all(
                e_next <= e + 1e-12 for e, e_next in zip(energies, energies[1:])
            )

    def test_stack_matches_single_solves(self, offline_l2):
        R = hbs_coefficients(10, 3)
        H = np.stack([d.m_e_offline for d in offline_l2])
        S = np.stack([d.s_b for d in offline_l2])
        stacked = reduced_ground_pair(H, S, R, a=[d.a for d in offline_l2])
        for k, data in enumerate(offline_l2):
            pair = reduced_ground_pair(data.m_e_offline, data.s_b, R)
            assert stacked.energy[k] == pytest.approx(pair.energy, rel=1e-13)
            assert stacked.mu3[k] == pytest.approx(pair.mu3, rel=1e-13)
            assert stacked.cond[k] == pytest.approx(pair.cond, rel=1e-10)

    def test_full_space_matches_dense_rayleigh_ritz(self, grid_main):
        # dual route: generalized eigensolver on the explicit columns
        a = 5.0
        basis = assemble_dimer(grid_main, a, 10)
        H = fd_hamiltonian(grid_main, a)
        R = hbs_coefficients(10, 10)
        M = basis.columns.T @ H.matvec(basis.columns)
        S = basis.columns.T @ basis.columns
        pair = reduced_ground_pair(M, S, R)
        dense_vals = scipy.linalg.eigh(M, S, eigvals_only=True)
        assert pair.mu1 == pytest.approx(dense_vals[0], abs=1e-10)
        assert pair.mu2 == pytest.approx(dense_vals[1], abs=1e-10)


@pytest.fixture(scope="module")
def density(grid_main, offline_l2):
    data = offline_l2[2]
    R = hbs_coefficients(10, 3)
    pair = reduced_ground_pair(data.m_e_offline, data.s_b, R)
    basis = assemble_dimer(grid_main, data.a, 10)
    return lcao_density(basis.columns, R, pair.C, grid_main)


class TestLcaoDensity:
    def test_integral_is_two(self, grid_main, density):
        assert grid_main.dx * density.sum() == pytest.approx(2.0, abs=1e-8)

    def test_nonnegative(self, density):
        assert np.all(density >= 0.0)

    def test_even_about_origin(self, density):
        np.testing.assert_allclose(density, density[::-1], atol=1e-8)
