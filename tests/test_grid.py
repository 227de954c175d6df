import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from basisopt.grid import (
    TridiagOperator,
    build_grid,
    fd_gradient,
    fd_hamiltonian,
    potential,
)
from conftest import h1_metric, to_dense


class TestBuildGrid:
    def test_reference_spacing(self):
        g = build_grid(20.0, 1999)
        assert g.dx == pytest.approx(0.02, abs=1e-15)
        assert g.points[0] == pytest.approx(-19.98)
        assert g.points[-1] == pytest.approx(19.98)

    def test_three_point_grid(self):
        g = build_grid(1.0, 3)
        np.testing.assert_allclose(g.points, [-0.5, 0.0, 0.5], atol=1e-15)

    def test_spacing_identity(self):
        g = build_grid(7.3, 101)
        assert g.dx * (g.n_points + 1) == pytest.approx(2 * g.x_max, rel=1e-15)

    def test_points_increasing_and_symmetric(self):
        g = build_grid(5.0, 99)
        assert np.all(np.diff(g.points) > 0)
        np.testing.assert_allclose(g.points, -g.points[::-1], atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 1999, 2000, 8000, 8001])
    @pytest.mark.parametrize("x_max", [1.0, 7.3, 20.0, 25.0])
    def test_points_mirror_symmetric_bit_for_bit(self, x_max, n):
        # x_{n+1-j} = -x_j exactly and x = 0 at the centre of an odd grid,
        # so V and the diagonal of H_FD are exactly mirror-symmetric too
        g = build_grid(x_max, n)
        assert np.array_equal(g.points, -g.points[::-1])
        if n % 2:
            assert g.points[n // 2] == 0.0
        diag = fd_hamiltonian(g, 1.5).diag
        assert np.array_equal(diag, diag[::-1])

    @pytest.mark.parametrize(
        "x_max,n",
        [(0.0, 10), (-1.0, 10), (2.0, 2), (2.0, 0), (np.nan, 10), (np.inf, 10)],
    )
    def test_invalid_arguments(self, x_max, n):
        with pytest.raises(ValueError):
            build_grid(x_max, n)


class TestPotential:
    def test_center_value(self):
        assert potential(1.0, 0.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_double_zeros_at_wells(self):
        for a in (0.5, 1.0, 3.7):
            assert potential(a, a) == 0.0
            assert potential(a, -a) == 0.0

    def test_quartic_limit(self):
        assert potential(0.0, 2.0) == pytest.approx(4.0, rel=1e-14)

    @given(
        a=st.floats(0.0, 10.0),
        x=st.floats(-20.0, 20.0),
    )
    def test_even_symmetry(self, a, x):
        assert potential(a, x) == pytest.approx(potential(a, -x), rel=1e-12, abs=1e-300)

    @given(a=st.floats(0.0, 10.0), x=st.floats(-50.0, 50.0))
    def test_nonnegative(self, a, x):
        assert potential(a, x) >= 0.0

    def test_harmonic_well_limit(self):
        # leading relative deviation from s^2/2 near the well is |s|/a
        s = np.linspace(-1.0, 1.0, 41)
        harmonic = s**2 / 2
        rel = {}
        for a in (50.0, 200.0):
            v = potential(a, a + s)
            dev = np.abs(v - harmonic) / np.maximum(harmonic, 1e-12)
            rel[a] = dev[np.abs(s) > 1e-6].max()
        assert rel[200.0] < 1e-2
        assert rel[200.0] < rel[50.0] / 3

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            potential(-1.0, 0.0)


class TestFdHamiltonian:
    def test_stencil_entries(self):
        g = build_grid(1.0, 3)
        H = fd_hamiltonian(g, 0.5)  # x = 0.5 is the well minimum, on-grid
        inv_dx2 = 1.0 / g.dx**2
        assert H.diag[2] == pytest.approx(inv_dx2, rel=1e-14)
        np.testing.assert_allclose(H.offdiag, -0.5 * inv_dx2)

    def test_dense_symmetric(self):
        H = to_dense(fd_hamiltonian(build_grid(5.0, 40), 1.0))
        assert np.array_equal(H, H.T)

    def test_lowest_eigenvalue_dense_oracle(self):
        g = build_grid(20.0, 1999)
        H = fd_hamiltonian(g, 1.5)
        banded = scipy.linalg.eigh_tridiagonal(
            H.diag, H.offdiag, select="i", select_range=(0, 0)
        )[0][0]
        dense = np.linalg.eigvalsh(to_dense(H))[0]
        assert banded == pytest.approx(dense, abs=1e-10)

    def test_matvec_matches_dense(self, rng):
        g = build_grid(4.0, 37)
        H = fd_hamiltonian(g, 0.8)
        # the FD off-diagonal is constant; a random one checks its indexing
        varying = TridiagOperator(H.diag, rng.standard_normal(36))
        for op in (H, varying):
            v = rng.standard_normal(37)
            np.testing.assert_allclose(op.matvec(v), to_dense(op) @ v, atol=1e-12)
            M = rng.standard_normal((37, 3))
            np.testing.assert_allclose(op.matvec(M), to_dense(op) @ M, atol=1e-12)


class TestH1Metric:
    def test_stencil(self):
        g = build_grid(3.0, 29)
        A = h1_metric(g)
        assert A.diag[0] == pytest.approx(1.0 + 2.0 / g.dx**2, rel=1e-14)

    def test_smallest_eigenvalue_at_least_one(self):
        g = build_grid(3.0, 29)
        A = h1_metric(g)
        vals = scipy.linalg.eigh_tridiagonal(A.diag, A.offdiag, eigvals_only=True)
        assert vals[0] >= 1.0 - 1e-12

    def test_gradient_factors_the_laplacian(self, rng):
        # D^T D / dx^2 is the metric's Laplacian part: A - I
        g = build_grid(3.0, 29)
        neg_laplacian = to_dense(h1_metric(g)) - np.eye(g.n_points)
        M = rng.standard_normal((g.n_points, 3))
        D = fd_gradient(M)
        assert D.shape == (g.n_points + 1, 3)
        np.testing.assert_allclose(
            D.T @ D / g.dx**2, M.T @ neg_laplacian @ M, rtol=1e-12
        )
        v = M[:, 0]
        np.testing.assert_array_equal(fd_gradient(v), D[:, 0])

    def test_gaussian_h1_norm(self):
        # analytic H1 norm^2 of exp(-x^2/2): sqrt(pi) + sqrt(pi)/2
        g = build_grid(20.0, 1999)
        f = np.exp(-0.5 * g.points**2)
        quad = g.dx * f @ h1_metric(g).matvec(f)
        exact = 1.5 * np.sqrt(np.pi)
        assert quad == pytest.approx(exact, rel=1e-3)


class TestOutArguments:
    @pytest.mark.parametrize("shape", [(37,), (37, 3)])
    def test_fd_gradient_out_equals_allocating_form(self, rng, shape):
        v = rng.standard_normal(shape)
        out = np.full((shape[0] + 1, *shape[1:]), np.nan)
        assert fd_gradient(v, out) is out
        np.testing.assert_array_equal(out, fd_gradient(v))

    @pytest.mark.parametrize("half", [1000, 1001])
    def test_fd_gradient_on_points_last_views(self, rng, half):
        # the offline build passes (points, parity, function) views of
        # points-last arrays, input and out alike
        F = rng.standard_normal((2, 4, half))
        DF = np.full((2, 4, half + 1), np.nan)
        out = DF.transpose(2, 0, 1)
        assert fd_gradient(F.transpose(2, 0, 1), out) is out
        assert np.array_equal(out, fd_gradient(F.transpose(2, 0, 1)))
        assert np.array_equal(out, fd_gradient(F.transpose(2, 0, 1).copy()))
