import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite

from basisopt.grid import (
    R_MAX,
    TridiagOperator,
    build_grid,
    default_x_max,
    tail_reach,
)
from basisopt.hermite import (
    TailOverflowWarning,
    assemble_dimer,
    assemble_parity,
    hermite_functions,
)
from basisopt.reference import build_offline_single
from conftest import hermite_columns


def explicit_hermite_function(n, x):
    """Direct c_n p_n(x) exp(-x^2/2) evaluation, the recurrence oracle."""
    c = (2.0**n * math.factorial(n) * math.sqrt(math.pi)) ** -0.5
    return c * eval_hermite(n, x) * np.exp(-0.5 * x**2)


def test_recurrence_matches_explicit_polynomials():
    x = np.linspace(-10.0, 10.0, 501)
    h = hermite_functions(x, 11)
    for n in range(11):
        ref = explicit_hermite_function(n, x)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(h[n], ref, atol=1e-10 * scale)


def column_recurrence(x, n_funcs):
    """The recurrence one strided column at a time: the reference the row
    form must equal bit for bit."""
    h = np.empty((x.shape[0], n_funcs))
    h[:, 0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n_funcs > 1:
        h[:, 1] = np.sqrt(2.0) * x * h[:, 0]
    for n in range(1, n_funcs - 1):
        h[:, n + 1] = (
            np.sqrt(2.0 / (n + 1)) * x * h[:, n]
            - np.sqrt(n / (n + 1.0)) * h[:, n - 1]
        )
    return h


@pytest.mark.parametrize("n_funcs", [1, 2, 10])
def test_rows_equal_column_recurrence(n_funcs):
    x = build_grid(20.0, 1999).points - 1.7
    np.testing.assert_array_equal(
        hermite_functions(x, n_funcs).T, column_recurrence(x, n_funcs)
    )


def test_dimer_equals_column_recurrence():
    # the -a block, the mirrored +a rows, equals its own recurrence bit for
    # bit, on an odd and an even grid; B is in C order
    for n_points in (1999, 2000):
        g = build_grid(20.0, n_points)
        expected = np.hstack(
            [np.sqrt(g.dx) * column_recurrence(g.points - c, 10) for c in (1.7, -1.7)]
        )
        b = assemble_dimer(g, 1.7, 10)
        np.testing.assert_array_equal(b, expected)
        assert not b.flags.writeable
        assert b.flags.c_contiguous  # the order in which B @ R was tested


def test_ground_state_value_at_center():
    g = build_grid(20.0, 1999)
    basis = hermite_columns(g, 0.0, 1)
    at_center = basis[np.argmin(np.abs(g.points)), 0]
    assert at_center == pytest.approx(np.sqrt(g.dx) * np.pi**-0.25, rel=1e-12)


def test_columns_orthonormal():
    g = build_grid(20.0, 1999)
    cols = hermite_columns(g, 0.0, 10)
    gram = cols.T @ cols
    assert np.abs(gram - np.eye(10)).max() < 1e-6


def test_column_parity_about_center():
    g = build_grid(20.0, 1999)  # odd point count, symmetric about 0
    cols = hermite_columns(g, 0.0, 6)
    for n in range(6):
        sign = 1.0 if n % 2 == 0 else -1.0
        np.testing.assert_allclose(cols[:, n], sign * cols[::-1, n], atol=1e-12)


def test_harmonic_oscillator_residual():
    # eigenvalue residual is pure discretization error: O(dx^2), so a
    # 4x finer grid must shrink it by ~16x
    def residuals(n_points):
        g = build_grid(20.0, n_points)
        inv_dx2 = 1.0 / g.dx**2
        h_ho = TridiagOperator(
            diag=inv_dx2 + 0.5 * g.points**2,
            offdiag=np.full(g.n_points - 1, -0.5 * inv_dx2),
        )
        cols = hermite_columns(g, 0.0, 10)
        return [
            np.linalg.norm(h_ho.matvec(cols[:, n]) - (n + 0.5) * cols[:, n])
            for n in range(10)
        ]

    coarse = residuals(1999)
    fine = residuals(7999)
    for rc, rf in zip(coarse, fine):
        assert rc < 5e-3
        assert rf < rc / 10


class TestAssembleDimer:
    def test_coincident_centers(self):
        g = build_grid(20.0, 1999)
        b = assemble_dimer(g, 0.0, 4)
        np.testing.assert_array_equal(b[:, :4], b[:, 4:])

    def test_block_order(self):
        g = build_grid(20.0, 1999)
        b = assemble_dimer(g, 2.0, 3)
        np.testing.assert_array_equal(
            b[:, :3], hermite_columns(g, 2.0, 3)
        )
        np.testing.assert_array_equal(
            b[:, 3:], hermite_columns(g, -2.0, 3)
        )

    def test_far_centers_decoupled(self):
        g = build_grid(25.0, 2499)
        cross = {}
        for a in (5.0, 7.0):
            b = assemble_dimer(g, a, 10)
            cross[a] = np.abs(b[:, :10].T @ b[:, 10:]).max()
        assert cross[7.0] < 1e-6
        assert cross[7.0] < 1e-3 * cross[5.0]

    def test_near_centers_overcomplete(self):
        g = build_grid(20.0, 1999)
        b = assemble_dimer(g, 0.1, 4)
        sigma = b[:, :4].T @ b[:, 4:]
        assert np.abs(sigma - np.eye(4)).max() < 0.3

    def test_overlap_block_structure(self):
        g = build_grid(20.0, 1999)
        b = assemble_dimer(g, 2.5, 8)
        overlap = b.T @ b
        assert np.abs(overlap[:8, :8] - np.eye(8)).max() < 1e-6
        assert np.abs(overlap[8:, 8:] - np.eye(8)).max() < 1e-6

    def test_tail_overflow_warns(self):
        g = build_grid(10.0, 999)
        with pytest.warns(TailOverflowWarning):
            assemble_dimer(g, 5.0, 10)


@pytest.mark.parametrize("assemble", [assemble_dimer, assemble_parity])
def test_tail_warning_names_the_caller(assemble):
    with pytest.warns(TailOverflowWarning) as record:
        assemble(build_grid(10.0, 999), 5.0, 10)
    assert record[0].filename == __file__


def test_center_outside_box_rejected():
    g = build_grid(5.0, 99)
    with pytest.warns(TailOverflowWarning), pytest.raises(ValueError):
        assemble_dimer(g, 6.0, 3)


def test_n_funcs_validated():
    with pytest.raises(ValueError):
        hermite_functions(np.zeros(3), 0)


@pytest.mark.parametrize("n_points", [1999, 2000])
def test_parity_parts_are_the_mirror_combinations_of_the_dimer(n_points):
    # with B_- = P B_+ D, the parts are B_+ +- P B_+ on x >= 0, bit for bit
    g = build_grid(20.0, n_points)
    B = assemble_dimer(g, 1.7, 10)
    plus, mirrored = B[n_points // 2 :, :10], B[::-1][n_points // 2 :, :10]
    parts = assemble_parity(g, 1.7, 10)
    np.testing.assert_array_equal(parts[0], plus + mirrored)
    np.testing.assert_array_equal(parts[1], plus - mirrored)
    np.testing.assert_array_equal(
        B[:, 10:], B[::-1, :10] * (-1.0) ** np.arange(10)
    )


@pytest.mark.parametrize("n_points", [1999, 2000])
def test_parity_parts_into_a_points_last_view(n_points):
    # the offline build receives the parts in rows of (parity, function,
    # point), through the transposed view; the values are those of the
    # allocating form bit for bit, with the recurrence rows given or not
    g = build_grid(20.0, n_points)
    half = n_points - n_points // 2
    F = np.full((2, 11, half), np.nan)
    rows = np.empty((10, n_points))
    out = F[:, :10].transpose(0, 2, 1)
    assert assemble_parity(g, 1.7, 10, out, rows) is out
    assert np.array_equal(F[:, :10], assemble_parity(g, 1.7, 10).transpose(0, 2, 1))
    assert np.isnan(F[:, 10]).all()


def test_parity_path_keeps_the_dimer_checks():
    g = build_grid(5.0, 99)
    with pytest.warns(TailOverflowWarning), pytest.raises(ValueError):
        assemble_parity(g, 6.0, 3)
    with pytest.warns(TailOverflowWarning), pytest.raises(ValueError):
        build_offline_single(g, 6.0, 3)
    with pytest.warns(TailOverflowWarning):
        build_offline_single(build_grid(10.0, 999), 5.0, 10)


class TestDefaultBox:
    @pytest.mark.parametrize("a_max", [1.5, 5.0])
    def test_default_box_holds_the_tails(self, a_max):
        # sqrt(2N) + 10 is whole at N = 8, 18 and 32: the margin stays strict
        for n_funcs in range(1, 41):
            x_max = default_x_max(a_max, n_funcs)
            assert x_max - a_max > tail_reach(n_funcs)
            with warnings.catch_warnings():
                warnings.simplefilter("error", TailOverflowWarning)
                assemble_dimer(build_grid(x_max, 99), a_max, n_funcs)

    @pytest.mark.parametrize("a_max", [0.5, 3.0, 5.0])
    def test_same_box_up_to_twelve_functions(self, a_max):
        for n_funcs in range(1, 13):
            assert default_x_max(a_max, n_funcs) == a_max + R_MAX
        assert default_x_max(a_max, 13) > a_max + R_MAX

    @pytest.mark.parametrize("n_funcs", [8, 13, 18])
    def test_check_reads_the_same_reach(self, n_funcs):
        # a box that ends where the tails reach warns; one unit more does not
        edge = 2.0 + tail_reach(n_funcs)
        with pytest.warns(TailOverflowWarning):
            assemble_dimer(build_grid(edge, 99), 2.0, n_funcs)
        assemble_dimer(build_grid(edge + 1.0, 99), 2.0, n_funcs)
