import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from basisopt import _lapack as lapack, reference
from basisopt.galerkin import hbs_coefficients, inv_sqrt_spd, reduced_ground_pair
from basisopt.grid import TridiagOperator, build_grid, fd_hamiltonian
from basisopt.hermite import assemble_dimer
from basisopt.reference import (
    METRICS,
    Measure,
    build_offline,
    build_offline_single,
    cache_key,
    default_measure,
    load_cached,
    load_or_build_each,
    save_offline_entry,
    solve_ground_pair,
    stack_offline,
    uniform_measure,
)
from conftest import full_grid_record, h1_metric, hermite_columns, to_dense

OFFLINE_FIELDS = ("g_a", "s_a", "m_e", "s_b")
RECORD_FIELDS = ("g", "g_lap", "s_b", "m_e", "s_lap")


@pytest.fixture(scope="module")
def offline_stress():
    """The L2 stack of the default measure at the stress setting: 8000
    points on [-25, 25] with N = 20."""
    return build_offline(build_grid(25.0, 8000), default_measure(), 20, "L2")


class TestMeasure:
    def test_default_support(self):
        m = default_measure()
        assert len(m.points) == 10
        assert m.points[0] == pytest.approx(1.5)
        assert m.points[-1] == pytest.approx(5.0)
        assert m.points[1] == pytest.approx(1.5 + 3.5 / 9)

    def test_default_weights_are_spacing(self):
        # Riemann-sum weights: each point carries the spacing 3.5/9, so
        # aggregated criteria match the reference tables.
        m = default_measure()
        assert all(w == pytest.approx(3.5 / 9, rel=1e-15) for w in m.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            Measure(points=(2.0, 1.0), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            Measure(points=(1.0, 2.0), weights=(0.5, -0.5))
        with pytest.raises(ValueError):
            Measure(points=(1.0,), weights=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least one"):
            Measure(points=(), weights=())

    @pytest.mark.parametrize(
        "points, weights",
        [
            ((1.5, np.nan, 3.0), (0.5, 0.5, 0.5)),
            ((1.5, 2.0, 3.0), (0.5, np.nan, 0.5)),
            ((1.5, 2.0, np.inf), (0.5, 0.5, 0.5)),
            ((1.5, 2.0, 3.0), (0.5, np.inf, 0.5)),
        ],
    )
    def test_non_finite_rejected(self, points, weights):
        # NaN passes every ordering check, so finiteness is checked first
        with pytest.raises(ValueError, match="finite"):
            Measure(points=points, weights=weights)

    def test_single_point(self):
        m = uniform_measure(1.9, 1.9, 1)
        assert m.points == (1.9,)
        assert m.weights == (1.0,)


class TestSolveGroundPair:
    def test_orthonormality_and_residual(self, grid_main):
        H = fd_hamiltonian(grid_main, 2.0)
        pair = solve_ground_pair(H)
        assert pair.lambda1 <= pair.lambda2
        # unit norm in the sqrt(dx)-scaled convention = dx-orthonormal
        assert abs(pair.phi1 @ pair.phi1 - 1.0) < 1e-10
        assert abs(pair.phi2 @ pair.phi2 - 1.0) < 1e-10
        assert abs(pair.phi1 @ pair.phi2) < 1e-10
        for lam, phi in [(pair.lambda1, pair.phi1), (pair.lambda2, pair.phi2)]:
            assert np.linalg.norm(H.matvec(phi) - lam * phi) < 1e-8

    @pytest.mark.parametrize("n_points", [999, 1000])
    @pytest.mark.parametrize("a", [0.0, 1.5, 5.0])
    def test_parity_blocks_give_the_two_lowest_eigenvalues(self, n_points, a):
        # a = 5 has a tunnelling gap of 7.1e-7, which the split never resolves
        H = fd_hamiltonian(build_grid(20.0, n_points), a)
        dense = to_dense(H)
        lowest = np.linalg.eigvalsh(dense)[:2]
        pair = solve_ground_pair(H)
        tol = 1e-15 * np.abs(dense).sum(axis=1).max()  # bisection's, |H| ~ 4e4
        assert abs(pair.lambda1 - lowest[0]) <= tol
        assert abs(pair.lambda2 - lowest[1]) <= tol
        # the mirrored vectors have exact parity
        assert np.array_equal(pair.phi1, pair.phi1[::-1])
        assert np.array_equal(pair.phi2, -pair.phi2[::-1])

    def test_quartic_grid_refinement_oracle(self):
        energies = {
            n: solve_ground_pair(fd_hamiltonian(build_grid(20.0, n), 0.0)).energy
            for n in (1999, 3999, 7999)
        }
        # O(dx^2) scheme: Richardson from the two coarser grids lands
        # much closer to the finest grid than the coarse value itself
        richardson = (4.0 * energies[3999] - energies[1999]) / 3.0
        assert energies[1999] == pytest.approx(energies[7999], abs=2e-4)
        assert richardson == pytest.approx(energies[7999], abs=1e-5)

    def test_harmonic_limit(self):
        # wells at +-a carry the anharmonic shift E(a) - 1 = -3/(4a^2)
        # + O(a^-4) (derived in acceptance check 6), so convergence to two
        # decoupled unit oscillators is quadratic
        devs = {}
        for a, x_max, n_points in [(7.0, 22.0, 2199), (20.0, 35.0, 3499)]:
            g = build_grid(x_max, n_points)
            pair = solve_ground_pair(fd_hamiltonian(g, a))
            assert pair.lambda1 == pytest.approx(pair.lambda2, abs=1e-6)
            devs[a] = pair.energy - 1.0
        assert abs(devs[7.0]) < 2e-2
        assert abs(devs[20.0]) < 2.5e-3
        for a, dev in devs.items():
            assert dev * a**2 == pytest.approx(-0.75, abs=5e-2)

    def test_eigenvector_parity(self, grid_main):
        pair = solve_ground_pair(fd_hamiltonian(grid_main, 1.8))
        phi1, phi2 = pair.phi1, pair.phi2
        even = min(
            np.linalg.norm(phi1 - phi1[::-1]), np.linalg.norm(phi1 + phi1[::-1])
        )
        assert np.linalg.norm(phi1 - phi1[::-1]) == pytest.approx(even)
        assert even < 1e-8
        odd = min(
            np.linalg.norm(phi2 - phi2[::-1]), np.linalg.norm(phi2 + phi2[::-1])
        )
        assert np.linalg.norm(phi2 + phi2[::-1]) == pytest.approx(odd)
        assert odd < 1e-8

    @pytest.mark.parametrize("n_points", [3, 4, 5, 6])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_smallest_grids_match_dense(self, n_points, a):
        # at 3 points the odd block is 1 x 1 with no off-diagonal
        H = fd_hamiltonian(build_grid(4.0, n_points), a)
        dense = to_dense(H)
        lowest = np.linalg.eigvalsh(dense)[:2]
        pair = solve_ground_pair(H)
        tol = 1e-15 * np.abs(dense).sum(axis=1).max()
        assert abs(pair.lambda1 - lowest[0]) <= tol
        assert abs(pair.lambda2 - lowest[1]) <= tol
        for lam, phi in [(pair.lambda1, pair.phi1), (pair.lambda2, pair.phi2)]:
            assert np.linalg.norm(dense @ phi - lam * phi) <= tol

    @pytest.mark.parametrize(
        "where, index, value",
        [("diag", 7, np.nan), ("offdiag", 7, np.nan), ("diag", 50, np.inf)],
    )
    def test_non_finite_hamiltonian_fails_closed(self, where, index, value):
        # index 7 of a 101-point H lies in the half the parity split discards
        H = fd_hamiltonian(build_grid(20.0, 101), 1.5)
        arrays = {"diag": H.diag.copy(), "offdiag": H.offdiag.copy()}
        arrays[where][index] = value
        with pytest.raises(reference.NumericalFailure, match="not finite"):
            solve_ground_pair(TridiagOperator(**arrays))

    def test_nan_residual_fails_closed(self, monkeypatch):
        # NaN > 1e-8 is False: the residual check must not let it through
        H = fd_hamiltonian(build_grid(20.0, 101), 1.5)
        monkeypatch.setattr(
            reference,
            "_lowest_eigenpair",
            lambda d, e, floor: (np.nan, np.ones(len(d))),
        )
        with pytest.raises(reference.NumericalFailure, match="residual nan"):
            solve_ground_pair(H)


def _two_wells(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """A Jacobi block of a narrow well (one deep site) and a broad one (a
    free chain), joined by a weak link; the narrow well's level lies delta
    below the broad well's. The all-ones start overlaps the broad state
    more, so the first shifts rho - eta lie between the two levels."""
    broad, narrow = np.full(25, 2.0), np.full(25, 10.0)
    narrow[12] = 0.0
    chain = np.full(24, -1.0)
    gap = np.linalg.eigvalsh(_dense(broad, chain))[0] - np.linalg.eigvalsh(
        _dense(narrow, chain)
    )[0]
    return np.concatenate([broad, narrow + gap - delta]), np.concatenate(
        [chain, [-1e-3], chain]
    )


def _dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return to_dense(TridiagOperator(diag=d, offdiag=e))


def _recording(factor, solve, calls: list):
    """dpttrf and dpttrs that record factor's info and each solve."""

    def dpttrf(d, e):
        *factors, info = factor(d, e)
        calls.append(("factor", info))
        return (*factors, info)

    def dpttrs(*args):
        calls.append(("solve", 0))
        return solve(*args)

    return dpttrf, dpttrs


def _solves(calls: list) -> int:
    return sum(kind == "solve" for kind, _ in calls)


def _spd_stack(rng, k: int, n: int) -> np.ndarray:
    """K random SPD matrices of size n."""
    M = rng.standard_normal((k, n, n))
    return M @ M.swapaxes(1, 2) + np.eye(n)


class TestLapackLoad:
    """lapack.flapack loads scipy's LAPACK extension without the scipy.linalg
    package, and falls back on scipy.linalg.lapack without the file."""

    @pytest.fixture
    def uncached(self):
        """lapack.flapack with an empty cache, emptied again afterwards."""
        lapack.flapack.cache_clear()
        yield
        lapack.flapack.cache_clear()

    def test_solve_then_scipy_import_shares_the_routines(self):
        src = os.path.dirname(os.path.dirname(reference.__file__))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from basisopt import reference\n"
            "from basisopt.grid import build_grid\n"
            "reference.solve_configuration(build_grid(20.0, 199), 2.0)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "import scipy.linalg.lapack as lapack\n"
            "factor, solve = reference._lapack_pt()\n"
            "assert factor is lapack.dpttrf and solve is lapack.dpttrs\n"
            "from basisopt._lapack import flapack\n"
            "assert flapack().dtrtri is lapack.dtrtri\n"
            "d, e = np.array([2.0, 1.0, 3.0]), np.array([0.5, -0.25])\n"
            "vals = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)\n"
            "dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)\n"
            "assert np.allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=1e-14)\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    @pytest.mark.parametrize("lookup", ["missing", "unloadable"])
    def test_fallback_gives_the_same_pair(
        self, monkeypatch, tmp_path, uncached, lookup
    ):
        import scipy.linalg.lapack as scipy_lapack

        grid = build_grid(20.0, 399)
        stack = _spd_stack(np.random.default_rng(5), 3, 6)
        # the extension loaded from its file, with no module to reuse
        monkeypatch.delitem(sys.modules, lapack.FLAPACK)
        factor, solve = reference._lapack_pt()
        assert factor is scipy_lapack.dpttrf and solve is scipy_lapack.dpttrs
        assert lapack.flapack().dtrtri is scipy_lapack.dtrtri
        direct_inverse = inv_sqrt_spd(stack)
        direct_calls = []
        with monkeypatch.context() as m:
            routines = _recording(factor, solve, direct_calls)
            m.setattr(reference, "_lapack_pt", lambda: routines)
            direct = reference.solve_configuration(grid, 2.0)
        # no file, or one that does not load: the routines are read from
        # scipy.linalg.lapack
        lapack.flapack.cache_clear()
        monkeypatch.delitem(sys.modules, lapack.FLAPACK)
        path = None
        if lookup == "unloadable":
            path = tmp_path / "_flapack.so"
            path.write_bytes(b"not a shared object")
        monkeypatch.setattr(lapack, "_flapack_file", lambda: path and str(path))
        assert lapack.flapack() is scipy_lapack
        assert np.array_equal(inv_sqrt_spd(stack), direct_inverse)
        fallback_calls = []
        recorded = _recording(factor, solve, fallback_calls)
        monkeypatch.setattr(scipy_lapack, "dpttrf", recorded[0])
        monkeypatch.setattr(scipy_lapack, "dpttrs", recorded[1])
        fallback = reference.solve_configuration(grid, 2.0)
        assert _solves(fallback_calls) == _solves(direct_calls) > 0
        assert (fallback.lambda1, fallback.lambda2) == (direct.lambda1, direct.lambda2)
        assert np.array_equal(fallback.phi1, direct.phi1)
        assert np.array_equal(fallback.phi2, direct.phi2)


class TestLowestEigenpair:
    """The certified inverse iteration on Jacobi blocks built to take its
    fallback and slow paths, against dense eigh."""

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        """Records dpttrf's info and each dpttrs call."""
        calls = []
        routines = _recording(*reference._lapack_pt(), calls)
        monkeypatch.setattr(reference, "_lapack_pt", lambda: routines)
        return calls

    @staticmethod
    def check_against_dense(d, e, vector_tol):
        lam, x = reference._lowest_eigenpair(d, e)
        dense = _dense(d, e)
        vals, vecs = np.linalg.eigh(dense)
        norm = np.abs(dense).sum(axis=1).max()
        assert abs(lam - vals[0]) <= 1e-15 * norm
        assert (x > 0).all()
        v = vecs[:, 0] * np.sign(vecs[:, 0].sum())
        assert np.abs(x - v).max() <= vector_tol

    def test_rejected_shift_falls_back(self, lapack_calls):
        # the all-ones start barely overlaps the state on the low site, so
        # rho - eta lies far above lambda_min and fails to factor
        d, e = np.full(50, 10.0), np.full(49, -1.0)
        d[37] = 0.0
        self.check_against_dense(d, e, 1e-14)
        infos = [info for kind, info in lapack_calls if kind == "factor"]
        assert infos[0] > 0 and infos[1] == 0  # then the Gershgorin shift

    def test_close_lowest_pair_converges(self, lapack_calls):
        # a gap of 1e-6: the rejected shifts keep the iteration slow for a
        # while; the vector is determined to about eps |T| / gap
        d, e = _two_wells(1e-6)
        self.check_against_dense(d, e, 1e-9)
        assert any(kind == "factor" and info > 0 for kind, info in lapack_calls)
        assert 20 < _solves(lapack_calls) < reference._MAX_STEPS

    @pytest.mark.parametrize("a", [1.5, 2.7, 5.0])
    def test_blocks_start_from_the_full_gershgorin_bound(self, lapack_calls, a):
        # the even block of an odd grid couples its first row by sqrt(2) e:
        # its own Gershgorin bound is near -517 at 1999 points, and from
        # there it took 10-11 solves. H's bound, min V >= 0, bounds every
        # block too; from it each block takes 6-7 (measured), as on even grids
        solve_ground_pair(fd_hamiltonian(build_grid(20.0, 1999), a))
        assert _solves(lapack_calls) <= 14

    def test_step_cap_fails_closed(self, lapack_calls):
        # a gap of 1e-7: every shift between the levels fails, and the last
        # one that passed converges too slowly to meet the stop rule
        d, e = _two_wells(1e-7)
        with pytest.raises(reference.NumericalFailure, match="50 steps"):
            reference._lowest_eigenpair(d, e)
        assert _solves(lapack_calls) == 50


class TestBuildOffline:
    def test_matrices_symmetric(self, offline_l2, offline_h1):
        for offline in (offline_l2, offline_h1):
            for name in ("s_a", "m_e", "s_b"):  # g_a is 2 x 2N
                for m in getattr(offline, name):
                    assert np.abs(m - m.T).max() < 1e-12

    def test_overlaps_positive_definite(self, offline_l2, offline_h1):
        for offline in (offline_l2, offline_h1):
            for s_b, s_a in zip(offline.s_b, offline.s_a):
                assert np.linalg.eigvalsh(s_b)[0] > 0
                assert np.linalg.eigvalsh(s_a)[0] > 0

    def test_projector_rank_and_trace_bound(self, offline_l2, offline_stress):
        # g_a^T g_a has rank 2 by its shape; s_b - g_a^T g_a = B^T (I - Phi
        # Phi^T) B is positive semidefinite, so g s_b^-1 g^T <= I and the
        # captured trace Tr(g_a^T g_a s_b^-1) <= 2; the trace through
        # inv(s_b) is read only where s_b is well conditioned (cond(s_b) is
        # about 5e14 at a = 1.5, N = 10)
        for offline in (offline_l2, offline_stress):
            assert offline.g_a.shape[1:] == (2, offline.s_b.shape[1])
            for g_a, s_b in zip(offline.g_a, offline.s_b):
                m_a = g_a.T @ g_a
                gap = np.linalg.eigvalsh(s_b - m_a)[0]
                assert gap >= -1e-13 * np.abs(s_b).max()
                if np.linalg.cond(s_b) <= 1e6:
                    assert np.trace(m_a @ np.linalg.inv(s_b)) <= 2.0 + 1e-9

    def test_full_capture_with_augmented_basis(self, grid_main):
        # basis containing the exact FD pair captures the full trace 2
        pair = solve_ground_pair(fd_hamiltonian(grid_main, 2.0))
        extra = hermite_columns(grid_main, 0.0, 2)
        B = np.column_stack([pair.phi1, pair.phi2, extra])
        phis = np.column_stack([pair.phi1, pair.phi2])
        G = phis.T @ B
        m_a = G.T @ G
        s_b = B.T @ B
        assert np.trace(m_a @ np.linalg.inv(s_b)) == pytest.approx(2.0, abs=1e-8)

    def test_ritz_values_decrease_with_n_funcs(
        self, offline_l2, offline_l2_n5
    ):
        # nested Hermite spans: the full-space Ritz pair improves with N;
        # skip the smallest separations where the N=10 dimer overlap is
        # numerically singular
        d5, d10 = offline_l2_n5, offline_l2
        for k, a in enumerate(d5.a):
            if a < 2.5:
                continue
            p5 = reduced_ground_pair(d5.m_e[k], d5.s_b[k], np.eye(5))
            p10 = reduced_ground_pair(d10.m_e[k], d10.s_b[k], np.eye(10))
            assert p10.mu1 <= p5.mu1 + 1e-12
            assert p10.mu2 <= p5.mu2 + 1e-12

    def test_metrics_match_direct_projections(self, grid_main):
        # g_a and s_a of L2 and s_b, from half-grid parity blocks, match the
        # full-grid products to rounding; H1 and m_e, assembled from the
        # factored Laplacian, match the operators applied to B
        a, n = 2.3, 6
        H = fd_hamiltonian(grid_main, a)
        pair = solve_ground_pair(H)
        B = assemble_dimer(grid_main, a, n)
        phis = np.column_stack([pair.phi1, pair.phi2])

        def sym(m):
            return 0.5 * (m + m.T)

        for metric, AB in (("L2", B), ("H1", h1_metric(grid_main).matvec(B))):
            record = build_offline_single(grid_main, a, n)
            data = stack_offline([record], [1.0])[metric]
            G = phis.T @ AB
            direct = (
                G,
                sym(B.T @ AB),
                sym(B.T @ H.matvec(B)),
                sym(B.T @ B),
            )
            assert data.e_ref[0] == pair.energy
            for name, expected in zip(OFFLINE_FIELDS, direct):
                got = getattr(data, name)[0]
                scale = np.abs(expected).max()
                if name == "m_e":
                    assert np.abs(got - expected).max() <= 1e-13 * scale
                elif metric == "L2" or name == "s_b":
                    assert np.abs(got - expected).max() <= 1e-14 * scale, name
                else:
                    assert np.abs(got - expected).max() <= 1e-12 * scale, name

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double here",
    )
    @pytest.mark.parametrize("a", [2.3, 5.0])
    def test_m_e_matches_long_double_product(self, grid_main, a):
        # B^T H_FD B in long double, with H_FD applied to B as a tridiagonal
        # matrix; m_e from B^T V B and the factored Laplacian avoids the
        # cancellation of the 1/dx^2 terms that product makes in double
        n = 10
        B = assemble_dimer(grid_main, a, n)
        ld = np.longdouble
        x, a_ld = grid_main.points.astype(ld), ld(a)
        V = (x - a_ld) ** 2 * (x + a_ld) ** 2 / (8 * a_ld**2 + 4)
        inv_dx2 = 1 / ld(grid_main.dx) ** 2
        B_ld = B.astype(ld)
        HB = (inv_dx2 + V)[:, None] * B_ld
        HB[:-1] -= inv_dx2 / 2 * B_ld[1:]
        HB[1:] -= inv_dx2 / 2 * B_ld[:-1]
        exact = B_ld.T @ HB
        exact = (exact + exact.T) / 2
        m_e = build_offline_single(grid_main, a, n).m_e
        assert np.abs(m_e - exact).max() <= 3e-15 * np.abs(m_e).max()

    def test_unknown_metric_rejected(self, tmp_path, grid_main, monkeypatch):
        # rejected before any FD solve or cache write
        calls = []
        monkeypatch.setattr(
            reference, "solve_ground_pair", lambda *args: calls.append(args)
        )
        measure = uniform_measure(1.5, 3.0, 4)
        message = "unknown metric 'H2', expected one of ('L2', 'H1')"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_offline(grid_main, measure, 3, "H2", str(tmp_path))
        assert calls == [] and os.listdir(tmp_path) == []

    @pytest.fixture
    def records(self, grid_main):
        return [build_offline_single(grid_main, a, 4) for a in (1.5, 2.5, 4.0)]

    def test_one_pass_stacks_share_their_arrays(self, records):
        stacks = stack_offline(records, [0.5, 1.0, 2.0])
        l2, h1 = stacks["L2"], stacks["H1"]
        assert list(stacks) == list(METRICS)
        assert l2.s_a is l2.s_b is h1.s_b
        for name in ("a", "weight", "e_ref", "m_e"):
            assert getattr(l2, name) is getattr(h1, name), name

    def test_one_pass_stacks_equal_the_per_metric_formulas(self, records):
        # the stacks a pass for one metric at a time made, bit for bit:
        # G_H1 = g + g_lap and S_H1 = s_lap + s_b, each summed in place
        def stack(name):
            return np.stack([getattr(r, name) for r in records])

        g_h1, s_h1 = stack("g"), stack("s_lap")
        g_h1 += stack("g_lap")
        s_h1 += stack("s_b")
        per_metric = {
            "L2": {"g_a": stack("g"), "s_a": stack("s_b")},
            "H1": {"g_a": g_h1, "s_a": s_h1},
        }
        weights = [0.5, 1.0, 2.0]
        shared = {
            "a": np.array([r.a for r in records]),
            "weight": np.array(weights),
            "e_ref": np.array([r.e_ref for r in records]),
            "m_e": stack("m_e"),
            "s_b": stack("s_b"),
        }
        for metric, data in stack_offline(records, weights).items():
            for name, expected in {**shared, **per_metric[metric]}.items():
                got = getattr(data, name)
                assert got.flags.c_contiguous, (metric, name)
                assert got.dtype == expected.dtype, (metric, name)
                assert np.array_equal(got, expected), (metric, name)

    def test_je_identical_on_both_stacks(self, records, rng):
        # J_E reads m_e and s_b only, which the two stacks share
        from basisopt.criteria import CriterionKind, make_criterion

        stacks = stack_offline(records, [0.5, 1.0, 2.0])
        R = hbs_coefficients(4, 2) + 0.1 * rng.standard_normal((4, 2))
        l2, h1 = (make_criterion(CriterionKind.JE, stacks[m])(R) for m in METRICS)
        assert l2[0] == h1[0]
        assert np.array_equal(l2[1], h1[1])

    @pytest.mark.parametrize("count", [0, 2])
    def test_weight_count_checked_before_stacking(self, count):
        # the count is checked first: no record is read, and an empty list
        # gets this message, not the one np.stack gives for no arrays
        with pytest.raises(ValueError, match=f"{count} records but 1 weights"):
            stack_offline([object()] * count, [1.0])

    def test_compressed_matches_dense_projector(self, rng):
        # small-instance oracle: j_A from the compressed matrices equals
        # -Tr(P_FD Pi A Pi) with the explicit A-orthogonal projector
        from basisopt.criteria import eval_JA
        from basisopt.galerkin import expand
        from basisopt.hermite import assemble_dimer
        from basisopt.stiefel import random_stiefel
        import warnings

        g = build_grid(20.0, 999)
        a = 2.3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = stack_offline([build_offline_single(g, a, 6)], [1.0])["H1"]
            B = assemble_dimer(g, a, 6)
        A = to_dense(h1_metric(g))
        pair = solve_ground_pair(fd_hamiltonian(g, a))
        P = np.outer(pair.phi1, pair.phi1) + np.outer(pair.phi2, pair.phi2)
        R = random_stiefel(rng, 6, 2)
        X = B @ expand(R)
        Pi = X @ np.linalg.solve(X.T @ A @ X, X.T @ A)
        direct = -np.trace(P @ Pi.T @ A @ Pi)
        compressed = eval_JA(R, data)
        assert compressed == pytest.approx(direct, rel=1e-9)


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path, grid_main):
        record = build_offline_single(grid_main, 1.5, 5)
        save_offline_entry(str(tmp_path), grid_main, record)
        loaded = load_cached(str(tmp_path), grid_main, 1.5, 5)
        assert loaded is not None
        assert (loaded.a, loaded.e_ref) == (record.a, record.e_ref)
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(record, name))

    @pytest.mark.parametrize("metric", ["L2", "H1"])
    def test_one_entry_serves_both_metrics(self, tmp_path, grid_main, metric):
        # data read from the entries equals a fresh build bit for bit
        m = uniform_measure(1.5, 2.0, 2)
        other = "H1" if metric == "L2" else "L2"
        build_offline(grid_main, m, 5, other, str(tmp_path))
        cached = build_offline(grid_main, m, 5, metric, str(tmp_path))
        assert len(os.listdir(tmp_path)) == len(m.points)
        records = [build_offline_single(grid_main, a, 5) for a in m.points]
        fresh = stack_offline(records, m.weights)[metric]
        assert cached.a.tolist() == list(m.points)
        assert cached.weight.tolist() == list(m.weights)
        for name in ("e_ref", *OFFLINE_FIELDS):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name))

    def test_keys_distinguish_parameters(self, grid_main):
        # the metric is not a parameter: one entry serves L2 and H1
        base = cache_key(grid_main, 1.5, 5)
        assert cache_key(grid_main, 1.6, 5) != base
        assert cache_key(grid_main, 1.5, 6) != base
        assert cache_key(build_grid(20.0, 999), 1.5, 5) != base
        assert cache_key(build_grid(21.0, 1999), 1.5, 5) != base

    def test_one_solve_per_configuration(self, tmp_path, grid_main, monkeypatch):
        calls = []
        solve = reference.solve_ground_pair
        monkeypatch.setattr(
            reference,
            "solve_ground_pair",
            lambda *args: calls.append(args) or solve(*args),
        )
        m = uniform_measure(1.5, 2.0, 3)
        build_offline(grid_main, m, 5, "L2", str(tmp_path))
        build_offline(grid_main, m, 5, "H1", str(tmp_path))
        assert len(calls) == len(m.points)

    def test_build_offline_uses_cache(self, tmp_path, grid_main):
        m = uniform_measure(1.5, 2.0, 2)
        first = build_offline(grid_main, m, 5, "L2", str(tmp_path))
        second = build_offline(grid_main, m, 5, "L2", str(tmp_path))
        assert np.array_equal(first.m_e, second.m_e)
        assert np.array_equal(first.weight, second.weight)

    def test_miss_returns_none(self, tmp_path, grid_main):
        assert load_cached(str(tmp_path), grid_main, 9.9, 5) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: path.write_bytes(path.read_bytes()[:200]),
            lambda path: path.write_bytes(b"not an npz archive"),
            lambda path: np.savez(path, meta=np.array([{}], dtype=object)),
        ],
        ids=["truncated", "garbage", "pickled"],
    )
    def test_corrupt_entry_is_rebuilt(self, tmp_path, grid_main, corrupt):
        ((record, status),) = load_or_build_each(grid_main, [1.5], 5, str(tmp_path))
        assert status == "computed"
        (path,) = tmp_path.iterdir()
        corrupt(path)
        assert load_cached(str(tmp_path), grid_main, 1.5, 5) is None
        ((rebuilt, status),) = load_or_build_each(grid_main, [1.5], 5, str(tmp_path))
        assert status == "rebuilt"
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(rebuilt, name), getattr(record, name))
        ((_, status),) = load_or_build_each(grid_main, [1.5], 5, str(tmp_path))
        assert status == "cached"
        assert os.listdir(tmp_path) == [path.name]  # no temporary file left

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda r: replace(r, s_b=np.where(np.eye(len(r.s_b)) > 0, np.nan, r.s_b)),
            lambda r: replace(r, e_ref=np.inf),
            lambda r: replace(r, m_e=r.m_e[:-1]),
        ],
        ids=["nan_s_b", "inf_e_ref", "short_m_e"],
    )
    def test_non_finite_or_misshapen_entry_is_rebuilt(self, tmp_path, grid_main, spoil):
        # valid metadata does not make the arrays usable
        record = build_offline_single(grid_main, 1.5, 5)
        save_offline_entry(str(tmp_path), grid_main, spoil(record))
        assert load_cached(str(tmp_path), grid_main, 1.5, 5) is None
        ((rebuilt, status),) = load_or_build_each(grid_main, [1.5], 5, str(tmp_path))
        assert status == "rebuilt"
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(rebuilt, name), getattr(record, name))
        assert load_cached(str(tmp_path), grid_main, 1.5, 5) is not None

    def test_foreign_entry_is_rebuilt(self, tmp_path, grid_main):
        # a valid entry of another configuration under this key's name
        list(load_or_build_each(grid_main, [1.6], 5, str(tmp_path)))
        (other,) = tmp_path.iterdir()
        other.rename(tmp_path / f"offline_{cache_key(grid_main, 1.5, 5)}.npz")
        assert load_cached(str(tmp_path), grid_main, 1.5, 5) is None
        ((record, status),) = load_or_build_each(grid_main, [1.5], 5, str(tmp_path))
        assert status == "rebuilt"
        assert record.a == 1.5
        assert load_cached(str(tmp_path), grid_main, 1.5, 5).a == 1.5


class TestWorkspace:
    """The half-grid workspace of a build: one buffer, which no record views."""

    @pytest.mark.parametrize(
        "x_max, n_points, n_funcs", [(20.0, 1999, 10), (16.0, 801, 4)]
    )
    def test_records_equal_fresh_builds(self, x_max, n_points, n_funcs):
        # the records are compared after the last build, so a record that
        # aliased a build's buffer would show
        g = build_grid(x_max, n_points)
        a_values = (0.0, 1.5, 2.25, 3.0)
        records = [r for r, _ in load_or_build_each(g, a_values, n_funcs)]
        for a, record in zip(a_values, records):
            fresh = build_offline_single(g, a, n_funcs)
            assert record.e_ref == fresh.e_ref
            for name in RECORD_FIELDS:
                assert np.array_equal(getattr(record, name), getattr(fresh, name))

    def test_records_never_alias_the_workspace(self, grid_main):
        # a record that viewed its build's buffer would keep the buffer alive
        records = [build_offline_single(grid_main, a, 5) for a in (2.0, 2.5)]
        records += [r for r, _ in load_or_build_each(grid_main, (2.0, 2.5), 5)]
        for record in records:
            for name in RECORD_FIELDS:
                assert getattr(record, name).base is None, name

    @pytest.mark.parametrize(
        "x_max, n_points, n_funcs",
        [(20.0, 1999, 10), (25.0, 8000, 20), (20.0, 2000, 10)],
    )
    @pytest.mark.parametrize("a", [1.5, 2.7, 5.0])
    def test_records_match_the_full_grid_oracle(self, x_max, n_points, n_funcs, a):
        # measured: s_b, m_e, s_lap within 2.0e-15 of max|.|, the L2 and H1
        # g_a^T g_a within 1.8e-12, e_ref within 1.0e-11 (1.5e-16 |H|, |H| ~
        # 7e4 at 8000 points), the error of the oracle's full-size bisection
        g = build_grid(x_max, n_points)
        record = build_offline_single(g, a, n_funcs)
        oracle = full_grid_record(g, a, n_funcs)
        for name in ("s_b", "m_e", "s_lap"):
            expected = getattr(oracle, name)
            err = np.abs(getattr(record, name) - expected).max()
            assert err <= 1e-14 * np.abs(expected).max(), name
        for metric in METRICS:
            got, expected = (
                stack_offline([r], [1.0])[metric].g_a[0] for r in (record, oracle)
            )
            got, expected = got.T @ got, expected.T @ expected
            err = np.abs(got - expected).max()
            assert err <= 1e-11 * np.abs(expected).max(), metric
        H = fd_hamiltonian(g, a)
        tol = 2e-15 * (np.abs(H.diag) + 2 * np.abs(H.offdiag[0])).max()
        assert abs(record.e_ref - oracle.e_ref) <= tol

    @pytest.mark.parametrize(
        "x_max, n_points, n_funcs", [(20.0, 1999, 10), (25.0, 8000, 20)]
    )
    def test_build_allocates_less_than_one_basis_beside_its_buffer(
        self, x_max, n_points, n_funcs
    ):
        # deterministic allocation budget: the half-grid intermediates of a
        # build live in its one buffer of 2 x (N + 1) x (2 half + 1)
        # doubles, F of 2 x (N + 1) x half and D F of 2 x (N + 1) x
        # (half + 1), points last; the rest of its peak stays below one
        # full-grid B of n_points x 2 n_funcs doubles
        g = build_grid(x_max, n_points)
        half = n_points - n_points // 2
        buffer = (2 * half + 1) * 2 * (n_funcs + 1) * 8
        build_offline_single(g, 2.0, n_funcs)
        tracemalloc.start()
        try:
            build_offline_single(g, 2.5, n_funcs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buffer <= peak < buffer + n_points * 2 * n_funcs * 8
