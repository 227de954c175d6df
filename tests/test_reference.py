import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from basisopt import reference
from basisopt.galerkin import hbs_coefficients, reduced_ground_pair
from basisopt.grid import build_grid, fd_hamiltonian
from basisopt.hermite import assemble_dimer
from basisopt.reference import (
    FDWorkspace,
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
from conftest import h1_metric, hermite_columns, to_dense

OFFLINE_FIELDS = ("m_a", "s_a", "m_e", "s_b")
RECORD_FIELDS = ("g", "g_lap", "s_b", "m_e", "s_lap")


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


class TestBuildOffline:
    def test_matrices_symmetric(self, offline_l2, offline_h1):
        for offline in (offline_l2, offline_h1):
            for name in OFFLINE_FIELDS:
                for m in getattr(offline, name):
                    assert np.abs(m - m.T).max() < 1e-12

    def test_overlaps_positive_definite(self, offline_l2, offline_h1):
        for offline in (offline_l2, offline_h1):
            for s_b, s_a in zip(offline.s_b, offline.s_a):
                assert np.linalg.eigvalsh(s_b)[0] > 0
                assert np.linalg.eigvalsh(s_a)[0] > 0

    def test_projector_rank_and_trace_bound(self, offline_l2):
        for m_a, s_b in zip(offline_l2.m_a, offline_l2.s_b):
            rank = np.linalg.matrix_rank(m_a, tol=1e-10)
            assert rank == 2
            captured = np.trace(m_a @ np.linalg.inv(s_b))
            assert captured <= 2.0 + 1e-9

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
        # m_a and s_a of L2 and s_b keep the direct expressions bit for bit;
        # H1 and m_e, assembled from the factored Laplacian, match the
        # operators applied to B
        a, n = 2.3, 6
        H = fd_hamiltonian(grid_main, a)
        pair = solve_ground_pair(H)
        B = assemble_dimer(grid_main, a, n)
        phis = np.column_stack([pair.phi1, pair.phi2])

        def sym(m):
            return 0.5 * (m + m.T)

        for metric, AB in (("L2", B), ("H1", h1_metric(grid_main).matvec(B))):
            record = build_offline_single(grid_main, a, n)
            data = stack_offline([record], [1.0], metric)
            G = phis.T @ AB
            direct = (
                sym(G.T @ G),
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
                    assert np.array_equal(got, expected), (metric, name)
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

    def test_unknown_metric_rejected(self, grid_main):
        record = build_offline_single(grid_main, 2.0, 3)
        with pytest.raises(ValueError, match="metric"):
            stack_offline([record], [1.0], "H2")

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
            data = stack_offline([build_offline_single(g, a, 6)], [1.0], "H1")
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
        fresh = stack_offline(records, m.weights, metric)
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
    @pytest.mark.parametrize(
        "x_max, n_points, n_funcs", [(20.0, 1999, 10), (16.0, 801, 4)]
    )
    def test_records_equal_fresh_builds(self, x_max, n_points, n_funcs):
        # the records are compared after the last build through the
        # workspace, so a record that aliased its buffers would show
        g = build_grid(x_max, n_points)
        a_values = (0.0, 1.5, 2.25, 3.0)
        records = [r for r, _ in load_or_build_each(g, a_values, n_funcs)]
        for a, record in zip(a_values, records):
            fresh = build_offline_single(g, a, n_funcs)
            assert record.e_ref == fresh.e_ref
            for name in RECORD_FIELDS:
                assert np.array_equal(getattr(record, name), getattr(fresh, name))

    def test_solved_configuration_views_the_workspace(self, grid_main):
        ws = FDWorkspace(grid_main, 5)
        fd = reference.solve_configuration(grid_main, 2.0, 5, ws)
        assert np.shares_memory(fd.basis, ws.basis)
        assert np.array_equal(fd.basis, assemble_dimer(grid_main, 2.0, 5))
        record = build_offline_single(grid_main, 2.0, 5, fd, ws)
        for name in RECORD_FIELDS:
            for buffer in (ws.basis, ws.scratch, ws.grad):
                assert not np.shares_memory(getattr(record, name), buffer)

    def test_warm_build_allocates_less_than_one_basis(self, grid_main):
        # deterministic allocation budget: the grid-size intermediates of a
        # build live in the workspace, so what is left stays below one B
        ws = FDWorkspace(grid_main, 10)
        build_offline_single(grid_main, 2.0, 10, workspace=ws)
        tracemalloc.start()
        try:
            build_offline_single(grid_main, 2.5, 10, workspace=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ws.basis.nbytes
