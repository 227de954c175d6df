"""Acceptance gate: every criterion prints one PASS line when it holds.

Reference setting throughout: box [-20, 20], 1999 grid points, N = 10
Hermite functions, ten uniformly spaced training configurations on
[1.5, 5] with spacing weights.
"""

import numpy as np
import pytest

from basisopt.criteria import (
    CriterionKind,
    eval_JA,
    eval_JE,
    grad_JA,
    grad_JE,
    make_criterion,
)
from basisopt.evaluate import (
    curves,
    default_curve_points,
    overlap_condition_sweep,
)
from basisopt.galerkin import expand, hbs_coefficients, reduced_ground_pair
from basisopt.grid import build_grid, fd_hamiltonian
from basisopt.hermite import assemble_dimer
from basisopt.reference import (
    build_offline,
    build_offline_single,
    default_measure,
    solve_ground_pair,
    stack_offline,
    uniform_measure,
)
from basisopt.stiefel import minimize, random_stiefel
from conftest import h1_metric, to_dense


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


HBS_JL2 = {1: -7.40829, 2: -7.70051, 3: -7.74312, 4: -7.77138}
HBS_JH1 = {1: -10.5613, 2: -11.0566, 3: -11.1451, 4: -11.2402}
HBS_JE = {1: 3.77956e-2, 2: 3.98301e-3, 3: 1.86537e-3, 4: 1.35309e-4}


def test_criterion_1_hbs_tables(offline_l2):
    for nb, expected in HBS_JL2.items():
        value = eval_JA(hbs_coefficients(10, nb), offline_l2)
        report(
            f"1 HBS J_L2 N_b={nb}",
            abs(value - expected) < 1e-3,
            f"value={value:.6f} expected={expected}",
        )
    for nb, expected in HBS_JE.items():
        value = eval_JE(hbs_coefficients(10, nb), offline_l2)
        report(
            f"1 HBS J_E N_b={nb}",
            abs(value - expected) / expected < 0.02,
            f"value={value:.6e} expected={expected}",
        )


def test_criterion_2_hbs_h1_row(offline_h1):
    for nb, expected in HBS_JH1.items():
        value = eval_JA(hbs_coefficients(10, nb), offline_h1)
        report(
            f"2 HBS J_H1 N_b={nb}",
            abs(value - expected) < 5e-3,
            f"value={value:.6f} expected={expected}",
        )


# target optimized-basis values; the test allows a factor-2
# local-minimum slack around them
OPTIMIZED_TARGETS = {
    (CriterionKind.JA_L2, 2): -7.76479,
    (CriterionKind.JA_L2, 3): -7.77725,
    (CriterionKind.JA_H1, 2): -11.2338,
    (CriterionKind.JA_H1, 3): -11.2630,
    (CriterionKind.JE, 2): 1.92087e-4,
    (CriterionKind.JE, 3): 6.93394e-7,
}


@pytest.mark.parametrize(
    "kind,n_basis",
    [(k, nb) for k in CriterionKind for nb in (2, 3)],
    ids=lambda v: str(getattr(v, "value", v)),
)
def test_criterion_3_optimized_values(optimized, kind, n_basis):
    target = OPTIMIZED_TARGETS[(kind, n_basis)]
    result = optimized(kind, n_basis)
    if kind is CriterionKind.JE:
        ok = result.final_value <= 2.0 * target
    else:
        # "at least as good as 2x the target value": at most half the
        # target improvement over the HBS baseline may be lost
        hbs = (HBS_JL2 if kind is CriterionKind.JA_L2 else HBS_JH1)[n_basis]
        ok = result.final_value <= hbs + 0.5 * (target - hbs)
        if kind is CriterionKind.JA_L2 and n_basis == 2:
            ok = ok and result.final_value <= -7.764
    report(
        f"3 optimized {kind.value} N_b={n_basis}",
        ok,
        f"value={result.final_value!r} target={target} "
        f"iterations={result.iterations}",
    )


def test_criterion_4_gradient_verification(
    offline_l2, offline_h1, offline_l2_n5, grid_main, measure
):
    from test_criteria import finite_difference_gradient

    offline_h1_n5 = build_offline(grid_main, measure, 5, "H1")
    cases = {
        ("JA_L2", 10): (eval_JA, grad_JA, offline_l2),
        ("JA_H1", 10): (eval_JA, grad_JA, offline_h1),
        ("JE", 10): (eval_JE, grad_JE, offline_l2),
        ("JA_L2", 5): (eval_JA, grad_JA, offline_l2_n5),
        ("JA_H1", 5): (eval_JA, grad_JA, offline_h1_n5),
        ("JE", 5): (eval_JE, grad_JE, offline_l2_n5),
    }
    rng = np.random.default_rng(42)
    worst = 0.0
    for (name, n_funcs), (ev, gr, off) in cases.items():
        for n_basis in (1, 2, 3, 4):
            for _ in range(10):
                R = random_stiefel(rng, n_funcs, n_basis)
                analytic = gr(R, off)
                numeric = finite_difference_gradient(lambda X: ev(X, off), R)
                rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
                worst = max(worst, rel)
    report("4 gradient verification", worst < 1e-6, f"worst rel error={worst:.2e}")


def test_criterion_5_oracle_equivalence(grid_main):
    rng = np.random.default_rng(7)
    # compressed projection criterion vs dense A-orthogonal projector
    g = build_grid(20.0, 999)
    A = to_dense(h1_metric(g))
    worst = 0.0
    for a in (1.5, 2.2, 3.0, 4.1, 5.0):
        data = stack_offline([build_offline_single(g, a, 6)], [1.0])["H1"]
        B = assemble_dimer(g, a, 6)
        pair = solve_ground_pair(fd_hamiltonian(g, a))
        P = np.outer(pair.phi1, pair.phi1) + np.outer(pair.phi2, pair.phi2)
        R = random_stiefel(rng, 6, 2)
        X = B @ expand(R)
        Pi = X @ np.linalg.solve(X.T @ A @ X, X.T @ A)
        direct = -np.trace(P @ Pi.T @ A @ Pi)
        compressed = eval_JA(R, data)
        worst = max(worst, abs(compressed - direct) / abs(direct))
    report("5 compressed vs dense projector", worst < 1e-9, f"worst={worst:.2e}")

    # reduced ground pair vs dense Rayleigh-Ritz on the explicit columns
    import scipy.linalg

    worst = 0.0
    for a in (1.5, 3.0, 5.0):
        basis = assemble_dimer(grid_main, a, 10)
        H = fd_hamiltonian(grid_main, a)
        R = random_stiefel(rng, 10, 3)
        X = basis @ expand(R)
        dense_vals = scipy.linalg.eigh(
            X.T @ H.matvec(X), X.T @ X, eigvals_only=True
        )
        record = build_offline_single(grid_main, a, 10)
        pair = reduced_ground_pair(record.m_e, record.s_b, R)
        worst = max(
            worst,
            abs(pair.mu1 - dense_vals[0]),
            abs(pair.mu2 - dense_vals[1]),
        )
    report("5 reduced pair vs dense Rayleigh-Ritz", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_6_physics_limits(grid_main):
    # Near a well, with y = x - a and c = 8a^2 + 4, the potential is
    # V = (4a^2 y^2 + 4a y^3 + y^4) / c: an oscillator with
    # w^2 = 2a^2 / (2a^2 + 1), cubic term g = 4a / c and quartic term
    # l = 1 / c. Second-order perturbation theory gives the level
    # w/2 + 3l/(4w^2) - 11g^2/(8w^4) = 1/2 - 3/(8a^2) + O(a^-4), and the
    # pair splitting is exponentially small, so the decoupled-well limit
    # is E_ref(a) = 1 - 3/(4a^2) + O(a^-4).
    a = 7.0
    g = build_grid(22.0, 2199)
    e_ref = solve_ground_pair(fd_hamiltonian(g, a)).energy
    expected = 1.0 - 3.0 / (4.0 * a**2)
    report(
        "6 decoupled harmonic wells",
        abs(e_ref - expected) <= 2e-3,
        f"E_ref(a=7)={e_ref:.6f} expected={expected:.6f} "
        f"deviation={e_ref - expected:.2e}",
    )

    worst_integral = 0.0
    variational_ok = True
    for a in default_curve_points(10):
        record = build_offline_single(grid_main, a, 10)
        R = hbs_coefficients(10, 3)
        pair = reduced_ground_pair(record.m_e, record.s_b, R)
        basis = assemble_dimer(grid_main, a, 10)
        rho = ((basis @ (expand(R) @ pair.C)) ** 2).sum(axis=1) / grid_main.dx
        worst_integral = max(worst_integral, abs(grid_main.dx * rho.sum() - 2.0))
        variational_ok = variational_ok and pair.energy >= record.e_ref - 1e-10
    report(
        "6 density integral = 2", worst_integral < 1e-8, f"worst={worst_integral:.2e}"
    )
    report("6 variational inequality on sweep", variational_ok)


def test_criterion_7_overcompleteness_sweep():
    sweep = overlap_condition_sweep(4, np.linspace(0.1, 5.0, 30))
    conds = [c for _, c in sweep]
    monotone = all(b <= a * (1 + 1e-10) for a, b in zip(conds, conds[1:]))
    ratio = conds[0] / conds[-1]
    report(
        "7 condition sweep",
        monotone and ratio > 1e4,
        f"monotone={monotone} cond(0.1)/cond(5)={ratio:.2e}",
    )


def test_criterion_8_n_funcs_5_crosscheck(offline_l2, offline_l2_n5):
    drift = max(
        abs(
            eval_JE(hbs_coefficients(5, nb), offline_l2_n5)
            - eval_JE(hbs_coefficients(10, nb), offline_l2)
        )
        / eval_JE(hbs_coefficients(10, nb), offline_l2)
        for nb in range(1, 5)
    )
    report("8 HBS J_E independent of N", drift < 1e-10, f"max rel drift={drift:.2e}")

    result = minimize(
        make_criterion(CriterionKind.JE, offline_l2_n5), hbs_coefficients(5, 4)
    )
    target = 9.74560e-6
    ok = target / 3 <= result.final_value <= target * 3
    report(
        "8 N=5 optimized J_E stalls near 1e-5",
        ok,
        f"value={result.final_value:.3e} target={target}",
    )


def test_criterion_9_sparse_sampling(grid_main):
    # one training configuration near the equilibrium distance; slightly
    # above it the single-point optimum generalizes across the curve
    sparse = uniform_measure(2.25, 2.25, 1)
    offline = build_offline(grid_main, sparse, 10, "L2")
    result = minimize(
        make_criterion(CriterionKind.JE, offline), hbs_coefficients(10, 3)
    )
    a_values = default_curve_points(50)
    hbs_curve, obs_curve = curves(
        [hbs_coefficients(10, 3), result.R_opt], a_values, grid_main, 10
    )
    mse_hbs = np.mean([p.abs_error**2 for p in hbs_curve])
    mse_obs = np.mean([p.abs_error**2 for p in obs_curve])
    ratio = mse_hbs / mse_obs
    report(
        "9 single-configuration training",
        ratio >= 1e2,
        f"whole-curve J_E improvement={ratio:.2e} iterations={result.iterations}",
    )
