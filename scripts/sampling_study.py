"""Parameter studies: training-measure choice, random starts, basis-pool size.

Three experiments, all at N_b = 3 unless noted:

  sampling   train the energy criterion on very sparse measures (one point,
             two points near equilibrium, the interval endpoints) and
             compare whole-curve energy error against the Hermite baseline
  restarts   optimize from random feasible starts and check the spread of
             the reached minima
  pool       shrink the Hermite pool from 10 to 5 functions and compare the
             optimized energy criterion at N_b = 4
"""

import argparse
import sys

import numpy as np

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.evaluate import curves, default_curve_points
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import build_grid
from basisopt.reference import Measure, build_offline, default_measure, uniform_measure
from basisopt.stiefel import minimize, random_stiefel

SPARSE_MEASURES = {
    "one point near equilibrium": uniform_measure(2.25, 2.25, 1),
    "two points near equilibrium": Measure(points=(1.85, 2.0), weights=(1.0, 1.0)),
    "interval endpoints": Measure(points=(1.5, 5.0), weights=(1.0, 1.0)),
}


def curve_mse(curve):
    return float(np.mean([p.abs_error**2 for p in curve]))


def study_sampling(grid, cache):
    # train every sparse basis first, so one curve pass serves them all
    hbs = hbs_coefficients(10, 3)
    results = {}
    for label, measure in SPARSE_MEASURES.items():
        offline = build_offline(grid, measure, 10, "L2", cache)
        results[label] = minimize(make_criterion(CriterionKind.JE, offline), hbs)
    bases = [hbs] + [result.R_opt for result in results.values()]
    mse_hbs, *mses = map(curve_mse, curves(bases, default_curve_points(50), grid, 10))
    print(f"HBS N_b=3 whole-curve MSE: {mse_hbs:.3e}")
    for (label, result), mse in zip(results.items(), mses):
        print(
            f"{label:30s} MSE={mse:.3e}  gain={mse_hbs / mse:8.1f}x  "
            f"iters={result.iterations} ({result.stop_reason})"
        )


def study_restarts(grid, cache, n_starts):
    offline = build_offline(grid, default_measure(), 10, "L2", cache)
    fun = make_criterion(CriterionKind.JE, offline)
    values = []
    for seed in range(n_starts):
        rng = np.random.default_rng(seed)
        result = minimize(fun, random_stiefel(rng, 10, 3))
        values.append(result.final_value)
        print(
            f"seed={seed}  value={result.final_value:.6e}  "
            f"iters={result.iterations} ({result.stop_reason})"
        )
    print(f"spread over {n_starts} starts: {max(values) - min(values):.2e}")


def study_pool(grid, cache):
    measure = default_measure()
    for n_funcs in (10, 5):
        offline = build_offline(grid, measure, n_funcs, "L2", cache)
        result = minimize(
            make_criterion(CriterionKind.JE, offline),
            hbs_coefficients(n_funcs, 4),
        )
        print(
            f"pool N={n_funcs:2d}  optimized J_E(N_b=4)={result.final_value:.4e}  "
            f"iters={result.iterations} ({result.stop_reason})"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "study", choices=("sampling", "restarts", "pool", "all"), nargs="?", default="all"
    )
    parser.add_argument("--n-points", type=int, default=1999)
    parser.add_argument("--x-max", type=float, default=20.0)
    parser.add_argument("--n-starts", type=int, default=3)
    parser.add_argument("--cache", default=None, help="offline matrix cache dir")
    args = parser.parse_args(argv)

    grid = build_grid(args.x_max, args.n_points)
    if args.study in ("sampling", "all"):
        print("== training-measure choice ==")
        study_sampling(grid, args.cache)
    if args.study in ("restarts", "all"):
        print("== random starts ==")
        study_restarts(grid, args.cache, args.n_starts)
    if args.study in ("pool", "all"):
        print("== Hermite pool size ==")
        study_pool(grid, args.cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
