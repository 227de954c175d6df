"""Reproduce the criterion tables for Hermite and optimized bases.

For each criterion (projection in the L2 or H1 metric, weighted energy
error) this prints the value at N_b = 1..4 for the plain Hermite basis
and for the optimized basis started from it, together with the L-BFGS
iteration counts and, for a run that did not converge, whether a
line-search stall or max_iter ended it. The CSV also records each run's
stop reason, stalled flag, final gradient norm, value+gradient evaluations
and wall time. A last line sums the iterations, evaluations and seconds of
all runs and counts the converged ones, so the optimizer's hot path can be
timed and judged without the benchmark.
"""

import argparse
import csv
import io
import sys
import time

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import build_grid
from basisopt.reference import (
    default_measure,
    load_or_build_each,
    stack_offline,
    write_atomically,
)
from basisopt.stiefel import minimize


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-points", type=int, default=1999)
    parser.add_argument("--x-max", type=float, default=20.0)
    parser.add_argument("--n-funcs", type=int, default=10)
    parser.add_argument("--cache", default=None, help="offline matrix cache dir")
    parser.add_argument("--csv", default=None, help="also write rows to this file")
    args = parser.parse_args(argv)

    grid = build_grid(args.x_max, args.n_points)
    measure = default_measure()
    # one FD solve or cache read per configuration serves both metrics
    pairs = load_or_build_each(grid, measure.points, args.n_funcs, args.cache)
    stacks = stack_offline([record for record, _ in pairs], measure.weights)

    rows = []
    for kind in CriterionKind:
        criterion = make_criterion(kind, stacks[kind.metric])
        for n_basis in range(1, 5):
            hbs = hbs_coefficients(args.n_funcs, n_basis)
            baseline = criterion(hbs)[0]
            start = time.perf_counter()
            result = minimize(criterion, hbs)
            seconds = time.perf_counter() - start
            rows.append(
                {
                    "criterion": kind.value,
                    "n_basis": n_basis,
                    "hbs": baseline,
                    "optimized": result.final_value,
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "stalled": result.stalled,
                    "stop_reason": result.stop_reason,
                    "grad_norm": result.grad_norm,
                    "evaluations": result.evaluations,
                    "seconds": seconds,
                }
            )
            print(
                f"{kind.value:5s} N_b={n_basis}  HBS={baseline: .6e}  "
                f"OBS={result.final_value: .6e}  "
                f"iters={result.iterations}{_stop_note(result)}"
            )

    print(
        f"total: {len(rows)} runs, {sum(r['iterations'] for r in rows)} iterations, "
        f"{sum(r['evaluations'] for r in rows)} evaluations, "
        f"{sum(r['seconds'] for r in rows):.3f} s; "
        f"{sum(r['converged'] for r in rows)} of {len(rows)} converged"
    )
    if args.csv:
        # csv ends its rows with \r\n itself: write its text as bytes, untranslated
        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        write_atomically(args.csv, lambda fh: fh.write(text.getvalue().encode()), "wb")
        print(f"wrote {args.csv}")
    return 0


def _stop_note(result) -> str:
    """Why an unconverged run ended: a line-search stall or max_iter."""
    if result.converged:
        return ""
    return f" (not converged: {result.stop_reason}, grad norm {result.grad_norm:.1e})"


if __name__ == "__main__":
    sys.exit(main())
