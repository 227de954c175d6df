"""Reproduce the criterion tables for Hermite and optimized bases.

For each criterion (projection in the L2 or H1 metric, weighted energy
error) this prints the value at N_b = 1..4 for the plain Hermite basis
and for the optimized basis started from it, together with the L-BFGS
iteration counts and, for a run that did not converge, whether a
line-search stall or max_iter ended it. The CSV also records each run's
stop reason, stalled flag, final gradient norm, value+gradient evaluations
and wall time. A last line sums the iterations, evaluations and seconds of
all runs and counts the converged ones, so the optimizer's hot path can be
timed and judged without the benchmark; that line and every CSV row also
name the optimizer settings of the runs.

With --draws K the table is run K more times, on rounding draws of the
same records: draw d multiplies each offline matrix of the stacks (g_a,
s_a, m_e, s_b; an array the stacks share, once) by 1 + 2e-16 E, with E
standard normal from default_rng(d). Draw 0 is the records as built, and
one FD build serves every draw. Before the total line, one line per row
then gives the spread over the draws of its iterations, evaluations and
end values, and counts the distinct end values to 1e-7 relative; one
more line gives the fewest and most iterations, evaluations and
converged rows of a table. The CSV names each row's draw.
"""

import argparse
import csv
import dataclasses
import io
import sys
import time

import numpy as np

from basisopt.criteria import CriterionKind, make_criterion
from basisopt.galerkin import hbs_coefficients
from basisopt.grid import build_grid
from basisopt.reference import (
    METRICS,
    default_measure,
    load_or_build_each,
    stack_offline,
    write_atomically,
)
from basisopt.stiefel import OptimSettings, minimize


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-points", type=int, default=1999)
    parser.add_argument("--x-max", type=float, default=20.0)
    parser.add_argument("--n-funcs", type=int, default=10)
    parser.add_argument("--cache", default=None, help="offline matrix cache dir")
    parser.add_argument("--csv", default=None, help="also write rows to this file")
    parser.add_argument(
        "--draws", type=int, default=0, help="rounding draws of the records to add"
    )
    args = parser.parse_args(argv)
    if args.draws < 0:
        parser.error(f"--draws must be >= 0, got {args.draws}")

    grid = build_grid(args.x_max, args.n_points)
    measure = default_measure()
    # one FD solve or cache read per configuration serves both metrics
    pairs = load_or_build_each(grid, measure.points, args.n_funcs, args.cache)
    stacks = stack_offline([record for record, _ in pairs], measure.weights)
    settings = OptimSettings()

    rows = []
    for draw in range(args.draws + 1):
        drawn = rounding_draw(stacks, draw) if draw else stacks
        prefix = f"draw {draw}  " if args.draws else ""
        rows += _table(drawn, args.n_funcs, settings, draw, prefix)
    if args.draws:
        _print_spread(rows)

    print(
        f"total: {len(rows)} runs, {sum(r['iterations'] for r in rows)} iterations, "
        f"{sum(r['evaluations'] for r in rows)} evaluations, "
        f"{sum(r['seconds'] for r in rows):.3f} s; "
        f"{sum(r['converged'] for r in rows)} of {len(rows)} converged; {settings}"
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


def rounding_draw(stacks: dict, draw: int) -> dict:
    """The stacks with each offline matrix times 1 + 2e-16 E, E standard
    normal from default_rng(draw); an array shared by the stacks is drawn
    once, so it stays shared."""
    rng = np.random.default_rng(draw)
    drawn = {}  # id of an array -> its draw
    out = {}
    for metric in METRICS:
        stack = stacks[metric]
        fields = {}
        for name in ("g_a", "s_a", "m_e", "s_b"):
            array = getattr(stack, name)
            if id(array) not in drawn:
                drawn[id(array)] = array * (1 + 2e-16 * rng.standard_normal(array.shape))
            fields[name] = drawn[id(array)]
        out[metric] = dataclasses.replace(stack, **fields)
    return out


def _table(stacks, n_funcs, settings, draw, prefix) -> list[dict]:
    """The 12 rows of one table: each criterion at N_b = 1..4."""
    rows = []
    for kind in CriterionKind:
        criterion = make_criterion(kind, stacks[kind.metric])
        for n_basis in range(1, 5):
            hbs = hbs_coefficients(n_funcs, n_basis)
            baseline = criterion(hbs)[0]
            start = time.perf_counter()
            result = minimize(criterion, hbs, settings)
            seconds = time.perf_counter() - start
            rows.append(
                {
                    "draw": draw,
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
                    **dataclasses.asdict(settings),
                }
            )
            print(
                f"{prefix}{kind.value:5s} N_b={n_basis}  HBS={baseline: .6e}  "
                f"OBS={result.final_value: .6e}  "
                f"iters={result.iterations}{_stop_note(result)}"
            )
    return rows


def _print_spread(rows: list[dict]) -> None:
    """One line per table row, the spread of its runs over the draws, and
    one line for the spread of the tables' totals."""
    runs = {}
    for row in rows:
        runs.setdefault((row["criterion"], row["n_basis"]), []).append(row)
    for (criterion, n_basis), draws in runs.items():
        iterations = [r["iterations"] for r in draws]
        evaluations = [r["evaluations"] for r in draws]
        values = [r["optimized"] for r in draws]
        print(
            f"spread {criterion:5s} N_b={n_basis} over {len(draws)} draws:  "
            f"iters {min(iterations)}-{max(iterations)}  "
            f"evals {min(evaluations)}-{max(evaluations)}  "
            f"OBS {min(values): .6e} to {max(values): .6e}, "
            f"{distinct(values)} distinct to 1e-7; "
            f"{sum(r['converged'] for r in draws)} of {len(draws)} converged"
        )
    tables = {}
    for row in rows:
        tables.setdefault(row["draw"], []).append(row)
    totals = [
        [sum(r[key] for r in table) for key in ("iterations", "evaluations", "converged")]
        for table in tables.values()
    ]
    (it_lo, ev_lo, ok_lo), (it_hi, ev_hi, ok_hi) = (
        [bound(column) for column in zip(*totals)] for bound in (min, max)
    )
    print(
        f"spread over {len(tables)} draws: {it_lo}-{it_hi} iterations and "
        f"{ev_lo}-{ev_hi} evaluations per table; {ok_lo}-{ok_hi} of "
        f"{len(rows) // len(tables)} rows converged"
    )


def distinct(values, rtol: float = 1e-7) -> int:
    """The number of groups of the sorted values, a new group starting
    where a value is more than rtol relative above the one before."""
    ordered = sorted(values)
    gaps = zip(ordered, ordered[1:])
    return 1 + sum(b - a > rtol * max(abs(a), abs(b)) for a, b in gaps)


def _stop_note(result) -> str:
    """Why an unconverged run ended: a line-search stall or max_iter."""
    if result.converged:
        return ""
    return f" (not converged: {result.stop_reason}, grad norm {result.grad_norm:.1e})"


if __name__ == "__main__":
    sys.exit(main())
