"""Check the benchmark records committed at the repository root.

    python3 scripts/check_bench_records.py [ROOT]

Loads every BENCH_*.json in ROOT (default: the repository root). Each
holds a list `runs`, and each run the `result` line that
`perfbench/run.py` printed last. A record passes when every stored result
is correct, has no failed operation and carries every end-to-end metric
that ROOT/BENCHMARK.json names, and when its `summary`, if it has one,
agrees with the runs: for each workload and metric, each side's median
and quartiles (`statistics.quantiles`, inclusive method) over the
summary's seeds, and the number of those seeds on which the change read
lower. A record that states `"identical_checksums": true` must also hold
equal `checksums` on every parent/change pair of runs of one workload and
seed. Prints one line per problem and exits 1 when there is one, else 0.
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(root: str) -> list[str]:
    """Every problem of the records in root, one line each."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        return [f"no BENCH_*.json in {root}"]
    found = []
    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path) as fh:
                record = json.load(fh)
            runs = record["runs"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found.append(f"{name}: unreadable: {exc!r}")
            continue
        if not isinstance(runs, list) or not runs:
            found.append(f"{name}: no runs")
            continue
        for i, run in enumerate(runs):
            where = f"{name}: run {i}"
            result = run.get("result") if isinstance(run, dict) else None
            if not isinstance(result, dict):
                found.append(f"{where}: no result")
                continue
            where += f" ({run.get('workload')}, seed {run.get('seed')}, {run.get('side')})"
            if result.get("correct") is not True:
                found.append(f"{where}: not correct")
            if result.get("failed") != 0:
                found.append(f"{where}: failed is {result.get('failed')!r}, not 0")
            missing = [m for m in metrics if m not in result.get("metrics", {})]
            if missing:
                found.append(f"{where}: missing {', '.join(missing)}")
        found += summary_problems(name, runs, record.get("summary", {}))
        if record.get("identical_checksums") is True:
            found += checksum_problems(name, runs)
    return found


def checksum_problems(name: str, runs: list) -> list[str]:
    """One line for each parent/change pair of runs, of one workload and
    seed, whose checksums differ."""
    sides = {}  # (workload, seed) -> side -> [(run index, checksums)]
    for i, run in enumerate(runs):
        if isinstance(run, dict):
            pair = sides.setdefault((run.get("workload"), run.get("seed")), {})
            pair.setdefault(run.get("side"), []).append((i, run.get("checksums")))
    return [
        f"{name}: runs {i} and {j} ({workload}, seed {seed}, parent and change): "
        "checksums differ"
        for (workload, seed), pair in sides.items()
        for i, parent in pair.get("parent", [])
        for j, change in pair.get("change", [])
        if parent != change
    ]


def _agrees(stated, expected) -> bool:
    if isinstance(expected, str):
        return stated == expected
    if isinstance(expected, list):
        return (
            isinstance(stated, list)
            and len(stated) == len(expected)
            and all(map(_agrees, stated, expected))
        )
    if not isinstance(stated, (int, float)):
        return False
    return math.isclose(stated, expected, rel_tol=1e-12)


def summary_problems(name: str, runs: list, summary: dict) -> list[str]:
    """Every statistic of `summary` that its runs do not reproduce."""
    found = []
    for workload, entry in summary.items():
        seeds = entry.get("seeds", [])
        for metric, stated in entry.items():
            if metric == "seeds":
                continue
            where = f"{name}: summary {workload} {metric}"
            values = {}
            for run in runs:
                try:
                    if run["workload"] == workload and run["seed"] in seeds:
                        value = run["result"]["metrics"][metric]["value"]
                        values[run["side"], run["seed"]] = value
                except (KeyError, TypeError):
                    continue  # the run's own problems are named above
            absent = [
                f"{side} seed {seed}"
                for side in ("parent", "change")
                for seed in seeds
                if (side, seed) not in values
            ]
            if absent:
                found.append(f"{where}: no run for {', '.join(absent)}")
                continue
            expected = {}
            for side in ("parent", "change"):
                column = [values[side, seed] for seed in seeds]
                q1, _, q3 = statistics.quantiles(column, n=4, method="inclusive")
                expected[f"{side}_median"] = statistics.median(column)
                expected[f"{side}_quartiles"] = [q1, q3]
            lower = sum(values["change", s] < values["parent", s] for s in seeds)
            expected["pairs_change_lower"] = f"{lower} of {len(seeds)}"
            for key, value in expected.items():
                if not _agrees(stated.get(key), value):
                    given = stated.get(key)
                    found.append(f"{where}: {key} is {given!r}, runs give {value!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=ROOT)
    args = parser.parse_args(argv)
    found = problems(args.root)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
