"""Check the benchmark records committed at the repository root.

    python3 scripts/check_bench_records.py [ROOT]

Loads every BENCH_*.json in ROOT (default: the repository root). Each
holds a list `runs`, and each run the `result` line that
`perfbench/run.py` printed last. A record passes when every stored result
is correct, has no failed operation and carries every end-to-end metric
that ROOT/BENCHMARK.json names. Prints one line per problem and exits 1
when there is one, else 0.
"""

import argparse
import glob
import json
import os
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
                runs = json.load(fh)["runs"]
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
