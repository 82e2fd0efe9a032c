"""Run bench/run.py once per seed and summarise each metric across the runs.

    python3 bench/repeat.py --workload games --seeds 1-10 --trace 0 [--json out.json]

For every metric of the result line, and every metric printed only in the
table above it, it prints the median and the spread, (q3 - q1) / median
with the quartiles of ``statistics.quantiles(n=4)``, and flags a gated
metric whose spread is above a third of its bound; ``--json`` also keeps
every run and the quartiles.  Runs go one after another, each in
its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def printed_only(table: list[str], workload: str, metrics: dict) -> dict:
    """Metrics of the table lines (workload, name, value, unit) not in the result line."""
    out = {}
    for line in table:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[1] not in metrics:
            out[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        *table, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        result["printed"] = printed_only(table, args.workload, result["metrics"])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: wall {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in [*runs[0]["metrics"], *runs[0]["printed"]]:
        values = [{**r["metrics"], **r["printed"]}[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": {**runs[0]["metrics"], **runs[0]["printed"]}[name]["unit"],
                         "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}" + (
            "  above bound/3" if spread > bound / 3 else "")
        print(f"{args.workload:14s} {name:48s} median {med:12.6g}  spread {spread:7.4f}{flag}")
    walls = [r["wall_s"] for r in runs]
    print(f"{args.workload:14s} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                         "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
