"""Run every workload several times and summarise, as a trajectory point.

    python3 ssicbench/trajectory.py [--runs 10] [--first-seed 1] [--out FILE.json]

Every workload gets --runs ``run.py --trace 0`` invocations, each with its
own seed and as long as BENCHMARK.json's run_seconds; after them, one
``run.py --trace 1`` invocation per workload gives the per-layer metrics.
For every end-to-end metric the summary holds the median and the quartiles
over the runs (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound, and the same summary of
the wall-clock figures that run.py prints beside the calibrated ones.
Prints a table of every metric by name and unit; writes the summary and the
machine to --out.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import statistics
import subprocess
from pathlib import Path

import run
import workloads


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """run.py's result, with its wall-clock medians under "wall_clock"."""
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["wall_clock"] = next((json.loads(line[len(run.WALL_CLOCK):]) for line in lines
                                 if line.startswith(run.WALL_CLOCK)), {})
    return result


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"machine": run.machine(), "seconds": seconds, "workloads": {}}
    for w in workloads.WORKLOADS:
        results = [_bench(w, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        traced = _bench(w, args.first_seed, seconds, 1)
        entry = {"attempted": sum(r["attempted"] for r in results) + traced["attempted"],
                 "failed": sum(r["failed"] for r in results) + traced["failed"],
                 "end_to_end": {}, "per_layer": traced["metrics"],
                 "wall_clock": {name: summarise([r["wall_clock"][name] for r in results])
                                for name in results[0]["wall_clock"]}}
        print(f"{w}: fail_frac {entry['failed']}/{entry['attempted']}")
        for m in bench["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in results])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = s
            spread = f"spread {s['spread']:.4f} (bound {m['bound']})" if "spread" in s else ""
            print(f"  {m['name']:<32} {s['median']:14.4f} {m['unit']:<10} {spread}")
        for name, s in entry["wall_clock"].items():
            print(f"  {name + ' (wall clock)':<32} {s['median']:14.4f}")
        for name, v in traced["metrics"].items():
            print(f"  {name:<32} {v['value']:14.4f} {v['unit']}")
        out["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
