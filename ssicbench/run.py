"""ssic benchmark entry point.

    python3 ssicbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process runs ssic from the
checkout's src/ with BLAS pinned to one thread.  With --trace 0 it
starts SETUP_SAMPLES - 1 set-up-only processes and then the workload
process, and reports the end-to-end metrics: packets_per_s and setup_s at
the reference speed described in worker.py (the wall-clock medians are
printed as JSON on a WALL_CLOCK comment line), and the workload process's
peak RSS.  With
--trace 1 it starts only the workload process, which times each chunk
untraced and traced, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json.  The last line of standard output is one
JSON object; a run whose output check fails still prints it, with
"correct": false.  Exits 1, printing no result, when nothing could be
measured.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout stays as it was

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5
WALL_CLOCK = "# wall_clock "
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    pass


def machine() -> dict:
    """What the numbers were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"]}


def _start(command: str, *args, timeout: float) -> list[dict]:
    """Run one worker process to its end; return the JSON objects it printed,
    one a line.  The first always holds the process's set-up time."""
    args = [command, ROOT, repr(time.monotonic()), *args]
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
                              cwd=ROOT, env=dict(os.environ, **PINNED_ENV),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker {command} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {command} exited with {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workload process, after the set-up-only ones when untraced."""
    setups = [_start("setup", timeout=30)[0] for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    ready, result = _start("run", workload, seed, seconds, int(trace), timeout=seconds + 90)
    result["setups"] = setups + [ready]
    return result


def metrics(result: dict, trace: bool, bench: dict) -> dict:
    if trace:
        wanted, values = bench["per_layer"], result["layers"]
    else:
        if not result["rates"]:
            raise BenchError("no chunk passed its output check")
        wanted = bench["end_to_end"]
        values = {"packets_per_s": statistics.median(result["rates"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(s["setup_s"] for s in result["setups"])}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if not (ROOT / "src" / "ssic" / "__init__.py").is_file():
            raise BenchError(f"no ssic sources under {ROOT / 'src'}; "
                             "run from the root of an ssic checkout")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        out = metrics(result, bool(args.trace), bench)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# machine " + json.dumps(machine()))
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} runs, "
          f"{result['failed']} failed, {len(result['rates'])} chunks timed")
    if not args.trace:
        print(WALL_CLOCK + json.dumps({
            "packets_per_s": statistics.median(result["wall_rates"]),
            "setup_s": statistics.median(s["setup_wall_s"] for s in result["setups"])}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
