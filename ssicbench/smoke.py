"""Fast smoke check of the benchmark itself (about a minute).

    python3 ssicbench/smoke.py

Checks that BENCHMARK.json keeps its format; that for every workload a
one-second run.py run, untraced and traced, passes its output check
(reference CSV, row invariants, traced == untraced CSV) and emits exactly
the metrics BENCHMARK.json names, each with its unit; and that run.py
fails without printing a result where there are no ssic sources.
Exits 1 and names the failures if any check fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import math
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_benchmark_json(bench: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        errors.append(f"workloads {names} != {sorted(workloads.WORKLOADS)}")
    all_names = names + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for n in all_names:
        if not NAME.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(set(all_names)) != len(all_names):
        errors.append("a name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"bad unit or direction in {m}")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"bad end-to-end metric {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]):
        errors.append("no setup_s metric")
    return errors


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 2:
        errors.append(f"{where}: output check: {proc.stderr.strip()}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: metrics {sorted(set(got) ^ set(wanted))} missing or extra")
    for name, unit in wanted.items():
        v = got.get(name, {})
        if v.get("unit") != unit or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            errors.append(f"{where}: {name} = {v}, want a number in {unit}")
    return errors


def check_bare_directory() -> list[str]:
    """run.py must fail, printing no result, beside BENCHMARK.json alone."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name)
        proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                               "per_short", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_json(bench)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            errors += check_run(workload, trace, bench)
    errors += check_bare_directory()
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
