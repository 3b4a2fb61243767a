"""One benchmark process; run.py starts it and reads what it prints.

    worker.py setup ROOT START
        import ssic from ROOT/src and fill its lazy tables; print the set-up
        time, from START (the CLOCK_MONOTONIC time at which run.py started
        this process) to ready, and exit.
    worker.py run ROOT START WORKLOAD SEED SECONDS TRACE
        the same set-up, then one reference chunk compared byte for byte
        with reference/WORKLOAD.csv, then timed chunks for SECONDS seconds.
        With TRACE 0 each chunk is timed untraced; with TRACE 1 each chunk
        runs untraced and then traced, and the two CSVs must be identical.
        Prints a second JSON object.

The host this runs on may change speed by up to 2x within seconds, as other
loads come and go.  So every timing is also given at a reference speed:
a fixed calibration mix (calibrate) is timed right next to it, and the
timing is scaled by REFERENCE_CALIBRATION_S / the mix's time.  Inside an
untraced timed chunk the mix runs every CALIBRATE_EVERY_S (SpeedSampler);
a traced chunk's spans are scaled by the mix timed before and after it.
The mix is benchmark code that calls nothing in ssic, so a change to ssic
never changes it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, owner_of, patched

# calibrate()'s time on the host the benchmark was defined on
REFERENCE_CALIBRATION_S = 0.015
# how often SpeedSampler runs calibrate() inside a run call
CALIBRATE_EVERY_S = 0.1
# (module, class inside it or "", name): called many times in every phase
# of a run call; SpeedSampler calibrates between two calls
SAMPLE_AT = [("ssic.sweeps", "", "soft_copy"), ("ssic.netstack", "", "transmit"),
             ("ssic.netstack", "Aggregator", "push")]


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work, small NumPy and SciPy calls
    and word-sized NumPy arrays takes now: the kinds of work ssic does."""
    import numpy as np
    from scipy.special import expit, logsumexp

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    acc = 0
    for j in range(60_000):
        acc += j * j
    a, x = np.arange(127), rng.normal(size=12_500)
    for _ in range(300):
        np.exp(x[:127]).sum()
        np.concatenate([(a * 3) % 127, a])[:10].copy()
    for _ in range(50):
        logsumexp(x[:127])
        expit(x[:127]).sum()
    for _ in range(4):
        np.logaddexp(0.0, rng.normal(size=12_500)).sum()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


class SpeedSampler:
    """Times one run call at reference speed, piece by piece.

    While the call runs, the names in SAMPLE_AT are wrapped: at the first
    call after CALIBRATE_EVERY_S, calibrate() runs and a new piece begins.
    Each piece is scaled by the mean of the calibrations at its two ends,
    and the calibrations are left out of the time.  A name that is gone
    from ssic is skipped; the call is then one piece.
    """

    def __init__(self, calibration_s: float):
        self.calibrations = [calibration_s]
        self.pieces: list[float] = []

    def run(self, fn, *args):
        mark = time.perf_counter()

        def sampling(original):
            def sampled(*a, **kw):
                nonlocal mark
                now = time.perf_counter()
                if now - mark >= CALIBRATE_EVERY_S:
                    self.pieces.append(now - mark)
                    self.calibrations.append(calibrate())
                    mark = time.perf_counter()
                return original(*a, **kw)

            return sampled

        owners = [(owner_of(module, cls), attr) for module, cls, attr in SAMPLE_AT]
        with patched([(owner, attr, sampling(getattr(owner, attr)))
                      for owner, attr in owners if hasattr(owner, attr)]):
            result = fn(*args)
        self.pieces.append(time.perf_counter() - mark)
        self.calibrations.append(calibrate())
        return result

    def seconds(self) -> float:
        return sum(self.pieces)

    def reference_seconds(self) -> float:
        c = self.calibrations
        return sum(at_reference_speed(t, (a + b) / 2)
                   for t, a, b in zip(self.pieces, c, c[1:]))


def setup(root: Path):
    """Import ssic from the checkout and fill the tables it builds lazily."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import ssic

    if Path(ssic.__file__).resolve().parent != (src / "ssic").resolve():
        raise RuntimeError(f"imported ssic from {ssic.__file__}, not from {src}")
    ssic.mask_matrix(16)  # pilot mask matrix at the workloads' L
    ssic.z_sequence_table()  # seed -> output period table
    for v in range(128):  # LFSR output-period cache, every register state
        ssic.lfsr_run(ssic.seed_from_int(v), 1)
    return ssic


def _run_chunk(ssic, fields: dict, call=None):
    """(csv, rows, captured aggregator stats, seconds in the run call)."""
    import ssic.sweeps as sweeps

    stats = []
    original = sweeps.run_network_point

    def capture(*args, **kwargs):
        records, st = original(*args, **kwargs)
        stats.append(st)
        return records, st

    spec = ssic.SweepSpec(**fields)
    entry = sweeps.run_netsim if spec.mode == "netsim" else sweeps.run_sweep
    columns = sweeps.NETSIM_COLUMNS if spec.mode == "netsim" else sweeps.SWEEP_COLUMNS
    with patched([(sweeps, "run_network_point", capture)]):
        start = time.perf_counter()
        rows = call(entry, spec) if call else entry(spec)
        elapsed = time.perf_counter() - start
    return sweeps.rows_to_csv(columns, rows), rows, stats, elapsed


def run(ssic, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    attempted = failed = 0
    problems = []

    def record(ok: bool, what: str, detail: str):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"{what}: {detail}")

    try:
        fields = workloads.reference_fields(workload)
        csv, rows, stats, _ = _run_chunk(ssic, fields)
        errors = workloads.check_rows(fields, rows, stats)
        if csv != workloads.reference_csv(workload):
            errors.append("CSV differs from the recorded reference")
    except Exception:
        errors = [traceback.format_exc(limit=-3)]
    record(not errors, "reference chunk", "; ".join(errors))

    tracer = Tracer() if trace else None
    rates, wall_rates, untraced_s, traced_s, traced_stats = [], [], 0.0, 0.0, []
    calibration_s = calibrate()
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() - start < seconds:
        fields = workloads.chunk_fields(workload, workloads.chunk_rng_seed(seed, index))
        index += 1
        sampler = SpeedSampler(calibration_s)
        try:
            csv, rows, stats, _ = _run_chunk(ssic, fields, sampler.run)
            calibration_s = sampler.calibrations[-1]
            errors = workloads.check_rows(fields, rows, stats)
            if trace:
                first_span = len(tracer.spans)
                with tracer.installed():
                    csv_t, rows, stats, elapsed_t = _run_chunk(ssic, fields, tracer.root)
                before, calibration_s = calibration_s, calibrate()
                factor = at_reference_speed(1.0, (before + calibration_s) / 2)
                tracer.scale(first_span, factor)
                errors += workloads.check_rows(fields, rows, stats)
                if csv_t != csv:
                    errors.append("traced CSV differs from the untraced CSV")
                untraced_s += sampler.reference_seconds()
                traced_s += elapsed_t * factor
                traced_stats += stats
        except Exception:  # a raising run counts as failed, the run goes on
            errors = [traceback.format_exc(limit=-3)]
            calibration_s = calibrate()
        record(not errors, f"chunk {index - 1}", "; ".join(errors))
        if not errors:
            n = workloads.packets(fields)
            rates.append(n / sampler.reference_seconds())
            wall_rates.append(n / sampler.seconds())

    out = {"attempted": attempted, "failed": failed, "problems": problems[:10],
           "rates": rates, "wall_rates": wall_rates,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        layers = tracer.layer_metrics(len(workloads.WORKLOADS[workload]["snr_grid"]),
                                      traced_stats)
        layers["trace.overhead_frac"] = (traced_s / untraced_s - 1.0) if untraced_s else 0.0
        out["layers"] = layers
    return out


def main(argv: list[str]) -> int:
    command, root, started = argv[0], Path(argv[1]), float(argv[2])
    ssic = setup(root)
    wall = time.monotonic() - started
    print(json.dumps({"setup_s": at_reference_speed(wall, calibrate()), "setup_wall_s": wall}),
          flush=True)
    if command == "run":
        workload, seed, seconds, trace = argv[3], int(argv[4]), float(argv[5]), argv[6] == "1"
        print(json.dumps(run(ssic, workload, seed, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
