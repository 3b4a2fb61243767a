"""The four pinned workloads and the checks their outputs must pass.

A workload is a fixed SweepSpec shape.  One *chunk* is one call of
run_sweep or run_netsim on that shape; a run repeats chunks, each with its
own rng_seed derived from the run's --seed, until its time is up.  A timed
chunk takes 1-2.5 s: as large as a real call can be while a 10-s run still
holds several chunks (NOTES.md compares them with users' calls).  Every run
first makes one reference chunk, with a fixed rng_seed, whose CSV must
match reference/<workload>.csv byte for byte.  Each chunk holds as much
memory as a user's call of its size would, so peak RSS shows held soft
words.  Both sizes are pinned here and never depend on the run length.

Why each workload exists is written down in NOTES.md next to this file.
"""

from __future__ import annotations

from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# rng_seed of the reference chunk; timed chunks use (seed << 20) | (index + 1)
REFERENCE_RNG_SEED = 0
# trials of the reference chunk; WORKLOADS holds the timed chunks' trials
REFERENCE_TRIALS = {"per_short": 50, "ber_long": 25, "netsim_soft": 200, "netsim_clean": 400}

WORKLOADS: dict[str, dict] = {
    # criterion 8's configuration: short words, fixed per-word cost dominates
    "per_short": dict(mode="packet_per", snr_grid=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
                      L=16, n_streams=4, trials=250, payload_bytes=256,
                      variants=("srsx",)),
    # criterion 6's configuration: long words, per-bit work dominates
    "ber_long": dict(mode="payload_ber", snr_grid=[-1.0, 0.0, 2.0, 6.0], L=16,
                     n_streams=4, stream_snr_offsets=[0.0, 0.5, 1.0, 1.5],
                     trials=100, payload_bytes=1500,
                     variants=("naive", "hrsx", "srsx")),
    # most detected copies arrive soft; combining rescues most packets
    "netsim_soft": dict(mode="netsim", snr_grid=[8.0], L=16, n_streams=2,
                        trials=400, payload_bytes=1500, variants=("srsx",),
                        detection_loss_prob=0.01, burst_prob=0.1,
                        burst_llr_atten=0.25),
    # criterion 11's pinned point: almost every copy is clean
    "netsim_clean": dict(mode="netsim", snr_grid=[10.2], L=16, n_streams=2,
                         trials=800, payload_bytes=1500, variants=("srsx",),
                         detection_loss_prob=2e-4),
}


def chunk_fields(name: str, rng_seed: int) -> dict:
    """SweepSpec fields of one timed chunk of a workload."""
    return dict(WORKLOADS[name], rng_seed=rng_seed)


def reference_fields(name: str) -> dict:
    return dict(WORKLOADS[name], rng_seed=REFERENCE_RNG_SEED,
                trials=REFERENCE_TRIALS[name])


def chunk_rng_seed(seed: int, index: int) -> int:
    return (seed << 20) | (index + 1)


def packets(fields: dict) -> int:
    """Simulated packets in one chunk: trials x grid points."""
    return fields["trials"] * len(fields["snr_grid"])


def check_rows(fields: dict, rows: list[list], stats: list) -> list[str]:
    """Invariants every chunk's rows must satisfy; returns the violations.

    stats holds the AggregatorStats of each run_network_point call (netsim
    workloads only), captured by the worker.
    """
    errors = []
    grid = fields["snr_grid"]
    if fields["mode"] == "netsim":
        n_modes = fields["n_streams"] + 2
        if len(rows) != len(grid) * n_modes:
            errors.append(f"expected {len(grid) * n_modes} rows, got {len(rows)}")
        for row in rows:
            _, mode, sent, plr, per, fr = row
            if sent != fields["trials"]:
                errors.append(f"{mode}: sent {sent} != trials {fields['trials']}")
            if fr != 1.0 - (1.0 - plr) * (1.0 - per):
                errors.append(f"{mode}: fr {fr!r} breaks fr = 1-(1-plr)(1-per)")
        if len(stats) != len(grid):
            errors.append(f"captured {len(stats)} aggregator stats for {len(grid)} points")
        for s in stats:
            if s.delivered != s.delivered_hard + s.delivered_combined:
                errors.append(f"delivered {s.delivered} != hard {s.delivered_hard}"
                              f" + combined {s.delivered_combined}")
        return errors
    n_bits = fields["payload_bytes"] * 8
    if len(rows) != len(grid) * len(fields["variants"]):
        errors.append(f"expected {len(grid) * len(fields['variants'])} rows, got {len(rows)}")
    for row in rows:
        mode, _, _, _, variant, trials, n, errs, rate, _ = row
        want_n = trials * n_bits if mode == "payload_ber" else trials
        if (mode, trials, n) != (fields["mode"], fields["trials"], want_n):
            errors.append(f"{variant}: row {row[:7]} does not match the spec")
        if not 0 <= errs <= n or rate != errs / n:
            errors.append(f"{variant}: errors {errs} / n {n} / rate {rate!r} inconsistent")
    return errors


def reference_csv(name: str) -> str:
    return (REFERENCE_DIR / f"{name}.csv").read_text()
