import hashlib
import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from ssic import sweeps
from ssic.cli import main
from ssic.sweeps import (
    NETSIM_COLUMNS,
    SWEEP_COLUMNS,
    SweepSpec,
    binomial_ci95,
    load_spec_file,
    rows_to_csv,
    run_netsim,
    run_sweep,
)

GOLDEN_SEED_BER_CSV = (
    "mode,snr_db,L,n_streams,variant,trials,n,errors,rate,ci95\n"
    "seed_ber,0,16,1,hd,400,400,176,0.44,0.0486459206923\n"
    "seed_ber,0,16,1,hrsx,400,400,13,0.0325,0.0173777379138\n"
    "seed_ber,4,16,1,hd,400,400,32,0.08,0.0265867335339\n"
    "seed_ber,4,16,1,hrsx,400,400,1,0.0025,0.00489387116708\n"
)

# recorded with the one-word-at-a-time sweep loop, before blocks existed
GOLDEN_PAYLOAD_BER_CSV = (
    "mode,snr_db,L,n_streams,variant,trials,n,errors,rate,ci95\n"
    "payload_ber,0,16,2,naive,30,9600,1946,0.202708333333,0.00804201481283\n"
    "payload_ber,0,16,2,hrsx,30,9600,384,0.04,0.00392\n"
    "payload_ber,0,16,2,srsx,30,9600,230,0.0239583333333,0.00305902435876\n"
    "payload_ber,3,16,2,naive,30,9600,405,0.0421875,0.00402117154032\n"
    "payload_ber,3,16,2,hrsx,30,9600,12,0.00125,0.000706811907735\n"
    "payload_ber,3,16,2,srsx,30,9600,12,0.00125,0.000706811907735\n"
)
GOLDEN_PACKET_PER_CSV = (
    "mode,snr_db,L,n_streams,variant,trials,n,errors,rate,ci95\n"
    "packet_per,2,12,1,hd,40,40,39,0.975,0.0483836232624\n"
    "packet_per,2,12,1,naive,40,40,39,0.975,0.0483836232624\n"
    "packet_per,2,12,1,hrsx,40,40,38,0.95,0.0675418388852\n"
    "packet_per,2,12,1,srsx,40,40,38,0.95,0.0675418388852\n"
    "packet_per,5,12,1,hd,40,40,23,0.575,0.153198482368\n"
    "packet_per,5,12,1,naive,40,40,23,0.575,0.153198482368\n"
    "packet_per,5,12,1,hrsx,40,40,22,0.55,0.154174900681\n"
    "packet_per,5,12,1,srsx,40,40,22,0.55,0.154174900681\n"
)

# recorded before transmit computed its LLRs with awgn_llrs; bursts at
# attenuations that are not powers of two exercise the in-window noise
GOLDEN_NETSIM_CSV = (
    "run_id,mode,sent,plr,per,fr\n"
    "0,stream1,300,0.0333333333333,0.734482758621,0.743333333333\n"
    "0,stream2,300,0.02,0.731292517007,0.736666666667\n"
    "0,dup,300,0,0.546666666667,0.546666666667\n"
    "0,ssic,300,0,0.0433333333333,0.0433333333333\n"
    "1,stream1,300,0.0166666666667,0.359322033898,0.37\n"
    "1,stream2,300,0.0133333333333,0.327702702703,0.336666666667\n"
    "1,dup,300,0.00333333333333,0.133779264214,0.136666666667\n"
    "1,ssic,300,0.00333333333333,0.0133779264214,0.0166666666667\n"
)
GOLDEN_NETSIM_HRSX_CSV = (
    "run_id,mode,sent,plr,per,fr\n"
    "0,stream1,150,0,1,1\n"
    "0,stream2,150,0,1,1\n"
    "0,stream3,150,0,1,1\n"
    "0,dup,150,0,1,1\n"
    "0,ssic,150,0,0.22,0.22\n"
    "1,stream1,150,0,0.84,0.84\n"
    "1,stream2,150,0,0.8,0.8\n"
    "1,stream3,150,0,0.746666666667,0.746666666667\n"
    "1,dup,150,0,0.52,0.52\n"
    "1,ssic,150,0,0,0\n"
)

# recorded with the build-then-sort arrival loop, before arrivals streamed
# through a heap; jitter 3.0 interleaves the copies of neighbouring packets
GOLDEN_NETSIM_ORDER_CSV = {
    0.0: (
        "run_id,mode,sent,plr,per,fr\n"
        "0,stream1,200,0.03,1,1\n"
        "0,stream2,200,0.04,1,1\n"
        "0,stream3,200,0.075,1,1\n"
        "0,dup,200,0,1,1\n"
        "0,ssic,200,0,0.095,0.095\n"
        "1,stream1,200,0.04,0.734375,0.745\n"
        "1,stream2,200,0.055,0.714285714286,0.73\n"
        "1,stream3,200,0.09,0.752747252747,0.775\n"
        "1,dup,200,0,0.4,0.4\n"
        "1,ssic,200,0,0.005,0.005\n"
    ),
    3.0: (
        "run_id,mode,sent,plr,per,fr\n"
        "0,stream1,200,0.03,1,1\n"
        "0,stream2,200,0.04,1,1\n"
        "0,stream3,200,0.075,1,1\n"
        "0,dup,200,0,1,1\n"
        "0,ssic,200,0,0.105,0.105\n"
        "1,stream1,200,0.04,0.734375,0.745\n"
        "1,stream2,200,0.055,0.714285714286,0.73\n"
        "1,stream3,200,0.09,0.752747252747,0.775\n"
        "1,dup,200,0,0.4,0.4\n"
        "1,ssic,200,0,0.005,0.005\n"
    ),
}
# per grid point: sha256 prefix of the PacketRecords (see _records_digest)
# and the AggregatorStats fields
GOLDEN_NETSIM_ORDER_POINTS = {
    0.0: [
        ("67f8939d1565025b",
         dict(delivered=181, delivered_hard=0, delivered_combined=181, duplicate_drops=101,
              header_invalid_drops=0, soft_stored=289, combine_failures=89,
              pending_evictions=0)),
        ("b4f544cb4776025f",
         dict(delivered=199, delivered_hard=92, delivered_combined=107, duplicate_drops=216,
              header_invalid_drops=0, soft_stored=148, combine_failures=1,
              pending_evictions=0)),
    ],
    3.0: [
        ("87f5a7d371b2f294",
         dict(delivered=179, delivered_hard=0, delivered_combined=179, duplicate_drops=89,
              header_invalid_drops=0, soft_stored=303, combine_failures=103,
              pending_evictions=0)),
        ("b4f544cb4776025f",
         dict(delivered=199, delivered_hard=86, delivered_combined=113, duplicate_drops=210,
              header_invalid_drops=0, soft_stored=154, combine_failures=2,
              pending_evictions=0)),
    ],
}


def test_default_variants_by_mode():
    assert SweepSpec("seed_ber", [0.0]).variants == ("hd", "hrsx")
    assert SweepSpec("payload_ber", [0.0]).variants == ("naive", "hrsx", "srsx")
    assert SweepSpec("packet_per", [0.0]).variants == ("naive", "hrsx", "srsx")
    assert SweepSpec("netsim", [0.0]).variants == ("srsx",)


def test_offsets_default_to_zero_per_stream():
    spec = SweepSpec("payload_ber", [1.0], n_streams=3)
    assert spec.stream_snr_offsets == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("kwargs,field", [
    (dict(mode="nope", snr_grid=[0.0]), "mode"),
    (dict(mode="seed_ber", snr_grid=[]), "snr_grid"),
    (dict(mode="seed_ber", snr_grid=[float("nan")]), "snr_grid"),
    (dict(mode="seed_ber", snr_grid=[0.0], L=6), "L"),
    (dict(mode="seed_ber", snr_grid=[0.0], n_streams=0), "n_streams"),
    (dict(mode="seed_ber", snr_grid=[0.0], stream_snr_offsets=[0.0, 1.0]),
     "stream_snr_offsets"),
    (dict(mode="seed_ber", snr_grid=[0.0], trials=0), "trials"),
    (dict(mode="payload_ber", snr_grid=[0.0], payload_bytes=0), "payload_bytes"),
    (dict(mode="payload_ber", snr_grid=[0.0], payload_bytes=1501), "payload_bytes"),
    (dict(mode="seed_ber", snr_grid=[0.0], variants=()), "variants"),
    (dict(mode="seed_ber", snr_grid=[0.0], variants=("bogus",)), "variants"),
    (dict(mode="payload_ber", snr_grid=[0.0], n_streams=2, variants=("hd",)),
     "variants"),
    (dict(mode="netsim", snr_grid=[0.0], variants=("srsx", "hrsx")), "variants"),
    (dict(mode="netsim", snr_grid=[0.0], variants=("hd",)), "variants"),
    (dict(mode="seed_ber", snr_grid=[0.0], detection_loss_prob=1.2),
     "detection_loss_prob"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_prob=-0.5), "burst_prob"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_llr_atten=2.0), "burst_llr_atten"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_len_mean=0.0), "burst_len_mean"),
    (dict(mode="seed_ber", snr_grid=[0.0], window_size=0), "window_size"),
    (dict(mode="seed_ber", snr_grid=[0.0], arrival_jitter=-1.0), "arrival_jitter"),
    (dict(mode="netsim", snr_grid=[0.0], window_size=32768), "window_size"),
    (dict(mode="seed_ber", snr_grid=[0.0], trials="5"), "trials"),
    (dict(mode="seed_ber", snr_grid="1"), "snr_grid"),
    (dict(mode="seed_ber", snr_grid=[0.0], n_streams="2"), "n_streams"),
    (dict(mode="seed_ber", snr_grid=[0.0], L=16.0), "L"),
    (dict(mode="seed_ber", snr_grid=[0.0], variants="hd"), "variants"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_prob=True), "burst_prob"),
    (dict(mode="seed_ber", snr_grid=[0.0], stream_snr_offsets=["0"]), "stream_snr_offsets"),
    (dict(mode="seed_ber", snr_grid=[0.0], arrival_jitter=float("nan")), "arrival_jitter"),
    (dict(mode="seed_ber", snr_grid=[0.0], arrival_jitter=float("inf")), "arrival_jitter"),
    (dict(mode="seed_ber", snr_grid=[0.0], rng_seed=-1), "rng_seed"),
    (dict(mode="seed_ber", snr_grid=[0.0], stream_snr_offsets=[float("nan")]),
     "stream_snr_offsets"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_len_mean=float("nan")), "burst_len_mean"),
    (dict(mode="seed_ber", snr_grid=[0.0], burst_len_mean=float("inf")), "burst_len_mean"),
    (dict(mode="seed_ber", snr_grid=[4000.0]), "snr_grid"),
    (dict(mode="netsim", snr_grid=[0.0, -4000.0]), "snr_grid"),
    (dict(mode="netsim", snr_grid=[3000.0], n_streams=2, stream_snr_offsets=[0.0, 100.0]),
     "stream_snr_offsets entry 100.0"),
    (dict(mode="seed_ber", snr_grid=[3077.0]), "snr_grid"),
    (dict(mode="seed_ber", snr_grid=[3078.0]), "snr_grid"),
    (dict(mode="payload_ber", snr_grid=[3079.0]), "snr_grid"),
    (dict(mode="packet_per", snr_grid=[0.0], variants=("srsx", "srsx")),
     "variants: 'srsx' listed twice"),
    (dict(mode="seed_ber", snr_grid=[0.0], variants=("hd", "hrsx", "hd")),
     "variants: 'hd' listed twice"),
])
def test_validate_names_the_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SweepSpec(**kwargs).validate()


def test_from_dict_contract():
    spec = SweepSpec.from_dict({"mode": "seed_ber", "snr_grid": [1.0], "trials": 5})
    assert spec.trials == 5
    with pytest.raises(ValueError, match="unknown spec keys"):
        SweepSpec.from_dict({"mode": "seed_ber", "snr_grid": [1.0], "trails": 5})
    with pytest.raises(ValueError, match="mode"):
        SweepSpec.from_dict({"snr_grid": [1.0]})
    with pytest.raises(ValueError, match="snr_grid"):
        SweepSpec.from_dict({"mode": "seed_ber"})


def test_binomial_ci95():
    assert binomial_ci95(0, 0) == 0.0
    assert binomial_ci95(0, 100) == 0.0
    assert binomial_ci95(25, 100) == pytest.approx(1.96 * np.sqrt(0.25 * 0.75 / 100))


def test_golden_csv_bytes():
    spec = SweepSpec(mode="seed_ber", snr_grid=[0.0, 4.0], L=16, trials=400,
                     rng_seed=99)
    assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == GOLDEN_SEED_BER_CSV


def test_golden_payload_csv_bytes():
    spec = SweepSpec(mode="payload_ber", snr_grid=[0.0, 3.0], L=16, n_streams=2,
                     stream_snr_offsets=[0.0, 1.0], trials=30, payload_bytes=40,
                     rng_seed=21)
    assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == GOLDEN_PAYLOAD_BER_CSV
    spec = SweepSpec(mode="packet_per", snr_grid=[2.0, 5.0], L=12, trials=40,
                     payload_bytes=16, variants=("hd", "naive", "hrsx", "srsx"),
                     rng_seed=22)
    assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == GOLDEN_PACKET_PER_CSV


def test_golden_netsim_csv_bytes():
    spec = SweepSpec(mode="netsim", snr_grid=[7.0, 8.0], n_streams=2, trials=300,
                     payload_bytes=120, detection_loss_prob=0.02, burst_prob=0.3,
                     burst_llr_atten=0.3, rng_seed=31)
    assert rows_to_csv(NETSIM_COLUMNS, run_netsim(spec)) == GOLDEN_NETSIM_CSV
    spec = SweepSpec(mode="netsim", snr_grid=[3.0, 7.0], n_streams=3, trials=150,
                     payload_bytes=100, variants=("hrsx",), burst_prob=0.5,
                     burst_llr_atten=0.123, burst_len_mean=40.0, rng_seed=32)
    assert rows_to_csv(NETSIM_COLUMNS, run_netsim(spec)) == GOLDEN_NETSIM_HRSX_CSV


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults that Linux reports")
def test_payload_point_does_not_churn_pages():
    """A grid point writes its blocks of trials into buffers it allocated once.
    Block-sized temporaries freed after every block are handed back to the OS
    and faulted in again, a few hundred faults per trial at this shape."""
    import resource

    def point(seed):
        run_sweep(SweepSpec(mode="payload_ber", snr_grid=[2.0], L=16, n_streams=4,
                            stream_snr_offsets=[0.0, 0.5, 1.0, 1.5], trials=100,
                            payload_bytes=1500, variants=("naive", "hrsx", "srsx"),
                            rng_seed=seed))

    point(1)  # warm-up: lazy tables, first-touch of the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    point(2)
    per_trial = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100
    assert per_trial < 40, f"{per_trial:.1f} minor faults per trial"


def _block_bytes(B: int, K: int, L: int, M: int) -> int:
    """What a payload grid point allocates for blocks of B trials x K streams:
    two slots of payload bits (uint8), seeds (intp) and noise (float64), then
    the descrambled rows, the work array (srsx's two scratch blocks) and the
    stream total, all float64."""
    slot = B * M + B * K * 8 + B * K * (L + M) * 8
    return 2 * slot + B * K * M * 8 + B * K * max(2 * M, L + M) * 8 + B * M * 8


# B is the trials per block at BLOCK_FLOATS = 2**17: 2**17 // (K * (L + M + 127)).
# per_short: 2 * 953,792 + 917,504 + 1,835,008 + 229,376 = 4,889,472 bytes;
# ber_long:  2 * 793,088 + 768,000 + 1,536,000 + 192,000 = 4,082,176 bytes.
# The headroom, 1 MB, covers what the kernels allocate per call (seed weights,
# per-phase mask tables, bit decisions): 0.2-0.4 MB when this was written.
# Doubling BLOCK_FLOATS doubles the peak, about +5 MB on a 58 MB process.
@pytest.mark.parametrize("spec, B", [
    (dict(mode="packet_per", snr_grid=[6.0], n_streams=4, trials=250, payload_bytes=256,
          variants=("srsx",)), 14),
    (dict(mode="payload_ber", snr_grid=[2.0], n_streams=4,
          stream_snr_offsets=[0.0, 0.5, 1.0, 1.5], trials=100, payload_bytes=1500,
          variants=("naive", "hrsx", "srsx")), 2),
], ids=["per_short", "ber_long"])
def test_block_memory_is_bounded(spec, B):
    import tracemalloc

    spec = SweepSpec(L=16, rng_seed=1, **spec)
    bound = _block_bytes(B, spec.n_streams, spec.L, spec.payload_bytes * 8) + (1 << 20)
    run_sweep(spec)  # warm-up: lazy tables
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak:,} bytes, bound {bound:,}"



def _records_digest(records) -> str:
    text = "\n".join(f"{r.key.vci} {r.key.vcs} {''.join(str(int(d)) for d in r.detected)} "
                     f"{''.join(str(int(h)) for h in r.hard)} {int(r.ssic_delivered)}"
                     for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("jitter", [0.0, 3.0])
def test_golden_netsim_arrival_order(monkeypatch, jitter):
    # the order in which copies reach the aggregator decides which copies
    # combine first, so the counters pin the arrival order itself
    points = []
    network_point = sweeps.run_network_point

    def capture(*args, **kwargs):
        records, stats = network_point(*args, **kwargs)
        points.append((_records_digest(records), asdict(stats)))
        return records, stats

    monkeypatch.setattr(sweeps, "run_network_point", capture)
    spec = SweepSpec(mode="netsim", snr_grid=[4.0, 7.0], n_streams=3, trials=200,
                     payload_bytes=64, detection_loss_prob=0.05, burst_prob=0.6,
                     burst_llr_atten=0.3, arrival_jitter=jitter, rng_seed=43)
    assert rows_to_csv(NETSIM_COLUMNS, run_netsim(spec)) == GOLDEN_NETSIM_ORDER_CSV[jitter]
    assert points == GOLDEN_NETSIM_ORDER_POINTS[jitter]

@pytest.mark.parametrize("spec", [
    dict(mode="payload_ber", n_streams=1, variants=("hd", "naive", "hrsx", "srsx")),
    dict(mode="payload_ber", n_streams=3, stream_snr_offsets=[0.0, 0.5, -1.0]),
    dict(mode="packet_per", n_streams=1, variants=("hd", "naive", "hrsx", "srsx")),
    dict(mode="packet_per", n_streams=3, stream_snr_offsets=[0.0, 0.5, -1.0]),
    dict(mode="seed_ber", variants=("hd", "naive", "hrsx", "srsx")),
])
def test_csv_does_not_depend_on_the_block_size(monkeypatch, spec):
    spec = SweepSpec(snr_grid=[-1.0, 2.0, 5.0], L=16, trials=7, payload_bytes=5,
                     rng_seed=8, **spec)
    want = rows_to_csv(SWEEP_COLUMNS, run_sweep(spec))
    M = 0 if spec.mode == "seed_ber" else spec.payload_bytes * 8
    k = 1 if spec.mode == "seed_ber" else spec.n_streams
    sizes = []
    blocks = sweeps._trial_blocks

    def recording(*args):
        for block in blocks(*args):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(sweeps, "_trial_blocks", recording)
    # one trial per block, 3 (which does not divide 7), a whole grid point
    for trials_per_block, want_sizes in ((1, [1] * 7), (3, [3, 3, 1]), (7, [7])):
        sizes.clear()
        monkeypatch.setattr(sweeps, "BLOCK_FLOATS", trials_per_block * k * (spec.L + M + 127))
        assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == want
        assert sizes == want_sizes * len(spec.snr_grid)


def test_sample_count_semantics():
    grid = [3.0]
    rows = run_sweep(SweepSpec("seed_ber", grid, trials=40))
    assert all(r[6] == 40 for r in rows)  # n = frames
    rows = run_sweep(SweepSpec("payload_ber", grid, trials=7, payload_bytes=20))
    assert all(r[6] == 7 * 160 for r in rows)  # n = bits
    rows = run_sweep(SweepSpec("packet_per", grid, trials=9, payload_bytes=20))
    assert all(r[6] == 9 for r in rows)  # n = packets
    for r in rows:
        assert r[8] == r[7] / r[6]  # rate column is errors / n


def test_row_order_is_grid_major():
    spec = SweepSpec("payload_ber", [0.0, 1.0], trials=2, payload_bytes=4)
    rows = run_sweep(spec)
    got = [(r[1], r[4]) for r in rows]
    want = [(s, v) for s in (0.0, 1.0) for v in ("naive", "hrsx", "srsx")]
    assert got == want


def test_mode_routing_enforced():
    with pytest.raises(ValueError, match="mode"):
        run_sweep(SweepSpec("netsim", [5.0]))
    with pytest.raises(ValueError, match="mode"):
        run_netsim(SweepSpec("seed_ber", [5.0]))


def test_repeat_runs_are_byte_identical():
    spec = dict(mode="payload_ber", snr_grid=[1.0, 3.0], n_streams=2,
                trials=30, payload_bytes=64, rng_seed=5)
    a = rows_to_csv(SWEEP_COLUMNS, run_sweep(SweepSpec(**spec)))
    b = rows_to_csv(SWEEP_COLUMNS, run_sweep(SweepSpec(**spec)))
    assert a == b


def test_netsim_rows_shape_and_identity():
    spec = SweepSpec("netsim", [8.0, 9.0], n_streams=2, trials=50,
                     payload_bytes=100, rng_seed=1)
    rows = run_netsim(spec)
    assert len(rows) == 2 * (2 + 2)
    modes = [r[1] for r in rows[:4]]
    assert modes == ["stream1", "stream2", "dup", "ssic"]
    assert [r[0] for r in rows] == [0, 0, 0, 0, 1, 1, 1, 1]
    for r in rows:
        run_id, mode, sent, plr, per, fr = r
        assert sent == 50
        assert fr == 1.0 - (1.0 - plr) * (1.0 - per)  # exact identity


def test_netsim_determinism():
    spec = dict(mode="netsim", snr_grid=[8.5], n_streams=2, trials=60,
                payload_bytes=80, rng_seed=3)
    a = rows_to_csv(NETSIM_COLUMNS, run_netsim(SweepSpec(**spec)))
    b = rows_to_csv(NETSIM_COLUMNS, run_netsim(SweepSpec(**spec)))
    assert a == b


# --------------------------------------------------------------------- cli

def test_cli_sweep_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--mode", "seed_ber", "--snr-grid", "0,4", "--L", "16",
               "--trials", "400", "--rng-seed", "99", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == GOLDEN_SEED_BER_CSV


def test_cli_sweep_stdout(capsys):
    rc = main(["sweep", "--mode", "seed_ber", "--snr-grid", "2", "--trials", "20"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 2  # hd and hrsx rows


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"mode": "seed_ber", "snr_grid": [0.0, 4.0],
                               "trials": 123, "rng_seed": 99}))
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--config", str(cfg), "--trials", "400", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == GOLDEN_SEED_BER_CSV


def test_cli_netsim(tmp_path):
    out = tmp_path / "net.csv"
    rc = main(["netsim", "--snr-grid", "9", "--n-streams", "2", "--trials", "40",
               "--payload-bytes", "60", "--variant", "srsx", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(NETSIM_COLUMNS)
    assert len(lines) == 1 + 4


def test_cli_error_paths(tmp_path, capsys):
    assert main(["sweep", "--mode", "seed_ber", "--snr-grid", "1", "--L", "3"]) == 2
    assert "error: L" in capsys.readouterr().err
    # spec file with an unknown key
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "seed_ber", "snr_grid": [1.0], "typo": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "unknown spec keys" in capsys.readouterr().err
    # mode entirely missing
    assert main(["sweep", "--snr-grid", "1"]) == 2
    assert "mode" in capsys.readouterr().err
    # nonexistent config file is an I/O error, not a crash
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    # a JSON value of the wrong type is named, not a traceback
    cfg.write_text(json.dumps({"mode": "seed_ber", "snr_grid": [1.0], "trials": "5"}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error: trials" in capsys.readouterr().err
    # an SNR whose noise variance or its 2/sigma^2 no double holds is named,
    # not an overflow
    for snr_db in ("4000", "3077", "3078", "3079"):
        assert main(["sweep", "--mode", "seed_ber", "--snr-grid", snr_db, "--trials", "5"]) == 2
        assert "error: snr_grid" in capsys.readouterr().err
    assert main(["netsim", "--snr-grid=-4000", "--trials", "2", "--payload-bytes", "10"]) == 2
    assert "error: snr_grid" in capsys.readouterr().err
    # an --out in a missing directory fails before the run, not after it
    assert main(["sweep", "--mode", "seed_ber", "--snr-grid", "0", "--trials", "5",
                 "--out", str(tmp_path / "missing_dir" / "x.csv")]) == 2
    assert "error: " in capsys.readouterr().err
    # a repeated variant would count its errors twice into one row
    assert main(["sweep", "--mode", "packet_per", "--snr-grid", "0", "--trials", "5",
                 "--payload-bytes", "16", "--variants", "srsx,srsx"]) == 2
    assert "error: variants: 'srsx' listed twice" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    code = "import sys, ssic; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_load_spec_file_requires_object(tmp_path):
    f = tmp_path / "arr.json"
    f.write_text("[1,2]")
    with pytest.raises(ValueError, match="config"):
        load_spec_file(f)
