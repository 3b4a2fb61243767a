import hashlib
import json
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssic import descramble, netstack, sweeps
from ssic.channel import ChannelParams
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
# per grid point: sha256 prefix of the outcome columns (see _records_digest)
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


# every spec that is refused, with the field its message names
REFUSED_SPECS = [
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
    (dict(mode="seed_ber", snr_grid=[0.0], n_streams=2), "n_streams"),
    (dict(mode="seed_ber", snr_grid=[0.0], n_streams=2, stream_snr_offsets=[10.0, 10.0]),
     "n_streams"),
    # valid netsim settings, which the sweep modes would silently ignore
    *[(dict(mode=mode, snr_grid=[4.0], **{name: value}), f"{name}: only netsim")
      for mode in ("seed_ber", "payload_ber", "packet_per")
      for name, value in [("detection_loss_prob", 0.9), ("burst_prob", 1.0),
                          ("burst_len_mean", 10.0), ("burst_llr_atten", 0.01),
                          ("window_size", 3), ("arrival_jitter", 9.0)]],
    # the range rules of those fields, reached only in netsim
    *[(dict(mode="netsim", snr_grid=[0.0], **{name: value}), rule)
      for name, value, rule in [
          ("arrival_jitter", -1.0, "arrival_jitter: must be finite and >= 0"),
          ("arrival_jitter", float("nan"), "arrival_jitter: must be finite and >= 0"),
          ("arrival_jitter", float("inf"), "arrival_jitter: must be finite and >= 0"),
          ("window_size", 0, "window_size: must be in"),
          ("burst_llr_atten", 2.0, "burst_llr_atten out of"),
          ("burst_len_mean", 0.0, "burst_len_mean must be finite and >= 1"),
          ("burst_len_mean", float("nan"), "burst_len_mean must be finite and >= 1"),
          ("burst_len_mean", float("inf"), "burst_len_mean must be finite and >= 1")]],
    # one trial must fit in a block of BLOCK_FLOATS = 2**17 floats
    (dict(mode="seed_ber", snr_grid=[0.0], L=10**12), "L: a word of"),
    (dict(mode="packet_per", snr_grid=[0.0], L=(1 << 17) - 127 - 8 + 1, payload_bytes=1),
     "L: a word of"),
    (dict(mode="payload_ber", snr_grid=[0.0], n_streams=11), "n_streams: a trial of"),
    (dict(mode="packet_per", snr_grid=[0.0], n_streams=10**7), "n_streams: a trial of"),
    (dict(mode="packet_per", snr_grid=[0.0], n_streams=10**7, stream_snr_offsets=[0.0]),
     "n_streams: a trial of"),
    (dict(mode="seed_ber", snr_grid=[0.0], n_streams=10**7), "n_streams"),
    # seed_ber sends no payload, so a payload_bytes it would ignore is refused
    (dict(mode="seed_ber", snr_grid=[0.0], payload_bytes=6), "payload_bytes: seed_ber"),
    (dict(mode="seed_ber", snr_grid=[0.0], payload_bytes=0), "payload_bytes: seed_ber"),
    # a netsim packet, one word per stream, is held to a sweep trial's bound
    (dict(mode="netsim", snr_grid=[0.0], n_streams=11, payload_bytes=1500),
     "n_streams: a trial of"),
    (dict(mode="netsim", snr_grid=[0.0], n_streams=10**6), "n_streams: a trial of"),
    # a mode of the wrong type, which the default variants are not looked up for
    (dict(mode=[], snr_grid=[0.0]), "mode"),
    (dict(mode={"a": 1}, snr_grid=[0.0]), "mode"),
    # an in-window noise variance sigma^2 / burst_llr_atten that overflows
    (dict(mode="netsim", snr_grid=[0.0], burst_prob=1.0, burst_llr_atten=1e-320),
     "burst_llr_atten"),
    (dict(mode="netsim", snr_grid=[-3000.0], burst_prob=1.0, burst_llr_atten=1e-20),
     "snr_grid"),
    # a netsim word is a frame, so it also holds FRAME_OVERHEAD_BITS: 131,560 floats
    (dict(mode="netsim", snr_grid=[0.0], L=130_929, payload_bytes=1), "L"),
]


@pytest.mark.parametrize("kwargs,field", REFUSED_SPECS)
def test_validate_names_the_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SweepSpec(**kwargs).validate()


@pytest.mark.parametrize("kwargs,field", REFUSED_SPECS)
def test_a_refused_spec_is_never_made(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SweepSpec(**kwargs)


# a netsim point's sizes, each refused by one rule (netstack.check_point_sizes)
# that a netsim spec and run_network_point share: the message, field name
# first, is the same from both
BAD_POINT_SIZES = [
    ("payload_bytes", 2000, r"^payload_bytes: must be in \[0, 1500\], got 2000$"),
    ("payload_bytes", -1, r"^payload_bytes: must be in \[0, 1500\], got -1$"),
    ("payload_bytes", 10.0, "^payload_bytes: must be an integer, got 10.0$"),
    ("L", 3, "^L must be at least 7, got 3$"),
    ("L", 16.0, "^L must be an integer, got 16.0$"),
    ("L", True, "^L must be an integer, got True$"),
    ("arrival_jitter", -1, "^arrival_jitter: must be finite and >= 0, got -1$"),
    ("arrival_jitter", float("nan"), "^arrival_jitter: must be finite and >= 0, got nan$"),
    ("arrival_jitter", float("inf"), "^arrival_jitter: must be finite and >= 0, got inf$"),
    # a bool, and an integer past a double, which used to overflow in a run
    ("arrival_jitter", True, "^arrival_jitter: must be finite and >= 0, got True$"),
    ("arrival_jitter", 10**400, "^arrival_jitter: must be finite and >= 0, got 1000"),
]


@pytest.mark.parametrize("name, value, refusal", BAD_POINT_SIZES,
                         ids=[f"{name}-{value!r:.8}" for name, value, _ in BAD_POINT_SIZES])
def test_a_bad_point_size_is_refused_alike_by_a_netsim_spec_and_run_network_point(
        name, value, refusal):
    sizes = {"payload_bytes": 10, "L": 16, "arrival_jitter": 0.5, name: value}
    with pytest.raises(ValueError, match=refusal) as by_spec:
        SweepSpec(mode="netsim", snr_grid=[8.0], n_streams=2, **sizes)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=refusal) as by_point:
        netstack.run_network_point(3, sizes["payload_bytes"], [ChannelParams(snr_db=8.0)] * 2,
                                   sizes["L"], rng, arrival_jitter=sizes["arrival_jitter"])
    assert str(by_point.value) == str(by_spec.value)
    assert rng.bit_generator.state == before  # refused before any draw


def test_a_changed_field_is_checked_by_replace():
    spec = SweepSpec("packet_per", [0.0], n_streams=2, trials=5)
    with pytest.raises(ValueError, match="trials:"):
        replace(spec, trials=0)


@pytest.mark.parametrize("mode", ["seed_ber", "payload_ber", "packet_per", "netsim"])
def test_a_huge_stream_count_fails_before_anything_its_size_is_made(mode):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_streams"):
            SweepSpec(mode, [0.0], n_streams=10**7).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak:,} bytes"


def test_a_trial_that_fills_a_block_is_accepted():
    SweepSpec("payload_ber", [0.0], n_streams=10, stream_snr_offsets=[0.0] * 10).validate()
    SweepSpec("packet_per", [0.0], L=(1 << 17) - 127 - 8, payload_bytes=1).validate()
    SweepSpec("seed_ber", [0.0], L=(1 << 17) - 127).validate()
    SweepSpec("netsim", [0.0], n_streams=10, payload_bytes=1500).validate()
    assert SweepSpec("packet_per", [0.0], n_streams=10).stream_snr_offsets == [0.0] * 10


# What a 1-trial grid point of an accepted spec may allocate: a trial holds
# at most BLOCK_FLOATS floats, and the sweep holds two draw slots, the
# descrambled rows, srsx's two scratch blocks and the stream total; two more
# blocks cover the kernels' temporaries.  8 blocks of float64: 8 MiB.
SPEC_BUDGET_BYTES = 8 * 8 * sweeps.BLOCK_FLOATS

_SPEC_FIELDS = [f.name for f in fields(SweepSpec)]
_SIZES = st.sampled_from([0, 1, 2, 7, 10, 11, 16, 127, 128, 1500, 1501, 4096, 130945, 130946,
                          10**12])
# a value for each field that is often accepted, so that specs get run
_NEAR_VALID = {
    "mode": st.sampled_from(sweeps.MODES),
    "snr_grid": st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=3),
    "L": _SIZES | st.integers(0, 200),
    "n_streams": _SIZES | st.integers(0, 12),
    "stream_snr_offsets": st.lists(st.floats(-10.0, 10.0), max_size=4),
    "trials": _SIZES,
    "payload_bytes": _SIZES | st.integers(0, 1501),
    "variants": st.lists(st.sampled_from(sweeps.VARIANTS + ("bogus",)), max_size=3),
    "rng_seed": _SIZES | st.just(-1),
    "detection_loss_prob": st.floats(0.0, 1.0),
    "burst_prob": st.floats(0.0, 1.0),
    "burst_len_mean": st.floats(0.5, 1e3),
    "burst_llr_atten": st.floats(0.0, 1.0),
    "window_size": _SIZES | st.integers(0, 40000),
    "arrival_jitter": st.floats(-1.0, 10.0),
}
# any JSON value: null, bool, int, float (NaN and infinities too, which
# json.loads reads), string, list and object, numbers up to 10**12 in size
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _spec_dicts(draw):
    """A JSON config: mode, snr_grid and up to 4 more fields, near valid,
    then half the time one field of any JSON value."""
    d = {name: draw(_NEAR_VALID[name]) for name in ("mode", "snr_grid")}
    for name in draw(st.sets(st.sampled_from(_SPEC_FIELDS[2:]), max_size=4)):
        d[name] = draw(_NEAR_VALID[name])
    if draw(st.booleans()):
        d[draw(st.sampled_from(_SPEC_FIELDS))] = draw(_JSON)
    return d


@given(_spec_dicts())
# the largest trial of each mode
@example({"mode": "seed_ber", "snr_grid": [0], "L": (1 << 17) - 127})
@example({"mode": "packet_per", "snr_grid": [0], "L": (1 << 17) - 127 - 8,
          "payload_bytes": 1})
@example({"mode": "payload_ber", "snr_grid": [0], "n_streams": 10})
@example({"mode": "netsim", "snr_grid": [0], "n_streams": 10})
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_config_is_refused_naming_a_field_or_runs_within_the_budget(d):
    import tracemalloc

    try:
        spec = SweepSpec.from_dict(d)
    except ValueError as e:
        assert re.match(r"\w+", str(e))[0] in _SPEC_FIELDS, str(e)
        return
    one = replace(spec, snr_grid=spec.snr_grid[:1], trials=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tracemalloc.start()
        try:
            (run_netsim if one.mode == "netsim" else run_sweep)(one)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < SPEC_BUDGET_BYTES, f"peak {peak:,} bytes for {one}"


# JSON ints past int64 or a double, where a number is wanted: the lists
# raised TypeError in np.isfinite, and the netsim fields OverflowError in a run
@pytest.mark.parametrize("d, field", [
    (dict(mode="payload_ber", snr_grid=[2**64]), "snr_grid"),
    (dict(mode="payload_ber", snr_grid=[10**400]), "snr_grid"),
    (dict(mode="payload_ber", snr_grid=[0], stream_snr_offsets=[2**64]),
     "stream_snr_offsets entry"),
    (dict(mode="payload_ber", snr_grid=[0], stream_snr_offsets=[10**400]),
     "stream_snr_offsets"),
    (dict(mode="netsim", snr_grid=[0], burst_prob=0.5, burst_len_mean=10**400),
     "burst_len_mean"),
    (dict(mode="netsim", snr_grid=[0], arrival_jitter=10**400), "arrival_jitter"),
])
def test_an_int_past_a_double_is_refused_naming_the_field(tmp_path, d, field):
    with pytest.raises(ValueError, match=field):
        SweepSpec.from_dict(d)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    assert main(["netsim" if d["mode"] == "netsim" else "sweep", "--config", str(path)]) == 2


def _bench_workloads():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "ssicbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ssicbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_argvs(path: Path) -> list[list[str]]:
    """The ssic sweep and netsim commands in a file that are meant to succeed
    (no "|| status=$?"), continuation lines joined; the CI loop's "$L" is
    read as 127, its largest value.  A command that reads a --config file,
    which the CI step writes first, and a comment line are left out."""
    argvs = []
    for line in path.read_text().replace("\\\n", " ").splitlines():
        if line.lstrip().startswith("#"):
            continue
        m = re.search(r"(?:^|\s)(?:ssic|python -m ssic\.cli) ((?:sweep|netsim) .*)", line)
        if m and "status=$?" not in line and "--config" not in line:
            argvs.append(shlex.split(m.group(1).replace('"$L"', "127")))
    return argvs


# the criteria's specs in tests/test_acceptance.py, as they are written there
CRITERION_SPECS = [
    dict(mode="payload_ber", snr_grid=[-1.0, 0.0, 2.0, 6.0], L=16, n_streams=4,
         stream_snr_offsets=[0.0, 0.5, 1.0, 1.5], trials=1600, payload_bytes=1500,
         variants=("naive", "hrsx", "srsx"), rng_seed=20260819),
    *[dict(mode="packet_per", snr_grid=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0], L=16, n_streams=ns,
           trials=3000, payload_bytes=256, variants=("srsx",), rng_seed=7) for ns in (4, 1)],
    dict(mode="netsim", snr_grid=[10.2], L=16, n_streams=2, trials=10000, payload_bytes=1500,
         variants=("srsx",), detection_loss_prob=2e-4, rng_seed=3),
    dict(mode="payload_ber", snr_grid=[1.0, 3.0], n_streams=2, stream_snr_offsets=[0.0, 1.0],
         trials=200, payload_bytes=300, rng_seed=11),
    dict(mode="netsim", snr_grid=[8.5], n_streams=2, trials=300, payload_bytes=200,
         rng_seed=2),
]


def test_cli_argvs_skip_comment_lines(tmp_path):
    path = tmp_path / "steps.yml"
    path.write_text("    # ssic sweep --mode netsim --snr-grid 0\n"
                    "    ssic sweep --mode seed_ber --snr-grid 0 --trials 5\n")
    assert _cli_argvs(path) == [["sweep", "--mode", "seed_ber", "--snr-grid", "0",
                                 "--trials", "5"]]


def test_the_shipped_specs_still_validate():
    """The size rules refuse none of the benchmark workloads, the criteria's
    specs, or the CLI commands in the README and in CI."""
    from ssic.cli import _spec_from_args, build_parser

    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        SweepSpec(**workloads.chunk_fields(name, 1)).validate()
        SweepSpec(**workloads.reference_fields(name)).validate()
    for fields in CRITERION_SPECS:
        SweepSpec(**fields).validate()
    root = Path(__file__).resolve().parent.parent
    argvs = [argv for path in (root / "README.md", root / ".github/workflows/tests.yml")
             for argv in _cli_argvs(path)]
    assert len(argvs) >= 13, argvs  # 6 in the README, 13 in CI
    for argv in argvs:
        _spec_from_args(build_parser().parse_args(argv))


def test_seed_ber_draws_at_the_stream_offset():
    def counts(snr_db, offset):
        spec = SweepSpec("seed_ber", [snr_db], stream_snr_offsets=[offset], trials=300,
                         variants=("hd", "hrsx"), rng_seed=5)
        return [row[6:8] for row in run_sweep(spec)]

    assert counts(0.0, 3.0) == counts(3.0, 0.0) != counts(0.0, 0.0)


def test_from_dict_contract():
    spec = SweepSpec.from_dict({"mode": "seed_ber", "snr_grid": [1.0], "trials": 5})
    assert spec.trials == 5
    with pytest.raises(ValueError, match="unknown spec keys"):
        SweepSpec.from_dict({"mode": "seed_ber", "snr_grid": [1.0], "trails": 5})
    with pytest.raises(ValueError, match="mode"):
        SweepSpec.from_dict({"snr_grid": [1.0]})
    with pytest.raises(ValueError, match="snr_grid"):
        SweepSpec.from_dict({"mode": "seed_ber"})
    with pytest.raises(ValueError, match="^mode: required$"):  # the first field without a default
        SweepSpec.from_dict({})


def test_binomial_ci95():
    assert binomial_ci95(0, 0) == 0.0
    assert binomial_ci95(0, 100) == 0.0
    assert binomial_ci95(25, 100) == pytest.approx(1.96 * np.sqrt(0.25 * 0.75 / 100))


def test_golden_csv_bytes():
    spec = SweepSpec(mode="seed_ber", snr_grid=[0.0, 4.0], L=16, trials=400,
                     rng_seed=99)
    assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == GOLDEN_SEED_BER_CSV


def test_a_hard_only_seed_sweep_weighs_no_seeds(monkeypatch):
    """hd and naive read the register off the last 7 pilot decisions, not the
    MAP seed, so a seed_ber sweep of those two never weighs the 127 seeds.
    Its rows are the golden sweep's hd rows, once for each of the two."""
    calls = []
    seed_posterior = sweeps.seed_posterior
    monkeypatch.setattr(sweeps, "seed_posterior",
                        lambda pilots: calls.append(len(pilots)) or seed_posterior(pilots))
    spec = SweepSpec(mode="seed_ber", snr_grid=[0.0, 4.0], L=16, trials=400,
                     variants=("hd", "naive"), rng_seed=99)
    header, *rows = GOLDEN_SEED_BER_CSV.splitlines(keepends=True)
    want = header + "".join(r + r.replace(",hd,", ",naive,") for r in rows if ",hd," in r)
    assert rows_to_csv(SWEEP_COLUMNS, run_sweep(spec)) == want
    assert calls == []
    spec.variants = ("hd", "naive", "hrsx")  # the MAP seed is read again
    run_sweep(spec)
    assert sum(calls) == 2 * 400


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults that Linux reports")
def test_sweep_allocates_its_block_buffers_once():
    """One draw-ahead pipeline and one set of block buffers serve every grid
    point.  At per_short's shape a set is about 4.9 MB, some 1,200 pages;
    buffers allocated per point, and handed back to the OS at its end, are
    faulted in again at every point: 5,600-7,200 faults for these six."""
    import resource

    def sweep(seed):
        run_sweep(SweepSpec(mode="packet_per", snr_grid=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
                            L=16, n_streams=4, trials=50, payload_bytes=256,
                            variants=("srsx",), rng_seed=seed))

    sweep(1)  # warm-up: lazy tables, first-touch of the heap
    bound = 2 * _block_bytes(14, 4, 16, 256 * 8, True) // resource.getpagesize()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < bound, f"{faults} minor faults in a 6-point sweep, bound {bound}"


def _block_bytes(B: int, K: int, L: int, M: int, srsx: bool) -> int:
    """What a payload sweep holds for blocks of B trials x K streams: two
    slots of payload bits (uint8), seeds (intp) and noise (float64), then
    the descrambled rows and srsx's two scratch blocks when srsx runs, all
    float64, made once per sweep, and the float64 stream total that
    ssic_combine makes anew per block."""
    slot = B * M + B * K * 8 + B * K * (L + M) * 8
    return 2 * slot + B * K * M * 8 + srsx * 2 * B * K * M * 8 + B * M * 8


# B is the trials per block at BLOCK_FLOATS = 2**17: 2**17 // (K * (L + M + 127)).
# per_short: 2 * 953,792 + 917,504 + 1,835,008 + 229,376 = 4,889,472 bytes;
# ber_long:  2 * 793,088 + 768,000 + 1,536,000 + 192,000 = 4,082,176 bytes;
# ber_long without srsx: 2 * 793,088 + 768,000 + 192,000 = 2,546,176 bytes.
# The headroom, 1 MB, covers what the kernels allocate per call (seed weights,
# per-phase mask tables, bit decisions): 0.2-0.4 MB when this was written.
# Doubling BLOCK_FLOATS doubles the peak, about +5 MB on a 58 MB process.
@pytest.mark.parametrize("spec, B", [
    (dict(mode="packet_per", snr_grid=[6.0], n_streams=4, trials=250, payload_bytes=256,
          variants=("srsx",)), 14),
    (dict(mode="payload_ber", snr_grid=[2.0], n_streams=4,
          stream_snr_offsets=[0.0, 0.5, 1.0, 1.5], trials=100, payload_bytes=1500,
          variants=("naive", "hrsx", "srsx")), 2),
    (dict(mode="payload_ber", snr_grid=[2.0], n_streams=4,
          stream_snr_offsets=[0.0, 0.5, 1.0, 1.5], trials=100, payload_bytes=1500,
          variants=("naive", "hrsx")), 2),
], ids=["per_short", "ber_long", "ber_long_no_srsx"])
def test_block_memory_is_bounded(spec, B):
    import tracemalloc

    spec = SweepSpec(L=16, rng_seed=1, **spec)
    bound = _block_bytes(B, spec.n_streams, spec.L, spec.payload_bytes * 8,
                         "srsx" in spec.variants) + (1 << 20)
    run_sweep(spec)  # warm-up: lazy tables
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak:,} bytes, bound {bound:,}"



def _records_digest(outcomes) -> str:
    # one line per packet, as the per-packet records were written: the
    # implied key (vci 1, vcs = i mod 2^16), the detected and hard flags of
    # each stream, then ssic_delivered
    k = outcomes.detected.shape[1]
    rows = np.column_stack([outcomes.detected, outcomes.hard, outcomes.ssic_delivered])
    text = "\n".join(f"1 {i % 65536} {''.join(map(str, r[:k]))} "
                     f"{''.join(map(str, r[k:2 * k]))} {r[-1]}"
                     for i, r in enumerate(rows.astype(int).tolist()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("jitter", [0.0, 3.0])
def test_golden_netsim_arrival_order(monkeypatch, jitter):
    # the order in which copies reach the aggregator decides which copies
    # combine first, so the counters pin the arrival order itself
    points = []
    network_point = sweeps.run_network_point

    def capture(*args, **kwargs):
        outcomes, stats = network_point(*args, **kwargs)
        points.append((_records_digest(outcomes), asdict(stats)))
        return outcomes, stats

    monkeypatch.setattr(sweeps, "run_network_point", capture)
    spec = SweepSpec(mode="netsim", snr_grid=[4.0, 7.0], n_streams=3, trials=200,
                     payload_bytes=64, detection_loss_prob=0.05, burst_prob=0.6,
                     burst_llr_atten=0.3, arrival_jitter=jitter, rng_seed=43)
    assert rows_to_csv(NETSIM_COLUMNS, run_netsim(spec)) == GOLDEN_NETSIM_ORDER_CSV[jitter]
    assert points == GOLDEN_NETSIM_ORDER_POINTS[jitter]


def test_golden_csvs_survive_a_one_ulp_nudge_of_posteriors_and_sums(monkeypatch):
    """The CSVs count sign decisions, so they hold when every seed
    log-posterior and every combined LLR moves by 1 ulp, each entry in a
    random direction: what a different BLAS kernel or summation order may do
    to them.  _log_weights is the core behind both posterior paths, the
    sweeps' seed_posterior and the aggregator's hrsx and srsx; the sums are
    ssic_combine as the sweeps call it on a block and as the aggregator calls
    it on a packet, counted apart.  The golden tests then pass as they are,
    the aggregator counters included."""
    nudge = np.random.default_rng(7)  # apart from the chain's generators
    calls = {}

    def nudged(module, name):
        f, key = getattr(module, name), f"{module.__name__}.{name}"
        calls[key] = 0

        def g(*args, **kwargs):
            x = f(*args, **kwargs)
            x[...] = np.nextafter(x, np.where(nudge.random(x.shape) < 0.5, -np.inf, np.inf))
            calls[key] += 1
            return x
        monkeypatch.setattr(module, name, g)

    nudged(descramble, "_log_weights")
    nudged(sweeps, "ssic_combine")
    nudged(netstack, "ssic_combine")
    test_golden_csv_bytes()
    test_golden_payload_csv_bytes()
    test_golden_netsim_csv_bytes()
    for jitter in (0.0, 3.0):
        test_golden_netsim_arrival_order(monkeypatch, jitter)
    assert all(calls.values()), calls


@pytest.mark.parametrize("spec", [
    dict(mode="payload_ber", n_streams=1, variants=("hd", "naive", "hrsx", "srsx")),
    dict(mode="payload_ber", n_streams=3, stream_snr_offsets=[0.0, 0.5, -1.0]),
    dict(mode="packet_per", n_streams=1, variants=("hd", "naive", "hrsx", "srsx")),
    dict(mode="packet_per", n_streams=3, stream_snr_offsets=[0.0, 0.5, -1.0]),
    dict(mode="seed_ber", variants=("hd", "naive", "hrsx", "srsx")),
])
def test_csv_does_not_depend_on_the_block_size(monkeypatch, spec):
    # seed_ber sends no payload, so it takes only the default payload_bytes
    payload = {} if spec["mode"] == "seed_ber" else dict(payload_bytes=5)
    spec = SweepSpec(snr_grid=[-1.0, 2.0, 5.0], L=16, trials=7, rng_seed=8, **payload,
                     **spec)
    want = rows_to_csv(SWEEP_COLUMNS, run_sweep(spec))
    M = 0 if spec.mode == "seed_ber" else spec.payload_bytes * 8
    k = 1 if spec.mode == "seed_ber" else spec.n_streams
    sizes = []
    blocks = sweeps._trial_blocks

    def recording(*args):
        for block in blocks(*args):
            sizes.append(len(block[1]))  # (gi, payload, seeds, llrs)
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
    # a config naming netsim is refused by ssic sweep, as --mode netsim is
    cfg.write_text(json.dumps({"mode": "netsim", "snr_grid": [10], "trials": 3,
                               "payload_bytes": 10}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error: mode: " in capsys.readouterr().err
    assert main(["netsim", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_import_does_not_load_scipy():
    # the tables built at import may warn of nothing and start no thread
    code = ("import sys, threading, ssic, ssic.cli; "
            "print('scipy' in sys.modules, threading.active_count())")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False 1"


def test_load_spec_file_requires_object(tmp_path):
    f = tmp_path / "arr.json"
    f.write_text("[1,2]")
    with pytest.raises(ValueError, match="config"):
        load_spec_file(f)
