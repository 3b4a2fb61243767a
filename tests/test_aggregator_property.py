"""A property test of the aggregator's protocol logic over arrival sequences.

Each example pushes a sequence of copies of packets on two VCIs, with
serial numbers near a starting serial, far behind or ahead of it, and across the
65535 -> 0 wrap, into an Aggregator with a small window.  After every push
it checks the invariants of exactly-once delivery, the dedup window, stale
keys and the counters against a model kept here, apart from the code.

Soft copies are noise-free and built so that none verifies alone: the
"soft" ones carry one wrong payload bit each (bit stream_id, at half the
magnitude of the others), so any two from different streams combine to the
packet; the "soft_never" ones carry every payload bit wrong at full
magnitude, so no combination that holds one verifies.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssic.channel import StreamObservation
from ssic.netstack import SOFT_VARIANTS, VCS_MOD, Aggregator, AggregatorConfig, FrameKey
from ssic.scrambler import register_outputs
from ssic.softbits import LLR_MAX, SoftWord
from ssic.vcframe import (CODEWORDS, FRAME_OVERHEAD_BITS, HEADER_CODED_BITS,
                          STREAM_ADDR_BITS, crc16_ccitt, encapsulate, frame_to_bits)

L = 16
ARRIVALS = ("clean", "soft", "soft_never", "bad_header_clean", "bad_header_soft",
            "bad_length_clean", "bad_length_soft")
# drawn more often, so that copies of one packet meet
COMMON = ("clean", "soft", "soft", "soft")


def packet_of(key: FrameKey) -> bytes:
    """The ground-truth payload of a key."""
    return bytes([key.vci, key.vcs >> 8, key.vcs & 0xFF])


def wire_bits(key: FrameKey, sid: int, bad_header: bool) -> np.ndarray:
    vci, vcs = key
    bits = frame_to_bits(encapsulate(packet_of(key), vci, vcs, 0x020000000000 + sid))
    if bad_header:
        # every block a codeword, but the CRC field is off by one bit
        crc = crc16_ccitt(bytes([vci >> 8, vci & 0xFF, vcs >> 8, vcs & 0xFF])) ^ 1
        block = (vci << 33) | (vcs << 17) | (crc << 1)
        coded = CODEWORDS[[(block >> s) & 0x7F for s in range(42, -1, -7)]].ravel()
        bits[STREAM_ADDR_BITS:STREAM_ADDR_BITS + HEADER_CODED_BITS] = coded
    return bits


def soft_word(bits: np.ndarray, sid: int, never: bool) -> SoftWord:
    """Noise-free LLRs of bits behind L zero pilots, scrambled by seed 1 + 29*sid."""
    signs = 1.0 - 2.0 * bits
    mag = np.full(bits.size, LLR_MAX)
    if never:
        mag[FRAME_OVERHEAD_BITS:] = -LLR_MAX
    else:
        mag[FRAME_OVERHEAD_BITS:] = 2.0
        mag[FRAME_OVERHEAD_BITS + sid] = -1.0
    mask = register_outputs(1 + 29 * sid, L + bits.size)
    llrs = np.concatenate([np.full(L, LLR_MAX), signs * mag]) * (1.0 - 2.0 * mask)
    return SoftWord(pilots=llrs[:L], payload=llrs[L:])


def arrival(kind: str, key: FrameKey, sid: int) -> StreamObservation:
    bits = wire_bits(key, sid, kind.startswith("bad_header"))
    if kind.startswith("bad_length"):
        bits = bits[:-4]  # no whole number of payload bytes
    if kind.endswith("clean"):
        return StreamObservation(stream_id=sid, hard_bits=bits)
    return StreamObservation(stream_id=sid, soft=soft_word(bits, sid, kind == "soft_never"))


def behind(newest: int | None, vcs: int) -> int | None:
    """How many serials vcs is behind newest, or None when it is not behind."""
    if newest is None:
        return None
    d = (newest - vcs) % VCS_MOD
    return d if 0 < d < VCS_MOD // 2 else None


KINDS = st.one_of(st.sampled_from(COMMON), st.sampled_from(ARRIVALS))
# serials near the start, mostly within a few of each other, and far from it
OFFSETS = st.one_of(st.integers(-3, 3), st.integers(-10, 10),
                    st.sampled_from([-32768, -32767, -1000, 1000, 32767]))


@given(window_size=st.integers(1, 8),
       start=st.sampled_from([VCS_MOD - 6, 0, 1000]),
       variant=st.sampled_from(SOFT_VARIANTS),
       arrivals=st.lists(st.tuples(KINDS, st.sampled_from([1, 1, 2]), OFFSETS,
                                   st.integers(0, 3)), min_size=10,
                         max_size=40))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_aggregator_invariants_hold_after_every_push(window_size, start, variant, arrivals):
    agg = Aggregator(AggregatorConfig(variant=variant, window_size=window_size),
                     payload_check=lambda k, p: p == packet_of(k))

    def stale(key: FrameKey) -> bool:
        d = behind(newest.get(key.vci), key.vcs)
        return d is not None and d >= window_size

    newest = {}  # VCI -> its newest serial delivered while not stale
    last = {}  # key -> index of its last delivery while not stale
    left = set()  # keys that have been stale since they were last delivered
    n_delivered = 0
    for kind, vci, offset, sid in arrivals:
        sent = FrameKey(vci, (start + offset) % VCS_MOD)
        before, n_pending = dataclasses.replace(agg.stats), len(agg.pending)
        result = agg.push(arrival(kind, sent, sid))
        s = agg.stats
        d = {f.name: getattr(s, f.name) - getattr(before, f.name)
             for f in dataclasses.fields(s)}

        # each push has exactly one outcome; a copy stored too late counts
        # as a pending eviction, which a delivery's stale purge and a full
        # pending window also count
        outcomes = (d["delivered_hard"] + d["delivered_combined"] + d["duplicate_drops"]
                    + d["header_invalid_drops"] + d["soft_stored"])
        assert outcomes in (0, 1)
        if outcomes:
            assert d["pending_evictions"] <= n_pending + d["soft_stored"]
        else:
            assert d["pending_evictions"] == 1
        assert d["combine_failures"] in (0, 1)
        if d["combine_failures"]:  # the copy was then stored, or stored too late
            assert d["soft_stored"] or not outcomes
        assert s.delivered == s.delivered_hard + s.delivered_combined
        assert (result is not None) == (d["delivered"] == 1)
        if kind.startswith("bad"):
            assert d["header_invalid_drops"] == 1
        if not kind.endswith("clean"):
            assert d["delivered_hard"] == 0

        if result is not None:
            key, packet = result
            assert key == sent and packet == packet_of(sent)
            assert kind in ("clean", "soft")
            if key in last:
                # delivered again only after leaving the dedup window: pushed
                # out by window_size later deliveries, or gone stale
                assert key in left or n_delivered - last[key] - 1 >= window_size
            if stale(key):
                left.add(key)
            else:
                left.discard(key)
                last[key] = n_delivered
                if vci not in newest or behind(key.vcs, newest[vci]) is not None:
                    newest[vci] = key.vcs
                left.update(k for k in last if stale(k))
            n_delivered += 1

        assert agg.newest == newest
        assert len(agg.pending) <= window_size and len(agg.delivered) <= window_size
        for k in agg.pending:
            assert not stale(k) and k not in agg.delivered
        for k in agg.delivered:
            assert not stale(k)
