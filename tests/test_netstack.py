"""Aggregator, dispatcher, and metrics tests on synthetic observations.

Soft observations are built noise-free at a fixed LLR magnitude so the
protocol logic can be exercised deterministically; corruption is injected
as explicit sign flips.
"""

import tracemalloc

import numpy as np
import pytest

from ssic import netstack
from ssic.channel import ChannelParams, StreamObservation
from ssic.combine import StreamSoftCopy, decide, ssic_combine
from ssic.descramble import hrsx, naive_sd, srsx
from ssic.netstack import (
    Aggregator,
    AggregatorConfig,
    Dispatcher,
    FrameKey,
    PacketRecord,
    RunMetrics,
    dispatch,
    run_metrics,
    run_network_point,
    vcs_newer,
)
from ssic.scrambler import scramble, seed_from_int
from ssic.softbits import LLR_MAX, SoftWord
from ssic.vcframe import encapsulate, frame_to_bits, with_stream_addr

L = 16
MAG = 6.0


def hard_obs(key: FrameKey, packet: bytes, sid: int) -> StreamObservation:
    frame = encapsulate(packet, key.vci, key.vcs, 0x020000000000 + sid)
    return StreamObservation(stream_id=sid, detected=True, crc_pass=True,
                             hard_bits=frame_to_bits(frame))


def soft_obs(key: FrameKey, packet: bytes, sid: int,
             corrupt: list[int] | None = None, seed_int: int = 5,
             wire_bits: np.ndarray | None = None) -> StreamObservation:
    if wire_bits is None:
        frame = encapsulate(packet, key.vci, key.vcs, 0x020000000000 + sid)
        wire_bits = frame_to_bits(frame)
    seed = seed_from_int(seed_int)
    tx = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), wire_bits]))
    llrs = (1.0 - 2.0 * tx) * MAG
    if corrupt:
        # sign-flip payload-section positions, stated relative to the payload
        for pos in corrupt:
            llrs[L + 496 + pos] *= -1.0
    word = SoftWord(pilots=llrs[:L], payload=llrs[L:])
    return StreamObservation(stream_id=sid, detected=True, crc_pass=False, soft=word)


def make_agg(truth: dict, variant: str = "srsx", window_size: int = 64) -> Aggregator:
    cfg = AggregatorConfig(variant=variant, pilot_len=L, window_size=window_size)
    return Aggregator(cfg, payload_check=lambda k, p: truth.get(k) == p)


K1 = FrameKey(1, 10)
K2 = FrameKey(1, 11)
K3 = FrameKey(2, 10)
P1, P2, P3 = b"alpha", b"bravo-bravo", b"charlie!"


def test_vcs_newer_wraparound():
    assert vcs_newer(1, 0)
    assert not vcs_newer(0, 1)
    assert not vcs_newer(5, 5)
    assert vcs_newer(0, 65535)  # wrapped past the top
    assert vcs_newer(32767, 0)
    assert not vcs_newer(32768, 0)  # exactly half the range is "older"


def test_dispatch_and_dispatcher():
    frames = dispatch(P1, vci=4, next_vcs=99, stream_addrs=[10, 11, 12])
    assert [k for k, _ in frames] == [0, 1, 2]
    assert all(f.payload == P1 for _, f in frames)
    assert [f.stream_addr for _, f in frames] == [10, 11, 12]

    d = Dispatcher(vci=4, stream_addrs=[10, 11], first_vcs=65535)
    key0, frames0 = d.send(P1)
    key1, _ = d.send(P2)
    assert key0 == FrameKey(4, 65535)
    assert key1 == FrameKey(4, 0)  # sequence wraps mod 2^16
    h = frames0[0][1].header()
    assert h is not None and (h.vci, h.vcs) == (4, 65535)


def test_dispatched_frames_differ_only_in_the_address():
    addrs = [0, 0x020000000001, (1 << 48) - 1]
    frames = [f for _, f in dispatch(P3, vci=0xFFFF, next_vcs=0x8000, stream_addrs=addrs)]
    bits = [frame_to_bits(f) for f in frames]
    alone = frame_to_bits(encapsulate(P3, 0xFFFF, 0x8000, addrs[0]))
    for addr, f, b in zip(addrs, frames, bits):
        assert f.stream_addr == addr
        assert int("".join(map(str, b[:48])), 2) == addr
        assert np.array_equal(b[48:], alone[48:])
    assert np.array_equal(bits[0], alone)


@pytest.mark.parametrize("first", [0, 0x020000000001, (1 << 48) - 1])
def test_stamped_addresses_equal_each_streams_frame_bits(first):
    """run_network_point unpacks a packet once and stamps each stream's
    address into a copy: the bits must be those of that stream's frame."""
    addrs = [first, 0, 0x020000000001, (1 << 48) - 1]
    frames = [f for _, f in dispatch(b"\x00\xa5" * 700, vci=3, next_vcs=9, stream_addrs=addrs)]
    wire = frame_to_bits(frames[0])
    for f in frames:
        stamped = with_stream_addr(wire, f.stream_addr)
        assert stamped.dtype == np.uint8 and stamped.tobytes() == frame_to_bits(f).tobytes()
    assert wire.tobytes() == frame_to_bits(frames[0]).tobytes()  # stamping copies


def test_hard_copy_delivers_then_duplicates_drop():
    agg = make_agg({K1: P1})
    assert agg.push(hard_obs(K1, P1, 0)) == (K1, P1)
    assert agg.push(hard_obs(K1, P1, 1)) is None
    assert agg.push(soft_obs(K1, P1, 1)) is None
    s = agg.stats
    assert s.delivered == 1 and s.delivered_hard == 1
    assert s.duplicate_drops == 2 and not agg.pending


def test_two_soft_copies_combine_and_deliver():
    agg = make_agg({K1: P1})
    assert agg.push(soft_obs(K1, P1, 0)) is None
    assert K1 in agg.pending and agg.stats.soft_stored == 1
    out = agg.push(soft_obs(K1, P1, 1))
    assert out == (K1, P1)
    assert K1 not in agg.pending
    s = agg.stats
    assert s.delivered == 1 and s.delivered_combined == 1
    # anything after delivery is a duplicate
    assert agg.push(hard_obs(K1, P1, 0)) is None
    assert s.duplicate_drops == 1


def test_combining_rescues_corrupted_copies():
    # each copy alone decodes wrong; summed LLRs cancel the disjoint flips
    agg = make_agg({K1: P1})
    assert agg.push(soft_obs(K1, P1, 0, corrupt=[0])) is None
    out = agg.push(soft_obs(K1, P1, 1, corrupt=[5]))
    assert out == (K1, P1)


def test_combine_failure_keeps_key_pending():
    agg = make_agg({K1: P1})
    # the same position flipped in both copies survives the sum
    assert agg.push(soft_obs(K1, P1, 0, corrupt=[3])) is None
    assert agg.push(soft_obs(K1, P1, 1, corrupt=[3])) is None
    assert agg.stats.combine_failures == 1
    assert K1 in agg.pending and agg.stats.delivered == 0
    # a clean third copy cannot outvote two equal-magnitude corruptions;
    # the combine is attempted and fails again
    assert agg.push(soft_obs(K1, P1, 2)) is None
    assert agg.stats.combine_failures == 2
    # a late clean hard copy still rescues the key
    out = agg.push(hard_obs(K1, P1, 3))
    assert out == (K1, P1)
    assert K1 not in agg.pending and agg.stats.delivered_hard == 1


def test_same_stream_copy_never_self_combines():
    agg = make_agg({K1: P1})
    assert agg.push(soft_obs(K1, P1, 0)) is None
    assert agg.push(soft_obs(K1, P1, 0)) is None  # replaces, cannot combine
    assert agg.stats.delivered == 0 and agg.stats.soft_stored == 2
    assert agg.push(soft_obs(K1, P1, 1)) == (K1, P1)


def test_hard_copy_clears_pending():
    agg = make_agg({K1: P1})
    assert agg.push(soft_obs(K1, P1, 0)) is None
    assert agg.push(hard_obs(K1, P1, 1)) == (K1, P1)
    assert K1 not in agg.pending
    assert agg.push(soft_obs(K1, P1, 2)) is None
    assert agg.stats.duplicate_drops == 1


def test_undetected_frames_are_rejected():
    agg = make_agg({})
    with pytest.raises(ValueError):
        agg.push(StreamObservation(stream_id=0, detected=False))


def test_malformed_soft_payload_length_dropped(monkeypatch):
    agg = make_agg({K1: P1})
    monkeypatch.setattr(agg, "_descramble",
                        lambda word: pytest.fail("a malformed word was descrambled"))
    bad = soft_obs(K1, P1, 0, wire_bits=np.zeros(499, dtype=np.uint8))
    assert agg.push(bad) is None
    assert agg.stats.header_invalid_drops == 1
    # a wrong pilot count is a configuration error, raised before the length check
    short = StreamObservation(stream_id=0, detected=True, crc_pass=False,
                              soft=SoftWord(pilots=bad.soft.pilots[1:],
                                            payload=bad.soft.payload))
    with pytest.raises(ValueError, match="pilots"):
        agg.push(short)
    assert agg.stats.header_invalid_drops == 1


@pytest.mark.parametrize("n_bits", [500, 495, 496 + 8 * 1501])
def test_malformed_clean_copy_dropped(n_bits):
    """A clean copy whose bits no frame can have is dropped as header-invalid,
    as a malformed soft copy is, instead of raising."""
    agg = make_agg({K1: P1})
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[:min(n_bits, 496 + 8 * len(P1))] = hard_obs(K1, P1, 0).hard_bits[:n_bits]
    obs = StreamObservation(stream_id=0, detected=True, crc_pass=True, hard_bits=bits)
    assert agg.push(obs) is None
    assert agg.stats.header_invalid_drops == 1 and agg.stats.delivered == 0
    assert agg.push(hard_obs(K1, P1, 1)) == (K1, P1)


def soft_obs_descrambling_to(key: FrameKey, sid: int,
                             payload_llrs: np.ndarray) -> StreamObservation:
    """A soft copy whose payload LLRs, sign-flipped by the true mask, are
    payload_llrs exactly (+-1 products are exact, -0.0 included)."""
    wire = frame_to_bits(encapsulate(bytes(payload_llrs.size // 8), key.vci, key.vcs, sid))
    bits = np.concatenate([np.zeros(L, dtype=np.uint8), wire])
    signs = 1.0 - 2.0 * scramble(seed_from_int(5), bits)
    llrs = signs * MAG
    mask_signs = signs[L + 496:] * (1.0 - 2.0 * wire[496:])  # 1 - 2 * mask bit
    llrs[L + 496:] = payload_llrs * mask_signs
    return StreamObservation(stream_id=sid, detected=True, crc_pass=False,
                             soft=SoftWord(pilots=llrs[:L], payload=llrs[L:]))


@pytest.mark.parametrize("variant", ["naive", "hrsx", "srsx"])
def test_combined_decisions_equal_ssic_combine(variant):
    """The aggregator sums a packet's copies in one buffer and decides from
    the signs; its decisions must be those of ssic_combine of the same
    copies in the same order: stored copies first, in the order their
    streams were first stored, then the arriving one."""
    rng = np.random.default_rng(11)
    M = 256
    a, b, a2, c = (np.clip(rng.normal(0.0, 8.0, M), -LLR_MAX, LLR_MAX) for _ in range(4))
    a[:4], b[:4] = [-0.0, -0.0, 0.0, 7.5], [-0.0, 0.0, -0.0, -7.5]  # signed zeros, a = -b
    a[4:8], b[4:8], c[4:8] = LLR_MAX, LLR_MAX, LLR_MAX  # sums beyond +-LLR_MAX
    a2[4:8], c[8:12] = -LLR_MAX, -LLR_MAX
    # sums whose sign depends on the order of the additions
    a2[12:16], b[12:16], c[12:16] = 0.1, 0.2, -0.30000000000000004
    a[12:16] = 0.1
    assert (0.2 + 0.1) + -0.30000000000000004 == 0.0 > (0.2 + -0.30000000000000004) + 0.1

    seen = []
    agg = Aggregator(AggregatorConfig(variant=variant, pilot_len=L, window_size=64),
                     payload_check=lambda k, p: seen.append(p) or False)
    descramble = {"naive": naive_sd, "hrsx": lambda w: hrsx(w)[0], "srsx": srsx}[variant]
    arrivals = [(0, a), (1, b), (0, a2), (2, c)]  # stream 0's second copy replaces its first
    words = {}
    expected = []
    for sid, llrs in arrivals:
        obs = soft_obs_descrambling_to(K1, sid, llrs)
        mine = descramble(obs.soft)[496:]
        if variant != "srsx":
            assert mine.tobytes() == llrs.tobytes()
        others = [StreamSoftCopy(s, w) for s, w in words.items() if s != sid]
        if others:
            bits = decide(ssic_combine(others + [StreamSoftCopy(sid, mine)]))
            expected.append(np.packbits(bits).tobytes())
        words[sid] = mine
        assert agg.push(obs) is None
    assert seen == expected and len(expected) == 3
    assert agg.stats.combine_failures == 3 and list(agg.pending[K1]) == [0, 1, 2]
    for sid, w in words.items():  # the stored copies are the latest of each stream
        assert agg.pending[K1][sid].tobytes() == w.tobytes()


def test_garbage_header_dropped():
    agg = make_agg({K1: P1})
    rng = np.random.default_rng(0)
    word = SoftWord(pilots=rng.normal(0, 3, L), payload=rng.normal(0, 3, 496 + 40))
    obs = StreamObservation(stream_id=0, detected=True, crc_pass=False, soft=word)
    assert agg.push(obs) is None
    assert agg.stats.header_invalid_drops == 1


def test_pending_window_eviction():
    agg = make_agg({K1: P1, K2: P2, K3: P3}, window_size=2)
    for key, pkt in ((K1, P1), (K2, P2), (K3, P3)):
        assert agg.push(soft_obs(key, pkt, 0)) is None
    assert agg.stats.pending_evictions == 1
    assert K1 not in agg.pending and K2 in agg.pending and K3 in agg.pending
    # the evicted key lost its first copy; one more copy is not enough to
    # combine, it simply becomes pending again
    assert agg.push(soft_obs(K1, P1, 1)) is None
    assert K1 in agg.pending


def test_delivered_window_is_finite_memory():
    agg = make_agg({K1: P1, K2: P2}, window_size=1)
    assert agg.push(hard_obs(K1, P1, 0)) == (K1, P1)
    assert agg.push(hard_obs(K2, P2, 0)) == (K2, P2)  # evicts K1's record
    assert agg.push(hard_obs(K1, P1, 1)) == (K1, P1)  # redelivered: aged out
    assert agg.stats.duplicate_drops == 0 and agg.stats.delivered == 3



def test_stale_keys_do_not_outlive_the_serial_wrap():
    # a copy left pending under (1, 5) and a delivery record of (1, 7) fall
    # window_size serials behind the newest delivery; after the wrap, new
    # packets reuse both keys and must not meet the old entries
    key, done = FrameKey(1, 5), FrameKey(1, 7)
    old, new = b"old-packet-xx", b"new-packet-yy"
    agg = make_agg({key: new}, window_size=64)
    assert agg.push(soft_obs(key, old, 0)) is None
    assert agg.push(hard_obs(done, old, 0)) == (done, old)
    for vcs in (100, 20000, 40000, 60000, 65535, 0, 3):
        assert agg.push(hard_obs(FrameKey(1, vcs), b"filler", 0)) is not None
    assert key not in agg.pending and done not in agg.delivered
    assert agg.stats.pending_evictions == 1
    assert agg.push(soft_obs(key, new, 1)) is None  # nothing left to combine with
    assert agg.stats.combine_failures == 0 and list(agg.pending[key]) == [1]
    assert agg.push(soft_obs(key, new, 2)) == (key, new)
    assert agg.push(hard_obs(done, new, 0)) == (done, new)  # not a duplicate
    assert agg.stats.duplicate_drops == 0

def test_config_validation():
    with pytest.raises(ValueError):
        AggregatorConfig(variant="hd")
    with pytest.raises(ValueError):
        AggregatorConfig(pilot_len=6)
    with pytest.raises(ValueError):
        AggregatorConfig(window_size=0)
    with pytest.raises(ValueError):
        AggregatorConfig(window_size=32768)
    with pytest.raises(ValueError):
        Aggregator(AggregatorConfig(), payload_check=None)


def test_aggregator_variants_all_decode_clean_copies():
    for variant in ("naive", "hrsx", "srsx"):
        agg = make_agg({K1: P1}, variant=variant)
        assert agg.push(soft_obs(K1, P1, 0)) is None
        assert agg.push(soft_obs(K1, P1, 1)) == (K1, P1), variant


# ------------------------------------------------------------------- metrics

def test_run_metrics_identity_and_counts():
    m = RunMetrics(sent=100, detected=90, delivered=72)
    assert m.plr == pytest.approx(0.1)
    assert m.per == pytest.approx(0.2)
    assert m.fr == 1.0 - (1.0 - m.plr) * (1.0 - m.per)  # exact, by construction
    z = RunMetrics(sent=10, detected=0, delivered=0)
    assert z.plr == 1.0 and z.per == 0.0 and z.fr == 1.0
    with pytest.raises(ValueError):
        RunMetrics(sent=10, detected=5, delivered=6)


def test_run_metrics_modes_from_records():
    records = [
        PacketRecord(FrameKey(1, 0), (True, True), (True, False), ssic_delivered=True),
        PacketRecord(FrameKey(1, 1), (True, False), (False, False), ssic_delivered=False),
        PacketRecord(FrameKey(1, 2), (False, True), (False, True), ssic_delivered=True),
        PacketRecord(FrameKey(1, 3), (False, False), (False, False), ssic_delivered=False),
    ]
    out = run_metrics(records, 2)
    assert out["stream1"].detected == 2 and out["stream1"].delivered == 1
    assert out["stream2"].detected == 2 and out["stream2"].delivered == 1
    assert out["dup"].detected == 3 and out["dup"].delivered == 2
    assert out["ssic"].detected == 3 and out["ssic"].delivered == 2
    assert out["dup"].plr == pytest.approx(0.25)


def test_run_network_point_micro():
    params = [ChannelParams(snr_db=8.0), ChannelParams(snr_db=8.0)]
    recs1, stats1 = run_network_point(60, 200, params, L,
                                      np.random.default_rng(17), variant="srsx")
    recs2, _ = run_network_point(60, 200, params, L,
                                 np.random.default_rng(17), variant="srsx")
    assert [r.key for r in recs1] == [r.key for r in recs2]
    assert [r.ssic_delivered for r in recs1] == [r.ssic_delivered for r in recs2]
    assert stats1.delivered == sum(r.ssic_delivered for r in recs1)
    for r in recs1:
        # a clean copy on any stream guarantees aggregator delivery
        if any(r.hard):
            assert r.ssic_delivered
    out = run_metrics(recs1, 2)
    assert out["ssic"].fr <= out["dup"].fr <= min(out["stream1"].fr,
                                                  out["stream2"].fr)


@pytest.mark.parametrize("snr_db", [30.0, 6.0])
def test_run_network_point_attributes_packets_past_the_vcs_wrap(monkeypatch, snr_db):
    # a 256-value serial space makes 600 packets reuse every (vci, vcs) key;
    # each delivery must still count for the packet whose copy arrived
    monkeypatch.setattr(netstack, "VCS_MOD", 256)
    params = [ChannelParams(snr_db=snr_db), ChannelParams(snr_db=snr_db)]
    records, stats = run_network_point(600, 20, params, L, np.random.default_rng(3),
                                       window_size=64)
    assert [r.key.vcs for r in records[254:258]] == [254, 255, 0, 1]
    assert sum(r.ssic_delivered for r in records) == stats.delivered
    if snr_db == 30.0:  # every copy arrives clean
        assert stats.delivered == len(records) == 600
        assert run_metrics(records, 2)["ssic"].fr == 0.0
    else:
        assert stats.delivered_combined > 0


@pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -0.5])
def test_run_network_point_rejects_bad_jitter(jitter):
    with pytest.raises(ValueError, match="arrival_jitter"):
        run_network_point(2, 10, [ChannelParams(snr_db=8.0)], L, np.random.default_rng(0),
                          arrival_jitter=jitter)


def test_run_network_point_memory_is_bounded():
    # arrivals stream through the aggregator as packets are sent, so the run
    # holds only copies within the arrival jitter of the newest packet, not
    # every soft word of the run (about 100 kB per 1,500-byte copy)
    params = [ChannelParams(snr_db=8.0, detection_loss_prob=0.01, burst_prob=0.1,
                            burst_llr_atten=0.25)] * 2
    tracemalloc.start()
    try:
        records, stats = run_network_point(800, 1500, params, L, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.delivered_combined > 0 and len(records) == 800
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
