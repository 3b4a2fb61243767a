"""Aggregator, dispatcher, and metrics tests on synthetic observations.

Soft observations are built noise-free at a fixed LLR magnitude so the
protocol logic can be exercised deterministically; corruption is injected
as explicit sign flips.
"""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from ssic import netstack, vcframe
from ssic.channel import ChannelParams, StreamObservation
from ssic.combine import ssic_combine
from ssic.descramble import hrsx, naive_sd, srsx
from ssic.netstack import (
    Aggregator,
    AggregatorConfig,
    Dispatcher,
    FrameKey,
    PacketOutcomes,
    RunMetrics,
    run_metrics,
    run_network_point,
    vcs_delta,
)
from ssic.scrambler import scramble, seed_from_int
from ssic.softbits import LLR_MAX, hard_decide
from ssic.vcframe import decode_header_hard, encapsulate, frame_to_bits

L = 16
MAG = 6.0


def hard_obs(key: FrameKey, packet: bytes, sid: int) -> StreamObservation:
    frame = encapsulate(packet, key.vci, key.vcs, 0x020000000000 + sid)
    return StreamObservation(stream_id=sid, hard_bits=frame_to_bits(frame))


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
    word = oracles.soft_word(llrs[:L], llrs[L:])
    return StreamObservation(stream_id=sid, soft=word)


def make_agg(truth: dict, variant: str = "srsx", window_size: int = 64) -> Aggregator:
    cfg = AggregatorConfig(variant=variant, window_size=window_size)
    return Aggregator(cfg, payload_check=lambda k, p: truth.get(k) == p)


K1 = FrameKey(1, 10)
K2 = FrameKey(1, 11)
K3 = FrameKey(2, 10)
P1, P2, P3 = b"alpha", b"bravo-bravo", b"charlie!"


def test_vcs_newer_wraparound():
    assert vcs_delta(1, 0) > 0
    assert vcs_delta(0, 1) < 0
    assert vcs_delta(5, 5) == 0
    assert vcs_delta(0, 65535) > 0  # wrapped past the top
    assert vcs_delta(32767, 0) > 0
    assert vcs_delta(32768, 0) < 0  # exactly half the range is "older"


def test_dispatch_and_dispatcher():
    d = Dispatcher(vci=4, stream_addrs=[10, 11, 12])
    d.next_vcs = 99
    key, frames = d.send(P1)
    assert key == FrameKey(4, 99)
    assert [k for k, _ in frames] == [0, 1, 2]
    assert all(f.payload == P1 for _, f in frames)
    assert [f.stream_addr for _, f in frames] == [10, 11, 12]

    d = Dispatcher(vci=4, stream_addrs=[10, 11])
    d.next_vcs = 65535
    key0, frames0 = d.send(P1)
    key1, _ = d.send(P2)
    assert key0 == FrameKey(4, 65535)
    assert key1 == FrameKey(4, 0)  # sequence wraps mod 2^16
    h = decode_header_hard(frames0[0][1].header_coded)
    assert h is not None and (h.vci, h.vcs) == (4, 65535)


def test_send_encodes_one_header_per_packet(monkeypatch):
    """At K = 2 each packet costs one header CRC, its frames share one
    read-only encoding, and a later packet leaves an earlier frame's header
    as it was."""
    crcs = []
    header_crc = vcframe._header_crc
    monkeypatch.setattr(vcframe, "_header_crc",
                        lambda vci, vcs: crcs.append((vci, vcs)) or header_crc(vci, vcs))
    d = Dispatcher(vci=9, stream_addrs=[10, 11])
    d.next_vcs = 65534
    sent = [d.send(bytes([i]) * 40) for i in range(4)]
    assert crcs == [(9, 65534), (9, 65535), (9, 0), (9, 1)]
    for key, frames in sent:
        (_, f0), (_, f1) = frames
        assert f0.header_coded is f1.header_coded and not f0.header_coded.flags.writeable
        for _, f in frames:
            want = vcframe.encode_header(*key)
            assert f.header_coded.tobytes() == want.tobytes()
            assert decode_header_hard(f.header_coded) == key


@pytest.mark.parametrize("vci, addrs, name", [
    (2.0, [0], "vci"), (True, [0, 1], "vci"),
    (1, [2.5], "stream_addr"), (1, [0, 2.5], "stream_addr"), (1, [0, False], "stream_addr"),
])
def test_send_refuses_a_non_integer_vci_or_address_by_name(vci, addrs, name):
    """The first stream's frame and the ones made from it check their fields
    alike, and a refused packet takes no serial."""
    d = Dispatcher(vci, addrs)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        d.send(b"a")
    assert d.next_vcs == 0


def test_dispatched_frames_differ_only_in_the_address():
    addrs = [0, 0x020000000001, (1 << 48) - 1]
    d = Dispatcher(vci=0xFFFF, stream_addrs=addrs)
    d.next_vcs = 0x8000
    _, sent = d.send(P3)
    frames = [f for _, f in sent]
    bits = [frame_to_bits(f) for f in frames]
    alone = frame_to_bits(encapsulate(P3, 0xFFFF, 0x8000, addrs[0]))
    for addr, f, b in zip(addrs, frames, bits):
        assert f.stream_addr == addr
        assert int("".join(map(str, b[:48])), 2) == addr
        assert np.array_equal(b[48:], alone[48:])
    assert np.array_equal(bits[0], alone)


@pytest.mark.parametrize("first", [0, 0x020000000001, (1 << 48) - 1])
def test_stamped_addresses_equal_each_streams_frame_bits(first):
    """The oracle network point unpacks a packet once and stamps each
    stream's address into a copy: the bits must be those of that stream's
    frame, which run_network_point unpacks on its own."""
    addrs = [first, 0, 0x020000000001, (1 << 48) - 1]
    d = Dispatcher(vci=3, stream_addrs=addrs)
    d.next_vcs = 9
    _, sent = d.send(b"\x00\xa5" * 700)
    frames = [f for _, f in sent]
    wire = frame_to_bits(frames[0])
    for f in frames:
        stamped = oracles.with_stream_addr(wire, f.stream_addr)
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


@pytest.mark.parametrize("variant", ["naive", "hrsx", "srsx"])
def test_stored_soft_copies_are_not_aliased(variant):
    """A stored copy keeps its own LLRs: later pushes of other keys' soft
    copies of the same length, each stored after a failed combine, never
    write into it, and no two stored copies share memory."""
    descramble = {"naive": naive_sd, "hrsx": lambda w: hrsx(w)[0], "srsx": srsx}[variant]
    obs = soft_obs(K1, P1, 0, corrupt=[1])
    want = descramble(obs.soft)[496:].tobytes()
    agg = make_agg({}, variant)  # no payload verifies, so every combine fails
    assert agg.push(obs) is None
    assert agg.pending[K1][0].tobytes() == want
    for vcs in range(20, 26):
        for sid in (0, 1):
            later = soft_obs(FrameKey(1, vcs), P1, sid, corrupt=[vcs + sid], seed_int=vcs)
            assert agg.push(later) is None
    assert agg.stats.combine_failures == 6 and agg.stats.soft_stored == 13
    assert agg.pending[K1][0].tobytes() == want
    stored = [llrs for copies in agg.pending.values() for llrs in copies.values()]
    assert len(stored) == 13
    assert not any(np.shares_memory(a, b) for i, a in enumerate(stored) for b in stored[i + 1:])


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
        agg.push(StreamObservation(stream_id=0))


def test_malformed_soft_payload_length_dropped(monkeypatch):
    agg = make_agg({K1: P1})
    for name in ("srsx", "hrsx", "naive_sd"):
        monkeypatch.setattr(netstack, name,
                            lambda word: pytest.fail("a malformed word was descrambled"))
    bad = soft_obs(K1, P1, 0, wire_bits=np.zeros(499, dtype=np.uint8))
    assert agg.push(bad) is None
    assert agg.stats.header_invalid_drops == 1
    # a copy is descrambled at its own pilot count, so 15 pilots reach the length rule
    short = StreamObservation(stream_id=0, soft=oracles.soft_word(bad.soft.pilots[1:],
                                                                  bad.soft.payload))
    assert agg.push(short) is None
    assert agg.stats.header_invalid_drops == 2


@pytest.mark.parametrize("n_bits", [500, 495, 496 + 8 * 1501])
def test_malformed_clean_copy_dropped(n_bits):
    """A clean copy whose bits no frame can have is dropped as header-invalid,
    as a malformed soft copy is, instead of raising."""
    agg = make_agg({K1: P1})
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[:min(n_bits, 496 + 8 * len(P1))] = hard_obs(K1, P1, 0).hard_bits[:n_bits]
    obs = StreamObservation(stream_id=0, hard_bits=bits)
    assert agg.push(obs) is None
    assert agg.stats.header_invalid_drops == 1 and agg.stats.delivered == 0
    assert agg.push(hard_obs(K1, P1, 1)) == (K1, P1)


def test_offer_combines_a_copy_only_with_pending_copies_of_its_size():
    """Copies of one key and different sizes never meet: a 128-LLR copy on
    stream 1 after a 64-LLR one on stream 0 is stored beside it, and a third
    copy on stream 2 combines with the 128-LLR copy alone."""
    agg = make_agg({K1: b"\xff" * 16})
    assert agg.offer(K1, 0, np.full(64, 2.0)) is None
    assert agg.offer(K1, 1, np.full(128, -2.0)) is None
    assert agg.stats.soft_stored == 2 and agg.stats.combine_failures == 0
    # alone, +1 LLRs decide 0 bits; with stream 1's -2 they decide 1 bits
    assert agg.offer(K1, 2, np.full(128, 1.0)) == (K1, b"\xff" * 16)
    assert agg.stats.delivered_combined == 1 and agg.stats.combine_failures == 0


@pytest.mark.parametrize("copy", ["abc", [2.0] * 40, np.full((5, 8), 2.0), None,
                                  np.full(40, 2, dtype=np.int64)],
                         ids=["str", "list", "2-D", "None", "int-array"])
def test_offer_refuses_a_copy_that_is_not_bytes_or_one_float_row(copy):
    """A keyed copy must be a payload's bytes or its (M,) float LLRs; any
    other is refused by name before a counter moves or a copy is stored,
    where a 2-D one would be summed as a block of packets."""
    agg = make_agg({K1: P1})
    assert agg.offer(K1, 1, np.full(8 * len(P1), 2.0)) is None
    before = asdict(agg.stats)
    with pytest.raises(ValueError, match="^copy: must be bytes or a 1-D float array, got "):
        agg.offer(K1, 0, copy)
    assert asdict(agg.stats) == before and list(agg.pending[K1]) == [1]
    # without a key nothing is read from the copy: the front end's (None, None)
    assert agg.offer(None, 0, None) is None and agg.stats.header_invalid_drops == 1


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
    return StreamObservation(stream_id=sid, soft=oracles.soft_word(llrs[:L], llrs[L:]))


@pytest.mark.parametrize("variant", ["naive", "hrsx", "srsx"])
def test_combined_decisions_equal_ssic_combine(variant):
    """The aggregator combines a packet's copies and decides from the signs;
    its decisions must be those of ssic_combine of the same copies in the
    same order: stored copies first, in the order their streams were first
    stored, then the arriving one."""
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
    agg = Aggregator(AggregatorConfig(variant=variant, window_size=64),
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
        copies = {s: w for s, w in words.items() if s != sid}
        if copies:
            copies[sid] = mine
            bits = hard_decide(ssic_combine(copies))
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
    word = oracles.soft_word(rng.normal(0, 3, L), rng.normal(0, 3, 496 + 40))
    obs = StreamObservation(stream_id=0, soft=word)
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
        AggregatorConfig(window_size=0)
    with pytest.raises(ValueError):
        AggregatorConfig(window_size=32768)
    # a fractional window makes serials that match no held key
    for w in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="^window_size: must be an integer"):
            AggregatorConfig(window_size=w)
    assert AggregatorConfig(window_size=np.int64(3)).window_size == 3
    with pytest.raises(ValueError):
        Aggregator(AggregatorConfig(), payload_check=None)


def test_aggregator_variants_all_decode_clean_copies():
    for variant in ("naive", "hrsx", "srsx"):
        agg = make_agg({K1: P1}, variant=variant)
        assert agg.push(soft_obs(K1, P1, 0)) is None
        assert agg.push(soft_obs(K1, P1, 1)) == (K1, P1), variant


@pytest.mark.parametrize("variant", ["naive", "hrsx", "srsx"])
def test_copies_with_different_pilot_lengths_combine(variant):
    """Streams may run over different networks: each soft copy is descrambled
    at its own word's pilot count, and the copies' payloads still combine."""
    agg = make_agg({K1: P1}, variant=variant)
    obs = []
    for sid, (n_pilots, seed_int) in enumerate([(7, 93), (127, 5)]):
        wire = frame_to_bits(encapsulate(P1, K1.vci, K1.vcs, 0x020000000000 + sid))
        tx = scramble(seed_from_int(seed_int),
                      np.concatenate([np.zeros(n_pilots, dtype=np.uint8), wire]))
        llrs = (1.0 - 2.0 * tx) * MAG
        word = oracles.soft_word(llrs[:n_pilots], llrs[n_pilots:])
        obs.append(StreamObservation(stream_id=sid, soft=word))
    assert agg.push(obs[0]) is None
    assert agg.push(obs[1]) == (K1, P1)
    assert agg.stats.delivered_combined == 1


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
    # one row per packet: detected and hard per stream, then ssic_delivered
    outcomes = PacketOutcomes(
        detected=np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=bool),
        hard=np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=bool),
        ssic_delivered=np.array([1, 0, 1, 0], dtype=bool))
    out = run_metrics(outcomes)
    assert list(out) == ["stream1", "stream2", "dup", "ssic"]
    assert out["stream1"].detected == 2 and out["stream1"].delivered == 1
    assert out["stream2"].detected == 2 and out["stream2"].delivered == 1
    assert out["dup"].detected == 3 and out["dup"].delivered == 2
    assert out["ssic"].detected == 3 and out["ssic"].delivered == 2
    assert out["dup"].plr == pytest.approx(0.25)
    # the stream count is read from the columns, and an empty run counts nothing
    empty = run_metrics(PacketOutcomes(np.zeros((0, 3), bool), np.zeros((0, 3), bool),
                                       np.zeros(0, bool)))
    assert list(empty) == ["stream1", "stream2", "stream3", "dup", "ssic"]
    assert all(m.sent == m.detected == m.delivered == 0 for m in empty.values())


def test_run_network_point_micro():
    params = [ChannelParams(snr_db=8.0), ChannelParams(snr_db=8.0)]
    out1, stats1 = run_network_point(60, 200, params, L,
                                     np.random.default_rng(17), variant="srsx")
    out2, _ = run_network_point(60, 200, params, L,
                                np.random.default_rng(17), variant="srsx")
    assert len(out1) == 60 and out1.detected.shape == out1.hard.shape == (60, 2)
    for a, b in zip((out1.detected, out1.hard, out1.ssic_delivered),
                    (out2.detected, out2.hard, out2.ssic_delivered)):
        assert a.dtype == bool and np.array_equal(a, b)
    assert stats1.delivered == out1.ssic_delivered.sum()
    # a clean copy on any stream guarantees aggregator delivery
    assert out1.ssic_delivered[out1.hard.any(axis=1)].all()
    out = run_metrics(out1)
    assert out["ssic"].fr <= out["dup"].fr <= min(out["stream1"].fr,
                                                  out["stream2"].fr)


@pytest.mark.parametrize("snr_db", [30.0, 6.0])
def test_run_network_point_attributes_packets_past_the_vcs_wrap(monkeypatch, snr_db):
    # a 256-value serial space makes 600 packets reuse every (vci, vcs) key;
    # each delivery must still count for the packet whose copy arrived
    monkeypatch.setattr(netstack, "VCS_MOD", 256)
    params = [ChannelParams(snr_db=snr_db), ChannelParams(snr_db=snr_db)]
    outcomes, stats = run_network_point(600, 20, params, L, np.random.default_rng(3),
                                        window_size=64)
    assert outcomes.ssic_delivered.sum() == stats.delivered
    if snr_db == 30.0:  # every copy arrives clean
        assert stats.delivered == len(outcomes) == 600
        assert run_metrics(outcomes)["ssic"].fr == 0.0
    else:
        assert stats.delivered_combined > 0


# (n_packets, payload_bytes, SNR dB, detection loss, bursts, arrival jitter, VCS_MOD)
ORACLE_RUNS = [
    (150, 64, 8.0, 0.0, False, 0.0, None),
    (150, 64, 7.0, 0.05, True, 3.0, None),
    (150, 64, 8.0, 0.0, False, 3.0, None),
    (150, 64, 7.0, 0.05, True, 0.0, None),
    (700, 1, 6.0, 0.0, False, 0.5, 256),
    (700, 2, 5.0, 0.05, True, 3.0, 256),
    (700, 1, 7.0, 0.02, False, 0.0, 256),
    (700, 0, 5.0, 0.0, False, 0.5, 256),
]


@pytest.mark.parametrize("n, nbytes, snr_db, loss, bursts, jitter, vcs_mod", ORACLE_RUNS)
def test_run_network_point_equals_the_oracle(monkeypatch, n, nbytes, snr_db, loss, bursts,
                                             jitter, vcs_mod):
    # the oracle keeps every payload and a record per packet; the columns,
    # the payload ring and the implied keys must give the same run.  With
    # 1-2-byte payloads a payload from the wrong ring slot matches by chance
    # only 1 time in 256 or 65536, so a wrong slot changes the counters.
    if vcs_mod is not None:
        monkeypatch.setattr(netstack, "VCS_MOD", vcs_mod)
        monkeypatch.setattr(oracles, "VCS_MOD", vcs_mod)
    params = [ChannelParams(snr_db=snr_db + off, detection_loss_prob=loss,
                            burst_prob=0.3 if bursts else 0.0, burst_llr_atten=0.3)
              for off in (0.0, 0.5)]
    kwargs = dict(window_size=64, arrival_jitter=jitter)
    rng_want, rng_got = np.random.default_rng(11), np.random.default_rng(11)
    records, want_stats = oracles.run_network_point(n, nbytes, params, L, rng_want, **kwargs)
    got, got_stats = run_network_point(n, nbytes, params, L, rng_got, **kwargs)
    mod = vcs_mod or netstack.VCS_MOD
    assert [r.key for r in records] == [FrameKey(1, i % mod) for i in range(n)]
    assert np.array_equal(got.detected, [r.detected for r in records])
    assert np.array_equal(got.hard, [r.hard for r in records])
    assert np.array_equal(got.ssic_delivered, [r.ssic_delivered for r in records])
    assert asdict(got_stats) == asdict(want_stats)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert run_metrics(got) == oracles.run_metrics(records, 2)
    assert got_stats.delivered_combined > 0  # payload_check compared against the ring


@pytest.mark.parametrize("pilots", [7, 127])
def test_run_network_point_equals_the_oracle_at_other_pilot_lengths(pilots):
    # the shortest and the longest pilot sequence, with bursts and jitter
    n, nbytes = 150, 64
    params = [ChannelParams(snr_db=7.0 + off, detection_loss_prob=0.05, burst_prob=0.3,
                            burst_llr_atten=0.3) for off in (0.0, 0.5)]
    kwargs = dict(window_size=64, arrival_jitter=3.0)
    rng_want, rng_got = np.random.default_rng(11), np.random.default_rng(11)
    records, want_stats = oracles.run_network_point(n, nbytes, params, pilots, rng_want,
                                                    **kwargs)
    got, got_stats = run_network_point(n, nbytes, params, pilots, rng_got, **kwargs)
    assert [r.key for r in records] == [FrameKey(1, i) for i in range(n)]
    assert np.array_equal(got.detected, [r.detected for r in records])
    assert np.array_equal(got.hard, [r.hard for r in records])
    assert np.array_equal(got.ssic_delivered, [r.ssic_delivered for r in records])
    assert asdict(got_stats) == asdict(want_stats)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert run_metrics(got) == oracles.run_metrics(records, 2)
    assert got_stats.delivered_combined > 0


def moving_soft_keys(how: str, mod: int, moved: list):
    """decode_header_soft, but a key whose serial is a multiple of 3 comes out
    moved, and is appended to moved: half the serial space back (the oldest
    packet a key can name), one ahead (a packet not yet sent when the jitter
    is 0), one back (a packet most often already delivered), or onto another
    VCI.  Clean copies keep their keys: their headers are read, not decoded."""
    decode = netstack.decode_header_soft

    def wrong(coded):
        key = decode(coded)
        if key is None or key.vcs % 3:
            return key
        if how == "other_vci":
            key = FrameKey(key.vci + 1, key.vcs)
        else:
            shift = {"half_back": -(mod // 2), "unsent": 1, "delivered": -1}[how]
            key = FrameKey(key.vci, (key.vcs + shift) % mod)
        moved.append(key)
        return key
    return wrong


# (how keys move, payload bytes, arrival jitter, stream SNRs in dB); 300 packets each
WRONG_KEY_RUNS = [
    (how, nbytes, jitter, snrs)
    for how, nbytes in [("half_back", 1), ("unsent", 0)]
    for jitter in (0.0, 0.5, 3.0)
    for snrs in [(5.0, 5.5), (12.0, 5.0, 5.5)]
] + [("other_vci", 1, 0.5, (5.0, 5.5)), ("delivered", 1, 0.5, (12.0, 5.0, 5.5))]


@pytest.mark.parametrize("how, nbytes, jitter, snrs", WRONG_KEY_RUNS)
def test_run_network_point_equals_the_oracle_on_wrong_soft_keys(monkeypatch, how, nbytes,
                                                                jitter, snrs):
    """Soft headers that decode to a valid key of another packet, in a
    256-serial space: both runs push through netstack.Aggregator and see the
    same wrong keys, and the oracle, which keeps every payload, must agree
    with the digest ring and packet_of.  A 1-byte payload makes a wrong ring
    slot deliver what the oracle refuses; with 0-byte payloads every digest
    matches, so only packet_of's range decides a key one ahead."""
    mod, n, moved = 256, 300, []
    monkeypatch.setattr(netstack, "VCS_MOD", mod)
    monkeypatch.setattr(oracles, "VCS_MOD", mod)
    monkeypatch.setattr(netstack, "decode_header_soft", moving_soft_keys(how, mod, moved))
    params = [ChannelParams(snr_db=s) for s in snrs]
    kwargs = dict(window_size=64, arrival_jitter=jitter)
    rng_want, rng_got = np.random.default_rng(17), np.random.default_rng(17)
    records, want_stats = oracles.run_network_point(n, nbytes, params, L, rng_want, **kwargs)
    got, got_stats = run_network_point(n, nbytes, params, L, rng_got, **kwargs)
    assert np.array_equal(got.ssic_delivered, [r.ssic_delivered for r in records])
    assert asdict(got_stats) == asdict(want_stats)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert moved and moved[:len(moved) // 2] == moved[len(moved) // 2:]  # both runs, alike


def test_run_network_point_rejects_negative_packets():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_packets"):
        run_network_point(-1, 10, [ChannelParams(snr_db=8.0)], L, rng)
    assert rng.bit_generator.state == before  # refused before any draw
    outcomes, stats = run_network_point(0, 10, [ChannelParams(snr_db=8.0)] * 2, L,
                                        np.random.default_rng(0))
    assert len(outcomes) == 0 and outcomes.detected.shape == (0, 2) and stats.delivered == 0


@pytest.mark.parametrize("n_packets, payload_bytes, L_, refusal", [
    (2.5, 10, L, "^n_packets: must be an integer, got 2.5$"),
    (True, 10, L, "^n_packets: must be an integer, got True$"),
    (3, 2000, L, r"^payload_bytes: must be in \[0, 1500\], got 2000$"),
    (3, -1, L, r"^payload_bytes: must be in \[0, 1500\], got -1$"),
    (3, 10.0, L, "^payload_bytes: must be an integer, got 10.0$"),
    (3, 10, 16.0, "^L must be an integer, got 16.0$"),
    (3, 10, np.float64(16.0), "^L must be an integer, got "),
    (3, 10, 3, "^L must be at least 7, got 3$"),
], ids=["n_packets-2.5", "n_packets-True", "payload_bytes-2000", "payload_bytes--1",
        "payload_bytes-10.0", "L-16.0", "L-float64", "L-3"])
def test_run_network_point_refuses_a_bad_size_by_name_before_any_draw(
        n_packets, payload_bytes, L_, refusal):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=refusal):
        run_network_point(n_packets, payload_bytes, [ChannelParams(snr_db=8.0)] * 2, L_, rng)
    assert rng.bit_generator.state == before


def test_dispatcher_and_run_network_point_need_a_stream():
    with pytest.raises(ValueError, match="need at least one stream"):
        Dispatcher(vci=1, stream_addrs=[])
    with pytest.raises(ValueError, match="need at least one stream"):
        run_network_point(2, 10, [], L, np.random.default_rng(0))


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


def test_run_network_point_memory_is_flat_in_packets(monkeypatch):
    # payload digests live in a ring of VCS_MOD // 2 + ceil(arrival_jitter) + 1
    # packets and outcomes in bool columns, so 4x the packets add only their
    # column rows (3 B each here), where a payload and a record per packet
    # added about 1.7 kB
    monkeypatch.setattr(netstack, "VCS_MOD", 256)
    params = [ChannelParams(snr_db=30.0)]

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            run_network_point(n, 1500, params, L, np.random.default_rng(5), window_size=64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm-up: the lazily built tables are not part of a run's peak
    small, large = peak(400), peak(1600)
    assert large - small < 2**20, f"peak {small / 2**20:.2f} -> {large / 2**20:.2f} MB"


def test_run_network_point_memory_does_not_grow_with_payloads():
    # no copy is detected, so only the ring and the outcome columns grow; the
    # ring holds a 16-byte digest per packet, not its 1,500-byte payload, at
    # the real serial space, where 1,500 more payloads would add about 2.2 MiB
    params = [ChannelParams(snr_db=10.0, detection_loss_prob=1.0)] * 2

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            run_network_point(n, 1500, params, L, np.random.default_rng(5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm-up: the lazily built tables are not part of a run's peak
    small, large = peak(500), peak(2000)
    assert large - small < 512 * 2**10, f"peak {small / 2**10:.0f} -> {large / 2**10:.0f} KiB"

