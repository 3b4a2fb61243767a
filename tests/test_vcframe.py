"""Header code and wire-format tests.

binascii.crc_hqx(data, 0xFFFF) computes the same CRC variant and serves as
the second, independent implementation.
"""

import binascii
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssic.vcframe import (
    BCH_K,
    BCH_MIN_DIST,
    BCH_N,
    CODEWORDS,
    FRAME_OVERHEAD_BYTES,
    HEADER_CODED_BITS,
    MTU_PAYLOAD,
    STREAM_ADDR_BITS,
    VcFrame,
    VcHeader,
    bch_decode_soft,
    crc16_ccitt,
    decode_header_hard,
    decode_header_soft,
    encapsulate,
    encode_header,
    frame_from_bits,
    frame_to_bits,
)

GOLDEN_WIRE_HEX = (
    "0200000000030000000000000000054c896c7435cf7d07eacdda4e2f28c3e054c896c7"
    "435cf841fab376938bca2644b63a1ae7be05454c896c7435cf7c0068656c6c6f20776f"
    "726c6421"
)


def info_value(info_bits: np.ndarray) -> int:
    """The info value of 7 info bits, transmitted (MSB-first) order."""
    return int(info_bits @ (1 << np.arange(BCH_K - 1, -1, -1)))


def hard_decode(bits: np.ndarray) -> np.ndarray:
    """Minimum-distance decoding of 63 hard bits: ML at unit confidence."""
    return bch_decode_soft(1.0 - 2.0 * bits.astype(np.float64))


def frame_bytes(frame: VcFrame) -> bytes:
    return np.packbits(frame_to_bits(frame)).tobytes()


def frame_of_bytes(data: bytes) -> VcFrame:
    return frame_from_bits(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))


def header_of(frame: VcFrame) -> VcHeader | None:
    return decode_header_hard(frame.header_coded)


# ---------------------------------------------------------------- block code

def test_codeword_table_shape_and_weights():
    assert CODEWORDS.shape == (128, 63)
    assert not CODEWORDS.flags.writeable
    weights = sorted(set(CODEWORDS.sum(axis=1).tolist()))
    assert weights == [0, 31, 32, 63]


def test_minimum_distance_exhaustive_pairwise():
    # pairwise distances via XOR weight; linear code, but check all pairs anyway
    c = CODEWORDS.astype(np.int16)
    dists = np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2)
    off = dists + np.eye(128, dtype=np.int16) * 63
    assert off.min() == BCH_MIN_DIST == 31
    assert dists.max() == 63


def test_code_is_linear_and_cyclic():
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b = rng.integers(0, 128, 2)
        assert np.array_equal(CODEWORDS[a] ^ CODEWORDS[b], CODEWORDS[a ^ b])
    cw_set = {tuple(row) for row in CODEWORDS}
    for v in (1, 17, 127):
        assert tuple(np.roll(CODEWORDS[v], 1)) in cw_set


def _gf64_mul(a, b):
    """Product of two elements of GF(2^6) = GF(2)[x] / (x^6 + x + 1), as 6-bit ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0b1000000:
            a ^= 0b1000011
    return r


def test_codewords_vanish_at_alpha_1_to_30():
    # the definition of the narrow-sense BCH code, independent of how the
    # table is built: with bit p the coefficient of x^(62-p), every codeword
    # c(x) has the roots alpha^1..alpha^30, alpha = x a primitive element
    powers = [1]
    for _ in range(62):
        powers.append(_gf64_mul(powers[-1], 0b10))
    assert len(set(powers)) == 63
    for row in CODEWORDS.tolist():
        for i in range(1, 31):
            s = 0
            for bit in row:  # Horner, highest power first
                s = _gf64_mul(s, powers[i]) ^ bit
            assert s == 0, (row, i)


def test_encode_is_systematic_in_the_info_bits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        info = rng.integers(0, 2, 7, dtype=np.uint8)
        cw = CODEWORDS[info_value(info)]
        assert np.array_equal(cw[:7], info)


def test_hard_round_trip_all_infos():
    for v in range(128):
        info = np.array([(v >> (6 - j)) & 1 for j in range(7)], dtype=np.uint8)
        assert np.array_equal(hard_decode(CODEWORDS[info_value(info)]), info)


@given(v=st.integers(0, 127), nflips=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_decoder_corrects_up_to_15_hard_flips(v, nflips, seed):
    rng = np.random.default_rng(seed)
    info = np.array([(v >> (6 - j)) & 1 for j in range(7)], dtype=np.uint8)
    cw = CODEWORDS[info_value(info)].copy()
    pos = rng.choice(63, size=nflips, replace=False)
    cw[pos] ^= 1
    assert np.array_equal(hard_decode(cw), info)


def test_soft_decoder_is_argmax_correlation():
    rng = np.random.default_rng(2)
    signs = 1.0 - 2.0 * CODEWORDS.astype(np.float64)
    for _ in range(50):
        y = rng.normal(0, 3, 63)
        v = int(np.argmax(signs @ y))
        got = bch_decode_soft(y)
        assert int(got @ (1 << np.arange(6, -1, -1))) == v


def test_soft_decoder_weighs_confidence():
    # 16 weak wrong bits lose to 47 strong right ones even past d/2
    info = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    cw = CODEWORDS[info_value(info)]
    llrs = (1.0 - 2.0 * cw) * 10.0
    llrs[:16] = -llrs[:16] * 0.01
    assert np.array_equal(bch_decode_soft(llrs), info)


def test_decoder_input_validation():
    with pytest.raises(ValueError):
        bch_decode_soft(np.zeros(62))


# ----------------------------------------------------------------------- crc

def test_crc_check_value():
    assert crc16_ccitt(b"123456789") == 0x29B1
    assert crc16_ccitt(b"") == 0xFFFF


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_crc_matches_independent_implementation(data):
    assert crc16_ccitt(data) == binascii.crc_hqx(data, 0xFFFF)


def test_crc_detects_single_byte_change():
    base = crc16_ccitt(b"\x00\x01\x02\x03")
    assert crc16_ccitt(b"\x00\x01\x02\x07") != base


# -------------------------------------------------------------------- header

def test_header_make_and_crc_ok():
    h = VcHeader.make(5, 1000)
    assert h.crc_ok()
    assert h.crc16 == crc16_ccitt(bytes([0, 5, 1000 >> 8, 1000 & 0xFF]))
    bad = VcHeader(5, 1000, h.crc16 ^ 1)
    assert not bad.crc_ok()
    with pytest.raises(ValueError):
        VcHeader.make(70000, 0)


@given(vci=st.integers(0, 0xFFFF), vcs=st.integers(0, 0xFFFF))
@settings(max_examples=100, deadline=None)
def test_header_code_round_trip(vci, vcs):
    coded = encode_header(vci, vcs)
    assert coded.shape == (HEADER_CODED_BITS,)
    h = decode_header_hard(coded)
    assert h is not None and (h.vci, h.vcs) == (vci, vcs) and h.crc_ok()


EDGE_U16 = (0, 1, 0x7FFF, 0x8000, 0xFFFF)


def header_pairs(n_random: int, seed: int):
    """Every pair of edge values, then n_random uniform (vci, vcs) pairs."""
    rng = np.random.default_rng(seed)
    yield from ((a, b) for a in EDGE_U16 for b in EDGE_U16)
    for _ in range(n_random):
        yield int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16))


def test_encode_header_equals_seven_block_encodes():
    for vci, vcs in header_pairs(200, seed=41):
        crc = binascii.crc_hqx(bytes([vci >> 8, vci & 0xFF, vcs >> 8, vcs & 0xFF]), 0xFFFF)
        field_bits = np.array([int(c) for c in f"{vci:016b}{vcs:016b}{crc:016b}0"],
                              dtype=np.uint8)
        want = np.concatenate([CODEWORDS[info_value(field_bits[7 * j:7 * j + 7])]
                               for j in range(BCH_K)])
        got = encode_header(vci, vcs)
        assert got.dtype == np.uint8 and np.array_equal(got, want), (vci, vcs)


def test_hard_header_decode_equals_soft_decode_of_the_signs():
    """decode_header_hard reads a clean header's info bits directly; on any
    input it must agree with the ML decode of the +-1 LLRs."""
    rng = np.random.default_rng(43)
    inputs = []
    for vci, vcs in header_pairs(60, seed=44):
        coded = encode_header(vci, vcs)
        inputs.append(coded)
        flipped = coded.copy()
        j = int(rng.integers(0, BCH_K))
        pos = rng.choice(BCH_N, size=int(rng.integers(1, 16)), replace=False)
        flipped[BCH_N * j + pos] ^= 1
        inputs.append(flipped)
        inputs.append(rng.integers(0, 2, HEADER_CODED_BITS, dtype=np.uint8))
        # a 2 in a block's first bit is no codeword bit, and as an info
        # value it would index past the table's last row
        two = coded.copy()
        two[BCH_N * j] = 2
        inputs.append(two)
    valid = 0
    for b in inputs:
        want = decode_header_soft(1.0 - 2.0 * b.astype(np.float64))
        assert decode_header_hard(b) == want
        assert decode_header_hard(b.astype(np.int64)) == want
        valid += want is not None
    assert valid >= 2 * (25 + 60)  # every clean and every 1-15-flip header decodes
    with pytest.raises(ValueError):
        decode_header_hard(np.zeros(440, dtype=np.uint8))


def test_header_soft_decode_under_noise():
    rng = np.random.default_rng(3)
    coded = encode_header(321, 54321)
    llrs = (1.0 - 2.0 * coded) * 2.0 + rng.normal(0, 1.0, HEADER_CODED_BITS)
    h = decode_header_soft(llrs)
    assert h is not None and (h.vci, h.vcs) == (321, 54321)


def header_by_blocks(llrs: np.ndarray) -> VcHeader | None:
    """Reference header decode: seven separate block decodes, then the CRC."""
    bits = np.concatenate([bch_decode_soft(llrs[BCH_N * j:BCH_N * (j + 1)])
                           for j in range(BCH_K)])
    vci, vcs, crc = (int("".join(map(str, bits[16 * i:16 * i + 16])), 2)
                     for i in range(3))
    h = VcHeader(vci, vcs, crc)
    return h if h.crc_ok() else None


def test_header_decode_equals_seven_block_decodes():
    rng = np.random.default_rng(31)
    valid = invalid = ties = 0
    for trial in range(400):
        coded = encode_header(int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16)))
        if trial % 2:
            llrs = (1.0 - 2.0 * coded) * 2.0 + rng.normal(0, 4.5, HEADER_CODED_BITS)
        else:
            # hard +-1 input with 16-23 flips per block: past the guaranteed
            # radius, where ties between codewords are common
            flips = coded.copy()
            for j in range(BCH_K):
                pos = rng.choice(BCH_N, size=int(rng.integers(16, 24)), replace=False)
                flips[BCH_N * j + pos] ^= 1
            llrs = 1.0 - 2.0 * flips.astype(np.float64)
            corr = llrs.reshape(BCH_K, BCH_N) @ (1.0 - 2.0 * CODEWORDS.T)
            ties += int((corr == corr.max(axis=1, keepdims=True)).sum(axis=1).max() > 1)
        want = header_by_blocks(llrs)
        assert decode_header_soft(llrs) == want
        valid += want is not None
        invalid += want is None
    assert valid > 20 and invalid > 20 and ties > 20


def test_header_decode_rejects_garbage():
    for s in (0, 1, 2, 3):
        rng = np.random.default_rng(s)
        assert decode_header_soft(rng.normal(0, 1, HEADER_CODED_BITS)) is None
    with pytest.raises(ValueError):
        decode_header_soft(np.zeros(440))


def test_header_decode_rejects_corrupted_crc_field():
    coded = encode_header(7, 7)
    # flip one info bit cleanly: replace the crc's first block with a
    # different codeword so every block still decodes, but the crc mismatches
    corrupted = coded.copy()
    crc_block = coded[63 * 4:63 * 5]
    info = hard_decode(crc_block)
    info[0] ^= 1
    corrupted[63 * 4:63 * 5] = CODEWORDS[info_value(info)]
    assert decode_header_hard(corrupted) is None


# --------------------------------------------------------------- wire format

def test_golden_wire_bytes():
    f = encapsulate(b"hello world!", vci=5, vcs=1000, stream_addr=0x020000000003)
    assert frame_bytes(f).hex() == GOLDEN_WIRE_HEX


def test_golden_frame_fixtures():
    # frozen serialized frames; the first is the hand-derived vector above,
    # the others pin edge cases (empty payload, max ids, binary payload)
    path = Path(__file__).parent / "fixtures" / "golden_frames.json"
    entries = json.loads(path.read_text())
    assert len(entries) >= 3
    assert entries[0]["frame_hex"] == GOLDEN_WIRE_HEX
    for e in entries:
        addr = int(e["stream_addr"], 16)
        payload = bytes.fromhex(e["payload_hex"])
        built = encapsulate(payload, e["vci"], e["vcs"], addr)
        assert frame_bytes(built).hex() == e["frame_hex"], e["name"]
        parsed = frame_of_bytes(bytes.fromhex(e["frame_hex"]))
        assert parsed.stream_addr == addr and parsed.payload == payload, e["name"]
        h = header_of(parsed)
        assert h is not None and (h.vci, h.vcs) == (e["vci"], e["vcs"]), e["name"]


def test_frame_layout_constants():
    assert STREAM_ADDR_BITS + HEADER_CODED_BITS + 7 == FRAME_OVERHEAD_BYTES * 8 == 496
    assert FRAME_OVERHEAD_BYTES == 62


def test_bit_layout_sections():
    f = encapsulate(b"\xff\x00", vci=9, vcs=2, stream_addr=(1 << 41))
    bits = frame_to_bits(f)
    assert bits.size == 496 + 16
    assert bits[:STREAM_ADDR_BITS].sum() == 1 and bits[6] == 1  # MSB-first addr
    assert np.array_equal(bits[48:489], f.header_coded)
    assert not bits[489:496].any()  # pad
    assert bits[496:504].all() and not bits[504:].any()


@given(payload=st.binary(min_size=0, max_size=80),
       vci=st.integers(0, 0xFFFF), vcs=st.integers(0, 0xFFFF),
       addr=st.integers(0, (1 << 48) - 1))
@settings(max_examples=60, deadline=None)
def test_frame_round_trips(payload, vci, vcs, addr):
    f = encapsulate(payload, vci, vcs, addr)
    g = frame_from_bits(frame_to_bits(f))
    assert g.stream_addr == addr and g.payload == payload
    h = header_of(g)
    assert h is not None and (h.vci, h.vcs) == (vci, vcs)
    b = frame_of_bytes(frame_bytes(f))
    assert b.payload == payload and b.stream_addr == addr


def test_frame_bits_round_trip_extreme_addresses():
    for addr in (0, (1 << STREAM_ADDR_BITS) - 1):
        f = encapsulate(b"\x5a\x00\xff", 3, 4, addr)
        bits = frame_to_bits(f)
        assert bits.dtype == np.uint8 and bits.size == 496 + 24
        assert (bits[:STREAM_ADDR_BITS] == (addr & 1)).all()  # all 0s or all 1s
        g = frame_from_bits(bits)
        assert g.stream_addr == addr and g.payload == f.payload
        assert np.array_equal(g.header_coded, f.header_coded)


def test_frame_validation():
    with pytest.raises(ValueError):
        encapsulate(b"x" * (MTU_PAYLOAD + 1), 0, 0, 0)
    with pytest.raises(ValueError):
        VcFrame(1 << 48, np.zeros(441, dtype=np.uint8), b"")
    with pytest.raises(ValueError):
        frame_from_bits(np.zeros(495, dtype=np.uint8))  # under overhead
    with pytest.raises(ValueError):
        frame_from_bits(np.zeros(500, dtype=np.uint8))  # payload not byte-sized
    with pytest.raises(ValueError):
        frame_of_bytes(b"\x00" * 61)  # under overhead


def test_frame_header_none_on_bit_rot():
    f = encapsulate(b"data", 1, 1, 0)
    bits = frame_to_bits(f)
    rng = np.random.default_rng(4)
    bits[48 + rng.choice(441, size=220, replace=False)] ^= 1  # beyond correction
    assert header_of(frame_from_bits(bits)) is None
