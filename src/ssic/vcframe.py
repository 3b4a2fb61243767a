"""Virtual-channel framing: header code, CRC, and the wire format.

A frame carries [stream address | coded header | pad | payload]:

  stream_addr   48 bits, MSB first
  header_coded  441 bits: the 49-bit header block (VCI 16, VCS 16, CRC-16 of
                those four bytes, one zero pad bit) split into 7-bit chunks,
                each expanded by the (63,7) block code below
  pad           7 zero bits, aligning the byte boundary (496 bits total)
  payload       raw packet bytes, at most MTU_PAYLOAD

The header code is the narrow-sense binary BCH code of length 63 with 7
information bits over GF(2^6) (x^6 + x + 1; generator roots alpha^1 to
alpha^30), systematic with the info bits sent first.  Its codewords come
from the scrambler's 7-bit register recurrence (_codeword_table).  The
nonzero ones are the 63 shifts of one m-sequence (weight 32), their
complements (31) and the all-ones word (63), so the minimum distance is 31
and any 15 hard errors per block are correctable.  With only 128 codewords,
soft decoding is exact maximum-likelihood: correlate the received LLRs
against every codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scrambler import _recurrence

BCH_N = 63
BCH_K = 7
BCH_MIN_DIST = 31

STREAM_ADDR_BITS = 48
HEADER_FIELD_BITS = 49  # vci 16 + vcs 16 + crc 16 + pad 1
HEADER_CODED_BITS = BCH_N * BCH_K  # 441
FRAME_PAD_BITS = 7
FRAME_OVERHEAD_BITS = STREAM_ADDR_BITS + HEADER_CODED_BITS + FRAME_PAD_BITS  # 496
FRAME_OVERHEAD_BYTES = FRAME_OVERHEAD_BITS // 8
MTU_PAYLOAD = 1500


def _codeword_table() -> np.ndarray:
    """Row v: the codeword of info value v, transmitted order.

    The check polynomial (x^63 - 1)/g(x) is h(x) = (x + 1)(x^6 + x^5 + 1):
    its roots are alpha^0 and the conjugates of alpha^-1, x^6 + x^5 + 1
    being the reciprocal of x^6 + x + 1.  With bit p the coefficient of
    x^(62-p), c(x)h(x) = 0 mod x^63 - 1 reads b[k] = b[k-7] ^ b[k-6] ^ b[k-2],
    so the info bits, sent first, fix the rest of the word.
    """
    info = (np.arange(1 << BCH_K)[:, None] >> np.arange(BCH_K - 1, -1, -1)) & 1
    t = _recurrence(info, (7, 6, 2), BCH_N)
    t.flags.writeable = False
    return t


CODEWORDS = _codeword_table()  # row v = codeword for info value v, MSB-first
_INFO_OF_CODEWORD = {row.tobytes(): v for v, row in enumerate(CODEWORDS)}  # uint8 bytes -> v
_SIGNS = (1.0 - 2.0 * CODEWORDS.astype(np.float64))  # bit 0 -> +1, bit 1 -> -1


def _decode_blocks(y: np.ndarray) -> np.ndarray:
    """Exact ML info values (0..127) of each row of (n, 63) LLRs.

    One correlation against every codeword maximizes the sum over positions
    of (+llr if codeword bit 0 else -llr); ties break toward the lowest info
    value.
    """
    return np.argmax(y @ _SIGNS.T, axis=1)


def bch_decode_soft(llrs: np.ndarray) -> np.ndarray:
    """Exact ML decoding of one block from 63 LLRs."""
    y = np.asarray(llrs, dtype=np.float64)
    if y.shape != (BCH_N,):
        raise ValueError(f"need {BCH_N} LLRs")
    v = int(_decode_blocks(y[None, :])[0])
    return ((v >> np.arange(BCH_K - 1, -1, -1)) & 1).astype(np.uint8)


_CRC16_POLY = 0x1021


def _crc16_table() -> list[int]:
    """Entry t: the register t << 8 after 8 shifts through the polynomial."""
    crc = np.arange(256) << 8
    for _ in range(8):
        crc = np.where(crc & 0x8000, (crc << 1) ^ _CRC16_POLY, crc << 1) & 0xFFFF
    return crc.tolist()


_CRC16_TABLE = _crc16_table()


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection.

    Byte-wise: the top byte of the register, XORed with the next data byte,
    indexes the table of its 8 shifts.
    """
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[(crc >> 8) ^ byte]
    return crc


def _check_u16(name: str, v: int) -> None:
    if not 0 <= v <= 0xFFFF:
        raise ValueError(f"{name} out of range: {v}")


@dataclass(frozen=True)
class VcHeader:
    """Identifies one packet instance: channel id, serial number, their CRC."""

    vci: int
    vcs: int
    crc16: int

    def __post_init__(self):
        _check_u16("vci", self.vci)
        _check_u16("vcs", self.vcs)
        _check_u16("crc16", self.crc16)

    @classmethod
    def make(cls, vci: int, vcs: int) -> "VcHeader":
        _check_u16("vci", vci)
        _check_u16("vcs", vcs)
        return cls(vci, vcs, _header_crc(vci, vcs))

    def crc_ok(self) -> bool:
        return self.crc16 == _header_crc(self.vci, self.vcs)


def _header_crc(vci: int, vcs: int) -> int:
    return crc16_ccitt(bytes([vci >> 8, vci & 0xFF, vcs >> 8, vcs & 0xFF]))


# shift of each 7-bit info chunk within the 49-bit header block, first chunk first
_CHUNK_SHIFTS = range(HEADER_FIELD_BITS - BCH_K, -1, -BCH_K)


def encode_header(vci: int, vcs: int) -> np.ndarray:
    """(vci, vcs) -> 441 coded header bits.  CRC is computed here.

    The header block is the integer vci.vcs.crc.0 (49 bits, MSB first); each
    of its 7-bit chunks picks its codeword from the table.
    """
    h = VcHeader.make(vci, vcs)
    block = (h.vci << 33) | (h.vcs << 17) | (h.crc16 << 1)
    return CODEWORDS[[(block >> s) & 0x7F for s in _CHUNK_SHIFTS]].ravel()


def _header_from_infos(infos) -> VcHeader | None:
    """Header from the 7 blocks' info values, or None when its CRC mismatches."""
    block = 0
    for v in infos:
        block = (block << BCH_K) | v
    h = VcHeader(block >> 33, (block >> 17) & 0xFFFF, (block >> 1) & 0xFFFF)
    return h if h.crc_ok() else None


def decode_header_soft(llrs: np.ndarray) -> VcHeader | None:
    """441 header LLRs -> header, or None when the recovered CRC mismatches."""
    y = np.asarray(llrs, dtype=np.float64)
    if y.shape != (HEADER_CODED_BITS,):
        raise ValueError(f"need {HEADER_CODED_BITS} LLRs")
    return _header_from_infos(_decode_blocks(y.reshape(BCH_K, BCH_N)).tolist())


def decode_header_hard(bits: np.ndarray) -> VcHeader | None:
    """441 hard bits -> header: decode_header_soft of the +-1 LLRs 1 - 2b.

    A codeword is its own unique ML decode, so when every 63-bit block of
    a uint8 array is a codeword, its info value is read from a table.  Any
    other input, values other than 0/1 included, is ML decoded.
    """
    b = np.asarray(bits)
    if b.shape == (HEADER_CODED_BITS,) and b.dtype == np.uint8:
        raw = b.tobytes()
        infos = [_INFO_OF_CODEWORD.get(raw[j:j + BCH_N])
                 for j in range(0, HEADER_CODED_BITS, BCH_N)]
        if None not in infos:
            return _header_from_infos(infos)
    return decode_header_soft(1.0 - 2.0 * np.asarray(b, dtype=np.float64))


@dataclass
class VcFrame:
    """One stream's copy of a packet, ready for scrambling and transmission."""

    stream_addr: int
    header_coded: np.ndarray
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.stream_addr < (1 << STREAM_ADDR_BITS):
            raise ValueError(f"stream_addr out of range: {self.stream_addr}")
        self.header_coded = np.asarray(self.header_coded, dtype=np.uint8)
        if self.header_coded.shape != (HEADER_CODED_BITS,):
            raise ValueError(f"header_coded must be {HEADER_CODED_BITS} bits")
        if len(self.payload) > MTU_PAYLOAD:
            raise ValueError(f"payload exceeds MTU: {len(self.payload)} > {MTU_PAYLOAD}")


def encapsulate(packet: bytes, vci: int, vcs: int, stream_addr: int) -> VcFrame:
    """Wrap a packet for one stream.  Frames for the same (packet, vci, vcs)
    differ only in stream_addr."""
    if len(packet) > MTU_PAYLOAD:
        raise ValueError(f"payload exceeds MTU: {len(packet)} > {MTU_PAYLOAD}")
    return VcFrame(stream_addr, encode_header(vci, vcs), bytes(packet))


_ADDR_BYTES = STREAM_ADDR_BITS // 8
_PAD = np.zeros(FRAME_PAD_BITS, dtype=np.uint8)


def _addr_bits(stream_addr: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(stream_addr.to_bytes(_ADDR_BYTES, "big"),
                                       dtype=np.uint8))


def frame_to_bits(frame: VcFrame) -> np.ndarray:
    """Wire bit order: address, coded header, pad, payload (MSB-first bytes)."""
    pay = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8))
    return np.concatenate([_addr_bits(frame.stream_addr), frame.header_coded, _PAD, pay])


def with_stream_addr(bits: np.ndarray, stream_addr: int) -> np.ndarray:
    """A copy of a frame's wire bits carrying stream_addr instead.

    The frames of one packet differ only in the address, so this gives each
    stream's bits from one frame_to_bits call.
    """
    out = bits.copy()
    out[:STREAM_ADDR_BITS] = _addr_bits(stream_addr)
    return out


def is_frame_length(n_bits: int) -> bool:
    """True when a frame can be n_bits long: the overhead plus a whole
    number of payload bytes, at most MTU_PAYLOAD of them."""
    payload_bits = n_bits - FRAME_OVERHEAD_BITS
    return 0 <= payload_bits <= 8 * MTU_PAYLOAD and payload_bits % 8 == 0


def header_from_bits(bits: np.ndarray) -> VcHeader | None:
    """The header of a frame's wire bits, read without touching the payload."""
    return decode_header_hard(bits[STREAM_ADDR_BITS:STREAM_ADDR_BITS + HEADER_CODED_BITS])


def payload_from_bits(bits: np.ndarray) -> bytes:
    """The packet bytes of a frame's wire bits."""
    return np.packbits(bits[FRAME_OVERHEAD_BITS:]).tobytes()


def frame_from_bits(bits: np.ndarray) -> VcFrame:
    b = np.asarray(bits, dtype=np.uint8)
    if b.ndim != 1 or not is_frame_length(b.size):
        raise ValueError("malformed frame bits")
    addr = int.from_bytes(np.packbits(b[:STREAM_ADDR_BITS]).tobytes(), "big")
    coded = b[STREAM_ADDR_BITS:STREAM_ADDR_BITS + HEADER_CODED_BITS]
    return VcFrame(addr, coded.copy(), payload_from_bits(b))

