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
against every codeword.  The decoders return the packet's FrameKey (VCI,
VCS) only when the CRC they recover is the key's, and None otherwise.
"""

from __future__ import annotations

import binascii
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scrambler import _read_only, _recurrence, checked_bits
from .softbits import bit_signs, checked_llrs

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
    return _read_only(_recurrence(info, (7, 6, 2), BCH_N))


CODEWORDS = _codeword_table()  # row v = codeword for info value v, MSB-first
_INFO_OF_CODEWORD = {row.tobytes(): v for v, row in enumerate(CODEWORDS)}  # uint8 bytes -> v
_SIGNS = _read_only(bit_signs(CODEWORDS))  # bit 0 -> +1, bit 1 -> -1


def _decode_blocks(y: np.ndarray) -> np.ndarray:
    """Exact ML info values (0..127) of each row of (n, 63) LLRs.

    One correlation against every codeword maximizes the sum over positions
    of (+llr if codeword bit 0 else -llr); ties break toward the lowest info
    value.
    """
    return np.argmax(y @ _SIGNS.T, axis=1)


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection.

    binascii.crc_hqx shifts the same polynomial MSB first from any start
    value; from 0xFFFF it is this CRC (check value 0x29B1 on b"123456789").
    """
    return binascii.crc_hqx(data, 0xFFFF)


class FrameKey(NamedTuple):
    """Identity of one packet instance: the (VCI, VCS) its header carries."""

    vci: int
    vcs: int


def _header_crc(vci: int, vcs: int) -> int:
    return crc16_ccitt(bytes([vci >> 8, vci & 0xFF, vcs >> 8, vcs & 0xFF]))


# shift of each 7-bit info chunk within the 49-bit header block, first chunk first
_CHUNK_SHIFTS = range(HEADER_FIELD_BITS - BCH_K, -1, -BCH_K)


@functools.lru_cache(maxsize=1, typed=True)
def encode_header(vci: int, vcs: int) -> np.ndarray:
    """(vci, vcs) -> 441 coded header bits, read-only.  CRC is computed here.

    The header block is the integer vci.vcs.crc.0 (49 bits, MSB first); each
    of its 7-bit chunks picks its codeword from the table.  The last key's
    bits are kept, so the K frames of one packet (encapsulate once per
    stream) share one encoding.
    """
    for name, v in (("vci", vci), ("vcs", vcs)):
        if not 0 <= v <= 0xFFFF:
            raise ValueError(f"{name} out of range: {v}")
    block = (vci << 33) | (vcs << 17) | (_header_crc(vci, vcs) << 1)
    return _read_only(CODEWORDS[[(block >> s) & 0x7F for s in _CHUNK_SHIFTS]].ravel())


def _header_from_infos(infos) -> FrameKey | None:
    """The key in the 7 blocks' info values, or None when its CRC mismatches."""
    block = 0
    for v in infos:
        block = (block << BCH_K) | v
    key = FrameKey(block >> 33, (block >> 17) & 0xFFFF)
    return key if (block >> 1) & 0xFFFF == _header_crc(*key) else None


def decode_header_soft(llrs: np.ndarray) -> FrameKey | None:
    """441 header LLRs -> key, or None when the recovered CRC mismatches.

    The LLRs are checked as SoftWord's are (checked_llrs), so one infinite
    LLR cannot outvote a block.
    """
    y = checked_llrs(llrs, "llrs")
    if y.shape != (HEADER_CODED_BITS,):
        raise ValueError(f"need {HEADER_CODED_BITS} LLRs")
    return _header_from_infos(_decode_blocks(y.reshape(BCH_K, BCH_N)).tolist())


def decode_header_hard(bits: np.ndarray) -> FrameKey | None:
    """441 hard bits -> key: decode_header_soft of the +-1 LLRs 1 - 2b.

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
    return decode_header_soft(bit_signs(b))


@dataclass
class VcFrame:
    """One stream's copy of a packet, ready for scrambling and transmission."""

    stream_addr: int
    header_coded: np.ndarray
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.stream_addr < (1 << STREAM_ADDR_BITS):
            raise ValueError(f"stream_addr out of range: {self.stream_addr}")
        self.header_coded = checked_bits(self.header_coded, "header_coded")
        if self.header_coded.shape != (HEADER_CODED_BITS,):
            raise ValueError(f"header_coded must be {HEADER_CODED_BITS} bits")
        if len(self.payload) > MTU_PAYLOAD:
            raise ValueError(f"payload exceeds MTU: {len(self.payload)} > {MTU_PAYLOAD}")


def encapsulate(packet: bytes, vci: int, vcs: int, stream_addr: int) -> VcFrame:
    """Wrap a packet for one stream.  Frames for the same (packet, vci, vcs)
    differ only in stream_addr."""
    return VcFrame(stream_addr, encode_header(vci, vcs), bytes(packet))


_PAD = _read_only(np.zeros(FRAME_PAD_BITS, dtype=np.uint8))


@functools.lru_cache(maxsize=64)
def _addr_bits(stream_addr: int) -> np.ndarray:
    """The 48 address bits, MSB first, as a read-only array."""
    return _read_only(np.unpackbits(
        np.frombuffer(stream_addr.to_bytes(STREAM_ADDR_BITS // 8, "big"), dtype=np.uint8)))


def frame_to_bits(frame: VcFrame) -> np.ndarray:
    """Wire bit order: address, coded header, pad, payload (MSB-first bytes)."""
    pay = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8))
    return np.concatenate([_addr_bits(frame.stream_addr), frame.header_coded, _PAD, pay])


def is_frame_length(n_bits: int) -> bool:
    """True when a frame can be n_bits long: the overhead plus a whole
    number of payload bytes, at most MTU_PAYLOAD of them."""
    payload_bits = n_bits - FRAME_OVERHEAD_BITS
    return 0 <= payload_bits <= 8 * MTU_PAYLOAD and payload_bits % 8 == 0


def split_frame(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Views of the coded header and the payload in a frame's wire bits or in
    their LLRs, or None when no frame has x's shape."""
    if x.ndim != 1 or not is_frame_length(x.size):
        return None
    return x[STREAM_ADDR_BITS:STREAM_ADDR_BITS + HEADER_CODED_BITS], x[FRAME_OVERHEAD_BITS:]


def header_from_bits(bits: np.ndarray) -> FrameKey | None:
    """The key in a frame's wire bits, read without touching the payload;
    None when it does not decode or no frame has bits' shape."""
    parts = split_frame(bits)
    return None if parts is None else decode_header_hard(parts[0])


def payload_from_bits(bits: np.ndarray) -> bytes:
    """The packet bytes of wire bits that have a frame's shape."""
    return np.packbits(split_frame(bits)[1]).tobytes()


def frame_from_bits(bits: np.ndarray) -> VcFrame:
    b = checked_bits(bits, "bits")
    parts = split_frame(b)
    if parts is None:
        raise ValueError("malformed frame bits")
    addr = int.from_bytes(np.packbits(b[:STREAM_ADDR_BITS]).tobytes(), "big")
    return VcFrame(addr, parts[0].copy(), np.packbits(parts[1]).tobytes())
