"""Reference implementations the tests check the package against.

Each is the plain form of something the package computes another way: one
register step at a time, a sign flip by an explicit mask, the AWGN link
drawing its own noise for a bit sequence, and the header CRC from its
polynomial.  They live here, apart from the code they check.
"""

import numpy as np

from ssic.channel import awgn_llrs, snr_db_to_sigma2
from ssic.scrambler import LFSR_LEN


def lfsr_step(state: np.ndarray) -> tuple[int, np.ndarray]:
    """One register update.  Returns (output bit, next state)."""
    s = np.asarray(state, dtype=np.uint8)
    if s.shape != (LFSR_LEN,):
        raise ValueError(f"state must have shape ({LFSR_LEN},), got {s.shape}")
    z = int(s[0] ^ s[3])
    nxt = np.empty(LFSR_LEN, dtype=np.uint8)
    nxt[:-1] = s[1:]
    nxt[-1] = z
    return z, nxt


def flip_by_mask(llrs: np.ndarray, mask_bits: np.ndarray) -> np.ndarray:
    """Descramble soft values: negate each LLR whose mask bit is 1.

    XOR with a known bit, in the LLR domain, is a sign flip.  Self-inverse
    and magnitude-preserving.
    """
    l = np.asarray(llrs, dtype=np.float64)
    z = np.asarray(mask_bits, dtype=np.uint8)
    if l.shape != z.shape:
        raise ValueError(f"length mismatch: {l.shape} vs {z.shape}")
    return l * (1.0 - 2.0 * z.astype(np.float64))


def bpsk_awgn_llrs(bits: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Raw (unclamped) LLRs for a bit sequence over the AWGN link."""
    b = np.asarray(bits, dtype=np.uint8)
    sigma2 = snr_db_to_sigma2(snr_db)
    return awgn_llrs(b, rng.normal(0.0, np.sqrt(sigma2), b.size), sigma2)


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
