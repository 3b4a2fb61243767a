"""Reference implementations the tests check the package against.

Each is the plain form of something the package computes another way: one
register step at a time, a sign flip by an explicit mask, and the AWGN link
drawing its own noise for a bit sequence.  They live here, apart from the
code they check.
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
