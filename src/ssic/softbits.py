"""Log-likelihood-ratio conventions shared by every stage.

An LLR l for a bit b is log(P(b=0)/P(b=1)); positive means "probably 0".
All stored LLRs are clamped to +-LLR_MAX, which bounds per-bit confidence
at about 1 - 2e-9 and keeps products of likelihoods away from under/overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scrambler import LFSR_LEN

LLR_MAX = 20.0


def clamp_llrs(llrs: np.ndarray) -> np.ndarray:
    return np.clip(llrs, -LLR_MAX, LLR_MAX)


def llr_to_prob(llrs):
    """(P(bit=0), P(bit=1)) from LLRs; works elementwise on arrays."""
    l = np.asarray(llrs, dtype=np.float64)
    return np.exp(-np.logaddexp(0.0, -l)), np.exp(-np.logaddexp(0.0, l))


def hard_decide(llrs) -> np.ndarray:
    """Sign decision: 0 for l >= 0 (ties resolve to 0), else 1."""
    return (np.asarray(llrs) < 0).astype(np.uint8)


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


def quantize(llrs, n_bits: int):
    """Uniform mid-rise quantizer over [-LLR_MAX, LLR_MAX] with 2**n_bits levels.

    Returns reconstruction values, not level indices.  Sign-magnitude
    indexing keeps the map odd-symmetric away from zero; zero itself maps
    to the smallest positive level (a mid-rise grid has no zero level).
    """
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    l = np.asarray(llrs, dtype=np.float64)
    step = 2.0 * LLR_MAX / (1 << n_bits)
    k = np.floor(np.abs(l) / step)
    k = np.minimum(k, (1 << (n_bits - 1)) - 1)
    sign = np.where(l < 0, -1.0, 1.0)
    return sign * (k + 0.5) * step


@dataclass
class SoftWord:
    """One received word: pilot LLRs followed by payload LLRs.

    Both blocks are clamped on construction.  The pilot block must hold at
    least 7 entries since the register cannot be pinned down from fewer.
    """

    pilots: np.ndarray
    payload: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.pilots = clamp_llrs(np.asarray(self.pilots, dtype=np.float64))
        self.payload = clamp_llrs(np.asarray(self.payload, dtype=np.float64))
        if self.pilots.ndim != 1 or self.payload.ndim != 1:
            raise ValueError("pilots and payload must be one-dimensional")
        if self.pilots.size < LFSR_LEN:
            raise ValueError(
                f"need at least {LFSR_LEN} pilot values, got {self.pilots.size}")

    @property
    def L(self) -> int:
        return self.pilots.size

    @property
    def M(self) -> int:
        return self.payload.size
