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


def bit_signs(bits) -> np.ndarray:
    """The +-1 form 1 - 2b of bits as a new float64 array: bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def hard_decide(llrs) -> np.ndarray:
    """Sign decision: 0 for l >= 0 (ties resolve to 0), else 1."""
    return np.less(llrs, 0).view(np.uint8)


@dataclass
class SoftWord:
    """One received word: pilot LLRs followed by payload LLRs.

    Both blocks are clamped on construction and may hold no NaN.  The pilot
    block needs at least 7 entries: the register cannot be pinned from fewer.
    """

    pilots: np.ndarray
    payload: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.pilots = clamp_llrs(np.asarray(self.pilots, dtype=np.float64))
        self.payload = clamp_llrs(np.asarray(self.payload, dtype=np.float64))
        if self.pilots.ndim != 1 or self.payload.ndim != 1:
            raise ValueError("pilots and payload must be one-dimensional")
        # max propagates NaN, and costs less than isnan(x).any()
        if np.isnan(self.pilots.max(initial=0.0) + self.payload.max(initial=0.0)):
            raise ValueError("pilots and payload must hold no NaN")
        if self.pilots.size < LFSR_LEN:
            raise ValueError(
                f"need at least {LFSR_LEN} pilot values, got {self.pilots.size}")

    @property
    def L(self) -> int:
        return self.pilots.size

    @property
    def M(self) -> int:
        return self.payload.size
