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


def hard_decide(llrs) -> np.ndarray:
    """Sign decision: 0 for l >= 0 (ties resolve to 0), else 1."""
    return (np.asarray(llrs) < 0).astype(np.uint8)


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
