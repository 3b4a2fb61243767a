"""Log-likelihood-ratio conventions shared by every stage.

An LLR l for a bit b is log(P(b=0)/P(b=1)); positive means "probably 0".
All stored LLRs are clamped to +-LLR_MAX, which bounds per-bit confidence
at about 1 - 2e-9 and keeps products of likelihoods away from under/overflow.
checked_llrs is the one input rule of every LLR taker: clamp, and refuse
NaN by name (combine.ssic_combine clamps the sum of the copies, not each one,
and refuses a sum holding NaN).
It is applied once, where a word is made: SoftWord checks its blocks, and
SoftWord.owning checks a whole word it takes over in place, which is how
channel.transmit and soft_copy hand over the LLR word only they hold.  The
functions that take a SoftWord trust it and check its pilots no further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scrambler import LFSR_LEN

LLR_MAX = 20.0


def checked_llrs(x, name: str, ndim: int = 1, in_place: bool = False) -> np.ndarray:
    """x as a new float64 array clamped to +-LLR_MAX (infinities included);
    raises a ValueError naming it unless x has ndim (1 or 2) dimensions and
    holds no NaN, which clip and max both propagate: one max finds it.
    With in_place, a float64 x is clamped where it lies and returned itself."""
    y = np.asarray(x, dtype=np.float64)
    y = np.clip(y, -LLR_MAX, LLR_MAX, out=y if in_place else None)
    if y.ndim != ndim:
        raise ValueError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional")
    if np.isnan(y.max(initial=0.0)):
        raise ValueError(f"{name} must hold no NaN")
    return y


def bit_signs(bits) -> np.ndarray:
    """The +-1 form 1 - 2b of bits as a new float64 array: bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def hard_decide(llrs) -> np.ndarray:
    """Sign decision: 0 for l >= 0 (ties resolve to 0), else 1."""
    return np.less(llrs, 0).view(np.uint8)


@dataclass
class SoftWord:
    """One received word: pilot LLRs followed by payload LLRs.

    Both blocks are checked on construction (checked_llrs) and copied;
    owning checks a whole word in place and keeps views of it.  The pilot
    block needs at least 7 entries: the register cannot be pinned from fewer.
    """

    pilots: np.ndarray
    payload: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.pilots = checked_llrs(self.pilots, "pilots")
        self.payload = checked_llrs(self.payload, "payload")
        if self.pilots.size < LFSR_LEN:
            raise ValueError(f"need at least {LFSR_LEN} pilot values, got {self.pilots.size}")

    @classmethod
    def owning(cls, word: np.ndarray, L: int) -> "SoftWord":
        """The SoftWord of a whole word, its first L LLRs the pilots, taken
        over rather than copied: word is clamped in place, checked as the
        constructor checks its blocks, and pilots and payload are its views.
        For a float64 word that only the caller holds."""
        if not LFSR_LEN <= L <= np.size(word):
            raise ValueError(f"need at least {LFSR_LEN} pilot values and at most the "
                             f"word's {np.size(word)}, got {L}")
        w = checked_llrs(word, "word", in_place=True)
        soft = cls.__new__(cls)  # skips __post_init__: its copies are what owning saves
        soft.pilots, soft.payload = w[:L], w[L:]
        return soft

    @property
    def L(self) -> int:
        return self.pilots.size

    @property
    def M(self) -> int:
        return self.payload.size
