"""Log-likelihood-ratio conventions shared by every stage.

An LLR l for a bit b is log(P(b=0)/P(b=1)); positive means "probably 0".
All stored LLRs are clamped to +-LLR_MAX, which bounds per-bit confidence
at about 1 - 2e-9 and keeps products of likelihoods away from under/overflow.
checked_llrs is the one input rule of every LLR taker: clamp, and refuse
NaN by name (combine.ssic_combine clamps the sum of the copies, a packet's or
a block's, not each copy, and refuses a sum holding NaN).
It is applied once, where a word is made: SoftWord checks a whole word it
takes over in place, which is how channel.transmit and soft_copy hand over
the LLR word only they hold.  The functions that take a SoftWord trust it
and check its pilots no further.
"""

from __future__ import annotations

import numpy as np

from .scrambler import check_pilot_len

LLR_MAX = 20.0


def checked_llrs(x, name: str, in_place: bool = False) -> np.ndarray:
    """x as a new float64 array clamped to +-LLR_MAX (infinities included);
    raises a ValueError naming it if x holds a NaN, which max propagates:
    one max finds it.  Each caller checks x's shape by its own rule.
    With in_place, a float64 x is clamped where it lies and returned itself;
    the check comes first, so a refused x is left as it was."""
    y = np.asarray(x, dtype=np.float64)
    if np.isnan(y.max(initial=0.0)):
        raise ValueError(f"{name} must hold no NaN")
    return np.clip(y, -LLR_MAX, LLR_MAX, out=y if in_place else None)


def bit_signs(bits) -> np.ndarray:
    """The +-1 form 1 - 2b of bits as a new float64 array: bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def hard_decide(llrs) -> np.ndarray:
    """Sign decision: 0 for l >= 0 (ties resolve to 0), else 1."""
    return np.less(llrs, 0).view(np.uint8)


class SoftWord:
    """One received word: L pilot LLRs followed by payload LLRs.

    The word is taken over rather than copied: it is clamped in place and
    refused if it holds NaN (checked_llrs), and pilots and payload are its
    views.  For a float64 word that only the caller holds; any other is
    converted to a new one.  The word, one-dimensional, and L, a pilot count
    (check_pilot_len) of at most its length, are checked before it is touched.
    """

    def __init__(self, word: np.ndarray, L: int):
        check_pilot_len(L)
        if L > np.size(word):
            raise ValueError(f"L must be at most the word's length {np.size(word)}, got {L}")
        if np.ndim(word) != 1:
            raise ValueError("word must be one-dimensional")
        w = checked_llrs(word, "word", in_place=True)
        self.pilots, self.payload = w[:L], w[L:]

    @property
    def L(self) -> int:
        return self.pilots.size

    @property
    def M(self) -> int:
        return self.payload.size
