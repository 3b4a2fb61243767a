"""Combining descrambled soft copies from independent streams.

Conditioned on the payload bits, the streams' noise realizations are
independent, so the per-bit log-likelihood ratios simply add.  The sum is
clamped back to the shared LLR range; the final bit decision is its sign
(softbits.hard_decide).  ssic_combine is the one rule: the aggregator sums
one packet's copies with it, and the sweeps a block of packets' copies.
"""

from __future__ import annotations

import numpy as np

from .softbits import LLR_MAX


def ssic_combine(copies: dict[int, np.ndarray]) -> np.ndarray:
    """Elementwise LLR sum of the copies, clamped to +-LLR_MAX, as a new array.

    Keyed by stream id, so no stream counts twice.  Each copy is one
    packet's (M,) LLRs or a block's (n, M), row i the same packet in every
    copy; there is at least one, and all have one shape.  They are added in
    insertion order into a total that starts as copy 0 + 0.0 (so -0.0 sums
    to +0.0), so row i of a block's total is, byte for byte, the total of
    its row i alone.  Infinities are summed and clamped; a sum holding NaN
    (a NaN LLR, or +inf and -inf at one bit) is refused.
    """
    llrs = list(copies.values())
    if not llrs or any(np.shape(l) != np.shape(llrs[0]) for l in llrs):
        raise ValueError("need at least one copy of LLRs, every copy of one shape")
    if np.ndim(llrs[0]) not in (1, 2):
        raise ValueError("each copy's llrs must be one packet's (M,) or a block's (n, M)")
    with np.errstate(invalid="ignore"):  # inf + -inf: refused below, by name
        total = np.add(llrs[0], 0.0, dtype=np.float64)
        for l in llrs[1:]:
            total += l
    if np.isnan(total.max(initial=0.0)):  # NaN survives the sum and max
        raise ValueError("the copies' llrs sum to NaN: a NaN LLR, or +inf and -inf at one bit")
    return np.clip(total, -LLR_MAX, LLR_MAX, out=total)
