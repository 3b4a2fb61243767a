"""Combining descrambled soft copies from independent streams.

Conditioned on the payload bits, the streams' noise realizations are
independent, so the per-bit log-likelihood ratios simply add.  The sum is
clamped back to the shared LLR range; the final bit decision is its sign
(softbits.hard_decide).  ssic_combine combines one packet's copies, keyed by
stream; combine_streams is the block form the sweeps run.
"""

from __future__ import annotations

import numpy as np

from .softbits import LLR_MAX


def ssic_combine(copies: dict[int, np.ndarray]) -> np.ndarray:
    """Elementwise LLR sum of one packet's copies, clamped to +-LLR_MAX.

    Keyed by stream id, so no stream counts twice.  Each copy is 1-D, and
    combine_streams adds them in insertion order.  Infinities are summed and
    clamped; a sum holding NaN (a NaN LLR, or +inf and -inf at one bit) is
    refused.
    """
    llrs = list(copies.values())
    if any(np.ndim(l) != 1 for l in llrs):
        raise ValueError("each copy's llrs must be one-dimensional")
    with np.errstate(invalid="ignore"):  # inf + -inf: refused below, by name
        total = combine_streams(llrs)
    if np.isnan(total.max(initial=0.0)):  # NaN survives the sum, the clip and max
        raise ValueError("the copies' llrs sum to NaN: a NaN LLR, or +inf and -inf at one bit")
    return total


def combine_streams(rows, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of K equal-shape LLR arrays, one per stream, clamped to +-LLR_MAX.

    rows is any sequence of them, a list or a (K, ..., M) array; it must
    hold at least one, and every one must have the first one's shape.  They
    are added into a zero total in order 0..K-1, so a block of packets sums
    exactly as ssic_combine sums each one; the total starts as row 0 + 0.0,
    the same float as 0.0 + row 0 (-0.0 included).  It is written into out
    when it is given, as numpy's out= does.
    """
    if len(rows) == 0 or any(np.shape(r) != np.shape(rows[0]) for r in rows):
        raise ValueError("need at least one row of LLRs, every row of one shape")
    out = np.add(rows[0], 0.0, out=np.empty(np.shape(rows[0])) if out is None else out)
    for r in rows[1:]:
        out += r
    return np.clip(out, -LLR_MAX, LLR_MAX, out=out)
