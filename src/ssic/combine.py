"""Combining descrambled soft copies from independent streams.

Conditioned on the payload bits, the streams' noise realizations are
independent, so the per-bit log-likelihood ratios simply add.  The sum is
clamped back to the shared LLR range; the final bit decision is the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .softbits import LLR_MAX, hard_decide


@dataclass
class StreamSoftCopy:
    """Descrambled payload LLRs from one stream."""

    stream_id: int
    llrs: np.ndarray

    def __post_init__(self):
        self.llrs = np.asarray(self.llrs, dtype=np.float64)
        if self.llrs.ndim != 1:
            raise ValueError("llrs must be one-dimensional")
        # not checked_llrs: ssic_combine clamps the sum of the copies, not each one
        if np.isnan(self.llrs.max(initial=0.0)):  # max propagates NaN
            raise ValueError("llrs must hold no NaN")


def ssic_combine(copies: list[StreamSoftCopy]) -> np.ndarray:
    """Elementwise LLR sum over all copies, clamped to +-LLR_MAX.

    Order-invariant.  Requires distinct stream ids (the same observation
    must not be counted twice) and what combine_streams requires.
    """
    ids = [c.stream_id for c in copies]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate stream_id in {ids}")
    return combine_streams([c.llrs for c in copies])


def combine_streams(rows, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of K equal-shape LLR arrays, one per stream, clamped to +-LLR_MAX.

    rows is any sequence of them, a list or a (K, ..., M) array; it must
    hold at least one, and every one must have the first one's shape.  They
    are added into a zero total in order 0..K-1, so a block of packets sums
    exactly as ssic_combine and the aggregator sum each one; the total
    starts as row 0 + 0.0, the same float as 0.0 + row 0 (-0.0 included).
    It is written into out when it is given, as numpy's out= does.
    """
    if len(rows) == 0 or any(np.shape(r) != np.shape(rows[0]) for r in rows):
        raise ValueError("need at least one row of LLRs, every row of one shape")
    out = np.add(rows[0], 0.0, out=np.empty(np.shape(rows[0])) if out is None else out)
    for r in rows[1:]:
        out += r
    return np.clip(out, -LLR_MAX, LLR_MAX, out=out)


def decide(llrs: np.ndarray) -> np.ndarray:
    """Final hard decisions from combined LLRs; ties resolve to 0."""
    return hard_decide(llrs)
