"""Descrambling a soft word when the scrambler seed is unknown.

Four receivers, cheapest to best:

  hd        hard-decide everything, preload the register with the last 7
            pilot decisions, XOR the payload decisions.  Bits in, bits out.
  naive_sd  same register estimate, but applied to the payload as LLR sign
            flips, so soft information survives for later combining.
  hrsx      MAP estimate of the seed from all L pilot LLRs, then sign flips.
  srsx      full posterior over the 127 seeds; each payload LLR is mixed
            with the induced scrambling-bit probability, so seed uncertainty
            softens the output instead of committing to one register guess.

Since log P(bit=0) - log P(bit=1) is the pilot LLR itself, the log-posterior
of a seed is half the correlation of the pilot LLRs with that seed's +-1
pilot pattern, up to a shared constant: one matrix product and a softmax.
The pilot patterns are the seeds' first L register outputs, so the
posterior needs only the pilot LLRs.  A posterior is an array of
normalized log-weights, entry i for seed integer i+1: (127,) for one
word's (L,) pilot LLRs, (n, 127) for a block's (n, L) (seed_posterior).
hrsx and srsx compute it from the word's own pilots, which its SoftWord
has checked, so they skip seed_posterior's check and run its core.
The three LLR receivers share one mask rule, mix_rows, and differ only in
q, the probability that each mask bit is 0, and the phase they start from.
naive_sd and hrsx know the register state for certain, so their q is its
row of the zero-probability table, 0 or 1 at every phase; srsx's q is that
table weighted by the seed posterior.  mix_rows mixes each payload LLR
with q by the boxplus rule, which is the exact sign flip where q is 0 or
1, and 0 - log(e^y) where q is below 2^-82.

The mask has period 127, so q is an (n, 127) table, copied into (n, M)
blocks a period at a time (scrambler.fill_by_phase).  mix_rows tests q for
softness on those 127 phases, not on every payload position.

Who owns the memory: the per-word entry points (naive_sd, hrsx, srsx) take
a SoftWord and return a new array.  Only the block kernels (mix_rows and
the *_rows receivers) take out=, an (n, M) block to write the result into,
and srsx_rows a (2, n, M) scratch= for the mix, so a sweep reuses the same
memory block after block; without them they allocate.

The pilot codebook and q are both read off one table, _ZERO_PROB, which
is the scrambler's period table as P(mask bit = 0).  Both are read-only
constants, built at import.
"""

from __future__ import annotations

import numpy as np

from .scrambler import (LFSR_LEN, PERIOD, _PERIOD_TABLE, _read_only, checked_bits,
                        fill_by_phase, register_outputs, register_states, seed_from_int)
from .softbits import LLR_MAX, SoftWord, checked_llrs, hard_decide

N_SEEDS = PERIOD  # 127 nonzero register states
# (128, 127): 1 - the period table as floats, row v being P(mask bit = 0)
# at each phase when the register state is known to be v
_ZERO_PROB = _read_only(1.0 - _PERIOD_TABLE)
# (127, 127) +-1 pilot patterns of all seeds: column i is 2q - 1 of
# _ZERO_PROB's row i+1, row k its phase k.  C-contiguous, as is each row
# slice [:L], the codebook of L pilots, so y @ S sums in one order
_PILOT_CODEBOOK = _read_only(np.ascontiguousarray(2.0 * _ZERO_PROB[1:].T - 1.0))
# the mix at a soft phase with q below this is 0 - log(e^y) exactly (mix_rows)
_COLLAPSE_Q = 2.0 ** -82


def _word_or_block(x, name: str) -> int:
    """x's ndim; raises a ValueError naming x unless it is one word, (L,), or
    a block of words, (n, L), with L >= 7: the entries that pin the register."""
    if np.ndim(x) not in (1, 2) or np.shape(x)[-1] < LFSR_LEN:
        raise ValueError(f"need {name} of shape (L,) or (n, L), L >= {LFSR_LEN}, got {np.shape(x)}")
    return np.ndim(x)


def seed_posterior(pilot_llrs: np.ndarray) -> np.ndarray:
    """Normalized seed log-posteriors of one word, (L,) pilot LLRs -> (127,),
    or of n words, (n, L) -> (n, 127); entry i is seed integer i+1.

    For candidate seed r the pilot block would have been its first L
    register outputs, with +-1 pattern s_r; each pilot contributes
    log expit(+-y), which is y*s/2 up to a term shared by every seed.  So
    each row is the log-softmax of 0.5 * y @ S over the (L, 127) codebook S.
    The pilots are checked as SoftWord's are (checked_llrs), so an infinite
    pilot cannot make a row NaN; _log_weights is the unchecked core.
    """
    _word_or_block(pilot_llrs, "pilot_llrs")
    y = checked_llrs(pilot_llrs, "pilot_llrs")
    return _log_weights(y) if y.ndim == 2 else _log_weights(y[None])[0]


def _log_weights(y: np.ndarray) -> np.ndarray:
    """seed_posterior of (n, L) pilots already checked, a SoftWord's or
    checked_llrs', L >= 7.  The patterns repeat every 127 phases, so where
    L > 127 the pilots of each phase are summed first and S is (127, 127),
    whatever L is."""
    if y.shape[1] > N_SEEDS:  # pad to whole periods, then sum them phase by phase
        y = np.pad(y, ((0, 0), (0, -y.shape[1] % N_SEEDS)))
        y = y.reshape(len(y), -1, N_SEEDS).sum(axis=1)
    lw = 0.5 * (y @ _PILOT_CODEBOOK[:y.shape[1]])
    lw -= lw.max(axis=1, keepdims=True)
    lw -= np.log(np.exp(lw).sum(axis=1, keepdims=True))
    return lw


def z_sequence_table() -> np.ndarray:
    """(127, 127) read-only table: row i = one full output period of seed i+1."""
    return _PERIOD_TABLE[1:]


def mask_zero_by_phase(weights: np.ndarray) -> np.ndarray:
    """P(scrambling bit = 0) at each of the 127 phases: (n, 127) seed
    weights -> (n, 127).  Entry j is the probability at register output j
    mod 127."""
    return np.clip(weights @ _ZERO_PROB[1:], 0.0, 1.0)


def hd(word_hard: np.ndarray) -> np.ndarray:
    """Hard descrambling of one word, (7 + M,) bits -> (M,), or of n words,
    (n, 7 + M) -> (n, M): bits 0..6 preload the register, the rest is XORed.

    The caller passes the last 7 pilot decisions followed by the payload
    decisions.  An all-zero preload is legal (it just passes bits through);
    it is an estimate, not a transmit seed.
    """
    ndim = _word_or_block(word_hard, "word_hard")
    rows = np.atleast_2d(checked_bits(word_hard, "word_hard", one_dim=False))
    payload = rows[:, LFSR_LEN:]
    out = register_outputs(register_states(rows[:, :LFSR_LEN]), payload.shape[1]) ^ payload
    return out if ndim == 2 else out[0]


def mix_rows(q: np.ndarray, payload: np.ndarray, start: int,
             out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Descramble (n, M) payload LLRs by mask bits that are 0 with
    probability q, an (n, 127) table read by phase from start.

    P(x=0) = q P(y=0) + (1-q) P(y=1), the boxplus of the payload LLR with
    the mask LLR.  Where q is 0 or 1 this is the exact sign flip
    payload * (2q - 1), since -1.0 * y is -y bit for bit (so is 1.0 * y,
    -0.0 included); elsewhere it is log(q e^y + 1-q) - log(q + (1-q) e^y),
    which only loses magnitude, up to an ulp of rounding that the clip keeps
    inside LLR_MAX.  SoftWord clamps |y| <= LLR_MAX, so e^y cannot overflow.

    Where 0 < q < 2^-82 the mix collapses, since |y| <= LLR_MAX = 20:
    1 - q rounds to 1, q e^y < 2^-82 e^20 < 2^-53 vanishes beside it, and q
    is below half an ulp of e^y >= e^-20 > 2^-29, so the two sums round to
    exactly 1 and e^y.  A block whose soft phases all have such a q takes
    0 - log(e^y), the same float, with no per-phase table.

    q is tested per phase: a block with no soft phase is only flipped, and
    one with some hard phases takes the flip there, which is the payload
    itself where no q is 0.  The result is written into out, an (n, M)
    float block, and the mix works in scratch, a (2, n, M) one; either is
    allocated when not given.
    """
    below_one = q < 1.0
    soft = (q > 0.0) & below_one
    n_soft = np.count_nonzero(soft)
    out = np.empty(payload.shape) if out is None else out
    flipped = out
    if n_soft:
        num, by_phase = np.empty((2,) + payload.shape) if scratch is None else scratch
        e = np.exp(payload, out=out)
        if np.count_nonzero((q >= _COLLAPSE_Q) & below_one):
            np.multiply(fill_by_phase(num, q, start), e, out=num)
            num += fill_by_phase(by_phase, 1.0 - q, start)
            e *= by_phase  # e becomes the denominator
            e += fill_by_phase(by_phase, q, start)
            np.log(num, out=num)
            np.log(e, out=e)
            np.subtract(num, e, out=out)
        else:
            np.subtract(0.0, np.log(e, out=e), out=out)
        np.clip(out, -LLR_MAX, LLR_MAX, out=out)
        if n_soft == soft.size:
            return out
        hard = fill_by_phase(np.empty(payload.shape, dtype=bool), ~soft, start)
        # with no q at 0, every hard q is 1 and 1.0 * y is y bit for bit; but
        # putmask would copy strided rows to a new block, so those are flipped
        no_zero = np.count_nonzero(q) == q.size and payload.flags.c_contiguous
        flipped = payload if no_zero else num
    if flipped is not payload:
        np.multiply(payload, fill_by_phase(flipped, 2.0 * q - 1.0, start), out=flipped)
    if n_soft:
        np.putmask(out, hard, flipped)
    return out


def naive_rows(pilots: np.ndarray, payload: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """naive_sd for n words: (n, L) pilot and (n, M) payload LLRs -> (n, M).

    The register state read off the last 7 pilot decisions fixes q from
    phase 0.  The result is written into out when it is given, as numpy's
    out= does.
    """
    states = register_states(hard_decide(pilots[:, -LFSR_LEN:]))
    return mix_rows(_ZERO_PROB[states], payload, 0, out)


def hrsx_rows(log_weights: np.ndarray, payload: np.ndarray, L: int,
              out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """hrsx for n words given their (n, 127) seed log-posteriors.

    Returns the (n, M) descrambled LLRs (written into out when given) and
    the n MAP seed indices (seed integer - 1; ties break toward the
    smallest seed).  The MAP seed's delta posterior fixes q from phase L.
    """
    idx = np.argmax(log_weights, axis=1)
    return mix_rows(_ZERO_PROB[idx + 1], payload, L, out), idx


def srsx_rows(log_weights: np.ndarray, payload: np.ndarray, L: int,
              out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """srsx for n words given their (n, 127) seed log-posteriors: q is the
    mask-bit posterior from phase L (mix_rows, which writes into out and
    works in scratch)."""
    return mix_rows(mask_zero_by_phase(np.exp(log_weights)), payload, L, out, scratch)


def naive_sd(word: SoftWord) -> np.ndarray:
    """Soft descrambling from hard pilot decisions alone.

    Register preload comes from the last 7 pilot LLR signs; payload LLRs are
    sign-flipped by the implied mask.  Magnitudes are untouched, so one wrong
    pilot decision silently inverts about half the payload.
    """
    return naive_rows(word.pilots[None], word.payload[None])[0]


def hrsx(word: SoftWord) -> tuple[np.ndarray, np.ndarray]:
    """Hard re-scrambling: MAP seed from the pilot posterior, then sign flips.

    Returns (descrambled payload LLRs, estimated seed bits).
    """
    llrs, idx = hrsx_rows(_log_weights(word.pilots[None]), word.payload[None], word.L)
    return llrs[0], seed_from_int(int(idx[0]) + 1)


def srsx(word: SoftWord) -> np.ndarray:
    """Soft re-scrambling: mix each payload LLR with the mask-bit posterior.

    A certain posterior gives hrsx's sign flips exactly; an uninformative
    one drives the output toward 0.
    """
    return srsx_rows(_log_weights(word.pilots[None]), word.payload[None], word.L)[0]
