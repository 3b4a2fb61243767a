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
normalized log-weights, entry i for seed integer i+1: (n, 127) for a block
of words (seed_log_weights), (127,) for one word (seed_posterior).
hrsx and srsx compute it from the word's own pilots.
The three LLR receivers then differ only in what they know about each mask
bit.  naive_sd and hrsx know it for certain and flip the payload LLR's sign
where it is 1; srsx knows its probability q and mixes it in by the boxplus
rule, which reduces to the same flip where q is 0 or 1.

The mask has period 127, so the row kernels keep what they know of it per
phase: +-1 signs or q as (n, 127) tables, copied into (n, M) blocks a
period at a time (scrambler.fill_by_phase).  srsx tests q for softness on
those 127 phases, not on every payload position.  The kernels write into
caller-owned blocks (out=, and a (2, n, M) scratch for srsx), so a sweep
reuses the same memory block after block; without them they allocate.

The pilot codebook and the per-phase tables are all read off the
scrambler's period table.
"""

from __future__ import annotations

import functools

import numpy as np

from .scrambler import (LFSR_LEN, PERIOD, _period_table, fill_by_phase, register_outputs,
                        register_states, seed_from_int)
from .softbits import LLR_MAX, SoftWord, hard_decide

N_SEEDS = PERIOD  # 127 nonzero register states


def seed_log_weights(pilots: np.ndarray) -> np.ndarray:
    """Normalized seed log-posteriors of n words at once: (n, L) -> (n, 127).

    For candidate seed r the pilot block would have been its first L
    register outputs, with +-1 pattern s_r; each pilot contributes
    log expit(+-y), which is y*s/2 up to a term shared by every seed.  So
    each row is the log-softmax of 0.5 * y @ S over the (L, 127) codebook S.
    """
    y = np.asarray(pilots, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] < LFSR_LEN:
        raise ValueError(f"need (n, L) pilot LLRs with L >= {LFSR_LEN}, got {y.shape}")
    lw = 0.5 * (y @ _pilot_codebook(y.shape[1]))
    lw -= lw.max(axis=1, keepdims=True)
    lw -= np.log(np.exp(lw).sum(axis=1, keepdims=True))
    return lw


@functools.lru_cache(maxsize=32)
def _pilot_codebook(L: int) -> np.ndarray:
    """(L, 127) +-1 pilot patterns of all seeds: column i is 1 - 2 z over
    the first L outputs of seed i+1.  C-contiguous, so y @ S sums in the
    same order whatever built it."""
    S = np.ascontiguousarray(1.0 - 2.0 * register_outputs(np.arange(1, N_SEEDS + 1), L).T)
    S.flags.writeable = False
    return S


def seed_posterior(pilot_llrs: np.ndarray) -> np.ndarray:
    """Normalized seed log-posteriors of one word: (L,) pilot LLRs -> (127,).

    Entry i is seed integer i+1 (r0 = LSB).
    """
    y = np.asarray(pilot_llrs, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("pilot LLRs must be one-dimensional")
    return seed_log_weights(y[None])[0]


def z_sequence_table() -> np.ndarray:
    """(127, 127) read-only table: row i = one full output period of seed i+1."""
    return _period_table()[1:]


@functools.lru_cache(maxsize=1)
def _one_minus_z() -> np.ndarray:
    """1 - z_sequence_table() as floats: entry (i, j) is 1 where seed i+1
    outputs 0 at phase j."""
    t = 1.0 - z_sequence_table()
    t.flags.writeable = False
    return t


def mask_zero_by_phase(weights: np.ndarray) -> np.ndarray:
    """P(scrambling bit = 0) at each of the 127 phases: (n, 127) seed
    weights -> (n, 127).  Entry j is the probability at register output j
    mod 127."""
    return np.clip(weights @ _one_minus_z(), 0.0, 1.0)


def hd_rows(word_hard: np.ndarray) -> np.ndarray:
    """hd for n words at once: (n, 7 + M) bits -> (n, M) bits."""
    b = np.asarray(word_hard, dtype=np.uint8)
    if b.ndim != 2 or b.shape[1] < LFSR_LEN:
        raise ValueError("need a 7-bit register preload plus payload")
    payload = b[:, LFSR_LEN:]
    return register_outputs(register_states(b[:, :LFSR_LEN]), payload.shape[1]) ^ payload


def hd(word_hard: np.ndarray) -> np.ndarray:
    """Hard descrambling: bits[0:7] preload the register, the rest is XORed.

    The caller passes the last 7 pilot decisions followed by the payload
    decisions.  An all-zero preload is legal (it just passes bits through);
    it is an estimate, not a transmit seed.
    """
    b = np.asarray(word_hard, dtype=np.uint8)
    if b.ndim != 1:
        raise ValueError("need a 7-bit register preload plus payload")
    return hd_rows(b[None])[0]


@functools.lru_cache(maxsize=1)
def _sign_table() -> np.ndarray:
    """(128, 127) table: row v = 1 - 2 z over one output period of register
    state v, the +-1 factor that descrambles an LLR at each phase."""
    t = 1.0 - 2.0 * _period_table()
    t.flags.writeable = False
    return t


def _flip(payload: np.ndarray, signs: np.ndarray, start: int,
          out: np.ndarray | None) -> np.ndarray:
    """payload times the (n, 127) +-1 sign rows by phase from start, into out.

    -1.0 * y is -y bit for bit (so is 1.0 * y, -0.0 included): the exact
    sign flip.
    """
    out = fill_by_phase(np.empty(payload.shape) if out is None else out, signs, start)
    return np.multiply(payload, out, out=out)


def naive_rows(pilots: np.ndarray, payload: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """naive_sd for n words: (n, L) pilot and (n, M) payload LLRs -> (n, M).

    The result is written into out when it is given, as numpy's out= does.
    """
    states = register_states(hard_decide(pilots[:, -LFSR_LEN:]))
    return _flip(payload, _sign_table()[states], 0, out)


def hrsx_rows(log_weights: np.ndarray, payload: np.ndarray, L: int,
              out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """hrsx for n words given their (n, 127) seed log-posteriors.

    Returns the (n, M) descrambled LLRs (written into out when given) and
    the n MAP seed indices (seed integer - 1; ties break toward the
    smallest seed).  The MAP seed's delta posterior makes its output bits
    from phase L the mask.
    """
    idx = np.argmax(log_weights, axis=1)
    return _flip(payload, _sign_table()[idx + 1], L, out), idx


def srsx_rows(log_weights: np.ndarray, payload: np.ndarray, L: int,
              out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """srsx for n words given their (n, 127) seed log-posteriors.

    Descrambles payload LLRs by mask bits that are 0 with probability q.
    P(x=0) = q P(y=0) + (1-q) P(y=1), the boxplus of the payload LLR with
    the mask LLR.  Where q is 0 or 1 this is the exact sign flip
    payload * (2q - 1); elsewhere it is log(q e^y + 1-q) - log(q + (1-q) e^y),
    which only loses magnitude, up to an ulp of rounding that the clip keeps
    inside LLR_MAX.  SoftWord clamps |y| <= LLR_MAX, so e^y cannot overflow.

    q has period 127, so it is kept and tested per phase, (n, 127): a block
    with no soft phase is only flipped, and one with some hard phases takes
    the flip there.  The result is written into out, an (n, M) float block,
    and the mix works in scratch, a (2, n, M) one; either is allocated when
    not given.
    """
    q = mask_zero_by_phase(np.exp(log_weights))
    soft = (q > 0.0) & (q < 1.0)
    if not soft.any():
        return _flip(payload, 2.0 * q - 1.0, L, out)
    out = np.empty(payload.shape) if out is None else out
    num, by_phase = np.empty((2,) + payload.shape) if scratch is None else scratch
    e = np.exp(payload, out=out)
    np.multiply(fill_by_phase(num, q, L), e, out=num)
    num += fill_by_phase(by_phase, 1.0 - q, L)
    e *= by_phase  # e becomes the denominator
    e += fill_by_phase(by_phase, q, L)
    np.log(num, out=num)
    np.log(e, out=e)
    mixed = np.subtract(num, e, out=out)
    np.clip(mixed, -LLR_MAX, LLR_MAX, out=mixed)
    if not soft.all():
        hard = fill_by_phase(np.empty(payload.shape, dtype=bool), ~soft, L)
        np.putmask(mixed, hard, _flip(payload, 2.0 * q - 1.0, L, num))
    return mixed


def _row(block: np.ndarray | None) -> np.ndarray | None:
    """A one-word array as a block of one row (None stays None)."""
    return None if block is None else block[None]


def naive_sd(word: SoftWord, out: np.ndarray | None = None) -> np.ndarray:
    """Soft descrambling from hard pilot decisions alone.

    Register preload comes from the last 7 pilot LLR signs; payload LLRs are
    sign-flipped by the implied mask.  Magnitudes are untouched, so one wrong
    pilot decision silently inverts about half the payload.  The result is
    written into out, an (M,) float array, when it is given.
    """
    return naive_rows(word.pilots[None], word.payload[None], _row(out))[0]


def hrsx(word: SoftWord, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hard re-scrambling: MAP seed from the pilot posterior, then sign flips.

    Returns (descrambled payload LLRs, estimated seed bits); the LLRs are
    written into out, an (M,) float array, when it is given.
    """
    llrs, idx = hrsx_rows(seed_log_weights(word.pilots[None]), word.payload[None], word.L,
                          _row(out))
    return llrs[0], seed_from_int(int(idx[0]) + 1)


def srsx(word: SoftWord, out: np.ndarray | None = None,
         scratch: np.ndarray | None = None) -> np.ndarray:
    """Soft re-scrambling: mix each payload LLR with the mask-bit posterior.

    A certain posterior gives hrsx's sign flips exactly; an uninformative
    one drives the output toward 0.  out, an (M,) float array, receives the
    result and scratch, a (2, M) one, holds the mix (see srsx_rows); either
    is allocated when not given.
    """
    return srsx_rows(seed_log_weights(word.pilots[None]), word.payload[None], word.L,
                     _row(out), None if scratch is None else scratch[:, None])[0]
