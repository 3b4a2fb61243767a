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
The three LLR receivers then differ only in what they know about each mask
bit, and all three apply it through the one mix rule in _mix_mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scrambler import LFSR_LEN, PERIOD, all_seeds, lfsr_run, mask_matrix, seed_from_int
from .softbits import LLR_MAX, SoftWord, hard_decide

N_SEEDS = PERIOD  # 127 nonzero register states


@dataclass(frozen=True)
class SeedPosterior:
    """Normalized log-probabilities over the 127 nonzero seeds.

    Entry i corresponds to seed integer i+1 (r0 = LSB).
    """

    log_weights: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=np.float64)
        if lw.shape != (N_SEEDS,):
            raise ValueError(f"log_weights must have shape ({N_SEEDS},)")
        object.__setattr__(self, "log_weights", lw)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def map_index(self) -> int:
        """Index of the MAP seed; ties break toward the smallest seed integer."""
        return int(np.argmax(self.log_weights))

    @classmethod
    def delta(cls, seed_int: int) -> "SeedPosterior":
        lw = np.full(N_SEEDS, -np.inf)
        lw[seed_int - 1] = 0.0
        return cls(lw)

    @classmethod
    def uniform(cls) -> "SeedPosterior":
        return cls(np.full(N_SEEDS, -np.log(N_SEEDS)))


def seed_posterior(pilot_llrs: np.ndarray, A: np.ndarray) -> SeedPosterior:
    """Posterior over seeds given pilot LLRs and the pilot mask matrix A.

    For candidate seed r the pilot block would have been A @ r mod 2, with
    +-1 pattern s_r; each pilot contributes log expit(+-y), which is y*s/2
    up to a term shared by every seed.  So the log-posterior is the softmax
    of 0.5 * y @ S over the (L, 127) codebook S.
    """
    y = np.asarray(pilot_llrs, dtype=np.float64)
    A = np.asarray(A, dtype=np.uint8)
    if y.ndim != 1 or A.shape != (y.size, LFSR_LEN):
        raise ValueError(f"mask matrix shape {A.shape} does not match {y.size} pilots")
    S = 1.0 - 2.0 * ((A @ all_seeds().T) % 2)
    lw = 0.5 * (y @ S)
    lw -= lw.max()
    return SeedPosterior(lw - np.log(np.exp(lw).sum()))


@functools.lru_cache(maxsize=1)
def _z_table() -> np.ndarray:
    """(127, 127) table: row i = one full output period of seed i+1."""
    t = np.vstack([lfsr_run(seed_from_int(v), PERIOD) for v in range(1, 128)])
    t.flags.writeable = False
    return t


def z_sequence_table() -> np.ndarray:
    return _z_table()


def mask_zero_prob(posterior: SeedPosterior, L: int, M: int) -> np.ndarray:
    """P(scrambling bit = 0) at each of the M payload positions.

    Payload position m uses register output L+m, reduced mod the sequence
    period; the probability is the posterior mass of the seeds whose output
    is 0 there.
    """
    pz0_by_phase = np.clip(posterior.weights @ (1 - _z_table()), 0.0, 1.0)
    # phases L, L+1, ... mod PERIOD: the table rotated by L, repeated to M
    return np.resize(np.roll(pz0_by_phase, -L), M)


def hd(word_hard: np.ndarray) -> np.ndarray:
    """Hard descrambling: bits[0:7] preload the register, the rest is XORed.

    The caller passes the last 7 pilot decisions followed by the payload
    decisions.  An all-zero preload is legal (it just passes bits through);
    it is an estimate, not a transmit seed.
    """
    b = np.asarray(word_hard, dtype=np.uint8)
    if b.ndim != 1 or b.size < LFSR_LEN:
        raise ValueError("need a 7-bit register preload plus payload")
    state, payload = b[:LFSR_LEN], b[LFSR_LEN:]
    return lfsr_run(state, payload.size) ^ payload


def _mix_mask(payload: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Descramble payload LLRs by mask bits that are 0 with probability q.

    P(x=0) = q P(y=0) + (1-q) P(y=1), the boxplus of the payload LLR with
    the mask LLR.  Where q is 0 or 1 this is the exact sign flip
    payload * (2q - 1); elsewhere it is log(q e^y + 1-q) - log(q + (1-q) e^y),
    which only loses magnitude, up to an ulp of rounding that the clip keeps
    inside LLR_MAX.  SoftWord clamps |y| <= LLR_MAX, so e^y cannot overflow.
    """
    y, q = payload, np.asarray(q, dtype=np.float64)
    out = y * (2.0 * q - 1.0)
    soft = (q > 0.0) & (q < 1.0)
    if soft.any():
        e = np.exp(y)
        mixed = np.log(q * e + (1.0 - q)) - np.log(q + (1.0 - q) * e)
        out = np.where(soft, np.clip(mixed, -LLR_MAX, LLR_MAX), out)
    return out


def naive_sd(word: SoftWord) -> np.ndarray:
    """Soft descrambling from hard pilot decisions alone.

    Register preload comes from the last 7 pilot LLR signs; payload LLRs are
    sign-flipped by the implied mask.  Magnitudes are untouched, so one wrong
    pilot decision silently inverts about half the payload.
    """
    state = hard_decide(word.pilots[-LFSR_LEN:])
    return _mix_mask(word.payload, 1.0 - lfsr_run(state, word.M))


def hrsx(word: SoftWord, A: np.ndarray | None = None,
         posterior: SeedPosterior | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hard re-scrambling: MAP seed from the pilot posterior, then sign flips.

    Returns (descrambled payload LLRs, estimated seed bits).
    """
    if posterior is None:
        posterior = seed_posterior(word.pilots, mask_matrix(word.L) if A is None else A)
    seed_int = posterior.map_index() + 1
    q = mask_zero_prob(SeedPosterior.delta(seed_int), word.L, word.M)
    return _mix_mask(word.payload, q), seed_from_int(seed_int)


def srsx(word: SoftWord, A: np.ndarray | None = None,
         posterior: SeedPosterior | None = None) -> np.ndarray:
    """Soft re-scrambling: mix each payload LLR with the mask-bit posterior.

    A certain posterior gives hrsx's sign flips exactly; an uninformative
    one drives the output toward 0.
    """
    if posterior is None:
        posterior = seed_posterior(word.pilots, mask_matrix(word.L) if A is None else A)
    return _mix_mask(word.payload, mask_zero_prob(posterior, word.L, word.M))
