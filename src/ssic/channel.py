"""Substitute link: BPSK over AWGN with per-stream impairments.

Bits map 0 -> +1, 1 -> -1.  At linear SNR g the noise variance is
sigma^2 = 1/(2g) (unit symbol energy), the matched-filter LLR is
2y/sigma^2, and the raw hard-decision bit error rate is Q(sqrt(2g)).

Two impairments sit on top:

  detection loss   whole frame missed with a fixed probability (models a
                   preamble miss); nothing is observed.
  burst window     a contiguous window of geometric mean length where the
                   noise variance sigma^2 is divided by burst_llr_atten.
                   The LLR stays the matched 2y/sigma_w^2 of the in-window
                   variance sigma_w^2, so its mean shrinks by exactly that
                   factor.  The extra in-window noise is drawn for real, so
                   hard decisions inside the window do get worse; a pure
                   post-hoc rescale of the LLRs would never corrupt a bit.

The frame-level CRC is idealized: it passes exactly when hard-decision
descrambling (register preloaded from the last 7 pilot decisions)
reproduces the transmitted payload.  It never false-accepts.  transmit
forms the LLRs with awgn_llrs, as every path here does, and decides this
clean/soft split from their signs.  Its StreamObservation holds what the
receiver got: a clean frame's bits, a soft frame's LLR word, or neither
for a missed frame.  Most frames at a useful SNR are passed as clean from
the size of their noise alone, before the word is scrambled (see transmit).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .scrambler import (LFSR_LEN, _checked_seed, check_pilot_len, checked_bits, is_real,
                        register_outputs, seed_from_int, seed_to_int)
from .softbits import LLR_MAX, SoftWord, hard_decide
from .descramble import hd

# importable here under the name ssicbench/spans.py traces, though transmit
# forms the word from the register outputs directly
from .scrambler import scramble  # noqa: F401


def snr_db_to_sigma2(snr_db: float) -> float:
    return 1.0 / (2.0 * 10.0 ** (snr_db / 10.0))


@dataclass
class ChannelParams:
    """One stream's channel configuration.

    burst_llr_atten is the factor multiplying the in-window LLR mean;
    1.0 disables the burst entirely and the channel is memoryless AWGN.
    Every field is a number (is_real), checked by name before its range.
    """

    snr_db: float
    detection_loss_prob: float = 0.0
    burst_prob: float = 0.0
    burst_len_mean: float = 64.0
    burst_llr_atten: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not is_real(getattr(self, f.name)):
                raise ValueError(f"{f.name}: expected a number, got {getattr(self, f.name)!r}")
        try:  # Python floats raise where numpy's would warn
            sigma2 = snr_db_to_sigma2(float(self.snr_db))
        except (OverflowError, ZeroDivisionError):
            sigma2 = np.nan
        # the matched LLRs scale by 2/sigma^2, which overflows for subnormal sigma^2
        if not (0.0 < sigma2 < np.inf and 2.0 / sigma2 < np.inf):
            raise ValueError(f"snr_db: the noise variance at {self.snr_db} dB is not a "
                             "finite positive double with a finite 2/sigma^2")
        if not 0.0 <= self.detection_loss_prob <= 1.0:
            raise ValueError(f"detection_loss_prob out of [0,1]: {self.detection_loss_prob}")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ValueError(f"burst_prob out of [0,1]: {self.burst_prob}")
        if not 0.0 < self.burst_llr_atten <= 1.0:
            raise ValueError(f"burst_llr_atten out of (0,1]: {self.burst_llr_atten}")
        if self.burst_prob > 0.0 and not np.isfinite(sigma2 / float(self.burst_llr_atten)):
            raise ValueError(f"burst_llr_atten: the in-window noise variance at {self.snr_db} dB "
                             f"divided by {self.burst_llr_atten} is not finite")
        if not 1.0 <= self.burst_len_mean < np.inf:
            raise ValueError(f"burst_len_mean must be finite and >= 1: {self.burst_len_mean}")


@dataclass
class StreamObservation:
    """What one stream's receiver hands upward for a single frame.

    The frame's payload bits when it passed the CRC, its LLR word when it
    was detected but not decoded, or neither when it was missed.
    """

    stream_id: int
    hard_bits: np.ndarray | None = None
    soft: SoftWord | None = None

    def __post_init__(self):
        if self.hard_bits is not None and self.soft is not None:
            raise ValueError("a frame is either decoded or soft, not both")

    @property
    def detected(self) -> bool:
        return self.hard_bits is not None or self.soft is not None

    @property
    def crc_pass(self) -> bool:
        return self.hard_bits is not None


def awgn_llrs(tx_bits: np.ndarray, z: np.ndarray, sigma2) -> np.ndarray:
    """Matched-filter LLRs 2(sigma z + 1 - 2b)/sigma^2 of BPSK bits b over AWGN.

    z holds standard normal draws, one per bit, and becomes the LLRs in
    place, in three float passes: z times 2 sigma, plus the symbols 2 - 4b,
    over sigma^2.  These are the bytes of ((sigma z + 1 - 2b) 2)/sigma^2:
    doubling is exact, so fl(2 sigma) z = 2 fl(sigma z) and the sum doubles
    with it, except where sigma z is subnormal, and there the +-2 absorbs
    the product as +-1 did.  So the LLR has the sign of fl(sigma z) + 1 - 2b,
    which transmit's clean screen reads.  Elementwise, so it serves a block
    of words as well as one: sigma2 broadcasts against the bits.  The
    symbols are exact small integers, formed as int8: no float temporary of
    z's size is made unless sigma2 has that size.
    """
    np.multiply(z, 2.0 * np.sqrt(sigma2), out=z)
    symbols = np.multiply(tx_bits, -4, dtype=np.int8)
    z += np.add(symbols, 2, out=symbols)
    z /= sigma2
    return z


def fresh_seed(rng: np.random.Generator) -> np.ndarray:
    """Uniform random nonzero scrambler seed."""
    return seed_from_int(int(rng.integers(1, 128)))


def scrambled_llrs(seed_ints, payload_bits: np.ndarray, L: int, z: np.ndarray,
                   sigma2) -> np.ndarray:
    """Clamped LLRs of a block of scrambled words, each L pilots + M payload bits.

    Word w is L zero bits followed by payload_bits[w], scrambled by seed
    integer seed_ints[w] (1..127), sent as BPSK at noise variance sigma2[w]
    with z[w], L+M standard normal draws, as its noise (see awgn_llrs).
    payload_bits and sigma2 broadcast against seed_ints, whose shape the
    result takes, plus a last axis of L+M LLRs, written over z.
    """
    tx = register_outputs(seed_ints, z.shape[-1])
    tx[..., L:] ^= payload_bits
    llrs = awgn_llrs(tx, z, np.asarray(sigma2)[..., None])
    return np.clip(llrs, -LLR_MAX, LLR_MAX, out=llrs)


def soft_copy(seed: np.ndarray, payload_bits: np.ndarray, L: int, snr_db: float,
              rng: np.random.Generator) -> SoftWord:
    """Scramble, transmit over plain AWGN, and split into pilot/payload LLRs.

    The one-word case of scrambled_llrs, drawing its own noise: no
    detection loss, no bursts, no CRC short-circuit.  The word is handed
    over to SoftWord, which checks it in place.
    """
    check_pilot_len(L)  # refused before the draw, as transmit does
    s, payload = _checked_seed(seed), checked_bits(payload_bits, "payload_bits")
    z = rng.standard_normal(L + payload.size)
    llrs = scrambled_llrs(seed_to_int(s), payload, L, z, snr_db_to_sigma2(snr_db))
    return SoftWord(llrs, L)


def transmit(seed: np.ndarray, payload_bits: np.ndarray, L: int, params: ChannelParams,
             rng: np.random.Generator, stream_id: int = 0) -> StreamObservation:
    """Send one frame through the full impaired link.

    Pilot block is L zero bits; the scrambled word rides BPSK/AWGN, an
    optional burst window degrades part of it, and the receiver classifies
    the result: missed entirely, clean (idealized CRC pass, hard bits), or
    soft (full LLR word for later combining).

    The standard normal draws z and the sent word go through awgn_llrs,
    and the split is decided from the signs of the LLRs, the receiver's
    hard decisions.  sigma^2 is a scalar unless a burst window was drawn.

    With a scalar sigma^2, a frame where the largest |z| from the last 7
    pilots on, times sqrt(sigma^2), is below 1 keeps the sign of every
    symbol there, whatever was sent: fl(w + 1) >= 0 and fl(w - 1) < 0 for
    |w| < 1, and a correctly rounded product is monotone in z and odd, so
    tail.max() and tail.min() decide it for every sample.  awgn_llrs's
    2 sqrt(sigma^2) form gives each LLR the sign of w + 1 - 2b, so the
    screen is exact.  Such a frame is clean, and neither the scrambled word
    nor an LLR is formed.  The draws are the same either way.  A soft
    frame's word is handed over to SoftWord without a copy.
    """
    check_pilot_len(L)
    seed, payload = _checked_seed(seed), checked_bits(payload_bits, "payload_bits")
    if rng.random() < params.detection_loss_prob:
        return StreamObservation(stream_id)

    n = L + payload.size
    sigma2 = snr_db_to_sigma2(params.snr_db)
    s = np.sqrt(sigma2)
    burst = params.burst_prob > 0.0 and rng.random() < params.burst_prob
    if burst:
        start = int(rng.integers(0, n))
        length = int(rng.geometric(1.0 / params.burst_len_mean))
        sigma2 = np.full(n, sigma2)
        sigma2[start:start + length] /= params.burst_llr_atten
    z = rng.standard_normal(n)
    tail = z[L - LFSR_LEN:]
    if burst or tail.max() * s >= 1.0 or tail.min() * s <= -1.0:
        # the scrambled word: L zero pilots, then the payload, XORed with the mask
        tx = register_outputs(seed_to_int(seed), n)
        tx[L:] ^= payload
        llrs = awgn_llrs(tx, z, sigma2)
        # hard decisions from the last 7 pilots on; when they all equal what
        # was sent, the preloaded register is the true one and descrambling
        # reproduces the payload.  When only the 7 pilot decisions are right,
        # it reproduces the payload with its decision errors: soft.  So hd
        # runs only for a frame with a wrong pilot decision there.
        hard = hard_decide(llrs[L - LFSR_LEN:])
        sent = tx[L - LFSR_LEN:]
        if hard.tobytes() != sent.tobytes() and (
                hard[:LFSR_LEN].tobytes() == sent[:LFSR_LEN].tobytes()
                or not (hd(hard) == payload).all()):
            # only this call holds llrs: SoftWord clamps and checks it in place
            return StreamObservation(stream_id, soft=SoftWord(llrs, L))
    return StreamObservation(stream_id, hard_bits=payload.copy())
