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
decides this clean/soft split from the signs of the received samples y,
which are the signs of the LLRs 2y/sigma^2; the LLRs are computed only for
a soft frame, the one case that hands them upward.  Most frames at a useful
SNR are passed as clean from the size of their noise alone, before the
word is scrambled (see transmit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scrambler import LFSR_LEN, register_outputs, scramble, seed_from_int, seed_to_int
from .softbits import LLR_MAX, SoftWord
from .descramble import hd


def snr_db_to_sigma2(snr_db: float) -> float:
    return 1.0 / (2.0 * 10.0 ** (snr_db / 10.0))


@dataclass
class ChannelParams:
    """One stream's channel configuration.

    burst_llr_atten is the factor multiplying the in-window LLR mean;
    1.0 disables the burst entirely and the channel is memoryless AWGN.
    """

    snr_db: float
    detection_loss_prob: float = 0.0
    burst_prob: float = 0.0
    burst_len_mean: float = 64.0
    burst_llr_atten: float = 1.0

    def __post_init__(self):
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
        if not 1.0 <= self.burst_len_mean < np.inf:
            raise ValueError(f"burst_len_mean must be finite and >= 1: {self.burst_len_mean}")


@dataclass
class StreamObservation:
    """What one stream's receiver hands upward for a single frame."""

    stream_id: int
    detected: bool
    crc_pass: bool = False
    hard_bits: np.ndarray | None = None
    soft: SoftWord | None = None

    def __post_init__(self):
        if not self.detected:
            if self.crc_pass or self.hard_bits is not None or self.soft is not None:
                raise ValueError("undetected frames carry no data")
        elif self.crc_pass:
            if self.hard_bits is None:
                raise ValueError("crc_pass requires hard_bits")
        else:
            if self.soft is None:
                raise ValueError("detected frame without CRC needs soft values")


def awgn_llrs(tx_bits: np.ndarray, noise: np.ndarray, sigma2,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Matched-filter LLRs 2y/sigma^2 of BPSK bits received with additive noise.

    Computed in place: the float noise array becomes the LLRs and is
    returned.  Elementwise, so it serves a block of words as well as one:
    sigma2 broadcasts against the bits.  The +-1 symbols 1 - 2 tx_bits are
    formed in scratch, a float array shaped like noise, when it is given.
    """
    symbols = np.multiply(tx_bits, 2.0, out=scratch)
    noise += np.subtract(1.0, symbols, out=symbols)
    noise *= 2.0
    noise /= sigma2
    return noise


def fresh_seed(rng: np.random.Generator) -> np.ndarray:
    """Uniform random nonzero scrambler seed."""
    return seed_from_int(int(rng.integers(1, 128)))


def scrambled_llrs(seed_ints, payload_bits: np.ndarray, L: int, noise: np.ndarray,
                   sigma2, scratch: np.ndarray | None = None) -> np.ndarray:
    """Clamped LLRs of a block of scrambled words, each L pilots + M payload bits.

    Word w is L zero bits followed by payload_bits[w], scrambled by seed
    integer seed_ints[w] (1..127), sent as BPSK with noise[w] (L+M samples)
    added at noise variance sigma2[w].  payload_bits and sigma2 broadcast
    against seed_ints, whose shape the result takes, plus a last axis of
    L+M LLRs.  The LLRs are written over the noise array; scratch, a float
    array shaped like noise, holds the +-1 symbols when it is given.
    """
    tx = register_outputs(seed_ints, noise.shape[-1])
    tx[..., L:] ^= payload_bits
    llrs = awgn_llrs(tx, noise, np.asarray(sigma2)[..., None], scratch)
    return np.clip(llrs, -LLR_MAX, LLR_MAX, out=llrs)


def _checked_seed(seed: np.ndarray) -> np.ndarray:
    s = np.asarray(seed, dtype=np.uint8)
    if s.shape != (LFSR_LEN,) or not s.any():
        raise ValueError(f"seed must be a nonzero ({LFSR_LEN},) bit vector")
    return s


def _checked_payload(payload_bits: np.ndarray) -> np.ndarray:
    payload = np.asarray(payload_bits, dtype=np.uint8)
    if payload.ndim != 1:
        raise ValueError("payload_bits must be one-dimensional")
    return payload


def soft_copy(seed: np.ndarray, payload_bits: np.ndarray, L: int, snr_db: float,
              rng: np.random.Generator) -> SoftWord:
    """Scramble, transmit over plain AWGN, and split into pilot/payload LLRs.

    The one-word case of scrambled_llrs, drawing its own noise: no
    detection loss, no bursts, no CRC short-circuit.
    """
    s = _checked_seed(seed)
    payload = _checked_payload(payload_bits)
    sigma2 = snr_db_to_sigma2(snr_db)
    noise = rng.normal(0.0, np.sqrt(sigma2), L + payload.size)
    llrs = scrambled_llrs(seed_to_int(s), payload, L, noise, sigma2)
    return SoftWord(pilots=llrs[:L], payload=llrs[L:])


@functools.lru_cache(maxsize=64)
def clean_noise_bound(sigma2: float) -> float:
    """The largest double t with fl(t * sqrt(sigma2)) < 1.

    fl(sqrt(sigma2) * z) is monotone in z, so every standard normal sample
    with |z| <= t scales to noise of magnitude below 1, which cannot move
    a +-1 symbol across zero: fl(w + 1) >= 0 and fl(w - 1) < 0 for |w| < 1.
    """
    s = np.sqrt(sigma2)
    t = 1.0 / s
    while t * s < 1.0:
        t = np.nextafter(t, np.inf)
    while t * s >= 1.0:
        t = np.nextafter(t, -np.inf)
    return float(t)


def transmit(seed: np.ndarray, payload_bits: np.ndarray, L: int, params: ChannelParams,
             rng: np.random.Generator, stream_id: int = 0) -> StreamObservation:
    """Send one frame through the full impaired link.

    Pilot block is L zero bits; the scrambled word rides BPSK/AWGN, an
    optional burst window degrades part of it, and the receiver classifies
    the result: missed entirely, clean (idealized CRC pass, hard bits), or
    soft (full LLR word for later combining).

    The received samples y = s + sigma z are built in place by the same
    operations, in the same order, as awgn_llrs, and the split is decided
    from their signs: y < 0 exactly where 2y/sigma^2 < 0, since y is never
    subnormal.  Only a soft frame scales y into LLRs.  sigma^2 is a scalar
    unless a burst window was drawn.

    With a scalar sigma^2, a frame whose standard normal draws from the
    last 7 pilots on all have |z| <= clean_noise_bound(sigma^2) keeps the
    sign of every symbol there, whatever was sent: it is clean, and neither
    the scrambled word nor y is formed.  The draws are the same either way.
    """
    if L < LFSR_LEN:
        raise ValueError(f"L must be at least {LFSR_LEN}, got {L}")
    if rng.random() < params.detection_loss_prob:
        return StreamObservation(stream_id=stream_id, detected=False)

    seed, payload = _checked_seed(seed), _checked_payload(payload_bits)
    n = L + payload.size
    sigma2 = snr_db_to_sigma2(params.snr_db)
    burst = params.burst_prob > 0.0 and rng.random() < params.burst_prob
    if burst:
        start = int(rng.integers(0, n))
        length = int(rng.geometric(1.0 / params.burst_len_mean))
        sigma2 = np.full(n, sigma2)
        sigma2[start:start + length] /= params.burst_llr_atten
    y = rng.standard_normal(n)
    if not burst:
        tail, t = y[L - LFSR_LEN:], clean_noise_bound(sigma2)
        if tail.max() <= t and tail.min() >= -t:
            return StreamObservation(stream_id=stream_id, detected=True, crc_pass=True,
                                     hard_bits=payload.copy())

    tx = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), payload]))
    y *= np.sqrt(sigma2)
    y += 1.0 - 2.0 * tx

    # hard decisions from the last 7 pilots on; when they all equal what was
    # sent, the preloaded register is the true one and descrambling
    # reproduces the payload.  When only the 7 pilot decisions are right, it
    # reproduces the payload with its decision errors: soft.  So hd runs only
    # for a frame with a wrong pilot decision there.
    hard = (y[L - LFSR_LEN:] < 0).view(np.uint8)
    sent = tx[L - LFSR_LEN:]
    if hard.tobytes() == sent.tobytes():
        return StreamObservation(stream_id=stream_id, detected=True, crc_pass=True,
                                 hard_bits=payload.copy())
    if hard[:LFSR_LEN].tobytes() != sent[:LFSR_LEN].tobytes():
        descrambled = hd(hard)
        if (descrambled == payload).all():
            return StreamObservation(stream_id=stream_id, detected=True, crc_pass=True,
                                     hard_bits=descrambled)
    # the matched LLRs 2y/sigma^2, left unclamped: SoftWord clamps what it stores
    y *= 2.0
    y /= sigma2
    return StreamObservation(stream_id=stream_id, detected=True, crc_pass=False,
                             soft=SoftWord(pilots=y[:L], payload=y[L:]))
