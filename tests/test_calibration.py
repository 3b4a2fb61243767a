"""Calibration: does an LLR mean what it says?

SSIC adds LLRs, which is right only for calibrated inputs, and the oracle
tests compare each kernel with the same formula, so a shared scaling slip
would pass them.  Here words go through the channel's block path
(scrambled_llrs) and the block receivers, and each output is held to its
own claim: a bit decided from LLR l is right with probability expit(|l|),
and the seed posterior's MAP seed is right with probability its mass.  The
same claim is held for a burst window's LLRs (awgn_llrs at the per-bit
noise variance transmit builds) and for the sum of two streams' srsx
copies of one payload (ssic_combine of their blocks), the input SSIC decides
from.

A word's bits share one seed, so their errors are not independent.  The
statistic is therefore clustered by word: with S_w the sum over word w of
(1{right} - claimed probability), z = sum S_w / sqrt(sum S_w^2), which is
about standard normal when the claims are calibrated.  Overconfidence
makes it negative.

Seeds, sizes and bounds were fixed before the first run.
"""

import functools

import numpy as np
import pytest
from scipy.special import expit

from ssic.channel import awgn_llrs, scrambled_llrs, snr_db_to_sigma2
from ssic.combine import ssic_combine
from ssic.descramble import hrsx_rows, seed_posterior, srsx_rows
from ssic.softbits import LLR_MAX, hard_decide

L, M, WORDS = 16, 256, 4000
SEEDS = {-2.0: 4201, 0.0: 4202, 2.0: 4203}  # one Generator per SNR point (dB)
BOUND = 4.0
# the burst window: out-of-window SNR (dB), the channel's settings, one Generator
BURST_SNR_DB, BURST_LLR_ATTEN, BURST_LEN_MEAN, BURST_SEED = 4.0, 0.25, 64.0, 4204
COMBINE_SEEDS = {-2.0: 4205, 0.0: 4206, 2.0: 4207}  # two streams at each SNR point (dB)


def clustered_z(right: np.ndarray, claimed: np.ndarray) -> float:
    """The word-clustered z of (n,) or (n, bits) outcomes against claims."""
    s = (right - claimed).reshape(len(right), -1).sum(axis=1)
    return float(s.sum() / np.sqrt(np.sum(s * s)))


def bits_z(llrs: np.ndarray, bits: np.ndarray) -> float:
    """clustered_z of the sign decisions of (n, M) LLRs against true bits."""
    return clustered_z(hard_decide(llrs) == bits, expit(np.abs(llrs)))


@functools.cache
def point(snr_db: float):
    """(payload bits, seed integers, received LLRs, seed log-posteriors) of
    WORDS words at snr_db."""
    rng = np.random.default_rng(SEEDS[snr_db])
    seed_ints = rng.integers(1, 128, WORDS)
    bits = rng.integers(0, 2, (WORDS, M), dtype=np.uint8)
    z = rng.standard_normal((WORDS, L + M))
    llrs = scrambled_llrs(seed_ints, bits, L, z, np.full(WORDS, snr_db_to_sigma2(snr_db)))
    return bits, seed_ints, llrs, seed_posterior(llrs[:, :L])


@pytest.mark.parametrize("snr_db", sorted(SEEDS))
def test_the_seed_posterior_is_calibrated(snr_db):
    _, seed_ints, _, lw = point(snr_db)
    map_idx = np.argmax(lw, axis=1)
    z = clustered_z(map_idx + 1 == seed_ints, np.exp(lw[np.arange(WORDS), map_idx]))
    assert abs(z) < BOUND, z


@pytest.mark.parametrize("snr_db", sorted(SEEDS))
def test_srsx_rows_are_calibrated(snr_db):
    bits, _, llrs, lw = point(snr_db)
    z = bits_z(srsx_rows(lw, llrs[:, L:], L), bits)
    assert abs(z) < BOUND, z


def test_hrsx_rows_are_overconfident_at_minus_2_db():
    """hrsx commits to the MAP seed, so its LLRs claim more than they hold
    where the seed is uncertain: the overconfidence that srsx removes."""
    bits, _, llrs, lw = point(-2.0)
    out, _ = hrsx_rows(lw, llrs[:, L:], L)
    z = bits_z(out, bits)
    assert z < -BOUND, z


def test_the_burst_windows_matched_llrs_are_calibrated():
    """Each word gets the per-bit noise variance transmit builds for a burst:
    sigma^2, divided by burst_llr_atten over a window at a uniform start of
    geometric length.  The window's LLRs, matched to that variance, keep
    their claim; read at the out-of-window variance, they overclaim."""
    rng = np.random.default_rng(BURST_SEED)
    n = L + M
    tx = rng.integers(0, 2, (WORDS, n), dtype=np.uint8)
    start = rng.integers(0, n, WORDS)[:, None]
    length = rng.geometric(1.0 / BURST_LEN_MEAN, WORDS)[:, None]
    window = (np.arange(n) >= start) & (np.arange(n) < start + length)
    sigma2 = np.full((WORDS, n), snr_db_to_sigma2(BURST_SNR_DB))
    sigma2[window] /= BURST_LLR_ATTEN
    llrs = np.clip(awgn_llrs(tx, rng.standard_normal((WORDS, n)), sigma2), -LLR_MAX, LLR_MAX)
    right = hard_decide(llrs) == tx
    z = clustered_z(right & window, expit(np.abs(llrs)) * window)
    assert abs(z) < BOUND, z
    unmatched = np.clip(llrs / BURST_LLR_ATTEN, -LLR_MAX, LLR_MAX)
    z = clustered_z(right & window, expit(np.abs(unmatched)) * window)
    assert z < -BOUND, z


@pytest.mark.parametrize("snr_db", sorted(COMBINE_SEEDS))
def test_the_sum_of_two_srsx_copies_is_calibrated(snr_db):
    """Two streams carry one payload under their own seeds and noise; given a
    bit, srsx reads each copy's pilots and that bit's LLR alone, so the two
    are independent and their sum (ssic_combine) is the bit's LLR."""
    rng = np.random.default_rng(COMBINE_SEEDS[snr_db])
    bits = rng.integers(0, 2, (WORDS, M), dtype=np.uint8)
    copies = []
    for _ in range(2):
        seed_ints = rng.integers(1, 128, WORDS)
        z = rng.standard_normal((WORDS, L + M))
        llrs = scrambled_llrs(seed_ints, bits, L, z, np.full(WORDS, snr_db_to_sigma2(snr_db)))
        copies.append(srsx_rows(seed_posterior(llrs[:, :L]), llrs[:, L:], L))
    z = bits_z(ssic_combine(dict(enumerate(copies))), bits)
    assert abs(z) < BOUND, z
