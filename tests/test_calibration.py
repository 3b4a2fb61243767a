"""Calibration: does an LLR mean what it says?

SSIC adds LLRs, which is right only for calibrated inputs, and the oracle
tests compare each kernel with the same formula, so a shared scaling slip
would pass them.  Here words go through the channel's block path
(scrambled_llrs) and the block receivers, and each output is held to its
own claim: a bit decided from LLR l is right with probability expit(|l|),
and the seed posterior's MAP seed is right with probability its mass.

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

from ssic.channel import scrambled_llrs, snr_db_to_sigma2
from ssic.descramble import hrsx_rows, seed_posterior, srsx_rows
from ssic.softbits import hard_decide

L, M, WORDS = 16, 256, 4000
SEEDS = {-2.0: 4201, 0.0: 4202, 2.0: 4203}  # one Generator per SNR point (dB)
BOUND = 4.0


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
