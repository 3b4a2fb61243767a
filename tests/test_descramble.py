"""Descrambler unit tests.

Oracles are brute-force and probability-domain on purpose: enumerate all
127 seeds, multiply plain probabilities, and compare against the log-domain
implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ssic.descramble import (
    N_SEEDS,
    _pilot_codebook,
    hd,
    hd_rows,
    hrsx,
    hrsx_rows,
    mask_zero_by_phase,
    naive_rows,
    naive_sd,
    seed_log_weights,
    seed_posterior,
    srsx,
    srsx_rows,
    z_sequence_table,
)
from ssic.scrambler import lfsr_run, mask_matrix, register_outputs, scramble, seed_from_int
from ssic.softbits import LLR_MAX, SoftWord, hard_decide

from oracles import flip_by_mask


def pilot_bits(seed_int: int, L: int) -> np.ndarray:
    """The L pilots of a seed: its scrambled all-zero prefix."""
    return scramble(seed_from_int(seed_int), np.zeros(L, dtype=np.uint8))


def mask_q(weights: np.ndarray, L: int, M: int) -> np.ndarray:
    """P(mask bit = 0) at the M payload positions of n words: (n, 127) seed
    weights -> (n, M), payload position m read at phase (L + m) mod 127."""
    return mask_zero_by_phase(weights)[:, (L + np.arange(M)) % N_SEEDS]


def delta_log_weights(seed_int: int) -> np.ndarray:
    """The log-posterior that puts all mass on one seed."""
    lw = np.full(N_SEEDS, -np.inf)
    lw[seed_int - 1] = 0.0
    return lw


UNIFORM_LOG_WEIGHTS = np.full(N_SEEDS, -np.log(N_SEEDS))


def brute_posterior(pilot_llrs: np.ndarray, L: int) -> np.ndarray:
    """All-probability reference: prod over positions, no logs anywhere."""
    y = np.asarray(pilot_llrs, dtype=np.float64)
    w = np.empty(N_SEEDS)
    for v in range(1, 128):
        bits = pilot_bits(v, L)
        p = np.where(bits == 0, expit(y), expit(-y))
        w[v - 1] = np.prod(p)
    return w / w.sum()


def noisy_word(rng, seed_int, L, M, snr_db=2.0):
    seed = seed_from_int(seed_int)
    payload = rng.integers(0, 2, M, dtype=np.uint8)
    sent = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), payload]))
    sigma2 = 1.0 / (2.0 * 10 ** (snr_db / 10.0))
    y = (1.0 - 2.0 * sent) + rng.normal(0.0, np.sqrt(sigma2), L + M)
    llrs = 2.0 * y / sigma2
    return SoftWord(pilots=llrs[:L], payload=llrs[L:]), payload


def test_posterior_matches_probability_domain_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(120):
        word, _ = noisy_word(rng, rng.integers(1, 128), 16, 0,
                             snr_db=rng.uniform(-2, 6))
        weights = np.exp(seed_posterior(word.pilots))
        ref = brute_posterior(word.pilots, 16)
        np.testing.assert_allclose(weights, ref, rtol=1e-9, atol=1e-300)
        assert abs(weights.sum() - 1.0) < 1e-9


def test_posterior_concentrates_on_true_seed_with_clean_pilots():
    for v in (1, 58, 127):
        llrs = flip_by_mask(np.full(16, LLR_MAX), pilot_bits(v, 16))
        lw = seed_posterior(llrs)
        assert np.argmax(lw) + 1 == v
        assert np.exp(lw[v - 1]) > 0.999


def test_posterior_validates_shapes():
    with pytest.raises(ValueError):
        seed_posterior(np.zeros(6))  # fewer pilots than the register has bits


@pytest.mark.parametrize("L", [7, 16, 127])
def test_pilot_codebook_equals_mask_matrix_construction(L):
    S = _pilot_codebook(L)
    seeds = np.array([seed_from_int(v) for v in range(1, 128)])
    ref = 1.0 - 2.0 * ((mask_matrix(L) @ seeds.T) % 2)
    assert S.dtype == ref.dtype and same_bytes(S, ref)
    assert S.flags.c_contiguous and not S.flags.writeable


def test_seed_posterior_delta_uniform_and_ties():
    # hrsx_rows takes each row's MAP seed; an exact tie resolves to the smallest
    pair = np.full(N_SEEDS, -np.inf)
    pair[[40, 90]] = -np.log(2.0)
    lw = np.vstack([delta_log_weights(9), UNIFORM_LOG_WEIGHTS, pair])
    payload = np.full(20, 5.0)
    llrs, idx = hrsx_rows(lw, np.tile(payload, (3, 1)), 16)
    assert idx.tolist() == [8, 0, 40]
    for row, v in zip(llrs, (9, 1, 41)):
        assert np.array_equal(row, flip_by_mask(payload, lfsr_run(seed_from_int(v), 36)[16:]))
    # zero pilot LLRs carry no information: an exactly uniform posterior, seed 1
    u = seed_posterior(np.zeros(16))
    assert (u == u[0]).all()
    np.testing.assert_allclose(np.exp(u), 1.0 / 127)
    _, seed_bits = hrsx(SoftWord(np.zeros(16), payload))
    assert np.array_equal(seed_bits, seed_from_int(1))


def test_z_table_rows_are_seed_outputs():
    t = z_sequence_table()
    assert t.shape == (127, 127)
    assert not t.flags.writeable
    for v in (1, 2, 100, 127):
        assert np.array_equal(t[v - 1], lfsr_run(seed_from_int(v), 127))


@given(st.integers(1, 127), st.integers(7, 40), st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_mask_zero_prob_delta_is_exact_sequence(seed_int, L, M):
    q = mask_q(np.exp(delta_log_weights(seed_int))[None], L, M)[0]
    z = lfsr_run(seed_from_int(seed_int), L + M)[L:]
    assert np.array_equal(q, 1.0 - z)


def test_mask_zero_prob_matches_enumeration_for_random_posteriors():
    rng = np.random.default_rng(11)
    t = z_sequence_table()
    for _ in range(25):
        w = rng.dirichlet(np.ones(127))
        q = mask_q(np.exp(np.log(w))[None], 16, 300)[0]
        for m in (0, 1, 111, 126, 127, 299):
            phase = (16 + m) % 127
            ref = sum(w[i] for i in range(127) if t[i, phase] == 0)
            assert q[m] == pytest.approx(ref, rel=1e-9)


def test_hd_round_trip_exhaustive_seeds():
    rng = np.random.default_rng(3)
    for v in range(1, 128):
        seed = seed_from_int(v)
        payload = rng.integers(0, 2, 64, dtype=np.uint8)
        L = 16
        word = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), payload]))
        # receiver sees only the wire bits; preload = last 7 pilot bits
        assert np.array_equal(hd(np.concatenate([word[L - 7:L], word[L:]])), payload)


def test_hd_zero_preload_passes_through():
    bits = np.array([0] * 7 + [1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(hd(bits), bits[7:])
    with pytest.raises(ValueError):
        hd(np.zeros(6, dtype=np.uint8))


def test_naive_sd_equals_hd_on_hard_decisions():
    rng = np.random.default_rng(21)
    for _ in range(50):
        word, _ = noisy_word(rng, rng.integers(1, 128), 16, 80, snr_db=0.0)
        want = hd(np.concatenate([hard_decide(word.pilots[-7:]),
                                  hard_decide(word.payload)]))
        assert np.array_equal(hard_decide(naive_sd(word)), want)
        # magnitudes survive untouched
        assert np.array_equal(np.abs(naive_sd(word)), np.abs(word.payload))


def test_naive_sd_recovers_clean_payload():
    rng = np.random.default_rng(2)
    for v in (1, 77, 127):
        word, payload = noisy_word(rng, v, 16, 120, snr_db=25.0)
        assert np.array_equal(hard_decide(naive_sd(word)), payload)


def brute_ml_seed(pilot_llrs, L):
    w = brute_posterior(pilot_llrs, L)
    return int(np.argmax(w)) + 1


def test_hrsx_seed_matches_brute_force_ml():
    rng = np.random.default_rng(7)
    for _ in range(150):
        word, _ = noisy_word(rng, rng.integers(1, 128), 16, 8,
                             snr_db=rng.uniform(-2, 4))
        _, seed_bits = hrsx(word)
        assert int(sum(int(b) << j for j, b in enumerate(seed_bits))) == \
            brute_ml_seed(word.pilots, 16)


def test_hrsx_output_is_sign_flip_by_map_mask():
    rng = np.random.default_rng(8)
    word, _ = noisy_word(rng, 93, 16, 40, snr_db=1.0)
    llrs, seed_bits = hrsx(word)
    z = lfsr_run(seed_bits, 16 + 40)[16:]
    assert np.array_equal(llrs, flip_by_mask(word.payload, z))


def test_hrsx_recovers_clean_payload():
    rng = np.random.default_rng(9)
    word, payload = noisy_word(rng, 45, 16, 96, snr_db=25.0)
    llrs, seed_bits = hrsx(word)
    assert np.array_equal(hard_decide(llrs), payload)
    assert int(sum(int(b) << j for j, b in enumerate(seed_bits))) == 45


def test_srsx_delta_posterior_reduces_to_hrsx_bit_exact():
    rng = np.random.default_rng(13)
    for v in (1, 9, 127):
        word, _ = noisy_word(rng, v, 16, 64, snr_db=0.0)
        lw = delta_log_weights(v)[None]
        out_s = srsx_rows(lw, word.payload[None], word.L)[0]
        out_h = hrsx_rows(lw, word.payload[None], word.L)[0][0]
        assert np.array_equal(out_s, out_h)


def test_srsx_uniform_posterior_wipes_information():
    # with no seed knowledge each mask-bit probability is the zero count of
    # its z-table column over 127, which lands at 63/127 everywhere: the
    # output bits of all nonzero register states are 63 zeros and 64 ones
    rng = np.random.default_rng(14)
    word, _ = noisy_word(rng, 50, 16, 127, snr_db=10.0)
    out = srsx_rows(UNIFORM_LOG_WEIGHTS[None], word.payload[None], word.L)[0]
    q = mask_q(np.exp(UNIFORM_LOG_WEIGHTS)[None], 16, 127)[0]
    t = z_sequence_table()
    counts = (t == 0).sum(axis=0)  # zeros per phase over all seeds
    np.testing.assert_allclose(q, counts[(16 + np.arange(127)) % 127] / 127,
                               rtol=1e-12)
    assert np.max(np.abs(out)) < 0.2


def test_srsx_output_clamped_and_shrinks_toward_zero():
    rng = np.random.default_rng(15)
    for _ in range(30):
        word, _ = noisy_word(rng, rng.integers(1, 128), 16, 50,
                             snr_db=rng.uniform(-2, 6))
        out = srsx(word)
        assert np.all(np.abs(out) <= LLR_MAX)
        # mixing with an uncertain mask can only lose magnitude
        assert np.all(np.abs(out) <= np.abs(word.payload) + 1e-12)


def brute_srsx(payload: np.ndarray, w: np.ndarray, L: int) -> np.ndarray:
    """Probability-domain reference: mix the payload over all 127 seeds."""
    M = payload.size
    p0 = np.zeros(M)
    p1 = np.zeros(M)
    for v in range(1, 128):
        z = lfsr_run(seed_from_int(v), L + M)[L:]
        p0 += w[v - 1] * np.where(z == 0, expit(payload), expit(-payload))
        p1 += w[v - 1] * np.where(z == 0, expit(-payload), expit(payload))
    return np.log(p0) - np.log(p1)


def test_srsx_matches_brute_force_seed_mixture():
    rng = np.random.default_rng(17)
    L, M = 16, 300
    with np.errstate(divide="ignore"):  # small alphas underflow some weights to 0
        posts = [np.log(rng.dirichlet(np.full(127, a)))
                 for a in (1.0, 0.2, 0.02) for _ in range(5)]
    # a few equal-weight seeds: q is exactly 0 or 1 where they agree and
    # soft where they do not
    for seeds in ((3, 90), (1, 2, 64, 127)):
        lw = np.full(N_SEEDS, -np.inf)
        lw[np.array(seeds) - 1] = -np.log(len(seeds))
        q = mask_q(np.exp(lw)[None], L, M)[0]
        assert (q == 0.0).any() and (q == 1.0).any() and ((q > 0) & (q < 1)).any()
        posts.append(lw)
    for post in posts:
        word, _ = noisy_word(rng, rng.integers(1, 128), L, M, snr_db=rng.uniform(-2, 6))
        # rtol is relative; atol covers outputs within rounding of zero
        np.testing.assert_allclose(srsx_rows(post[None], word.payload[None], L)[0],
                                   brute_srsx(word.payload, np.exp(post), L),
                                   rtol=1e-9, atol=1e-12)


def test_srsx_recovers_clean_payload():
    rng = np.random.default_rng(16)
    word, payload = noisy_word(rng, 77, 16, 96, snr_db=25.0)
    assert np.array_equal(hard_decide(srsx(word)), payload)


# ------------------------------------------------------- row-batched kernels
# A block's (n, L) @ (L, 127) product may round differently from one word's
# vector product in the last bits, so float rows are compared to 1e-12
# relative; everything downstream of a hard choice is compared exactly.

def noisy_block(rng, n, L, M):
    words = [noisy_word(rng, rng.integers(1, 128), L, M, snr_db=rng.uniform(-2, 6))[0]
             for _ in range(n)]
    return (np.array([w.pilots for w in words]), np.array([w.payload for w in words]),
            words)


def test_row_kernels_equal_single_word_functions_row_by_row():
    rng = np.random.default_rng(31)
    L, M = 16, 300
    pilots, payload, words = noisy_block(rng, 40, L, M)
    lw = seed_log_weights(pilots)
    q = mask_q(np.exp(lw), L, M)
    srsx_out = srsx_rows(lw, payload, L)
    hrsx_out, idx = hrsx_rows(lw, payload, L)
    naive_out = naive_rows(pilots, payload)
    hard = hard_decide(np.concatenate([pilots[:, -7:], payload], axis=1))
    hd_out = hd_rows(hard)
    for i, word in enumerate(words):
        post = seed_posterior(word.pilots)
        np.testing.assert_allclose(lw[i], post, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(q[i], mask_q(np.exp(post)[None], L, M)[0],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(srsx_out[i], srsx(word), rtol=1e-10, atol=1e-12)
        assert idx[i] == np.argmax(post)
        llrs, seed_bits = hrsx(word)
        assert np.array_equal(hrsx_out[i], llrs)
        assert np.array_equal(seed_from_int(int(idx[i]) + 1), seed_bits)
        assert np.array_equal(naive_out[i], naive_sd(word))
        assert np.array_equal(hd_out[i], hd(hard[i]))
    # the mix is elementwise: a block equals its rows exactly
    mixed = mix_mask_oracle(payload, q)
    assert np.array_equal(srsx_out, mixed)
    for i in range(len(words)):
        assert np.array_equal(mixed[i], mix_mask_oracle(payload[i], q[i]))


def test_row_kernels_match_brute_force_oracles():
    rng = np.random.default_rng(32)
    L, M = 16, 300
    pilots, payload, _ = noisy_block(rng, 30, L, M)
    lw = seed_log_weights(pilots)
    for i in range(len(pilots)):
        np.testing.assert_allclose(np.exp(lw[i]), brute_posterior(pilots[i], L),
                                   rtol=1e-9, atol=1e-300)
    # srsx rows on drawn posteriors, including equal-weight seed sets whose
    # mask probabilities mix exact 0/1 entries with soft ones
    with np.errstate(divide="ignore"):
        lw = np.log(np.vstack([rng.dirichlet(np.full(127, a))
                               for a in (1.0, 0.2, 0.02) for _ in range(8)]))
    for seeds in ((3, 90), (1, 2, 64, 127)):
        row = np.full((1, N_SEEDS), -np.inf)
        row[0, np.array(seeds) - 1] = -np.log(len(seeds))
        lw = np.vstack([lw, row])
    pilots, payload, _ = noisy_block(rng, len(lw), L, M)
    out = srsx_rows(lw, payload, L)
    for i in range(len(lw)):
        np.testing.assert_allclose(out[i], brute_srsx(payload[i], np.exp(lw[i]), L),
                                   rtol=1e-9, atol=1e-12)
    # hrsx rows pick the brute-force ML seed
    _, idx = hrsx_rows(seed_log_weights(pilots), payload, L)
    assert [int(i) + 1 for i in idx] == [brute_ml_seed(p, L) for p in pilots]


def test_row_kernels_validate_shapes():
    with pytest.raises(ValueError):
        seed_log_weights(np.zeros(16))  # one word, not a block
    with pytest.raises(ValueError):
        seed_log_weights(np.zeros((3, 6)))  # fewer pilots than the register has bits
    with pytest.raises(ValueError):
        hd_rows(np.zeros((2, 6), dtype=np.uint8))


# ---------------------------------------------- out= kernels against oracles
# The formulas the row kernels had before they took out= and kept the mask
# per phase, copied here verbatim as oracles: the kernels must reproduce
# them byte for byte.

def flip_oracle(payload, states, start):
    return np.where(register_outputs(states, payload.shape[1], start), -payload, payload)


def mix_mask_oracle(payload, q):
    y, q = payload, np.asarray(q, dtype=np.float64)
    soft = (q > 0.0) & (q < 1.0)
    if not soft.any():
        return y * (2.0 * q - 1.0)
    e = np.exp(y)
    num = q * e
    num += 1.0 - q
    den = e
    den *= 1.0 - q
    den += q
    mixed = np.log(num, out=num)
    mixed -= np.log(den, out=den)
    np.clip(mixed, -LLR_MAX, LLR_MAX, out=mixed)
    return mixed if soft.all() else np.where(soft, mixed, y * (2.0 * q - 1.0))


def oracle_log_weights(rng, kind, n, L):
    """(n, 127) log-posteriors whose mask probabilities are all 0/1 ("hard"),
    all soft ("soft"), exact 0/1 at some phases and soft at others
    ("partly"), or a block mixing those rows ("mixed")."""
    with np.errstate(divide="ignore"):
        if kind == "hard":
            lw = np.full((n, N_SEEDS), -np.inf)
            lw[np.arange(n), rng.integers(0, N_SEEDS, n)] = 0.0
            return lw
        if kind == "soft":
            return np.log(rng.dirichlet(np.ones(N_SEEDS), n))
        if kind == "partly":
            # equal mass on a few seeds, or the posterior of clean pilots, where
            # the MAP seed's mass rounds q to exactly 1 but not to exactly 0
            lw = np.full((n, N_SEEDS), -np.inf)
            for i in range(n):
                if i % 2:
                    seeds = rng.choice(N_SEEDS, int(rng.integers(2, 5)), replace=False)
                    lw[i, seeds] = -np.log(seeds.size)
                else:
                    v = int(rng.integers(1, 128))
                    pilots = flip_by_mask(np.full(L, LLR_MAX), pilot_bits(v, L))
                    lw[i] = seed_log_weights(pilots[None])[0]
            return lw
    kinds = ("hard", "soft", "partly")
    return np.vstack([oracle_log_weights(rng, kinds[i % 3], 1, L) for i in range(n)])


def oracle_payload(rng, n, M):
    """Clamped LLRs holding +-0.0 and +-LLR_MAX among ordinary values."""
    p = np.clip(rng.normal(0.0, 8.0, (n, M)), -LLR_MAX, LLR_MAX)
    special = np.array([0.0, -0.0, LLR_MAX, -LLR_MAX])
    idx = rng.integers(0, M, min(M, 8) * n)
    p[np.repeat(np.arange(n), min(M, 8)), idx] = rng.choice(special, idx.size)
    return p


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("L", [7, 16, 126, 127, 200])
@pytest.mark.parametrize("kind", ["hard", "soft", "partly", "mixed"])
def test_out_kernels_equal_oracles_byte_for_byte(L, kind):
    rng = np.random.default_rng(L * 10 + len(kind))
    for M in (1, 50, 126, 127, 254, 381, 1000):
        for n in (1, 5):
            lw = oracle_log_weights(rng, kind, n, L)
            pilots, payload = rng.normal(0.0, 6.0, (n, L)), oracle_payload(rng, n, M)
            # strided payload rows, as the sweep passes them
            payload = np.concatenate([pilots, payload], axis=1)[:, L:]
            q = mask_q(np.exp(lw), L, M)
            assert same_bytes(srsx_rows(lw, payload, L), mix_mask_oracle(payload, q))
            llrs, idx = hrsx_rows(lw, payload, L)
            assert same_bytes(llrs, flip_oracle(payload, idx + 1, L))
            states = hard_decide(pilots[:, -7:]).astype(np.intp) @ (1 << np.arange(7))
            assert same_bytes(naive_rows(pilots, payload), flip_oracle(payload, states, 0))


def test_oracle_cases_cover_exact_and_soft_mask_probabilities():
    rng = np.random.default_rng(40)
    L, M = 16, 300
    q = {k: mask_q(np.exp(oracle_log_weights(rng, k, 6, L)), L, M)
         for k in ("hard", "soft", "partly")}
    assert np.isin(q["hard"], (0.0, 1.0)).all()
    assert ((q["soft"] > 0.0) & (q["soft"] < 1.0)).all()
    assert (q["partly"] == 0.0).any() and (q["partly"] == 1.0).any()
    assert ((q["partly"] > 0.0) & (q["partly"] < 1.0)).any()


@pytest.mark.parametrize("kind", ["hard", "soft", "partly", "mixed"])
def test_out_kernels_write_a_short_last_block_in_place(kind):
    """A short block written into the leading rows of the full-size buffers
    equals the oracle, and the rows past it are left alone."""
    rng = np.random.default_rng(41)
    L, M, rows, b = 16, 600, 8, 3
    out, scratch = np.full((rows, M), 7.0), np.full((2, rows, M), 7.0)
    lw = oracle_log_weights(rng, kind, b, L)
    pilots, payload = rng.normal(0.0, 6.0, (b, L)), oracle_payload(rng, b, M)
    q = mask_q(np.exp(lw), L, M)
    states = hard_decide(pilots[:, -7:]).astype(np.intp) @ (1 << np.arange(7))
    cases = [
        (lambda o: srsx_rows(lw, payload, L, out=o, scratch=scratch[:, :b]),
         mix_mask_oracle(payload, q)),
        (lambda o: hrsx_rows(lw, payload, L, out=o)[0],
         flip_oracle(payload, np.argmax(lw, axis=1) + 1, L)),
        (lambda o: naive_rows(pilots, payload, out=o), flip_oracle(payload, states, 0)),
    ]
    for kernel, want in cases:
        out[:] = 7.0
        got = kernel(out[:b])
        assert np.shares_memory(got, out) and same_bytes(out[:b], want)
        assert (out[b:] == 7.0).all() and (scratch[:, b:] == 7.0).all()
