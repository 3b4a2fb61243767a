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

from ssic.channel import scrambled_llrs, snr_db_to_sigma2
from ssic.descramble import (
    _COLLAPSE_Q,
    _PILOT_CODEBOOK,
    _ZERO_PROB,
    N_SEEDS,
    hd,
    hrsx,
    hrsx_rows,
    mask_zero_by_phase,
    mix_rows,
    naive_rows,
    naive_sd,
    seed_posterior,
    srsx,
    srsx_rows,
    z_sequence_table,
)
from ssic.scrambler import lfsr_run, mask_matrix, register_outputs, scramble, seed_from_int
from ssic.softbits import LLR_MAX, SoftWord, hard_decide

from oracles import flip_by_mask, soft_word


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
    return soft_word(llrs[:L], llrs[L:]), payload


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
    with pytest.raises(ValueError, match=r"^need pilot_llrs of shape \(L,\) or \(n, L\)"):
        seed_posterior(np.zeros((2, 2, 16)))  # one word or a block, nothing deeper


@pytest.mark.parametrize("L", [7, 16, 127])
def test_pilot_codebook_equals_mask_matrix_construction(L):
    S = _PILOT_CODEBOOK[:L]
    seeds = np.array([seed_from_int(v) for v in range(1, 128)])
    ref = 1.0 - 2.0 * ((mask_matrix(L) @ seeds.T) % 2)
    assert S.dtype == ref.dtype and same_bytes(S, ref)
    assert S.flags.c_contiguous and not S.flags.writeable


@pytest.mark.parametrize("L", [128, 200, 300, 4096])
def test_pilots_beyond_a_period_are_summed_by_phase(L):
    # against the explicit (L, 127) product, which the phase sums regroup
    rng = np.random.default_rng(L)
    pilots, _, _ = noisy_block(rng, 6, L, 0)
    seeds = np.array([seed_from_int(v) for v in range(1, 128)])
    lw = 0.5 * (pilots @ (1.0 - 2.0 * ((mask_matrix(L) @ seeds.T) % 2)))
    lw -= lw.max(axis=1, keepdims=True)
    lw -= np.log(np.exp(lw).sum(axis=1, keepdims=True))
    got = seed_posterior(pilots)
    assert np.abs(got - lw).max() <= 1e-12 * np.abs(lw).max()
    assert (got.argmax(axis=1) == lw.argmax(axis=1)).all()


def test_seed_posterior_memory_does_not_grow_with_L():
    import tracemalloc

    pilots = np.zeros((1, 130945))  # the longest pilot block seed_ber accepts
    tracemalloc.start()
    try:
        seed_posterior(pilots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak:,} bytes"


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
    _, seed_bits = hrsx(soft_word(np.zeros(16), payload))
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
    with pytest.raises(ValueError, match=r"^need word_hard of shape \(L,\) or \(n, L\)"):
        hd(np.zeros((2, 2, 11), dtype=np.uint8))  # one word or a block, nothing deeper


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
    lw = seed_posterior(pilots)
    q = mask_q(np.exp(lw), L, M)
    srsx_out = srsx_rows(lw, payload, L)
    hrsx_out, idx = hrsx_rows(lw, payload, L)
    naive_out = naive_rows(pilots, payload)
    hard = hard_decide(np.concatenate([pilots[:, -7:], payload], axis=1))
    hd_out = hd(hard)
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
    lw = seed_posterior(pilots)
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
    _, idx = hrsx_rows(seed_posterior(pilots), payload, L)
    assert [int(i) + 1 for i in idx] == [brute_ml_seed(p, L) for p in pilots]


def test_row_kernels_validate_shapes():
    # one word or a block of words, each of at least 7 entries, or refused by name
    for call, name, dtype in ((seed_posterior, "pilot_llrs", np.float64),
                              (hd, "word_hard", np.uint8)):
        for shape in ((3, 1, 16), (2, 3, 16), (3, 6), (2, 6), (6,), ()):
            with pytest.raises(ValueError, match=rf"^need {name} of shape \(L,\) or \(n, L\)"):
                call(np.zeros(shape, dtype=dtype))


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
                    lw[i] = seed_posterior(pilots[None])[0]
            return lw
    if kind == "edges":
        return np.vstack([edge_log_weights(rng, int(rng.integers(3))) for _ in range(n)])
    kinds = ("hard", "soft", "partly")
    return np.vstack([oracle_log_weights(rng, kinds[i % 3], 1, L) for i in range(n)])


COLLAPSE_Q = 2.0 ** -82  # below it, srsx's mix is 0 - log(e^y) exactly


def edge_log_weights(rng, runner_up: int, at_bound: bool = True) -> np.ndarray:
    """(1, 127) log-posterior of a clean MAP seed whose runners-up put q at
    srsx's collapse bound: exactly 0 and 1 at some phases, in (0, 2^-82)
    at others, the double just below 2^-82 among them, and exactly 2^-82
    (at_bound) where two tiny weights add up to it.

    runner_up 1 and 2 give one more seed 1e-15 of the mass, as when one
    clean pilot is weakened, which puts q in (2^-82, 1) too: with 2 the MAP
    seed keeps the rest, so that q is also 1 - 1e-15 at some phases; with
    1 it keeps all of it, so that every soft q is small.

    Seeds a, b and d get weights with w_a < 2^-82, w_a + w_b == 2^-82 and
    w_a + w_d == its predecessor, each rounded once; the phases where only
    those seeds output 0 have those q.  Seeds are drawn until every class
    occurs.
    """
    below = np.nextafter(COLLAPSE_Q, 0.0)
    w_a = np.exp(np.log(COLLAPSE_Q) - 1e-3)
    log_w = [np.log(w_a), np.log(COLLAPSE_Q - w_a), np.log(below - w_a)]
    while True:
        m, a, b, d, c = rng.choice(N_SEEDS, 5, replace=False)
        lw = np.full((1, N_SEEDS), -np.inf)
        lw[0, [a, b, d]] = log_w
        if not at_bound:
            lw[0, b] = -np.inf
        lw[0, m] = np.log1p(-1e-15) if runner_up == 2 else 0.0
        if runner_up:
            lw[0, c] = np.log(1e-15)
        q = mask_zero_by_phase(np.exp(lw))
        tiny, above = (q > 0.0) & (q < COLLAPSE_Q), (q > COLLAPSE_Q) & (q < 1.0)
        if (np.isin(q, (0.0, 1.0)).any() and tiny.any() and (q == below).any()
                and (q == COLLAPSE_Q).any() == at_bound and above.any() == bool(runner_up)
                and ((q > 0.5) & (q < 1.0)).any() == (runner_up == 2)):
            return lw


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
@pytest.mark.parametrize("kind", ["hard", "soft", "partly", "mixed", "edges"])
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
            # last 7 decisions all 0, -0.0 ties included, preload register
            # state 0, which outputs only zeros: the payload comes out as it is
            pilots[:, -7:] = np.where(pilots[:, -7:] < 0.0, -0.0, pilots[:, -7:])
            assert same_bytes(naive_rows(pilots, payload), payload)


def test_oracle_cases_cover_exact_and_soft_mask_probabilities():
    rng = np.random.default_rng(40)
    L, M = 16, 300
    q = {k: mask_q(np.exp(oracle_log_weights(rng, k, 6, L)), L, M)
         for k in ("hard", "soft", "partly")}
    assert np.isin(q["hard"], (0.0, 1.0)).all()
    assert ((q["soft"] > 0.0) & (q["soft"] < 1.0)).all()
    assert (q["partly"] == 0.0).any() and (q["partly"] == 1.0).any()
    assert ((q["partly"] > 0.0) & (q["partly"] < 1.0)).any()


def test_edge_rows_hold_every_class_of_q():
    rng = np.random.default_rng(42)
    q = mask_zero_by_phase(np.exp(oracle_log_weights(rng, "edges", 6, 16)))
    for row in q:
        assert np.isin(row, (0.0, 1.0)).any()
        assert ((row > 0.0) & (row < COLLAPSE_Q)).any()
        assert ((row >= COLLAPSE_Q) & (row < 1.0)).any()
    assert (q == COLLAPSE_Q).any() and (q == np.nextafter(COLLAPSE_Q, 0.0)).any()
    assert ((q > COLLAPSE_Q) & (q < 1.0)).any()


@pytest.mark.parametrize("q", [np.nextafter(COLLAPSE_Q, 0.0), 2.0 ** -83, 1e-30, 5e-324])
def test_the_mix_rounds_to_its_collapse_below_the_bound(q):
    """For 0 < q < 2^-82 and |y| <= LLR_MAX, srsx's two sums, as it rounds
    them, are exactly 1 and e^y, so log(num) - log(den) is 0 - log(e^y)."""
    y = np.concatenate([[0.0, -0.0, LLR_MAX, -LLR_MAX],
                        np.random.default_rng(43).uniform(-LLR_MAX, LLR_MAX, 1000)])
    e = np.exp(y)
    assert (q * e + (1.0 - q) == 1.0).all()
    assert (e * (1.0 - q) + q == e).all()


def test_the_collapse_bound_is_tight():
    # at q = 2^-82 the denominator of e^-20 rounds up: its mantissa is odd
    e = np.exp(-LLR_MAX)
    assert e * (1.0 - COLLAPSE_Q) + COLLAPSE_Q != e


@pytest.mark.parametrize("at_bound", [False, True])
def test_srsx_equals_the_oracle_on_either_side_of_the_bound(at_bound):
    """A block whose soft q are all below 2^-82 takes the collapsed mix, one
    with q == 2^-82 the full one; both equal the oracle byte for byte."""
    rng = np.random.default_rng(44)
    L, M = 16, 1000
    lw = np.vstack([edge_log_weights(rng, 0, at_bound) for _ in range(4)])
    payload = oracle_payload(rng, 4, M)
    payload[:, ::3] = -LLR_MAX  # e^-20's binade, where 2^-82 is half an ulp
    want = mix_mask_oracle(payload, mask_q(np.exp(lw), L, M))
    assert same_bytes(srsx_rows(lw, payload, L), want)


@pytest.mark.parametrize("strided", [False, True])
def test_srsx_equals_the_oracle_where_every_hard_q_is_1(strided):
    """Clean pilots leave q at exactly 1 or tiny, never at 0: a contiguous
    payload is put in place as it is at the hard phases."""
    rng = np.random.default_rng(45)
    L, M, n = 16, 700, 3
    pilots = [flip_by_mask(np.full(L, LLR_MAX), pilot_bits(v, L)) for v in (5, 77, 120)]
    lw = seed_posterior(np.array(pilots))
    q = mask_zero_by_phase(np.exp(lw))
    assert (q > 0.0).all() and (q == 1.0).any() and (q < 1.0).any()
    payload = oracle_payload(rng, n, M)
    if strided:
        payload = np.concatenate([np.zeros((n, L)), payload], axis=1)[:, L:]
    want = mix_mask_oracle(payload, mask_q(np.exp(lw), L, M))
    assert same_bytes(srsx_rows(lw, payload, L), want)


@pytest.mark.parametrize("kind", ["hard", "soft", "partly", "mixed", "edges"])
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


# ---------------------------------------------- a word mixed in two pieces
def mix_path(q: np.ndarray) -> str:
    """The branch mix_rows takes for q: flips only, or the exp/log mix or
    its 2^-82 collapse, the last two with "+hard" when some phases are hard."""
    soft = (q > 0.0) & (q < 1.0)
    if not soft.any():
        return "flips"
    path = "mix" if ((q >= _COLLAPSE_Q) & (q < 1.0)).any() else "collapse"
    return path if soft.all() else path + "+hard"


SPLIT_HS = (1, 7, 8, 48, 127, 441, 489, 496, 4093)


@pytest.mark.parametrize("L, snr_db, srsx_path", [(16, 0.0, "mix"), (16, 6.0, "mix+hard"),
                                                   (16, 12.0, "collapse+hard"),
                                                   (127, 12.0, "flips")])
@pytest.mark.parametrize("q_of", ["srsx", "register"])
def test_a_word_mixed_in_two_pieces_equals_the_word_mixed_whole(L, snr_db, srsx_path, q_of):
    """mix_rows on payload[:, :h] from phase L, then on payload[:, h:] from
    L + h, gives the bytes of one call on the whole block; and one row mixed
    from L + 496, past a frame's overhead, gives that slice of the block."""
    rng = np.random.default_rng(int(L + 10 * snr_db))
    n, M = 3, 496 + 8 * 500
    seeds = rng.integers(1, 128, n)
    payload_bits = rng.integers(0, 2, (n, M), dtype=np.uint8)
    llrs = scrambled_llrs(seeds, payload_bits, L, rng.standard_normal((n, L + M)),
                          snr_db_to_sigma2(snr_db))
    pilots, payload = llrs[:, :L], llrs[:, L:]
    if q_of == "srsx":
        q = mask_zero_by_phase(np.exp(seed_posterior(pilots)))
        assert mix_path(q) == srsx_path
        assert same_bytes(mix_rows(q, payload, L), srsx_rows(seed_posterior(pilots), payload, L))
    else:
        q = _ZERO_PROB[seeds]
        assert mix_path(q) == "flips"
    whole = mix_rows(q, payload, L)
    for h in SPLIT_HS + (M - 1,):
        pieces = np.concatenate([mix_rows(q, payload[:, :h], L),
                                 mix_rows(q, payload[:, h:], L + h)], axis=1)
        assert same_bytes(pieces, whole), h
    for i in range(n):
        row = mix_rows(q[i:i + 1], payload[i:i + 1, 496:], L + 496)
        assert same_bytes(row, whole[i:i + 1, 496:]), i


# ------------------------------------------------- non-finite pilot LLRs
import warnings  # noqa: E402


@pytest.mark.parametrize("L", [16, 200])
def test_seed_posterior_clamps_infinite_pilots(L):
    """An infinite pilot counts as LLR_MAX of its sign: the posterior stays
    finite, with no warning, and equals the one of the clamped pilots."""
    rng = np.random.default_rng(48)
    for v in (3, 90):
        pilots = flip_by_mask(np.full(L, 3.0), pilot_bits(v, L)) + rng.normal(0, 1, L)
        pos = rng.choice(L, size=3, replace=False)
        inf = pilots.copy()
        inf[pos] = np.copysign(np.inf, pilots[pos])  # each of its pilot's sign
        clamped = np.clip(inf, -LLR_MAX, LLR_MAX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lw = seed_posterior(inf)
        assert np.isfinite(lw).all() and same_bytes(lw, seed_posterior(clamped))
        assert np.argmax(lw) + 1 == v


@pytest.mark.parametrize("L", [7, 16, 127, 200])
@pytest.mark.parametrize("owning", [False, True], ids=["constructed", "owning"])
def test_receivers_of_a_checked_word_equal_the_checked_block_path(L, owning):
    """hrsx(word) and srsx(word) trust the pilots their SoftWord checked and
    seed_posterior checks its pilots once: each gives the bytes of the block
    path that checks the raw pilots, infinities included."""
    rng = np.random.default_rng(L + owning)
    M = 300
    for v in (5, 77):
        raw = flip_by_mask(np.full(L, 4.0), pilot_bits(v, L)) + rng.normal(0, 2.0, L)
        pos = rng.choice(L, size=3, replace=False)
        raw[pos] = np.copysign(np.inf, raw[pos])
        raw[rng.integers(0, L)] = -np.inf
        payload = rng.normal(0, 8.0, M)
        payload[:2] = np.inf, -np.inf
        if owning:
            word = SoftWord(np.concatenate([raw, payload]), L)
        else:
            word = soft_word(raw, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lw = seed_posterior(raw[None])
            pay = np.clip(payload, -LLR_MAX, LLR_MAX)[None]
            assert same_bytes(srsx(word), srsx_rows(lw, pay, L)[0])
            got, seed_bits = hrsx(word)
            want, idx = hrsx_rows(lw, pay, L)
            assert same_bytes(got, want[0])
            assert seed_bits.tolist() == seed_from_int(int(idx[0]) + 1).tolist()
            assert same_bytes(seed_posterior(raw), lw[0])
        assert np.isfinite(lw).all()


@pytest.mark.parametrize("pos", [0, 8, 15])
def test_seed_posterior_refuses_nan(pos):
    pilots = flip_by_mask(np.full(16, 3.0), pilot_bits(9, 16))
    pilots[pos] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        seed_posterior(pilots)


# ----------------------------------------- one word or a block of words
@pytest.mark.parametrize("L", [7, 16, 127, 200])
def test_a_blocks_rows_are_its_words(L):
    """Row i of seed_posterior and hd on a block is the function on word i.

    The posteriors are compared byte for byte on pilots whose correlation
    with the codebook sums exactly: quarter-integer LLRs, with infinities
    that clamp to +-LLR_MAX.  numpy multiplies one word as a vector and a
    block as a matrix, and BLAS may sum the two in different orders, so
    drawn LLRs, infinities included, are compared to 1e-12; every other
    step (the check, the clamp, the phase sums, the normalization) is the
    same row by row."""
    rng = np.random.default_rng(L)
    n = 5
    exact = rng.integers(-80, 81, (n, L)) / 4.0
    noisy = noisy_block(rng, n, L, 0)[0]
    for pilots in (exact, noisy):
        pilots[0, :3] = np.inf, -np.inf, np.inf
        pilots[3, -2:] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = seed_posterior(pilots)
        assert block.shape == (n, N_SEEDS) and np.isfinite(block).all()
        for i in range(n):
            if pilots is exact:
                assert same_bytes(block[i], seed_posterior(pilots[i])), i
            else:
                np.testing.assert_allclose(block[i], seed_posterior(pilots[i]),
                                           rtol=1e-12, atol=1e-12)
    bits = rng.integers(0, 2, (n, 7 + 3 * L), dtype=np.uint8)
    out = hd(bits)
    assert out.shape == (n, 3 * L)
    for i in range(n):
        assert same_bytes(out[i], hd(bits[i])), i
