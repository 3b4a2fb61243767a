import numpy as np
import pytest
from scipy.stats import norm

from ssic import channel
from ssic.channel import (
    ChannelParams,
    StreamObservation,
    awgn_llrs,
    clean_noise_bound,
    fresh_seed,
    scrambled_llrs,
    snr_db_to_sigma2,
    soft_copy,
    transmit,
)
from ssic.descramble import hd
from ssic.scrambler import scramble, seed_from_int, seed_to_int
from ssic.softbits import LLR_MAX, hard_decide

from oracles import bpsk_awgn_llrs


def test_sigma2_golden_points():
    assert snr_db_to_sigma2(0.0) == pytest.approx(0.5)
    assert snr_db_to_sigma2(10.0) == pytest.approx(0.05)
    assert snr_db_to_sigma2(-3.0103) == pytest.approx(1.0, rel=1e-4)


def test_llr_statistics_match_model():
    # for bit 0 at snr g: llr ~ N(2/sigma^2, 4/sigma^2) with sigma^2 = 1/(2g)
    rng = np.random.default_rng(0)
    llrs = bpsk_awgn_llrs(np.zeros(200_000, dtype=np.uint8), 0.0, rng)
    assert llrs.mean() == pytest.approx(4.0, abs=0.05)
    assert llrs.var() == pytest.approx(8.0, rel=0.03)
    ones = bpsk_awgn_llrs(np.ones(50_000, dtype=np.uint8), 0.0, rng)
    assert ones.mean() == pytest.approx(-4.0, abs=0.1)


def test_hard_error_rate_matches_q_function():
    rng = np.random.default_rng(1)
    n, snr_db = 400_000, 2.0
    g = 10 ** (snr_db / 10)
    llrs = bpsk_awgn_llrs(np.zeros(n, dtype=np.uint8), snr_db, rng)
    p = norm.sf(np.sqrt(2 * g))
    rate = hard_decide(llrs).mean()
    assert abs(rate - p) < 4 * np.sqrt(p * (1 - p) / n)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(snr_db=0.0, detection_loss_prob=1.5)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=0.0, burst_prob=-0.1)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=0.0, burst_llr_atten=0.0)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=0.0, burst_llr_atten=1.1)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=0.0, burst_len_mean=0.5)


def test_observation_invariants():
    with pytest.raises(ValueError):
        StreamObservation(stream_id=0, detected=False, crc_pass=True)
    with pytest.raises(ValueError):
        StreamObservation(stream_id=0, detected=True, crc_pass=True)
    with pytest.raises(ValueError):
        StreamObservation(stream_id=0, detected=True, crc_pass=False)
    ok = StreamObservation(stream_id=0, detected=False)
    assert not ok.crc_pass


def test_fresh_seed_range_and_coverage():
    rng = np.random.default_rng(2)
    vals = {seed_to_int(fresh_seed(rng)) for _ in range(2000)}
    assert vals <= set(range(1, 128))
    assert len(vals) == 127  # all values reachable


def test_soft_copy_shapes_and_clean_recovery():
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 100, dtype=np.uint8)
    seed = seed_from_int(42)
    w = soft_copy(seed, payload, 16, 30.0, rng)
    assert w.L == 16 and w.M == 100
    assert np.array_equal(hard_decide(w.pilots), scramble(seed, np.zeros(16, dtype=np.uint8)))
    got = hd(np.concatenate([hard_decide(w.pilots[-7:]), hard_decide(w.payload)]))
    assert np.array_equal(got, payload)


def test_block_llrs_equal_soft_copy_rows():
    # three trials x two streams at different SNRs, drawn as soft_copy draws
    L, M, snrs = 16, 50, np.array([1.0, 4.0])
    sigma2 = np.array([snr_db_to_sigma2(s) for s in snrs])
    rng = np.random.default_rng(8)
    seeds = rng.integers(1, 128, (3, 2))
    payload = rng.integers(0, 2, (3, M), dtype=np.uint8)
    draws = np.random.default_rng(9)
    noise = np.array([[draws.normal(0.0, np.sqrt(s2), L + M) for s2 in sigma2]
                      for _ in range(3)])
    block = scrambled_llrs(seeds, payload[:, None, :], L, noise, sigma2)
    again = np.random.default_rng(9)
    for t in range(3):
        for k in range(2):
            w = soft_copy(seed_from_int(int(seeds[t, k])), payload[t], L, snrs[k], again)
            assert np.array_equal(block[t, k], np.concatenate([w.pilots, w.payload]))
    with pytest.raises(ValueError):
        soft_copy(np.zeros(7, dtype=np.uint8), payload[0], L, 1.0, again)
    # the +-1 symbols formed in a caller's scratch block give the same bytes
    scratch = np.full_like(noise, np.nan)
    again = np.random.default_rng(9)
    noise = np.array([[again.normal(0.0, np.sqrt(s2), L + M) for s2 in sigma2]
                      for _ in range(3)])
    in_scratch = scrambled_llrs(seeds, payload[:, None, :], L, noise, sigma2, scratch)
    assert in_scratch.tobytes() == block.tobytes()
    assert np.isin(scratch, (-1.0, 1.0)).all()


def test_transmit_detection_loss():
    rng = np.random.default_rng(4)
    params = ChannelParams(snr_db=10.0, detection_loss_prob=1.0)
    obs = transmit(seed_from_int(1), np.zeros(8, dtype=np.uint8), 16, params, rng)
    assert not obs.detected and obs.soft is None and obs.hard_bits is None


def test_transmit_clean_frame_passes_crc():
    rng = np.random.default_rng(5)
    params = ChannelParams(snr_db=30.0)
    payload = rng.integers(0, 2, 64, dtype=np.uint8)
    obs = transmit(seed_from_int(9), payload, 16, params, rng, stream_id=3)
    assert obs.detected and obs.crc_pass and obs.stream_id == 3
    assert np.array_equal(obs.hard_bits, payload)


def test_transmit_never_false_accepts():
    # crc_pass frames reproduce the payload exactly; failed frames would not
    rng = np.random.default_rng(6)
    params = ChannelParams(snr_db=3.0)
    passes = fails = 0
    for _ in range(300):
        payload = rng.integers(0, 2, 48, dtype=np.uint8)
        obs = transmit(fresh_seed(rng), payload, 16, params, rng)
        if obs.crc_pass:
            passes += 1
            assert np.array_equal(obs.hard_bits, payload)
        else:
            fails += 1
            got = hd(np.concatenate([hard_decide(obs.soft.pilots[-7:]),
                                     hard_decide(obs.soft.payload)]))
            assert not np.array_equal(got, payload)
    assert passes > 0 and fails > 0  # the chosen SNR exercises both branches


def _oracle_transmit(seed, payload, L, params, rng):
    """transmit's LLRs by the formula it used before it called awgn_llrs.

    Same draws in the same order; None for a missed frame.  The noise is
    scaled per position by sigma_w and the matched LLR 2y/sigma^2 by the
    burst's atten, then clamped as every stored LLR is.
    """
    if rng.random() < params.detection_loss_prob:
        return None
    tx = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), payload]))
    n = tx.size
    sigma2 = snr_db_to_sigma2(params.snr_db)
    sigma = np.full(n, np.sqrt(sigma2))
    atten = np.ones(n)
    if params.burst_prob > 0.0 and rng.random() < params.burst_prob:
        start = int(rng.integers(0, n))
        length = int(rng.geometric(1.0 / params.burst_len_mean))
        a = params.burst_llr_atten
        sigma[start:start + length] = np.sqrt(sigma2 / a)
        atten[start:start + length] = a
    y = (1.0 - 2.0 * tx) + rng.normal(0.0, 1.0, n) * sigma
    return np.clip(atten * 2.0 * y / sigma2, -LLR_MAX, LLR_MAX)


@pytest.mark.parametrize("params,exact", [
    (dict(), True),
    (dict(detection_loss_prob=0.3), True),
    (dict(burst_prob=1.0, burst_llr_atten=0.25, burst_len_mean=300.0), True),
    (dict(burst_prob=1.0, burst_llr_atten=0.3, burst_len_mean=300.0), False),
])
def test_transmit_matches_per_position_formula(params, exact):
    L, frames = 16, 0
    outcomes = set()
    for i, m in enumerate((8, 64, 496, 1200, 12_496)):
        for snr_db in (2.0, 6.0, 9.0, 14.0):
            p = ChannelParams(snr_db=snr_db, **params)
            draw = np.random.default_rng([i, int(snr_db)])
            payload = draw.integers(0, 2, m, dtype=np.uint8)
            seeds = draw.integers(1, 128, 6)
            rng, ref_rng = (np.random.default_rng([i, int(snr_db), 1]) for _ in "ab")
            for s in seeds:
                seed = seed_from_int(int(s))
                obs = transmit(seed, payload, L, p, rng)
                ref = _oracle_transmit(seed, payload, L, p, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                frames += 1
                assert obs.detected == (ref is not None)
                if ref is None:
                    outcomes.add("missed")
                    continue
                hard = hard_decide(ref)
                bits = hd(np.concatenate([hard[L - 7:L], hard[L:]]))
                assert obs.crc_pass == np.array_equal(bits, payload)
                if obs.crc_pass:
                    outcomes.add("clean")
                    assert np.array_equal(obs.hard_bits, bits)
                    continue
                outcomes.add("soft")
                got = np.concatenate([obs.soft.pilots, obs.soft.payload])
                assert np.array_equal(hard_decide(got), hard)
                if exact:
                    assert np.array_equal(got, ref)
                else:
                    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
    assert frames == 120
    expected = {"clean", "soft"} | ({"missed"} if "detection_loss_prob" in params else set())
    assert outcomes == expected


class ScriptedRng:
    """Stands in for a Generator: hands out chosen draws and logs each call.

    standard_normal(n) and normal(0, 1, n) both return the scripted samples,
    so transmit and _oracle_transmit see the same noise.
    """

    def __init__(self, z, uniforms, ints=(), lengths=()):
        self.z, self.calls = z, []
        self.uniforms, self.ints, self.lengths = list(uniforms), list(ints), list(lengths)

    def random(self):
        self.calls.append("random")
        return self.uniforms.pop(0)

    def integers(self, low, high):
        self.calls.append(("integers", low, high))
        return self.ints.pop(0)

    def geometric(self, p):
        self.calls.append(("geometric", p))
        return self.lengths.pop(0)

    def standard_normal(self, n):
        assert n == self.z.size
        self.calls.append(("normal", n))
        return self.z.copy()

    def normal(self, loc, scale, n):
        assert (loc, scale, n) == (0.0, 1.0, self.z.size)
        self.calls.append(("normal", n))
        return self.z.copy()


@pytest.mark.parametrize("sigma2", [snr_db_to_sigma2(s) for s in (-3.0, 0.0, 6.0, 10.2, 14.0)]
                         + [0.3, 1e-3])
def test_clean_noise_bound_is_the_last_double_below_one(sigma2):
    t, s = clean_noise_bound(sigma2), np.sqrt(sigma2)
    assert t * s < 1.0 <= np.nextafter(t, np.inf) * s
    # the same products elementwise, as transmit scales its draws
    z = np.array([t, -t, np.nextafter(t, np.inf)]) * s
    assert abs(z[0]) < 1.0 and abs(z[1]) < 1.0 and z[2] >= 1.0


BURST = dict(burst_prob=1.0, burst_llr_atten=0.25, burst_len_mean=40.0)


@pytest.mark.parametrize("case,burst,screened,clean", [
    ("max at t, min at -t", False, True, True),
    ("just above t where a +1 was sent", False, False, True),
    ("just above t where a -1 was sent", False, False, False),
    ("pilot L-7 flipped", False, False, False),
    ("pilot L-7 flipped, payload errors undo it", False, False, True),
    ("burst drawn", True, False, True),
])
def test_clean_screen_is_exact_at_its_edges(monkeypatch, case, burst, screened, clean):
    """The screen passes a frame as clean from |z| <= t alone; everywhere it
    must agree with the per-position formula and draw exactly as it does."""
    L, seed = 16, seed_from_int(37)
    payload = np.random.default_rng(1).integers(0, 2, 200, dtype=np.uint8)
    params = ChannelParams(snr_db=10.0, **(BURST if burst else {}))
    sigma2 = snr_db_to_sigma2(10.0)
    t = clean_noise_bound(sigma2)
    tx = scramble(seed, np.concatenate([np.zeros(L, dtype=np.uint8), payload]))
    n = tx.size
    z = np.clip(np.random.default_rng(2).standard_normal(n), -t / 2, t / 2)
    one, zero = L + int(np.argmax(tx[L:] == 1)), L + int(np.argmax(tx[L:] == 0))
    if case == "max at t, min at -t":
        z[one], z[zero] = t, -t
    elif case == "just above t where a +1 was sent":
        z[zero] = np.nextafter(t, np.inf)
    elif case == "just above t where a -1 was sent":
        z[one] = np.nextafter(t, np.inf)
    elif case.startswith("pilot L-7 flipped"):
        flip = [L - 7]
        if case.endswith("undo it"):
            # the payload decisions that the wrong register preload descrambles
            # back into the payload
            wrong = tx[L - 7:L] ^ np.eye(1, 7, 0, dtype=np.uint8)[0]
            blank = np.zeros(payload.size, dtype=np.uint8)
            diff = hd(np.concatenate([tx[L - 7:L], blank])) ^ hd(np.concatenate([wrong, blank]))
            flip += list(L + np.flatnonzero(diff))
        z[flip] = -10.0 * t * (1.0 - 2.0 * tx[flip])
    script = dict(uniforms=[0.5, 0.0], ints=[n // 3], lengths=[60])

    scrambles = []
    monkeypatch.setattr(channel, "scramble",
                        lambda *a: scrambles.append(1) or scramble(*a))
    rng, ref_rng = ScriptedRng(z, **script), ScriptedRng(z, **script)
    obs = transmit(seed, payload, L, params, rng)
    ref = _oracle_transmit(seed, payload, L, params, ref_rng)
    assert rng.calls == ref_rng.calls
    assert rng.calls[-1] == ("normal", n) and len(rng.calls) == (5 if burst else 2)
    assert (not scrambles) == screened

    hard = hard_decide(ref)
    bits = hd(np.concatenate([hard[L - 7:L], hard[L:]]))
    assert obs.crc_pass == np.array_equal(bits, payload) == clean
    if clean:
        assert np.array_equal(obs.hard_bits, bits)
    else:
        assert np.array_equal(np.concatenate([obs.soft.pilots, obs.soft.payload]), ref)


@pytest.mark.parametrize("L", [0, 6])
def test_transmit_rejects_short_pilot_blocks(L):
    # with L < 7 the register preload y[L - 7:] would wrap to the frame's end
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="L must be at least 7"):
        transmit(seed_from_int(5), np.zeros(64, dtype=np.uint8), L,
                 ChannelParams(snr_db=-5.0), rng)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3077.0, 3078.0, 3079.0, 3080.0,
                                    -3090.0, float("nan")])
def test_channel_params_reject_snr_without_a_double_noise_variance(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        ChannelParams(snr_db=snr_db)


def test_highest_accepted_snr_gives_finite_llrs():
    # 3076.5 dB is the last tenth of a dB whose 2/sigma^2 is a finite double
    params = ChannelParams(snr_db=3076.5)
    sigma2 = snr_db_to_sigma2(params.snr_db)
    llrs = awgn_llrs(np.array([0, 1], dtype=np.uint8), np.zeros(2), sigma2)
    assert np.isfinite(llrs).all() and llrs[0] == -llrs[1] > 0
    with pytest.raises(ValueError, match="snr_db"):
        ChannelParams(snr_db=3076.6)


def test_transmit_rejects_bad_seeds():
    rng = np.random.default_rng(10)
    params = ChannelParams(snr_db=5.0)
    payload = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError):
        transmit(np.zeros(7, dtype=np.uint8), payload, 16, params, rng)
    with pytest.raises(ValueError):
        transmit(np.ones(6, dtype=np.uint8), payload, 16, params, rng)


def test_burst_window_causes_hard_errors_at_high_snr():
    # without the burst this SNR is error-free; with it some frames must break
    rng = np.random.default_rng(7)
    clean = ChannelParams(snr_db=15.0)
    bursty = ChannelParams(snr_db=15.0, burst_prob=1.0, burst_len_mean=200.0,
                           burst_llr_atten=0.02)
    payload = np.zeros(600, dtype=np.uint8)
    assert all(transmit(fresh_seed(rng), payload, 16, clean, rng).crc_pass
               for _ in range(50))
    outcomes = [transmit(fresh_seed(rng), payload, 16, bursty, rng).crc_pass
                for _ in range(50)]
    assert not all(outcomes)


def test_burst_attenuates_reported_llrs():
    rng = np.random.default_rng(8)
    bursty = ChannelParams(snr_db=12.0, burst_prob=1.0, burst_len_mean=1e9,
                           burst_llr_atten=0.1)
    payload = np.zeros(400, dtype=np.uint8)
    obs = transmit(fresh_seed(rng), payload, 16, bursty, rng)
    # a window that covers (nearly) the whole frame scales LLR means by 0.1:
    # clean mean |llr| is 2/sigma^2 ~ 63.4, attenuated ~ 6.3
    mags = np.abs(obs.soft.payload) if obs.soft is not None else None
    assert mags is not None and mags.mean() < 15.0
