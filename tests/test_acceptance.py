"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Statistical criteria run pinned RNG seeds and sample sizes chosen (and
margin-checked) in advance, so every assertion below is deterministic.
Each test prints one summary line; run with -v (or -s) to see them.
"""

import itertools

import numpy as np
from scipy.special import expit
from scipy.stats import binomtest, norm

from ssic.channel import ChannelParams, fresh_seed, soft_copy
from ssic.combine import StreamSoftCopy, decide, ssic_combine
from ssic.descramble import (
    N_SEEDS,
    hrsx,
    hrsx_rows,
    mask_zero_by_phase,
    seed_posterior,
    srsx_rows,
    z_sequence_table,
)
from ssic.netstack import FrameKey, run_metrics, run_network_point
from ssic.scrambler import mask_matrix, scramble, seed_from_int, seed_to_int
from ssic.softbits import hard_decide
from ssic.sweeps import (
    NETSIM_COLUMNS,
    SWEEP_COLUMNS,
    SweepSpec,
    rows_to_csv,
    run_netsim,
    run_sweep,
)
from ssic.vcframe import BCH_MIN_DIST, CODEWORDS, decode_header_soft, encode_header

from oracles import bpsk_awgn_llrs
from test_netstack import hard_obs, make_agg, soft_obs


def report(num: int, line: str) -> None:
    print(f"criterion {num:02d} PASS: {line}")


def crossing_db(grid, rates, target):
    """First log-linear crossing of a falling rate curve through target."""
    for (x0, r0), (x1, r1) in zip(zip(grid, rates), zip(grid[1:], rates[1:])):
        if r0 >= target > r1:
            r1 = max(r1, 1e-300)  # pinned data keeps this branch nonzero
            l0, l1, lt = np.log10(r0), np.log10(r1), np.log10(target)
            return x0 + (x1 - x0) * (l0 - lt) / (l0 - l1)
    raise AssertionError(f"no grid pair brackets rate {target}: {rates}")


def pilots_of(seed: np.ndarray, L: int) -> np.ndarray:
    """A seed's L noise-free pilot bits: its scrambled all-zero prefix."""
    return scramble(seed, np.zeros(L, dtype=np.uint8))


def pilot_matrix(L: int) -> np.ndarray:
    """(127, L) noise-free pilot bits for every seed."""
    return np.vstack([pilots_of(seed_from_int(v), L) for v in range(1, 128)])


def brute_weights(y: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Probability-domain reference posterior: plain products, no logs."""
    p = np.where(pilots == 0, expit(y)[None, :], expit(-y)[None, :])
    w = p.prod(axis=1)
    return w / w.sum()


def test_criterion_01_scrambler_mask_identity_and_involution():
    seeds = np.array([seed_from_int(v) for v in range(1, 128)])
    checked = 0
    for L in (7, 16, 127):
        a = mask_matrix(L)
        predicted = (seeds @ a.T) % 2
        for i in range(127):
            seed = seeds[i]
            assert np.array_equal(predicted[i], pilots_of(seed, L))
            checked += 1
    rng = np.random.default_rng(0)
    for v in range(1, 128):
        seed = seed_from_int(v)
        bits = rng.integers(0, 2, 200, dtype=np.uint8)
        assert np.array_equal(scramble(seed, scramble(seed, bits)), bits)
    report(1, f"mask identity on {checked} (seed, L) pairs; involution on 127 seeds")


def test_criterion_02_posterior_matches_probability_domain_oracle():
    rng = np.random.default_rng(2024)
    pilots = pilot_matrix(16)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(1, 128))
        snr_db = float(rng.uniform(-2.0, 6.0))
        word = soft_copy(seed_from_int(v), np.zeros(0, dtype=np.uint8), 16, snr_db, rng)
        got = np.exp(seed_posterior(word.pilots))
        ref = brute_weights(word.pilots, pilots)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-300)
        denom = np.maximum(ref, 1e-300)
        worst = max(worst, float(np.max(np.abs(got - ref) / denom)))
    report(2, f"1000 posteriors match brute force; worst relative error {worst:.2e}")


def test_criterion_03_hrsx_equals_exhaustive_ml_search():
    rng = np.random.default_rng(333)
    pilots = pilot_matrix(16)
    for _ in range(1000):
        v = int(rng.integers(1, 128))
        snr_db = float(rng.uniform(-2.0, 5.0))
        word = soft_copy(seed_from_int(v), np.zeros(0, dtype=np.uint8), 16, snr_db, rng)
        _, est = hrsx(word)
        brute = int(np.argmax(brute_weights(word.pilots, pilots))) + 1
        assert seed_to_int(est) == brute
    report(3, "MAP seed equals exhaustive ML search on all 1000 trials")


def test_criterion_04_srsx_reduces_to_hrsx_and_uniform_mask_probs():
    rng = np.random.default_rng(44)
    for v in range(1, 128):
        word = soft_copy(seed_from_int(v), rng.integers(0, 2, 32, dtype=np.uint8),
                         16, 0.0, rng)
        delta = np.full((1, N_SEEDS), -np.inf)
        delta[0, v - 1] = 0.0
        out_s = srsx_rows(delta, word.payload[None], word.L)[0]
        out_h = hrsx_rows(delta, word.payload[None], word.L)[0][0]
        assert np.array_equal(out_s, out_h), f"seed {v} not bit-exact"
    # uniform posterior: P(z=0) at payload position m is the zero count of
    # z-table column (L+m) mod 127 over 127; enumeration says 63 everywhere
    uniform = np.exp(np.full((1, N_SEEDS), -np.log(N_SEEDS)))
    q = mask_zero_by_phase(uniform)[0, (16 + np.arange(127)) % 127]
    counts = (z_sequence_table() == 0).sum(axis=0)
    want = counts[(16 + np.arange(127)) % 127] / 127.0
    np.testing.assert_allclose(q, want, rtol=1e-12)
    assert set(counts.tolist()) <= {63, 64}
    report(4, "delta posterior bit-exact on 127 seeds; uniform mask probs enumerated")


def test_criterion_05_seed_error_ordering_significant():
    # pinned: 20000 frames at 2.5 dB, shared noise, rng seed 42
    n_frames, snr_db = 20000, 2.5
    rng = np.random.default_rng(42)
    hd_err = np.zeros(n_frames, dtype=bool)
    e16 = np.zeros(n_frames, dtype=bool)
    e127 = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        seed = fresh_seed(rng)
        true_int = seed_to_int(seed)
        word = soft_copy(seed, np.zeros(0, dtype=np.uint8), 127, snr_db, rng)
        true_z = pilots_of(seed, 16)
        hd_err[i] = bool((hard_decide(word.pilots[9:16]) != true_z[9:16]).any())
        e16[i] = np.argmax(seed_posterior(word.pilots[:16])) + 1 != true_int
        e127[i] = np.argmax(seed_posterior(word.pilots)) + 1 != true_int
    hd_rate = hd_err.mean()
    assert 0.05 <= hd_rate <= 0.2, f"HD rate {hd_rate} outside the pinned window"
    # one-sided McNemar on paired frames, 99% significance
    w1 = int((hd_err & ~e16).sum())   # frames HD loses, L=16 MAP wins
    n1 = w1 + int((~hd_err & e16).sum())
    p1 = binomtest(w1, n1, 0.5, alternative="greater").pvalue
    w2 = int((e16 & ~e127).sum())     # frames L=16 loses, L=127 wins
    n2 = w2 + int((~e16 & e127).sum())
    p2 = binomtest(w2, n2, 0.5, alternative="greater").pvalue
    assert e127.sum() < e16.sum() < hd_err.sum()
    assert p1 < 0.01 and p2 < 0.01
    report(5, f"errors HD {int(hd_err.sum())} > L16 {int(e16.sum())} > "
              f"L127 {int(e127.sum())}; McNemar p {p1:.2e}, {p2:.2e}")


def test_criterion_06_variant_ordering_and_srsx_gain():
    spec = SweepSpec(mode="payload_ber", snr_grid=[-1.0, 0.0, 2.0, 6.0], L=16,
                     n_streams=4, stream_snr_offsets=[0.0, 0.5, 1.0, 1.5],
                     trials=1600, payload_bytes=1500,
                     variants=("naive", "hrsx", "srsx"), rng_seed=20260819)
    rows = run_sweep(spec)
    rate = {(r[1], r[4]): r[8] for r in rows}
    grid = spec.snr_grid
    in_window = [s for s in grid if 1e-4 <= rate[(s, "naive")] <= 1e-1]
    assert in_window, "no grid point has naive BER inside [1e-4, 1e-1]"
    for s in in_window:
        assert rate[(s, "srsx")] <= rate[(s, "hrsx")] <= rate[(s, "naive")], (
            f"ordering violated at {s} dB: "
            f"{rate[(s, 'srsx')]} / {rate[(s, 'hrsx')]} / {rate[(s, 'naive')]}")
    x_naive = crossing_db(grid, [rate[(s, "naive")] for s in grid], 1e-3)
    x_srsx = crossing_db(grid, [rate[(s, "srsx")] for s in grid], 1e-3)
    gain = x_naive - x_srsx
    assert gain >= 0.5, f"horizontal gain {gain:.2f} dB below 0.5 dB"
    report(6, f"ordering holds at {in_window} dB; gain at BER 1e-3: "
              f"{gain:.2f} dB (naive {x_naive:.2f}, srsx {x_srsx:.2f})")


def test_criterion_07_two_stream_gain_matches_plus_3db_analytically():
    n, snr_db, rng = 1_000_000, 4.0, np.random.default_rng(1234)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    copies = [StreamSoftCopy(k, bpsk_awgn_llrs(bits, snr_db, rng)) for k in range(2)]
    ber_2 = float((decide(ssic_combine(copies)) != bits).mean())
    single = bpsk_awgn_llrs(bits, snr_db + 3.0, rng)
    ber_s3 = float((hard_decide(single) != bits).mean())
    base = bpsk_awgn_llrs(bits, snr_db, rng)
    ber_1 = float((hard_decide(base) != bits).mean())

    q = float(norm.sf(np.sqrt(2 * 10 ** (snr_db / 10))))
    assert abs(ber_1 - q) <= 3 * np.sqrt(q * (1 - q) / n), (ber_1, q)
    sigma = np.sqrt(ber_2 * (1 - ber_2) / n + ber_s3 * (1 - ber_s3) / n)
    assert abs(ber_2 - ber_s3) <= 3 * sigma, (ber_2, ber_s3, sigma)
    report(7, f"BER two-stream {ber_2:.2e} vs single at +3 dB {ber_s3:.2e} "
              f"(3 sigma {3 * sigma:.2e}); single matches Q() at {ber_1:.2e}")


def test_criterion_08_four_stream_per_gain_at_1e_minus_2():
    grid = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    per = {}
    for ns in (4, 1):
        spec = SweepSpec(mode="packet_per", snr_grid=grid, L=16, n_streams=ns,
                         trials=3000, payload_bytes=256, variants=("srsx",),
                         rng_seed=7)
        per[ns] = [r[8] for r in run_sweep(spec)]
    x4 = crossing_db(grid, per[4], 1e-2)
    x1 = crossing_db(grid, per[1], 1e-2)
    gain = x1 - x4
    assert gain >= 2.0, f"PER gain {gain:.2f} dB below 2 dB"
    report(8, f"PER 1e-2 at {x4:.2f} dB (4 streams) vs {x1:.2f} dB (single): "
              f"gain {gain:.2f} dB")


def test_criterion_09_header_code_distance_and_soft_decoding():
    c = CODEWORDS.astype(np.int16)
    dists = np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2)
    np.fill_diagonal(dists, 63)
    assert int(dists.min()) == BCH_MIN_DIST == 31

    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(10_000):
        vci = int(rng.integers(0, 65536))
        vcs = int(rng.integers(0, 65536))
        coded = encode_header(vci, vcs)
        llrs = 1.0 - 2.0 * coded.astype(np.float64)
        for j in range(7):  # 15 hard flips in every 63-bit block
            pos = rng.choice(63, size=15, replace=False)
            llrs[63 * j + pos] *= -1.0
        h = decode_header_soft(llrs)
        if h is None or (h.vci, h.vcs) != (vci, vcs):
            failures += 1
    assert failures == 0
    report(9, "min distance exactly 31; 10000 headers with 15 flips/block, "
              "0 decode failures")


def test_criterion_10_aggregator_protocol_under_all_interleavings():
    k1, k2, k3 = FrameKey(1, 10), FrameKey(1, 11), FrameKey(2, 10)
    p1, p2, p3 = b"packet-one", b"packet-two!!", b"p3"
    truth = {k1: p1, k2: p2, k3: p3}
    scenarios = [
        # ([(key, observation)...], expected deliveries, expected pending keys)
        ([(k1, hard_obs(k1, p1, 0)), (k1, hard_obs(k1, p1, 1)),
          (k2, soft_obs(k2, p2, 0)), (k2, soft_obs(k2, p2, 1))],
         {k1: 1, k2: 1}, set()),
        ([(k1, hard_obs(k1, p1, 0)), (k1, soft_obs(k1, p1, 1)),
          (k1, soft_obs(k1, p1, 2))], {k1: 1}, set()),
        ([(k1, soft_obs(k1, p1, 0)), (k1, soft_obs(k1, p1, 1)),
          (k2, soft_obs(k2, p2, 0)), (k3, hard_obs(k3, p3, 1))],
         {k1: 1, k3: 1}, {k2}),
    ]
    n_perms = 0
    for pairs, want_delivered, want_pending in scenarios:
        for perm in itertools.permutations(range(len(pairs))):
            agg = make_agg(truth)
            delivered: dict[FrameKey, int] = {}
            done: set[FrameKey] = set()
            for idx in perm:
                obs_key, obs = pairs[idx]
                drops_before = agg.stats.duplicate_drops
                out = agg.push(obs)
                if out is not None:
                    key, payload = out
                    assert key == obs_key and truth[key] == payload
                    delivered[key] = delivered.get(key, 0) + 1
                    done.add(key)
                elif obs_key in done:
                    # copies of a delivered key are discarded as duplicates
                    assert agg.stats.duplicate_drops == drops_before + 1
            assert delivered == want_delivered, (perm, delivered)
            assert set(agg.pending) == want_pending, (perm, set(agg.pending))
            assert agg.stats.delivered == sum(want_delivered.values())
            n_perms += 1
    report(10, f"exactly-once delivery, duplicate discard, and pending-combine "
               f"verified over {n_perms} interleavings")


def test_criterion_11_metric_identity_and_dominance():
    # pinned operating point: 2 streams at 10.2 dB, detection loss 2e-4
    spec = SweepSpec(mode="netsim", snr_grid=[10.2], L=16, n_streams=2,
                     trials=10000, payload_bytes=1500, variants=("srsx",),
                     detection_loss_prob=2e-4, rng_seed=3)
    rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 0]))
    params = [ChannelParams(snr_db=10.2, detection_loss_prob=2e-4)
              for _ in range(2)]
    records, _ = run_network_point(spec.trials, spec.payload_bytes, params,
                                   spec.L, rng, variant="srsx")
    m = run_metrics(records, 2)
    for mode, r in m.items():
        assert r.fr == 1.0 - (1.0 - r.plr) * (1.0 - r.per), mode  # exact
    for r in records:
        for k in range(2):
            assert not r.hard[k] or r.detected[k]
        if any(r.hard):
            assert r.ssic_delivered  # a clean copy anywhere implies delivery
    assert m["ssic"].fr <= m["dup"].fr <= min(m["stream1"].fr, m["stream2"].fr)
    for k in ("stream1", "stream2"):
        assert 0.02 <= m[k].per <= 0.04, f"{k} per {m[k].per} outside [0.02, 0.04]"
        assert m[k].plr <= 0.001
    assert m["dup"].plr <= 0.001 and m["ssic"].plr <= 0.001
    assert m["dup"].fr > 0.0
    assert m["dup"].fr >= 2.0 * m["ssic"].fr, (m["dup"].fr, m["ssic"].fr)
    report(11, f"fr identity exact on all modes; fr dup {m['dup'].fr:.2e} >= "
               f"2 x fr ssic {m['ssic'].fr:.2e}; stream per "
               f"{m['stream1'].per:.3f}/{m['stream2'].per:.3f}")


def test_criterion_12_sweeps_are_byte_deterministic():
    sweep_spec = dict(mode="payload_ber", snr_grid=[1.0, 3.0], n_streams=2,
                      stream_snr_offsets=[0.0, 1.0], trials=200,
                      payload_bytes=300, rng_seed=11)
    a = rows_to_csv(SWEEP_COLUMNS, run_sweep(SweepSpec(**sweep_spec)))
    b = rows_to_csv(SWEEP_COLUMNS, run_sweep(SweepSpec(**sweep_spec)))
    assert a == b
    net_spec = dict(mode="netsim", snr_grid=[8.5], n_streams=2, trials=300,
                    payload_bytes=200, rng_seed=2)
    c = rows_to_csv(NETSIM_COLUMNS, run_netsim(SweepSpec(**net_spec)))
    d = rows_to_csv(NETSIM_COLUMNS, run_netsim(SweepSpec(**net_spec)))
    assert c == d
    report(12, f"byte-identical reruns: sweep {len(a)} bytes, netsim {len(c)} bytes")
