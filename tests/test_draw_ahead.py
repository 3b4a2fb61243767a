"""The sweeps' draw-ahead thread: same draws, same bytes, no thread left behind."""

import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

from ssic import sweeps
from ssic.channel import scrambled_llrs, snr_db_to_sigma2
from ssic.sweeps import SWEEP_COLUMNS, SweepSpec, _block_trials, rows_to_csv, run_sweep


def serial_trial_blocks(rng, trials, L, M, stream_snr_db, work=None):
    """sweeps._trial_blocks as it was before its draws moved to a thread."""
    K = len(stream_snr_db)
    sigma2 = np.array([snr_db_to_sigma2(s) for s in stream_snr_db])
    sigma = np.sqrt(sigma2)
    B = _block_trials(trials, K, L, M)
    payload = np.zeros((B, M), dtype=np.uint8)
    seeds = np.zeros((B, K), dtype=np.intp)
    noise = np.zeros((B, K, L + M))
    if work is None:
        work = np.empty(noise.size)
    for first in range(0, trials, B):
        b = min(B, trials - first)
        for t in range(b):
            if M:
                payload[t] = rng.integers(0, 2, M, dtype=np.uint8)
            for k in range(K):
                seeds[t, k] = rng.integers(1, 128)
                rng.standard_normal(out=noise[t, k])
        # rng.normal(0, sigma, n) is exactly sigma times the same standard draws
        noise[:b] *= sigma[:, None]
        yield (payload[:b], seeds[:b],
               scrambled_llrs(seeds[:b], payload[:b, None, :], L, noise[:b], sigma2,
                              work[:noise[:b].size].reshape(b, K, L + M)))


class DrawError(Exception):
    pass


class StandInRng:
    """Passes draws on to a Generator; raises DrawError on the n-th
    standard_normal call, and records the thread of every call."""

    def __init__(self, rng, fail_at=None, on_draw=None):
        self.rng, self.fail_at, self.on_draw = rng, fail_at, on_draw
        self.normals = 0
        self.threads = set()

    def integers(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        self.normals += 1
        if self.normals == self.fail_at:
            raise DrawError(f"draw {self.normals}")
        if self.on_draw:
            self.on_draw()
        return self.rng.standard_normal(*args, **kwargs)


def copied(block):
    return tuple(a.copy() for a in block)


def assert_same_blocks(got, want):
    for g, w in itertools.zip_longest(got, want):
        assert g is not None and w is not None, "the two block sequences differ in length"
        for a, b in zip(copied(g), w):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (M, K) and trials relative to the block size B: fewer, equal, k * B + 1
SHAPES = [(0, 1), (40, 1), (40, 4), (2048, 4)]


@pytest.mark.parametrize("M, K", SHAPES)
@pytest.mark.parametrize("trials_of_B", [lambda B: max(1, B - 1), lambda B: B,
                                         lambda B: 2 * B + 1],
                         ids=["fewer", "equal", "kB+1"])
def test_blocks_equal_the_serial_oracle(M, K, trials_of_B):
    L = 16
    snrs = [0.0, 1.5, 3.0, -2.0][:K]
    trials = trials_of_B(_block_trials(10**6, K, L, M))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    want = [copied(b) for b in serial_trial_blocks(theirs, trials, L, M, snrs)]
    assert sum(len(b[0]) for b in want) == trials
    assert_same_blocks(sweeps._trial_blocks(ours, trials, L, M, snrs), want)
    # the same calls in the same order leave the generators in the same state
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_blocks_stay_intact_under_contention(monkeypatch):
    """More callers than cores, a short switch interval, and each block held
    across a sleep: a draw into a slot the caller still holds would show."""
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 3 * 2 * (16 + 40 + 127))  # B = 3
    failures = []

    def caller(seed):
        try:
            want = [copied(b) for b in serial_trial_blocks(
                np.random.default_rng(seed), 20, 16, 40, [0.0, 2.0])]
            got = sweeps._trial_blocks(np.random.default_rng(seed), 20, 16, 40, [0.0, 2.0])
            for g, w in itertools.zip_longest(got, want):
                time.sleep(0.001)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(g, w))
        except Exception as e:
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert failures == []


def test_draws_run_at_most_one_block_ahead(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * (16 + 8 + 127))  # B = 2, K = 1
    rng = StandInRng(np.random.default_rng(1))
    blocks = sweeps._trial_blocks(rng, 10, 16, 8, [1.0])
    next(blocks)
    deadline = time.monotonic() + 10
    while rng.normals < 4 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # room to run further, which it must not
    assert rng.normals == 4  # this block's two trials and the next block's two
    blocks.close()
    assert threading.get_ident() not in rng.threads


SPEC = dict(mode="payload_ber", snr_grid=[0.0, 2.0, 4.0], L=16, n_streams=2,
            stream_snr_offsets=[0.0, 1.0], trials=9, payload_bytes=6, rng_seed=3)


# each grid point draws 9 trials x 2 streams from its own stand-in
@pytest.mark.parametrize("fail_at", [1, 7, 17])
def test_a_draw_error_surfaces_from_run_sweep(monkeypatch, fail_at):
    point_rng = sweeps._point_rng
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * 2 * (16 + 48 + 127))  # B = 2
    monkeypatch.setattr(sweeps, "_point_rng",
                        lambda spec, gi: StandInRng(point_rng(spec, gi), fail_at))
    before = set(threading.enumerate())
    with pytest.raises(DrawError, match=f"draw {fail_at}"):
        run_sweep(SweepSpec(**SPEC))
    assert set(threading.enumerate()) == before


def test_closing_after_the_first_block_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * (16 + 8 + 127))
    before = set(threading.enumerate())
    blocks = sweeps._trial_blocks(np.random.default_rng(2), 10, 16, 8, [1.0])
    next(blocks)
    assert len(set(threading.enumerate()) - before) == 1
    blocks.close()
    assert set(threading.enumerate()) == before


def test_an_error_in_the_callers_loop_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * 2 * (16 + 48 + 127))
    calls = 0
    seed_log_weights = sweeps.seed_log_weights

    def failing(pilots):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise ArithmeticError("in the loop body")
        return seed_log_weights(pilots)

    monkeypatch.setattr(sweeps, "seed_log_weights", failing)
    before = set(threading.enumerate())
    for mode in ("payload_ber", "seed_ber"):
        calls = 0
        with pytest.raises(ArithmeticError, match="in the loop body"):
            run_sweep(SweepSpec(**dict(SPEC, mode=mode)))
        assert set(threading.enumerate()) == before


def test_run_sweep_leaves_no_thread():
    before = set(threading.enumerate())
    for mode in ("seed_ber", "payload_ber", "packet_per"):
        run_sweep(SweepSpec(**dict(SPEC, mode=mode)))
        assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs thread affinity")
def test_the_draw_thread_leaves_the_callers_cpu():
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        pytest.skip("one CPU allowed: the thread stays unpinned")
    seen = []
    rng = StandInRng(np.random.default_rng(4), on_draw=lambda: seen.append(
        (threading.get_ident(), os.sched_getaffinity(0))))
    for _ in sweeps._trial_blocks(rng, 5, 16, 8, [1.0]):
        pass
    assert os.sched_getaffinity(0) == allowed  # the caller's own set is untouched
    (ident, cpus), = set((i, frozenset(c)) for i, c in seen)
    assert ident != threading.get_ident()
    assert len(cpus) == len(allowed) - 1 and cpus < allowed


def sweep_csvs():
    return [rows_to_csv(SWEEP_COLUMNS, run_sweep(SweepSpec(**dict(SPEC, mode=mode))))
            for mode in ("payload_ber", "seed_ber")]


def test_unpinned_draws_give_the_same_bytes(monkeypatch):
    pinned = sweep_csvs()
    if hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})  # no CPU is left for the thread
        try:
            assert sweeps._other_cpus() is None
            assert sweep_csvs() == pinned
        finally:
            os.sched_setaffinity(0, allowed)
        monkeypatch.delattr(os, "sched_setaffinity")
    assert sweeps._other_cpus() is None
    assert sweep_csvs() == pinned
