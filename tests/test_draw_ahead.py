"""The sweeps' draw-ahead thread: same draws, same bytes, one thread per
sweep and none left behind."""

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


def serial_trial_blocks(rng, trials, L, M, stream_snr_db):
    """One grid point of sweeps._trial_blocks as it was before its draws
    moved to a thread: yields (payload, seeds, llrs)."""
    K = len(stream_snr_db)
    sigma2 = np.array([snr_db_to_sigma2(s) for s in stream_snr_db])
    B = _block_trials(trials, K, L, M)
    payload = np.zeros((B, M), dtype=np.uint8)
    seeds = np.zeros((B, K), dtype=np.intp)
    noise = np.zeros((B, K, L + M))
    for first in range(0, trials, B):
        b = min(B, trials - first)
        for t in range(b):
            if M:
                payload[t] = rng.integers(0, 2, M, dtype=np.uint8)
            for k in range(K):
                seeds[t, k] = rng.integers(1, 128)
                rng.standard_normal(out=noise[t, k])
        yield (payload[:b], seeds[:b],
               scrambled_llrs(seeds[:b], payload[:b, None, :], L, noise[:b], sigma2))


class DrawError(Exception):
    pass


class StandInRng:
    """Passes draws on to a Generator; raises DrawError on the n-th
    standard_normal call, and records the thread of every call (the Thread,
    whose ident the OS may give a later thread once this one has ended)."""

    def __init__(self, rng, fail_at=None, on_draw=None):
        self.rng, self.fail_at, self.on_draw = rng, fail_at, on_draw
        self.normals = 0
        self.threads = set()

    def integers(self, *args, **kwargs):
        self.threads.add(threading.current_thread())
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.threads.add(threading.current_thread())
        self.normals += 1
        if self.normals == self.fail_at:
            raise DrawError(f"draw {self.normals}")
        if self.on_draw:
            self.on_draw()
        return self.rng.standard_normal(*args, **kwargs)


def serial_sweep_blocks(points, trials, L, M):
    """The serial oracle over a sweep: each point's blocks in turn, drawn
    from its own generator, as (gi, payload, seeds, llrs)."""
    for gi, (rng, snrs) in enumerate(points):
        for block in serial_trial_blocks(rng, trials, L, M, snrs):
            yield (gi,) + block


def copied(block):
    """A block's arrays copied out of the slot they live in; gi as it is."""
    return tuple(a.copy() if isinstance(a, np.ndarray) else a for a in block)


def assert_same_blocks(got, want):
    for g, w in itertools.zip_longest(got, want):
        assert g is not None and w is not None, "the two block sequences differ in length"
        g = copied(g)
        assert g[0] == w[0], "a block came from the wrong grid point"
        for a, b in zip(g[1:], w[1:]):
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
    want = [copied(b) for b in serial_sweep_blocks([(theirs, snrs)], trials, L, M)]
    assert sum(len(b[1]) for b in want) == trials
    assert_same_blocks(sweeps._trial_blocks([(ours, snrs)], trials, L, M), want)
    # the same calls in the same order leave the generators in the same state
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("M, K", [(0, 1), (40, 2)])
@pytest.mark.parametrize("trials_of_B", [lambda B: max(1, B - 1), lambda B: B,
                                         lambda B: 2 * B + 1],
                         ids=["fewer", "equal", "2B+1"])
def test_blocks_across_points_equal_the_serial_oracle(M, K, trials_of_B):
    """Three grid points at different SNRs: each point's blocks, in turn,
    are its own serial blocks, and each generator ends where the oracle's does."""
    L = 16
    snrs = [[-2.0, 0.5], [1.5, 3.0], [6.0, 4.0]]
    trials = trials_of_B(_block_trials(10**6, K, L, M))
    ours = [np.random.default_rng([7, gi]) for gi in range(3)]
    theirs = [np.random.default_rng([7, gi]) for gi in range(3)]
    want = [copied(b) for b in serial_sweep_blocks(
        [(r, s[:K]) for r, s in zip(theirs, snrs)], trials, L, M)]
    assert [sum(len(b[1]) for b in want if b[0] == gi) for gi in range(3)] == [trials] * 3
    assert_same_blocks(sweeps._trial_blocks([(r, s[:K]) for r, s in zip(ours, snrs)],
                                            trials, L, M), want)
    for a, b in zip(ours, theirs):
        assert a.bit_generator.state == b.bit_generator.state


def test_blocks_stay_intact_under_contention(monkeypatch):
    """More callers than cores, a short switch interval, and each block held
    across a sleep: a draw into a slot the caller still holds would show."""
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 3 * 2 * (16 + 40 + 127))  # B = 3
    failures = []

    def caller(seed):
        try:
            want = [copied(b) for b in serial_trial_blocks(
                np.random.default_rng(seed), 20, 16, 40, [0.0, 2.0])]
            got = sweeps._trial_blocks([(np.random.default_rng(seed), [0.0, 2.0])], 20, 16, 40)
            for g, w in itertools.zip_longest(got, want):
                time.sleep(0.001)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(g[1:], w))
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
    blocks = sweeps._trial_blocks([(rng, [1.0])], 10, 16, 8)
    next(blocks)
    deadline = time.monotonic() + 10
    while rng.normals < 4 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # room to run further, which it must not
    assert rng.normals == 4  # this block's two trials and the next block's two
    blocks.close()
    assert threading.current_thread() not in rng.threads


SPEC = dict(mode="payload_ber", snr_grid=[0.0, 2.0, 4.0], L=16, n_streams=2,
            stream_snr_offsets=[0.0, 1.0], trials=9, payload_bytes=6, rng_seed=3)


def spec_for(mode: str) -> SweepSpec:
    """SPEC in another mode; seed_ber measures one stream and sends no payload."""
    one = (dict(n_streams=1, stream_snr_offsets=[0.0], payload_bytes=1500)
           if mode == "seed_ber" else {})
    return SweepSpec(**dict(SPEC, mode=mode, **one))


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


@pytest.mark.parametrize("mode", ["seed_ber", "payload_ber", "packet_per"])
def test_a_sweep_draws_on_one_thread(monkeypatch, mode):
    point_rng = sweeps._point_rng
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * 2 * (16 + 48 + 127))
    threads, rngs = set(), []

    def recording(spec, gi):
        rngs.append(StandInRng(point_rng(spec, gi)))
        rngs[-1].threads = threads  # one record for every point
        return rngs[-1]

    monkeypatch.setattr(sweeps, "_point_rng", recording)
    spec = spec_for(mode)
    spec.snr_grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    run_sweep(spec)
    assert len(rngs) == 6 and all(r.normals > 0 for r in rngs)
    (thread,) = threads
    assert thread is not threading.current_thread()


@pytest.mark.parametrize("mode", ["seed_ber", "payload_ber"])
def test_a_draw_error_in_the_next_points_first_block_surfaces(monkeypatch, mode):
    """Point 1's first block is drawn while the caller holds point 0's
    last; its draw error surfaces from run_sweep when the caller gets there."""
    point_rng = sweeps._point_rng
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * 2 * (16 + 48 + 127))
    spec = spec_for(mode)
    M = 0 if mode == "seed_ber" else 8 * spec.payload_bytes
    B = sweeps._block_trials(spec.trials, spec.n_streams, spec.L, M)
    per_point = -(-spec.trials // B)
    assert per_point >= 2 and B * spec.n_streams >= 2  # draw 2 is in the first block
    drawing = threading.Event()
    monkeypatch.setattr(sweeps, "_point_rng", lambda spec, gi: StandInRng(
        point_rng(spec, gi), *((2, drawing.set) if gi == 1 else ())))
    held = []
    seed_posterior = sweeps.seed_posterior

    def holding(pilots):  # called once per block, in the caller
        held.append(drawing.wait(10) if len(held) + 1 == per_point else drawing.is_set())
        return seed_posterior(pilots)

    monkeypatch.setattr(sweeps, "seed_posterior", holding)
    before = set(threading.enumerate())
    with pytest.raises(DrawError, match="draw 2"):
        run_sweep(spec)
    # point 0's blocks came first, then the caller held its last while the
    # thread drew on into point 1; no block of point 1 reached the caller
    assert held == [False] * (per_point - 1) + [True]
    assert set(threading.enumerate()) == before


def test_closing_after_the_first_block_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * (16 + 8 + 127))
    before = set(threading.enumerate())
    blocks = sweeps._trial_blocks([(np.random.default_rng(2), [1.0])], 10, 16, 8)
    next(blocks)
    assert len(set(threading.enumerate()) - before) == 1
    blocks.close()
    assert set(threading.enumerate()) == before


def test_a_draw_error_in_a_block_never_taken_is_dropped(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * (16 + 8 + 127))  # B = 2, K = 1
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    rng = StandInRng(np.random.default_rng(6), fail_at=3)  # block 2's first draw
    before = set(threading.enumerate())
    blocks = sweeps._trial_blocks([(rng, [1.0])], 10, 16, 8)
    next(blocks)
    deadline = time.monotonic() + 10
    while rng.normals < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert rng.normals == 3  # the draw failed before the generator was closed
    blocks.close()
    assert set(threading.enumerate()) == before
    assert escaped == []


def test_an_error_in_the_callers_loop_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sweeps, "BLOCK_FLOATS", 2 * 2 * (16 + 48 + 127))
    calls = 0
    seed_posterior = sweeps.seed_posterior

    def failing(pilots):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise ArithmeticError("in the loop body")
        return seed_posterior(pilots)

    monkeypatch.setattr(sweeps, "seed_posterior", failing)
    before = set(threading.enumerate())
    for mode in ("payload_ber", "seed_ber"):
        calls = 0
        with pytest.raises(ArithmeticError, match="in the loop body"):
            run_sweep(spec_for(mode))
        assert set(threading.enumerate()) == before


def test_run_sweep_leaves_no_thread():
    before = set(threading.enumerate())
    for mode in ("seed_ber", "payload_ber", "packet_per"):
        run_sweep(spec_for(mode))
        assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs thread affinity")
def test_the_draw_thread_keeps_the_callers_cpu_set():
    allowed = os.sched_getaffinity(0)
    seen = []
    rng = StandInRng(np.random.default_rng(4), on_draw=lambda: seen.append(
        (threading.get_ident(), frozenset(os.sched_getaffinity(0)))))
    for _ in sweeps._trial_blocks([(rng, [1.0])], 5, 16, 8):
        pass
    assert os.sched_getaffinity(0) == allowed  # the caller's own set is untouched
    (ident, cpus), = set(seen)
    assert ident != threading.get_ident()
    assert cpus == allowed


def sweep_csvs():
    return [rows_to_csv(SWEEP_COLUMNS, run_sweep(spec_for(mode)))
            for mode in ("payload_ber", "seed_ber")]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs thread affinity")
def test_unpinned_draws_give_the_same_bytes():
    everywhere = sweep_csvs()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # both threads share one CPU
    try:
        assert sweep_csvs() == everywhere
    finally:
        os.sched_setaffinity(0, allowed)
