"""Scrambler unit tests.

The reference oracle here is a deliberately naive bit-by-bit register
tracer, kept independent from the vectorized implementation so the two
can cross-check each other.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssic.channel import ChannelParams, StreamObservation, soft_copy, transmit
from ssic.descramble import hd, hd_rows, seed_log_weights, seed_posterior
from ssic.netstack import Aggregator, AggregatorConfig
from ssic.scrambler import (
    LFSR_LEN,
    PERIOD,
    checked_bits,
    fill_by_phase,
    lfsr_run,
    mask_matrix,
    register_outputs,
    scramble,
    seed_from_int,
    seed_to_int,
)
from ssic.softbits import LLR_MAX, SoftWord
from ssic.vcframe import (VcFrame, decode_header_soft, encapsulate, encode_header,
                          frame_from_bits, frame_to_bits)

from oracles import lfsr_step


class RegisterTracer:
    """Plain-list register model: z = r0 ^ r3, shift toward 0, feed z into r6."""

    def __init__(self, seed_bits):
        self.r = [int(b) for b in seed_bits]
        assert len(self.r) == 7

    def step(self) -> int:
        z = self.r[0] ^ self.r[3]
        self.r = self.r[1:] + [z]
        return z

    def run(self, n: int) -> list[int]:
        return [self.step() for _ in range(n)]


# Known first 16 output bits for the all-ones seed.
ALL_ONES_PREFIX = "0000111011110010"


def test_all_ones_seed_golden_prefix():
    out = lfsr_run(np.ones(7, dtype=np.uint8), 16)
    assert "".join(map(str, out)) == ALL_ONES_PREFIX
    tracer = RegisterTracer([1] * 7)
    assert "".join(map(str, tracer.run(16))) == ALL_ONES_PREFIX


def test_lfsr_step_matches_tracer_all_seeds():
    for v in range(1, 128):
        state = seed_from_int(v)
        tracer = RegisterTracer(state)
        for _ in range(150):
            z, state = lfsr_step(state)
            assert z == tracer.step()
            assert list(state) == tracer.r


def test_lfsr_run_matches_tracer_and_tiles():
    for v in (1, 2, 77, 127):
        seed = seed_from_int(v)
        want = RegisterTracer(seed).run(300)
        assert lfsr_run(seed, 300).tolist() == want
    assert lfsr_run(seed_from_int(5), 0).size == 0


def test_period_is_127_for_every_nonzero_seed():
    for v in range(1, 128):
        out = lfsr_run(seed_from_int(v), 2 * PERIOD)
        assert np.array_equal(out[:PERIOD], out[PERIOD:])
        # no smaller period: an m-sequence's cycle visits every nonzero state
        for p in (1, 7, 9, 63):
            assert not np.array_equal(out[: PERIOD - p], out[p:PERIOD])


def test_state_cycle_visits_every_nonzero_state():
    state = seed_from_int(1)
    seen = set()
    for _ in range(PERIOD):
        seen.add(seed_to_int(state))
        _, state = lfsr_step(state)
    assert seen == set(range(1, 128))
    assert seed_to_int(state) == 1


def test_zero_state_is_fixed_point():
    z, nxt = lfsr_step(np.zeros(7, dtype=np.uint8))
    assert z == 0 and not nxt.any()
    assert not lfsr_run(np.zeros(7, dtype=np.uint8), 50).any()


def test_seed_int_round_trip():
    for v in range(128):
        s = seed_from_int(v)
        assert s.shape == (7,) and s.dtype == np.uint8
        assert seed_to_int(s) == v
    assert seed_from_int(1)[0] == 1  # r0 is the LSB
    with pytest.raises(ValueError):
        seed_from_int(128)
    with pytest.raises(ValueError):
        seed_from_int(-1)
    # a bool or a float is no seed integer, even one with an integer value
    for v in (True, False, np.True_, 1.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="seed must be an integer 0..127"):
            seed_from_int(v)
    assert seed_to_int(seed_from_int(np.int64(5))) == 5
    assert seed_to_int(seed_from_int(np.uint8(127))) == 127


def test_seed_int_conversions_equal_the_bitwise_forms():
    for v in range(128):
        want = np.array([(v >> j) & 1 for j in range(LFSR_LEN)], dtype=np.uint8)
        s = seed_from_int(v)
        assert s.dtype == np.uint8 and s.tobytes() == want.tobytes()
        assert seed_to_int(s) == int(sum(int(b) << j for j, b in enumerate(want)))
        assert type(seed_to_int(s)) is int
    # each call returns a private copy of the cached table row
    s = seed_from_int(5)
    s[:] = 0
    assert seed_to_int(seed_from_int(5)) == 5 and seed_from_int(5).flags.writeable


@given(
    v=st.integers(min_value=1, max_value=127),
    bits=st.lists(st.integers(0, 1), min_size=0, max_size=400),
)
@settings(max_examples=60, deadline=None)
def test_scramble_is_an_involution(v, bits):
    seed = seed_from_int(v)
    x = np.array(bits, dtype=np.uint8)
    y = scramble(seed, x)
    assert y.shape == x.shape
    assert np.array_equal(scramble(seed, y), x)


def test_scramble_validation():
    with pytest.raises(ValueError):
        scramble(np.zeros(7, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        scramble(np.ones(6, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        scramble(np.ones(7, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))


def test_make_pilots_is_scrambled_zeros():
    for v in (1, 64, 127):
        seed = seed_from_int(v)
        for L in (7, 16, 127, 300):
            pilots = scramble(seed, np.zeros(L, dtype=np.uint8))
            assert np.array_equal(pilots, lfsr_run(seed, L))


def test_register_equals_last_pilots_after_any_prefix():
    # the resynchronization hook: after t >= 7 steps the register holds the
    # last 7 emitted bits, so a receiver can preload from hard decisions
    for v in (1, 42, 127):
        state = seed_from_int(v)
        outs = []
        for t in range(40):
            z, state = lfsr_step(state)
            outs.append(z)
            if t >= 6:
                assert list(state) == outs[-7:]


def test_mask_matrix_golden_rows():
    a7 = mask_matrix(7)
    assert a7.shape == (7, 7)
    assert a7[0].tolist() == [1, 0, 0, 1, 0, 0, 0]
    assert a7[-1].tolist() == [0, 0, 1, 0, 0, 1, 1]


def test_mask_matrix_defining_property_exhaustive():
    seeds = np.array([seed_from_int(v) for v in range(1, 128)])
    for L in (7, 16, 127):
        a = mask_matrix(L)
        assert a.shape == (L, 7) and a.dtype == np.uint8
        predicted = (seeds @ a.T) % 2  # (127, L)
        for i in range(127):
            pilots = scramble(seeds[i], np.zeros(L, dtype=np.uint8))
            assert np.array_equal(predicted[i], pilots), (L, i + 1)


def test_mask_matrix_row_recurrence():
    a = mask_matrix(127)
    for m in range(7, 127):
        assert np.array_equal(a[m], a[m - 7] ^ a[m - 4])


def test_mask_matrix_prefix_consistency():
    # mask rows depend only on row index, not on L
    a16, a127 = mask_matrix(16), mask_matrix(127)
    assert np.array_equal(a127[:16], a16)


def test_mask_matrix_full_rank():
    # Gaussian elimination over GF(2); 7 independent rows mean the seed is
    # always identifiable from noise-free pilots
    a = mask_matrix(7).astype(np.uint8).copy()
    rank = 0
    for col in range(7):
        piv = next((r for r in range(rank, 7) if a[r, col]), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(7):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
    assert rank == 7


def test_mask_matrix_rejects_short_pilots_every_time():
    for _ in range(2):  # the cache keeps no raise
        with pytest.raises(ValueError, match="L must be at least 7, got 6"):
            mask_matrix(6)


def test_mask_matrix_is_readonly_and_cached():
    a = mask_matrix(16)
    assert not a.flags.writeable
    assert mask_matrix(16) is a


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("start", [0, 1, 126, 127, 300])
def test_fill_by_phase_equals_modular_indexing(lead, start):
    rng = np.random.default_rng(start)
    table = rng.integers(0, 1000, lead + (PERIOD,))
    for n in (0, 1, 126, 127, 128, 1000):
        out = fill_by_phase(np.full(lead + (n,), -1), table, start)
        assert np.array_equal(out, table[..., (start + np.arange(n)) % PERIOD])


def test_register_outputs_match_tracer_for_every_state():
    states = np.arange(1 << LFSR_LEN).reshape(2, 64)
    traces = np.array([RegisterTracer(seed_from_int(v)).run(430) for v in range(128)])
    for start, n in ((0, 0), (5, 127), (130, 300)):
        want = traces[:, start:start + n].reshape(2, 64, n)
        assert np.array_equal(register_outputs(states, n, start), want)


def test_checked_bits_passes_bits_of_any_dtype():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert checked_bits(bits, "x") is bits  # uint8 bits are not copied
    for same in (bits.astype(bool), bits.astype(np.float64), bits.astype(np.int64),
                 bits.tolist(), np.zeros(0)):
        got = checked_bits(same, "x")
        assert got.dtype == np.uint8 and got.tolist() == list(same)
    seed = seed_from_int(77)
    assert np.array_equal(scramble(seed.astype(bool), bits.astype(np.float64)),
                          scramble(seed, bits))


def _with_entry(bits, v):
    """bits in v's dtype with their last entry set to v."""
    a = np.array(bits, dtype=np.result_type(v))
    a[..., -1] = v
    return a


_SEED, _WORD = seed_from_int(5), np.zeros(20, dtype=np.uint8)
_MISSED = ChannelParams(snr_db=5.0, detection_loss_prob=1.0)

# every entry point that takes bits, with the name it refuses them under
BIT_TAKERS = {
    "scramble-seed": ("seed", lambda v, rng: scramble(_with_entry(_SEED, v), _WORD)),
    "scramble-bits": ("bits", lambda v, rng: scramble(_SEED, _with_entry(_WORD, v))),
    "lfsr_run-state": ("state", lambda v, rng: lfsr_run(_with_entry(_SEED, v), 5)),
    "transmit-seed": ("seed", lambda v, rng: transmit(_with_entry(_SEED, v), _WORD, 16,
                                                      _MISSED, rng)),
    "transmit-payload": ("payload_bits", lambda v, rng: transmit(_SEED, _with_entry(_WORD, v),
                                                                 16, _MISSED, rng)),
    "soft_copy-seed": ("seed", lambda v, rng: soft_copy(_with_entry(_SEED, v), _WORD, 16, 5.0,
                                                        rng)),
    "soft_copy-payload": ("payload_bits", lambda v, rng: soft_copy(_SEED, _with_entry(_WORD, v),
                                                                   16, 5.0, rng)),
    "hd": ("word_hard", lambda v, rng: hd(_with_entry(_WORD, v))),
    "hd_rows": ("word_hard", lambda v, rng: hd_rows(_with_entry(np.zeros((3, 20)), v))),
    "VcFrame": ("header_coded", lambda v, rng: VcFrame(1, _with_entry(encode_header(1, 2), v),
                                                       b"ab")),
    "frame_from_bits": ("bits", lambda v, rng: frame_from_bits(
        _with_entry(frame_to_bits(encapsulate(b"ab", 1, 2, 3)), v))),
    "Aggregator.push": ("hard_bits", lambda v, rng: Aggregator(
        AggregatorConfig(), payload_check=lambda key, packet: True).push(StreamObservation(
            0, hard_bits=_with_entry(frame_to_bits(encapsulate(b"ab", 1, 2, 3)), v)))),
}


@pytest.mark.parametrize("v", [np.uint8(2), -1, 0.5, 256], ids=["2", "-1", "0.5", "256"])
@pytest.mark.parametrize("taker", BIT_TAKERS)
def test_every_bit_taker_refuses_an_entry_not_0_or_1(taker, v):
    name, call = BIT_TAKERS[taker]
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must hold only 0s and 1s$"):
        call(v, rng)
    assert rng.bit_generator.state == before  # refused before any draw


_PILOTS = 3.0 - 6.0 * register_outputs(9, 16)  # seed 9's pilots at LLR magnitude 3
_HEADER = 3.0 - 6.0 * encode_header(7, 9)

# every entry point that takes LLRs, with the name it refuses NaN under, its
# input, and the call; each clamps an infinity as it clamps any LLR
LLR_TAKERS = {
    "SoftWord-pilots": ("pilots", _PILOTS, lambda x: SoftWord(x, [1.0, -2.0]).pilots),
    "SoftWord-payload": ("payload", np.linspace(-5.0, 5.0, 20),
                         lambda x: SoftWord(_PILOTS, x).payload),
    "seed_posterior": ("pilot_llrs", _PILOTS, seed_posterior),
    "seed_log_weights": ("pilots", np.stack([_PILOTS, -_PILOTS]), seed_log_weights),
    "decode_header_soft": ("llrs", _HEADER, decode_header_soft),
}


def _with_infs(x):
    """x with its first entry +inf and its last -inf."""
    y = np.array(x, dtype=np.float64)
    y.flat[0], y.flat[-1] = np.inf, -np.inf
    return y


def _as_bytes(out):
    return out.tobytes() if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("taker", LLR_TAKERS)
def test_every_llr_taker_refuses_nan_clamps_inf_and_takes_ints(taker):
    name, x, call = LLR_TAKERS[taker]
    nan = np.array(x)
    nan.flat[nan.size // 2] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must hold no NaN$"):
        call(nan)
    inf = _with_infs(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(inf)
    assert _as_bytes(got) == _as_bytes(call(np.clip(inf, -LLR_MAX, LLR_MAX)))
    ints = np.rint(x).astype(np.int64)
    assert _as_bytes(call(ints.tolist())) == _as_bytes(call(ints.astype(np.float64)))


def test_lfsr_run_refuses_a_state_that_is_not_7_bits():
    with pytest.raises(ValueError, match=r"state must have shape \(7,\), got \(3,\)"):
        lfsr_run(np.ones(3, dtype=np.uint8), 4)
    with pytest.raises(ValueError, match="state must hold only 0s and 1s"):
        lfsr_run(np.full(7, 5), 4)
    with pytest.raises(ValueError, match="state must be one-dimensional"):
        lfsr_run(np.ones((1, 7), dtype=np.uint8), 4)
