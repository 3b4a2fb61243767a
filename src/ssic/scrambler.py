"""7-bit self-synchronizing scrambler (x^7 + x^4 + 1) and its linear pilot structure.

The scrambler register is a length-7 vector (r0..r6).  Each step outputs
z = r0 XOR r3, shifts the register one place toward index 0, and feeds z
back into r6.  Seeded with any nonzero state it walks the full 127-state
cycle, so the output is an m-sequence of period 127.

One table holds what every register state outputs: row v of the period
table is one output period of state v, the 7-bit linear recurrence
z[k] = z[k-7] XOR z[k-4] run from all 128 states at once (_recurrence,
which with other taps builds vcframe's header codewords too).  Every other
table derives from it.  Output n of a state is phase n mod 127 of its row
(fill_by_phase), and the register is linear, so every scrambling bit is a
fixed GF(2) combination of the seed bits: mask_matrix(L) gives those
combinations for an L-bit all-zero pilot prefix, its column j being the
outputs of unit state 1 << j.
"""

from __future__ import annotations

import functools

import numpy as np

LFSR_LEN = 7
PERIOD = 127  # 2**7 - 1

_BIT_WEIGHTS = 1 << np.arange(LFSR_LEN)


@functools.lru_cache(maxsize=1)
def _state_bits() -> np.ndarray:
    """(128, 7): row v is register state v as bits, r0 = LSB."""
    m = ((np.arange(1 << LFSR_LEN)[:, None] >> np.arange(LFSR_LEN)) & 1).astype(np.uint8)
    m.flags.writeable = False
    return m


def seed_from_int(v: int) -> np.ndarray:
    """7-bit register state from an integer, r0 = LSB."""
    if not 0 <= v <= 127:
        raise ValueError(f"seed integer out of range: {v}")
    return _state_bits()[v].copy()


def register_states(bits) -> np.ndarray:
    """Register states as integers (r0 = LSB) of (..., 7) bit rows."""
    return np.asarray(bits, dtype=np.uint8) @ _BIT_WEIGHTS


def seed_to_int(state: np.ndarray) -> int:
    return int(register_states(state))


def _recurrence(init, taps: tuple[int, ...], n: int) -> np.ndarray:
    """(rows, n) bits of a 7-bit linear recurrence, every row at once: bits
    0..6 are the row of the (rows, 7) init, bit k the XOR of bits k - t over taps."""
    e = np.zeros((len(init), n), dtype=np.uint8)
    e[:, :LFSR_LEN] = init
    for k in range(LFSR_LEN, n):
        for t in taps:
            e[:, k] ^= e[:, k - t]
    return e


@functools.lru_cache(maxsize=1)
def _period_table() -> np.ndarray:
    """(128, 127): row v is the first 127 output bits from register state v.

    r0 = LSB; the zero state is a fixed point and its row is all zeros.
    Run from r0..r6, the recurrence with taps (7, 4) holds the register
    before output k in bits k..k+6, so bit k + 7 is output k = r0 XOR r3.
    """
    e = _recurrence(_state_bits(), (7, 4), LFSR_LEN + PERIOD)
    t = np.ascontiguousarray(e[:, LFSR_LEN:])
    t.flags.writeable = False
    return t


def fill_by_phase(out: np.ndarray, table: np.ndarray, start: int) -> np.ndarray:
    """Fill (..., n) out from the (..., 127) per-phase table: entry m gets
    phase (start + m) mod 127.

    The head up to the end of the first period, then the whole periods by
    one broadcast assignment to a (..., periods, 127) view (splitting one
    axis is always a view), then the tail.
    """
    n = out.shape[-1]
    start %= PERIOD
    head = min(n, -start % PERIOD)
    reps, tail = divmod(n - head, PERIOD)
    out[..., :head] = table[..., start:start + head]
    out[..., head:n - tail].reshape(out.shape[:-1] + (reps, PERIOD))[...] = table[..., None, :]
    out[..., n - tail:] = table[..., :tail]
    return out


def register_outputs(states, n: int, start: int = 0) -> np.ndarray:
    """Output bits start .. start+n-1 of each register state, all at once.

    states holds register states as integers 0..127 (r0 = LSB), in any
    shape; the result has shape states.shape + (n,).
    """
    rows = _period_table()[np.asarray(states)]
    return fill_by_phase(np.empty(rows.shape[:-1] + (n,), dtype=np.uint8), rows, start)


def lfsr_run(state: np.ndarray, n: int) -> np.ndarray:
    """n successive output bits from an arbitrary register state.

    Accepts the all-zero state (fixed point: output stays zero), which a
    receiver can reach when it preloads hard pilot decisions.
    """
    return register_outputs(seed_to_int(state), n)


def scramble(seed: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """XOR a bit sequence with the seed's output sequence.

    Self-inverse: scramble(seed, scramble(seed, x)) == x.
    The seed must be nonzero, otherwise the output sequence is degenerate.
    """
    s = np.asarray(seed, dtype=np.uint8)
    if s.shape != (LFSR_LEN,):
        raise ValueError(f"seed must have shape ({LFSR_LEN},), got {s.shape}")
    if not s.any():
        raise ValueError("seed must be nonzero")
    x = np.asarray(bits, dtype=np.uint8)
    if x.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    return lfsr_run(s, x.size) ^ x


@functools.lru_cache(maxsize=32)
def _mask_matrix(L: int) -> np.ndarray:
    # column j: the outputs of unit state 1 << j, by linearity
    a = register_outputs(_BIT_WEIGHTS, L).T
    a.flags.writeable = False
    return a


def mask_matrix(L: int) -> np.ndarray:
    """(L, 7) GF(2) matrix A with scramble(seed, zeros(L)) == A @ seed mod 2:
    the pilots, an all-zero L-bit prefix, as combinations of the seed bits."""
    if L < LFSR_LEN:
        raise ValueError(f"L must be at least {LFSR_LEN}, got {L}")
    return _mask_matrix(L)
