"""7-bit self-synchronizing scrambler (x^7 + x^4 + 1) and its linear pilot structure.

The scrambler register is a length-7 vector (r0..r6).  Each step outputs
z = r0 XOR r3, shifts the register one place toward index 0, and feeds z
back into r6.  Seeded with any nonzero state it walks the full 127-state
cycle, so the output is an m-sequence of period 127.

One table holds what every register state outputs: row v of the period
table, _PERIOD_TABLE, is one output period of state v, the 7-bit linear
recurrence z[k] = z[k-7] XOR z[k-4] run from all 128 states at once
(_recurrence, which with other taps builds vcframe's header codewords
too).  Every other table derives from it.  Output n of a state is phase
n mod 127 of its row (fill_by_phase), and the register is linear, so
every scrambling bit is a fixed GF(2) combination of the seed bits:
mask_matrix(L) gives those combinations for an L-bit all-zero pilot
prefix, its column j being the outputs of unit state 1 << j.  The fixed
tables are read-only module constants, built at import (_read_only).
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

LFSR_LEN = 7
PERIOD = 127  # 2**7 - 1


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: every fixed table is shared by all its callers."""
    a.flags.writeable = False
    return a


_BIT_WEIGHTS = _read_only(1 << np.arange(LFSR_LEN))
# (128, 7): row v is register state v as bits, r0 = LSB
_STATE_BITS = _read_only(
    ((np.arange(1 << LFSR_LEN)[:, None] >> np.arange(LFSR_LEN)) & 1).astype(np.uint8))


def is_int(v) -> bool:
    """v is an integer, Python's or numpy's, and not a bool: the one rule for
    a count, a size or an index given as a number."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """v is a number, an integer (is_int) or a float, and not a bool; an
    integer beyond a double's range would overflow where the value is used."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and not (is_int(v) and abs(v) > sys.float_info.max))


def check_pilot_len(L) -> None:
    """Raises a ValueError naming L, a pilot count, unless it is an integer of
    at least 7, the pilots that pin the register."""
    if not is_int(L):
        raise ValueError(f"L must be an integer, got {L!r}")
    if L < LFSR_LEN:
        raise ValueError(f"L must be at least {LFSR_LEN}, got {L}")


def seed_from_int(v: int) -> np.ndarray:
    """7-bit register state from an integer 0..127 (a bool is refused), r0 = LSB."""
    if not is_int(v) or not 0 <= v <= 127:
        raise ValueError(f"seed must be an integer 0..127, got {v!r}")
    return _STATE_BITS[v].copy()


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


# (128, 127): row v is the first 127 output bits from register state v.
# r0 = LSB; the zero state is a fixed point and its row is all zeros.  Run
# from r0..r6, the recurrence with taps (7, 4) holds the register before
# output k in bits k..k+6, so bit k + 7 is output k = r0 XOR r3.
_PERIOD_TABLE = _read_only(np.ascontiguousarray(
    _recurrence(_STATE_BITS, (7, 4), LFSR_LEN + PERIOD)[:, LFSR_LEN:]))


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
    rows = _PERIOD_TABLE[np.asarray(states)]
    return fill_by_phase(np.empty(rows.shape[:-1] + (n,), dtype=np.uint8), rows, start)


def lfsr_run(state: np.ndarray, n: int) -> np.ndarray:
    """n successive output bits from an arbitrary register state.

    Accepts the all-zero state (fixed point: output stays zero), which a
    receiver can reach when it preloads hard pilot decisions.
    """
    return register_outputs(seed_to_int(_checked_seed(state, "state", allow_zero=True)), n)


def checked_bits(x, name: str, one_dim: bool = True) -> np.ndarray:
    """x as a uint8 array; raises a ValueError naming it unless every entry
    is exactly 0 or 1 and, with one_dim, x is one-dimensional.  The values
    are checked before the cast, so -1, 0.5 and 256 are refused rather than
    wrapped or truncated; a uint8 array, the common case, costs one max."""
    a = np.asarray(x)
    if one_dim and a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not (a.max(initial=0) <= 1 if a.dtype == np.uint8 else ((a == 0) | (a == 1)).all()):
        raise ValueError(f"{name} must hold only 0s and 1s")
    return a.astype(np.uint8, copy=False)


def _checked_seed(seed, name: str = "seed", allow_zero: bool = False) -> np.ndarray:
    """seed as uint8 register bits; raises naming it unless it is a (7,) bit
    vector and, unless allow_zero, nonzero: the only kind of transmit seed
    whose output sequence is not degenerate."""
    s = checked_bits(seed, name)
    if s.shape != (LFSR_LEN,):
        raise ValueError(f"{name} must have shape ({LFSR_LEN},), got {s.shape}")
    if not (allow_zero or s.any()):
        raise ValueError(f"{name} must be nonzero")
    return s


def scramble(seed: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """XOR a bit sequence with the seed's output sequence.

    Self-inverse: scramble(seed, scramble(seed, x)) == x.
    The seed must be nonzero (_checked_seed).
    """
    s = _checked_seed(seed)
    x = checked_bits(bits, "bits")
    return register_outputs(seed_to_int(s), x.size) ^ x


def mask_matrix(L: int) -> np.ndarray:
    """(L, 7) GF(2) matrix A with scramble(seed, zeros(L)) == A @ seed mod 2:
    the pilots, an all-zero L-bit prefix, as combinations of the seed bits."""
    check_pilot_len(L)
    # column j: the outputs of unit state 1 << j, by linearity
    return _read_only(register_outputs(_BIT_WEIGHTS, L).T)
