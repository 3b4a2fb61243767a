"""7-bit self-synchronizing scrambler (x^7 + x^4 + 1) and its linear pilot structure.

The scrambler register is a length-7 vector (r0..r6).  Each step outputs
z = r0 XOR r3, shifts the register one place toward index 0, and feeds z
back into r6.  Seeded with any nonzero state it walks the full 127-state
cycle, so the output is an m-sequence of period 127.

Because the register is linear, every scrambling bit is a fixed GF(2)
combination of the seed bits.  mask_matrix(L) gives those combinations for
an L-bit all-zero pilot prefix: row i of the matrix, dotted with the seed
over GF(2), is pilot output i.
"""

from __future__ import annotations

import functools

import numpy as np

LFSR_LEN = 7
PERIOD = 127  # 2**7 - 1


def lfsr_step(state: np.ndarray) -> tuple[int, np.ndarray]:
    """One register update.  Returns (output bit, next state)."""
    s = np.asarray(state, dtype=np.uint8)
    if s.shape != (LFSR_LEN,):
        raise ValueError(f"state must have shape ({LFSR_LEN},), got {s.shape}")
    z = int(s[0] ^ s[3])
    nxt = np.empty(LFSR_LEN, dtype=np.uint8)
    nxt[:-1] = s[1:]
    nxt[-1] = z
    return z, nxt


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


def all_seeds() -> np.ndarray:
    """All 127 nonzero seeds as a (127, 7) bit matrix, row i = seed i+1."""
    return _state_bits()[1:].copy()


@functools.lru_cache(maxsize=1)
def _period_table() -> np.ndarray:
    """(128, 127): row v is the first 127 output bits from register state v.

    r0 = LSB; the zero state is a fixed point and its row is all zeros.
    """
    rows = []
    for v in range(1 << LFSR_LEN):
        s = [(v >> j) & 1 for j in range(LFSR_LEN)]
        out = []
        for _ in range(PERIOD):
            z = s[0] ^ s[3]
            out.append(z)
            s = s[1:] + [z]
        rows.append(out)
    t = np.array(rows, dtype=np.uint8)
    t.flags.writeable = False
    return t


def periodic_extend(rows: np.ndarray, start: int, n: int) -> np.ndarray:
    """Entries start .. start+n-1 of rows (..., 127) repeated with period 127."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    start %= PERIOD
    reps = -(-(start + n) // PERIOD)  # ceil
    out = np.empty(rows.shape[:-1] + (reps, PERIOD), dtype=rows.dtype)
    out[...] = rows[..., None, :]
    return out.reshape(rows.shape[:-1] + (reps * PERIOD,))[..., start:start + n]


def register_outputs(states, n: int, start: int = 0) -> np.ndarray:
    """Output bits start .. start+n-1 of each register state, all at once.

    states holds register states as integers 0..127 (r0 = LSB), in any
    shape; the result has shape states.shape + (n,).
    """
    return periodic_extend(_period_table()[np.asarray(states)], start, n)


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


def make_pilots(seed: np.ndarray, L: int) -> np.ndarray:
    """Scrambler output over an all-zero L-bit prefix (L >= 7).

    Pilot bit i equals output bit i of the seeded register, so the pilots
    expose the seed through known linear combinations.  After emitting 7
    pilots the register state equals those 7 bits, which is what lets a
    receiver resynchronize from hard pilot decisions.
    """
    if L < LFSR_LEN:
        raise ValueError(f"L must be at least {LFSR_LEN}, got {L}")
    return scramble(seed, np.zeros(L, dtype=np.uint8))


@functools.lru_cache(maxsize=32)
def _mask_matrix(L: int) -> np.ndarray:
    # Index-set recurrence: track which seed bits each output depends on.
    # Initialize the 7 virtual outputs before the pilot block as the seed
    # bits themselves, then every later output is the XOR of the outputs
    # 7 and 4 steps back.
    sets: dict[int, frozenset[int]] = {
        -(L + LFSR_LEN) + j: frozenset([j]) for j in range(LFSR_LEN)
    }
    a = np.zeros((L, LFSR_LEN), dtype=np.uint8)
    for m in range(-L, 0):
        sm = sets[m - 7] ^ sets[m - 4]
        sets[m] = sm
        a[m + L, list(sm)] = 1
    a.flags.writeable = False
    return a


def mask_matrix(L: int) -> np.ndarray:
    """(L, 7) GF(2) matrix A with make_pilots(seed, L) == A @ seed mod 2."""
    if L < LFSR_LEN:
        raise ValueError(f"L must be at least {LFSR_LEN}, got {L}")
    return _mask_matrix(L)
