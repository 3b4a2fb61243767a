"""The first draws of each numpy Generator call the chain makes, pinned.

The byte contract is "the same CSV bytes for the same numpy Generator
streams": NEP 19 does not promise that a stream stays the same across numpy
versions.  When one changes, the golden CSVs fail without saying which draw
moved; the case here named after the call fails with them.  Every case draws
from the generator the sweeps make for a grid point (sweeps._point_rng, a
PCG64 seeded by SeedSequence([rng_seed, grid point])), here rng_seed 2024's
point 1.  Floats are compared exactly: a repr round-trips a double.
"""

import numpy as np
import pytest

from ssic.sweeps import SweepSpec, _point_rng

_SPEC = SweepSpec("seed_ber", [0.0, 1.0], rng_seed=2024)


def _standard_normal_out(rng: np.random.Generator) -> list[float]:
    out = np.empty(4)
    rng.standard_normal(out=out)
    return out.tolist()


# call as the chain makes it -> (draws, what they are)
CANARY = {
    # the seeding itself: SeedSequence into PCG64's raw 64-bit outputs
    "SeedSequence-PCG64": (lambda rng: rng.bit_generator.random_raw(2).tolist(),
                           [1694048243507862994, 1601822318768256063]),
    # a frame's scrambler seed (channel.fresh_seed, the sweeps' seeds)
    "integers(1, 128)": (lambda rng: [int(rng.integers(1, 128)) for _ in range(8)],
                         [117, 12, 64, 12, 57, 114, 98, 37]),
    # a burst window's start in a word of n = 16 + 8 * 1500 + 496 LLRs
    "integers(0, n)": (lambda rng: [int(rng.integers(0, 12512)) for _ in range(4)],
                       [11469, 1149, 6230, 1086]),
    # a sweep trial's payload bits
    "integers(0, 2, M, uint8)": (
        lambda rng: rng.integers(0, 2, 40, dtype=np.uint8).tolist(),
        [1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0,
         0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]),
    # a netsim packet's payload bytes
    "integers(0, 256, n, uint8)": (
        lambda rng: rng.integers(0, 256, 16, dtype=np.uint8).tolist(),
        [210, 29, 169, 234, 230, 119, 130, 23, 63, 116, 121, 127, 233, 208, 58, 22]),
    # the sweeps' channel noise, drawn into a block row
    "standard_normal(out=)": (
        _standard_normal_out,
        [-1.6249252186611123, 0.7562501226204087, 0.22615960248460446, 0.5994273311704638]),
    # transmit's and soft_copy's channel noise: the same stream
    "standard_normal(n)": (
        lambda rng: rng.standard_normal(4).tolist(),
        [-1.6249252186611123, 0.7562501226204087, 0.22615960248460446, 0.5994273311704638]),
    # detection loss, the burst draw and a copy's arrival jitter
    "random()": (lambda rng: [rng.random() for _ in range(4)],
                 [0.09183453929532381, 0.08683496189721551, 0.8939972118108674,
                  0.29024044465477805]),
    # a burst window's length at the default burst_len_mean of 64
    "geometric": (lambda rng: [int(rng.geometric(1.0 / 64.0)) for _ in range(6)],
                  [15, 10, 22, 9, 19, 143]),
}


@pytest.mark.parametrize("call", CANARY)
def test_the_first_draws_of_each_generator_call_are_pinned(call):
    draw, want = CANARY[call]
    got = draw(_point_rng(_SPEC, 1))
    assert got == want, f"numpy {np.__version__} moved the stream of {call}"
