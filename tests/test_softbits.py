import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssic.softbits import LLR_MAX, SoftWord, clamp_llrs, hard_decide

from oracles import flip_by_mask

finite_llrs = hnp.arrays(
    np.float64,
    st.integers(0, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


@given(finite_llrs)
@settings(max_examples=60, deadline=None)
def test_clamp_bounds_and_identity_inside(l):
    c = clamp_llrs(l)
    assert np.all(np.abs(c) <= LLR_MAX)
    inside = np.abs(l) <= LLR_MAX
    assert np.array_equal(c[inside], l[inside])


def test_hard_decide_sign_convention():
    out = hard_decide(np.array([3.0, -0.5, 0.0, -0.0, 1e-12]))
    assert out.tolist() == [0, 1, 0, 0, 0]
    assert out.dtype == np.uint8


@given(finite_llrs)
@settings(max_examples=60, deadline=None)
def test_flip_by_mask_involution_and_magnitude(l):
    z = (np.arange(l.size) % 2).astype(np.uint8)
    f = flip_by_mask(l, z)
    assert np.array_equal(flip_by_mask(f, z), l)
    assert np.array_equal(np.abs(f), np.abs(l))
    nz = l != 0  # an exact zero is an erasure; its hard decision is arbitrary
    assert np.array_equal(hard_decide(f)[nz], (hard_decide(l) ^ z)[nz])


def test_flip_by_mask_rejects_length_mismatch():
    with pytest.raises(ValueError):
        flip_by_mask(np.zeros(3), np.zeros(4, dtype=np.uint8))


def test_softword_clamps_and_validates():
    w = SoftWord(pilots=np.full(9, 99.0), payload=np.array([-50.0, 2.0]))
    assert np.all(w.pilots == LLR_MAX)
    assert w.payload.tolist() == [-LLR_MAX, 2.0]
    assert w.L == 9 and w.M == 2
    with pytest.raises(ValueError):
        SoftWord(pilots=np.zeros(6))
    with pytest.raises(ValueError):
        SoftWord(pilots=np.zeros((2, 7)))


def test_softword_payload_defaults_empty():
    w = SoftWord(pilots=np.zeros(7))
    assert w.M == 0
