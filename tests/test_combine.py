import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssic.combine import combine_streams, ssic_combine
from ssic.softbits import LLR_MAX, hard_decide


def test_golden_small_sum():
    out = ssic_combine({0: np.array([1.0, -2.0, 15.0, -15.0]),
                        1: np.array([2.0, -3.0, 10.0, 3.0])})
    assert out.tolist() == [3.0, -5.0, 20.0, -12.0]  # third entry clamped


def test_single_copy_is_clamped_passthrough():
    assert ssic_combine({4: np.array([25.0, -0.5])}).tolist() == [20.0, -0.5]


@given(
    n=st.integers(0, 30),
    k=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_sum_matches_numpy_and_is_order_invariant(n, k, data):
    arrs = [
        np.array(data.draw(st.lists(st.floats(-30, 30, allow_nan=False),
                                    min_size=n, max_size=n)))
        for _ in range(k)
    ]
    copies = dict(enumerate(arrs))
    out = ssic_combine(copies)
    want = np.clip(np.sum(arrs, axis=0) if n else np.zeros(0), -LLR_MAX, LLR_MAX)
    np.testing.assert_allclose(out, want, atol=1e-12)
    rev = ssic_combine(dict(reversed(copies.items())))
    np.testing.assert_allclose(out, rev, atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        ssic_combine({})
    with pytest.raises(ValueError):
        ssic_combine({0: np.zeros(3), 1: np.zeros(4)})
    with pytest.raises(ValueError, match="one-dimensional"):
        ssic_combine({0: np.zeros((2, 2))})


def test_ssic_combine_refuses_nan():
    with pytest.raises(ValueError, match="sum to NaN"):
        ssic_combine({0: [np.nan, 1.0], 1: [5.0, 1.0]})
    # inf + -inf is NaN, which no clamp removes: refused by name, without the
    # RuntimeWarning numpy raises for it (an error in this suite)
    with pytest.raises(ValueError, match=r"\+inf and -inf"):
        ssic_combine({0: [np.inf, 1.0], 1: [-np.inf, 2.0]})
    # infinities of one sign are summed and clamped as before
    assert ssic_combine({0: [np.inf, 1.0]}).tolist() == [LLR_MAX, 1.0]


def test_majority_wins_with_equal_magnitudes():
    # two clean copies outvote one flipped copy
    good = np.array([8.0, -8.0, 8.0])
    copies = {0: good, 1: good, 2: -good}
    assert hard_decide(ssic_combine(copies)).tolist() == [0, 1, 0]


def test_block_combine_equals_ssic_combine_per_packet():
    rng = np.random.default_rng(6)
    block = np.clip(rng.normal(0.0, 8.0, (5, 3, 200)), -LLR_MAX, LLR_MAX)
    out = combine_streams(np.moveaxis(block, 1, 0))
    for b in range(5):
        copies = {k: block[b, k] for k in range(3)}
        assert np.array_equal(out[b], ssic_combine(copies))


def test_block_combine_into_out_equals_a_fresh_total():
    """out= is zeroed before the streams are added, so stale contents never
    leak in and a -0.0 LLR sums to +0.0, as in a fresh total."""
    rng = np.random.default_rng(7)
    block = np.clip(rng.normal(0.0, 8.0, (5, 3, 200)), -LLR_MAX, LLR_MAX)
    block[:, :, :4] = [0.0, -0.0, LLR_MAX, -LLR_MAX]
    out = np.full((8, 200), np.nan)
    got = combine_streams(np.moveaxis(block, 1, 0), out=out[:5])
    assert np.shares_memory(got, out)
    assert out[:5].tobytes() == combine_streams(np.moveaxis(block, 1, 0)).tobytes()
    assert not np.signbit(out[:5, :2]).any() and np.isnan(out[5:]).all()


def test_combine_streams_refuses_no_rows_and_rows_of_two_shapes():
    for rows in ([], np.zeros((0, 4)), [np.ones(5), np.ones(1)], [np.ones((2, 3)), np.ones(3)]):
        with pytest.raises(ValueError, match="at least one row of LLRs, every row of one shape"):
            combine_streams(rows)
    out = np.full(5, np.nan)
    with pytest.raises(ValueError):  # refused before out is written
        combine_streams([np.ones(5), np.ones(5), np.ones(1)], out=out)
    assert np.isnan(out).all()
