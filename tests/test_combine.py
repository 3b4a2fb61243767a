import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssic.combine import StreamSoftCopy, combine_streams, decide, ssic_combine
from ssic.softbits import LLR_MAX, hard_decide


def test_golden_small_sum():
    a = StreamSoftCopy(0, np.array([1.0, -2.0, 15.0, -15.0]))
    b = StreamSoftCopy(1, np.array([2.0, -3.0, 10.0, 3.0]))
    out = ssic_combine([a, b])
    assert out.tolist() == [3.0, -5.0, 20.0, -12.0]  # third entry clamped


def test_single_copy_is_clamped_passthrough():
    c = StreamSoftCopy(4, np.array([25.0, -0.5]))
    assert ssic_combine([c]).tolist() == [20.0, -0.5]


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
    copies = [StreamSoftCopy(i, a) for i, a in enumerate(arrs)]
    out = ssic_combine(copies)
    want = np.clip(np.sum(arrs, axis=0) if n else np.zeros(0), -LLR_MAX, LLR_MAX)
    np.testing.assert_allclose(out, want, atol=1e-12)
    rev = ssic_combine(list(reversed(copies)))
    np.testing.assert_allclose(out, rev, atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        ssic_combine([])
    with pytest.raises(ValueError):
        ssic_combine([StreamSoftCopy(0, np.zeros(3)), StreamSoftCopy(1, np.zeros(4))])
    with pytest.raises(ValueError):
        ssic_combine([StreamSoftCopy(0, np.zeros(3)), StreamSoftCopy(0, np.zeros(3))])
    with pytest.raises(ValueError):
        StreamSoftCopy(0, np.zeros((2, 2)))


def test_stream_soft_copy_refuses_nan():
    with pytest.raises(ValueError, match="llrs must hold no NaN"):
        ssic_combine([StreamSoftCopy(0, [np.nan, 1.0]), StreamSoftCopy(1, [5.0, 1.0])])
    # infinities are summed and clamped as before
    assert ssic_combine([StreamSoftCopy(0, [np.inf, 1.0])]).tolist() == [LLR_MAX, 1.0]


def test_majority_wins_with_equal_magnitudes():
    # two clean copies outvote one flipped copy
    good = np.array([8.0, -8.0, 8.0])
    copies = [StreamSoftCopy(0, good), StreamSoftCopy(1, good),
              StreamSoftCopy(2, -good)]
    assert decide(ssic_combine(copies)).tolist() == [0, 1, 0]


def test_decide_is_sign_rule():
    l = np.array([0.0, -0.0, 5.0, -5.0])
    assert np.array_equal(decide(l), hard_decide(l))
    assert decide(l).tolist() == [0, 0, 0, 1]


def test_block_combine_equals_ssic_combine_per_packet():
    rng = np.random.default_rng(6)
    block = np.clip(rng.normal(0.0, 8.0, (5, 3, 200)), -LLR_MAX, LLR_MAX)
    out = combine_streams(np.moveaxis(block, 1, 0))
    for b in range(5):
        copies = [StreamSoftCopy(k, block[b, k]) for k in range(3)]
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
