import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssic.combine import ssic_combine
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
    for llrs in (np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"one packet's \(M,\) or a block's \(n, M\)"):
            ssic_combine({0: llrs})


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
    out = ssic_combine(dict(enumerate(np.moveaxis(block, 1, 0))))
    for b in range(5):
        copies = {k: block[b, k] for k in range(3)}
        assert np.array_equal(out[b], ssic_combine(copies))


def test_minus_zero_sums_to_plus_zero_in_a_packet_and_a_block():
    """The total starts as copy 0 + 0.0, so an all -0.0 bit sums to +0.0, as
    in a zero total, and a copy is never written."""
    block = np.zeros((3, 2, 4))
    block[:, :, :2] = -0.0
    block[:, :, 2:] = [LLR_MAX, -LLR_MAX]
    before = block.tobytes()
    total = ssic_combine(dict(enumerate(block)))
    assert not np.signbit(total[:, :2]).any()
    assert total[:, 2:].tolist() == [[LLR_MAX, -LLR_MAX]] * 2
    assert not np.signbit(ssic_combine({0: block[0, 0]})[:2]).any()
    assert block.tobytes() == before and not np.shares_memory(total, block)


def test_ssic_combine_refuses_no_copies_and_copies_of_two_shapes():
    for copies in ({}, dict(enumerate(np.zeros((0, 4)))), {0: np.ones(5), 1: np.ones(1)},
                   {0: np.ones((2, 3)), 1: np.ones(3)}):
        with pytest.raises(ValueError, match="at least one copy of LLRs, every copy of one shape"):
            ssic_combine(copies)


LLR_EDGES = [0.0, -0.0, LLR_MAX, -LLR_MAX]


def block_copies(K, n, M, infinity):
    """K copies of an (n, M) block whose entries include +-0.0, +-LLR_MAX and
    infinity, one sign of it, so no bit sums to NaN."""
    edges = st.sampled_from(LLR_EDGES + [infinity])
    return hnp.arrays(np.float64, (K, n, M), elements=edges | st.floats(-30, 30))


def old_block_sum(rows):
    """The sweeps' former block sum: row 0 + 0.0, += each further row, clip."""
    total = np.add(rows[0], 0.0)
    for r in rows[1:]:
        total += r
    return np.clip(total, -LLR_MAX, LLR_MAX, out=total)


@given(K=st.integers(1, 5), n=st.integers(1, 4), M=st.integers(0, 9),
       infinity=st.sampled_from([np.inf, -np.inf]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_block_sum_equals_its_rows_and_the_old_block_sum(K, n, M, infinity, data):
    rows = data.draw(block_copies(K, n, M, infinity))
    total = ssic_combine(dict(enumerate(rows)))
    per_row = np.stack([ssic_combine(dict(enumerate(rows[:, i]))) for i in range(n)])
    assert total.shape == (n, M) and total.dtype == np.float64
    assert total.tobytes() == per_row.tobytes()
    assert total.tobytes() == old_block_sum(rows).tobytes()


@given(K=st.integers(2, 5), n=st.integers(1, 4), M=st.integers(1, 9), data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_with_plus_and_minus_inf_at_one_bit_is_refused(K, n, M, data):
    rows = data.draw(block_copies(K, n, M, np.inf))
    i, m = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, M - 1))
    a, b = data.draw(st.lists(st.integers(0, K - 1), min_size=2, max_size=2, unique=True))
    rows[a, i, m], rows[b, i, m] = np.inf, -np.inf
    with pytest.raises(ValueError, match="sum to NaN"):
        ssic_combine(dict(enumerate(rows)))
