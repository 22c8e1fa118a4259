import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senserate.bitstream import (
    BitStream,
    substream,
    substream_seed,
    substream_seeds_np,
)


def test_same_seed_same_bits():
    a = BitStream(7)
    b = BitStream(7)
    assert a.bit(0) == b.bit(0)
    va, _ = a.take(128)
    vb, _ = b.take(128)
    assert np.array_equal(va, vb)


def test_distinct_seeds_differ_in_first_64_bits():
    # the first 64 bits are one bijective mix of the seed, so distinct seeds
    # cannot collide on that prefix
    a, _ = BitStream(7).take(64)
    b, _ = BitStream(8).take(64)
    assert not np.array_equal(a, b)


def test_zero_seed_is_valid():
    bits, rest = BitStream(0).take(64)
    assert bits.shape == (64,)
    assert rest.cursor == 64
    assert set(np.unique(bits)) <= {0, 1}


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitStream(1 << 64)
    with pytest.raises(ValueError):
        BitStream(-1)


def test_take_zero_is_identity():
    s = BitStream(3)
    bits, rest = s.take(0)
    assert bits.size == 0
    assert rest == s


def test_take_advances_cursor():
    s = BitStream(11)
    _, s3 = s.take(3)
    two, _ = s3.take(2)
    all5, _ = s.take(5)
    assert np.array_equal(two, all5[3:5])


def test_take_is_value_semantic():
    s = BitStream(5)
    first, _ = s.take(5)
    second, _ = s.take(5)
    assert np.array_equal(first, second)


def test_take_negative_rejected():
    with pytest.raises(ValueError):
        BitStream(1).take(-1)


def test_bit_matches_take():
    s = BitStream(99)
    bits, _ = s.take(200)
    assert [s.bit(i) for i in range(200)] == bits.tolist()


def test_split_even_odd_index_mapping():
    for seed in range(10):
        parent = BitStream(seed)
        even, odd = parent.split_even_odd()
        pbits, _ = parent.take(256)
        ebits, _ = even.take(128)
        obits, _ = odd.take(128)
        assert np.array_equal(pbits[0::2], ebits)
        assert np.array_equal(pbits[1::2], obits)


def test_split_of_split_reads_stride_four():
    parent = BitStream(21)
    even, _ = parent.split_even_odd()
    inner, _ = even.split_even_odd()
    pbits, _ = parent.take(64)
    ibits, _ = inner.take(16)
    assert np.array_equal(pbits[0::4], ibits)


def test_split_after_consumption_starts_at_cursor():
    parent = BitStream(13)
    _, advanced = parent.take(6)
    even, _ = advanced.split_even_odd()
    pbits, _ = parent.take(20)
    ebits, _ = even.take(7)
    assert np.array_equal(pbits[6::2], ebits)


def test_interleave_reconstructs_parent():
    for seed in range(10):
        parent = BitStream(seed)
        even, odd = parent.split_even_odd()
        merged = np.empty(256, dtype=np.uint8)
        merged[0::2], _ = even.take(128)
        merged[1::2], _ = odd.take(128)
        pbits, _ = parent.take(256)
        assert np.array_equal(merged, pbits)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    k=st.integers(min_value=0, max_value=500),
    j=st.integers(min_value=0, max_value=500),
)
def test_split_halves_consume_disjoint_parent_indices(seed, k, j):
    parent = BitStream(seed)
    even, odd = parent.split_even_odd()
    # root index of even bit k is 2k, of odd bit j is 2j+1: never equal,
    # and each equals the corresponding parent bit
    assert even.bit(k) == parent.bit(2 * k)
    assert odd.bit(j) == parent.bit(2 * j + 1)


def test_reproducibility_long_prefix():
    for seed in (0, 1, 42, (1 << 64) - 1):
        a, _ = BitStream(seed).take(10_000)
        b, _ = BitStream(seed).take(10_000)
        assert np.array_equal(a, b)


def test_ones_fraction_near_half():
    # binomial 3-sigma band at 1e5 bits is +-0.0047
    for seed in (0, 1, 2, 42):
        bits, _ = BitStream(seed).take(100_000)
        assert 0.49 <= bits.mean() <= 0.51


def test_substream_scalar_vector_agree():
    seeds = substream_seeds_np(42, np.arange(100, dtype=np.uint64))
    assert [substream_seed(42, i) for i in range(100)] == [int(s) for s in seeds]


def test_substream_is_a_plain_stream():
    s = substream(42, 3)
    assert isinstance(s, BitStream)
    assert s.seed == substream_seed(42, 3)
    assert s.cursor == 0


def test_substreams_differ_across_indices():
    seen = {substream_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
