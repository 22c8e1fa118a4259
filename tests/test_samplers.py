import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senserate.bitstream import BitStream, substream
from senserate.cdf import BLOCK_PAIRS
from senserate.samplers import (
    GaussianPair,
    RvPairSpec,
    _transform_pair,
    box_muller,
    draw_indices,
    gaussian_pair,
    sample_many,
    std_unif_pair,
)

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def expansion_oracle(bits) -> float:
    """Independent evaluation of the truncated binary expansion."""
    return sum(b * 0.5 ** (k + 1) for k, b in enumerate(bits))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=53))
def test_uniform_matches_expansion_oracle(seed, n):
    # the pair's components expand the parent's even and odd bits
    stream = BitStream(seed)
    bits, _ = stream.take(2 * n)
    u1, u2 = std_unif_pair(stream, n)
    assert u1 == expansion_oracle(bits[0::2].tolist())
    assert u2 == expansion_oracle(bits[1::2].tolist())


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=53))
def test_uniform_is_dyadic_in_range(seed, n):
    for value in std_unif_pair(BitStream(seed), n):
        assert 0.0 <= value <= 1.0 - 0.5**n
        scaled = value * 2.0**n
        assert scaled == int(scaled)


def test_uniform_known_patterns():
    # direct expansions: first bit weighs 1/2
    assert expansion_oracle([0, 0, 0, 0]) == 0.0
    assert expansion_oracle([1, 1, 1, 1]) == 1.0 - 2.0**-4
    assert expansion_oracle([1, 0, 1]) == 0.625


def test_depth_out_of_range_rejected():
    for n in (0, -1, 54):
        with pytest.raises(ValueError):
            std_unif_pair(BitStream(1), n)


def test_deepening_refines_monotonically():
    # a deeper expansion of the same bits only adds terms below 2**-20
    idx = np.arange(100, dtype=np.uint64)
    v20, v36, v52 = (
        np.concatenate(draw_indices(RvPairSpec.standard_uniform(n), 17, idx))
        for n in (20, 36, 52)
    )
    assert np.all(v20 <= v36) and np.all(v36 <= v52)
    assert np.all(v52 - v20 < 2.0**-20)


def _with_uniforms(spec, seed, count=1000):
    """Draws under ``spec`` and the standard uniforms they were mapped from."""
    x = sample_many(spec, count, seed)
    u = sample_many(RvPairSpec.standard_uniform(), count, seed)
    return np.concatenate((x.x1, x.x2)), np.concatenate((u.x1, u.x2))


def test_uniform_rv_affine():
    for a, b in ((0.0, 1.0), (-2.0, 2.0), (3.0, 7.0)):
        x, u = _with_uniforms(RvPairSpec.uniform(a, b), 23)
        assert np.array_equal(x, (b - a) * u + a)
        assert np.all((a <= x) & (x < b))


def test_exponential_inverts_its_cdf():
    for rate in (0.5, 1.0, 2.0):
        x, u = _with_uniforms(RvPairSpec.exponential(rate), 29)
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(1.0 - np.exp(-rate * x), u, rtol=0.0, atol=1e-12)


def test_rayleigh_inverts_its_cdf():
    for scale in (0.5, 1.0, 3.0):
        x, u = _with_uniforms(RvPairSpec.rayleigh(scale), 31)
        assert np.all(x >= 0.0)
        cdf = 1.0 - np.exp(-x * x / (2.0 * scale * scale))
        np.testing.assert_allclose(cdf, u, rtol=0.0, atol=1e-12)


def test_triangular_inverts_its_cdf():
    lo, hi = -1.0, 5.0
    for seed in (37, 41, 43):
        x, u = _with_uniforms(RvPairSpec.triangular(lo, hi), seed)
        assert np.all((lo <= x) & (x <= hi))
        cdf = np.where(
            x <= 0.5 * (lo + hi),
            2.0 * ((x - lo) / (hi - lo)) ** 2,
            1.0 - 2.0 * ((hi - x) / (hi - lo)) ** 2,
        )
        np.testing.assert_allclose(cdf, u, rtol=0.0, atol=1e-12)


def test_pair_correlation_small():
    pairs = sample_many(RvPairSpec.standard_uniform(), 100_000, 42)
    corr = np.corrcoef(pairs.x1, pairs.x2)[0, 1]
    assert abs(corr) <= 0.01


def test_box_muller_point_cases():
    g1, g2 = box_muller(1.0, 0.0)
    assert (g1, g2) == (0.0, 0.0)
    g1, g2 = box_muller(math.exp(-0.5), 0.0)
    assert math.isclose(g1, 1.0, abs_tol=1e-12)
    assert math.isclose(g2, 0.0, abs_tol=1e-12)
    g1, g2 = box_muller(math.exp(-2.0), 0.25)
    assert math.isclose(g1, 0.0, abs_tol=1e-12)
    assert math.isclose(g2, 2.0, abs_tol=1e-12)


def test_std_gaussian_radius_bound():
    # radius cannot exceed sqrt(2 n ln 2) because u1' >= 2^-n
    bound = math.sqrt(2.0 * 52 * math.log(2.0)) + 1e-9
    for seed in range(200):
        pair = gaussian_pair(0.0, 1.0, BitStream(seed))
        assert math.hypot(pair.g1, pair.g2) <= bound


def test_gaussian_pair_is_exact_affine_of_standard():
    for seed in (1, 7, 123):
        std = gaussian_pair(0.0, 1.0, BitStream(seed))
        shifted = gaussian_pair(5.0, 2.0, BitStream(seed))
        assert shifted.g1 == 5.0 + 2.0 * std.g1
        assert shifted.g2 == 5.0 + 2.0 * std.g2


def test_gaussian_pair_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_pair(0.0, 0.0, BitStream(1))
    with pytest.raises(ValueError):
        gaussian_pair(0.0, -1.0, BitStream(1))


def test_gaussian_sample_mean_band():
    # 3 sigma / sqrt(1e5) of a sigma=0.5 gaussian is about 0.0047
    pairs = sample_many(RvPairSpec.gaussian(-1.0, 0.5), 100_000, 42)
    assert abs(pairs.x1.mean() + 1.0) <= 0.005


def test_sample_many_single_equals_direct_draw():
    cases = [
        RvPairSpec.standard_uniform(),
        RvPairSpec.gaussian(2.0, 0.7),
        RvPairSpec.uniform(-1.0, 4.0),
        RvPairSpec.exponential(1.3),
        RvPairSpec.rayleigh(0.8),
        RvPairSpec.triangular(0.0, 2.0),
    ]
    for spec in cases:
        batch = sample_many(spec, 1, 42)
        x1, x2 = _transform_pair(spec, *std_unif_pair(substream(42, 0)))
        assert (batch.x1[0], batch.x2[0]) == (x1, x2), spec.kind


def test_sample_many_batch_matches_per_index_scalar_draws():
    batch = sample_many(RvPairSpec.gaussian(0.0, 1.0), 64, 7)
    for i in range(64):
        direct = gaussian_pair(0.0, 1.0, substream(7, i))
        assert batch.x1[i] == direct.g1
        assert batch.x2[i] == direct.g2


def test_draw_indices_matches_scalar_pairs_at_every_depth():
    # depths 32 and 33 straddle the second word of each stream
    seed = 0xDEADBEEF
    indices = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
               1 << 16, (1 << 16) + 1, 1 << 32, (1 << 40) + 7, (1 << 62) - 1,
               (1 << 63) + 12345, (1 << 64) - 2, (1 << 64) - 1]
    idx = np.array(indices, dtype=np.uint64)
    for n in range(1, 54):
        x1, x2 = draw_indices(RvPairSpec.standard_uniform(n), seed, idx)
        for k, i in enumerate(indices):
            u1, u2 = std_unif_pair(substream(seed, i), n)
            assert (x1[k], x2[k]) == (u1, u2), (n, i)


def _draws_in_small_calls(spec, seed, idx, size=1000):
    """Reference draws from calls shorter than one block."""
    parts = [draw_indices(spec, seed, idx[s : s + size]) for s in range(0, len(idx), size)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def test_draw_indices_is_unchanged_across_block_boundaries():
    spec = RvPairSpec.gaussian(0.5, 2.0)
    seed = 11
    longest = np.arange(3 * BLOCK_PAIRS + 5, dtype=np.uint64)
    ref1, ref2 = _draws_in_small_calls(spec, seed, longest)
    for size in (BLOCK_PAIRS - 1, BLOCK_PAIRS, BLOCK_PAIRS + 1, 3 * BLOCK_PAIRS + 5):
        x1, x2 = draw_indices(spec, seed, longest[:size])
        assert np.array_equal(x1, ref1[:size]) and np.array_equal(x2, ref2[:size]), size
    for i in (BLOCK_PAIRS - 1, BLOCK_PAIRS, 2 * BLOCK_PAIRS, 3 * BLOCK_PAIRS + 4):
        direct = gaussian_pair(0.5, 2.0, substream(seed, i))
        assert (ref1[i], ref2[i]) == (direct.g1, direct.g2), i

    # one seed per entry: entry k reads (seeds[k], k), across block edges too
    seeds = np.where(longest % np.uint64(3) == 0, np.uint64(seed), np.uint64(99))
    other1, other2 = draw_indices(spec, 99, longest)
    x1, x2 = draw_indices(spec, seeds, longest)
    mine = seeds == np.uint64(seed)
    assert np.array_equal(x1, np.where(mine, ref1, other1))
    assert np.array_equal(x2, np.where(mine, ref2, other2))
    with pytest.raises(ValueError, match="shape"):
        draw_indices(spec, seeds[:-1], longest)

    shifted = np.arange(70_000, 140_007, dtype=np.uint64)
    x1, x2 = draw_indices(spec, seed, shifted)
    ref1, ref2 = _draws_in_small_calls(spec, seed, shifted)
    assert np.array_equal(x1, ref1) and np.array_equal(x2, ref2)
    for k in (0, BLOCK_PAIRS - 1, BLOCK_PAIRS, len(shifted) - 1):
        direct = gaussian_pair(0.5, 2.0, substream(seed, int(shifted[k])))
        assert (x1[k], x2[k]) == (direct.g1, direct.g2), k


def test_sample_many_deterministic():
    spec = RvPairSpec.gaussian(1.0, 2.0)
    a = sample_many(spec, 1000, 99)
    b = sample_many(spec, 1000, 99)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.x2, b.x2)


def test_sample_many_marginal_means():
    pairs = sample_many(RvPairSpec.standard_uniform(), 100_000, 42)
    assert 0.495 <= pairs.x1.mean() <= 0.505
    assert 0.495 <= pairs.x2.mean() <= 0.505


def test_sample_many_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_many(RvPairSpec.standard_uniform(), 0, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        RvPairSpec.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        RvPairSpec.uniform(2.0, 2.0)
    with pytest.raises(ValueError):
        RvPairSpec.exponential(-1.0)
    with pytest.raises(ValueError):
        RvPairSpec.rayleigh(0.0)
    with pytest.raises(ValueError):
        RvPairSpec.triangular(3.0, 1.0)
    with pytest.raises(ValueError):
        RvPairSpec("no-such-kind")
    with pytest.raises(ValueError):
        RvPairSpec.standard_uniform(truncation_bits=0)
    for spec in (
        lambda: RvPairSpec.gaussian(math.nan, 1.0),
        lambda: RvPairSpec.gaussian(0.0, math.inf),
        lambda: RvPairSpec.uniform(0.0, math.inf),
        lambda: RvPairSpec.exponential(math.nan),
        lambda: RvPairSpec.rayleigh(math.inf),
        lambda: RvPairSpec.triangular(-math.inf, 1.0),
    ):
        with pytest.raises(ValueError, match="params must be finite"):
            spec()


def test_gaussian_spec_rejects_scales_that_overflow_a_draw():
    for mu, sigma in ((1e308, 1e308), (0.0, 1e308), (-1.7e308, 1e307)):
        with pytest.raises(ValueError, match=r"\|mu\| \+ 9 sigma finite"):
            RvPairSpec.gaussian(mu, sigma)
    # the largest radius at depth 53, from u1 = 1 - 2**-53, stays finite at
    # the largest accepted scale; u2 = 0.5 points it away from mu's sign
    mu = -1e308
    spec = RvPairSpec.gaussian(mu, (np.finfo(np.float64).max - 1e308) / 9.0, 53)
    with np.errstate(all="raise"):
        g1, g2 = _transform_pair(spec, 1.0 - 2.0**-53, 0.5)
    assert math.isfinite(g1) and g1 < mu
    assert math.isfinite(g2)


def test_inverse_cdf_specs_reject_parameters_that_overflow_a_draw():
    for spec, bound in (
        (lambda: RvPairSpec.uniform(-1e308, 1e308), "b - a finite"),
        (lambda: RvPairSpec.triangular(-1e308, 1e308), "hi - lo finite"),
        (lambda: RvPairSpec.exponential(1e-308), "37 / rate finite"),
        (lambda: RvPairSpec.exponential(5e-324), "37 / rate finite"),
        (lambda: RvPairSpec.rayleigh(1e308), "9 scale finite"),
    ):
        with pytest.raises(ValueError, match=bound):
            spec()
    # the extreme draws, from u = 0 and u = 1 - 2**-53, stay finite at
    # accepted parameters close to each bound
    big = np.finfo(np.float64).max
    for spec in (
        RvPairSpec.uniform(-0.8e308, 0.9e308, 53),
        RvPairSpec.triangular(-0.8e308, 0.9e308, 53),
        RvPairSpec.exponential(37.0 / (0.99 * big), 53),
        RvPairSpec.rayleigh(0.99 * big / 9.0, 53),
    ):
        with np.errstate(all="raise"):
            draws = _transform_pair(spec, np.array([0.0, 1.0 - 2.0**-53]), np.array([0.5, 0.5]))
        assert np.isfinite(draws).all(), spec.kind


def test_gaussian_pair_type_carries_parameters():
    pair = gaussian_pair(-1.0, 0.5, BitStream(3))
    assert isinstance(pair, GaussianPair)
    assert pair.mu == -1.0
    assert pair.sigma == 0.5
