import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senserate.bitstream import from_seed, substream
from senserate.cdf import BLOCK_PAIRS
from senserate.samplers import (
    GaussianPair,
    RvPairSpec,
    box_muller,
    draw_indices,
    exponential_rv,
    gaussian_pair,
    rayleigh_rv,
    sample_many,
    std_gaussian_pair,
    std_unif_cont,
    std_unif_disc,
    std_unif_pair,
    triangular_rv,
    uniform_rv,
)

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def expansion_oracle(bits) -> float:
    """Independent evaluation of the truncated binary expansion."""
    return sum(b * 0.5 ** (k + 1) for k, b in enumerate(bits))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=53))
def test_uniform_matches_expansion_oracle(seed, n):
    stream = from_seed(seed)
    bits, _ = stream.take(n)
    sample = std_unif_disc(n, stream)
    assert sample.value == expansion_oracle(bits.tolist())
    assert sample.bits_used == n
    assert sample.remaining.cursor == n


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=53))
def test_uniform_is_dyadic_in_range(seed, n):
    value = std_unif_disc(n, from_seed(seed)).value
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
            std_unif_disc(n, from_seed(1))


def test_deepening_refines_monotonically():
    stream = from_seed(17)
    v20 = std_unif_cont(stream, 20).value
    v36 = std_unif_cont(stream, 36).value
    v52 = std_unif_cont(stream, 52).value
    assert v20 <= v36 <= v52 < v20 + 2.0**-20


def test_truncation_gap_bound_over_seeds():
    for seed in range(100):
        stream = from_seed(seed)
        gap = std_unif_cont(stream, 52).value - std_unif_cont(stream, 20).value
        assert 0.0 <= gap < 2.0**-20


def test_uniform_rv_affine():
    stream = from_seed(23)
    u = std_unif_cont(stream, 52).value
    for a, b in ((0.0, 1.0), (-2.0, 2.0), (3.0, 7.0)):
        value, rest = uniform_rv(a, b, stream, 52)
        assert value == (b - a) * u + a
        assert a <= value < b
        assert rest.cursor == 52
    with pytest.raises(ValueError):
        uniform_rv(1.0, 1.0, stream)


def test_exponential_inverts_its_cdf():
    stream = from_seed(29)
    u = std_unif_cont(stream, 52).value
    for rate in (0.5, 1.0, 2.0):
        x, _ = exponential_rv(rate, stream, 52)
        assert x >= 0.0
        assert math.isclose(1.0 - math.exp(-rate * x), u, abs_tol=1e-12)
    with pytest.raises(ValueError):
        exponential_rv(0.0, stream)


def test_rayleigh_inverts_its_cdf():
    stream = from_seed(31)
    u = std_unif_cont(stream, 52).value
    for scale in (0.5, 1.0, 3.0):
        x, _ = rayleigh_rv(scale, stream, 52)
        assert x >= 0.0
        assert math.isclose(1.0 - math.exp(-x * x / (2.0 * scale * scale)), u, abs_tol=1e-12)
    with pytest.raises(ValueError):
        rayleigh_rv(-1.0, stream)


def test_triangular_inverts_its_cdf():
    def cdf(lo, hi, x):
        mid = 0.5 * (lo + hi)
        if x <= mid:
            return 2.0 * ((x - lo) / (hi - lo)) ** 2
        return 1.0 - 2.0 * ((hi - x) / (hi - lo)) ** 2

    for seed in (37, 41, 43):
        stream = from_seed(seed)
        u = std_unif_cont(stream, 52).value
        x, _ = triangular_rv(-1.0, 5.0, stream, 52)
        assert -1.0 <= x <= 5.0
        assert math.isclose(cdf(-1.0, 5.0, x), u, abs_tol=1e-12)
    with pytest.raises(ValueError):
        triangular_rv(2.0, 2.0, from_seed(1))


def test_pair_components_use_disjoint_bits():
    stream = from_seed(47)
    (u1, u2), _ = std_unif_pair(stream, 3)
    pbits, _ = stream.take(6)
    assert u1 == expansion_oracle(pbits[0::2].tolist())
    assert u2 == expansion_oracle(pbits[1::2].tolist())


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
        pair = std_gaussian_pair(from_seed(seed))
        assert math.hypot(pair.g1, pair.g2) <= bound


def test_gaussian_pair_is_exact_affine_of_standard():
    for seed in (1, 7, 123):
        std = std_gaussian_pair(from_seed(seed))
        shifted = gaussian_pair(5.0, 2.0, from_seed(seed))
        assert shifted.g1 == 5.0 + 2.0 * std.g1
        assert shifted.g2 == 5.0 + 2.0 * std.g2
    ident = gaussian_pair(0.0, 1.0, from_seed(9))
    std = std_gaussian_pair(from_seed(9))
    assert (ident.g1, ident.g2) == (std.g1, std.g2)


def test_gaussian_pair_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_pair(0.0, 0.0, from_seed(1))
    with pytest.raises(ValueError):
        gaussian_pair(0.0, -1.0, from_seed(1))


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
        stream = substream(42, 0)
        if spec.kind == "gaussian-pair":
            mu, sigma = spec.params
            direct = gaussian_pair(mu, sigma, stream)
            assert (batch.x1[0], batch.x2[0]) == (direct.g1, direct.g2)
        elif spec.kind == "standard-uniform-pair":
            (u1, u2), _ = std_unif_pair(stream)
            assert (batch.x1[0], batch.x2[0]) == (u1, u2)
        else:
            (u1, u2), _ = std_unif_pair(stream)
            from senserate.samplers import _transform_pair

            x1, x2 = _transform_pair(spec, u1, u2)
            assert (batch.x1[0], batch.x2[0]) == (float(x1), float(x2))


def test_sample_many_batch_matches_per_index_scalar_draws():
    batch = sample_many(RvPairSpec.gaussian(0.0, 1.0), 64, 7)
    for i in range(64):
        direct = std_gaussian_pair(substream(7, i))
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
            (u1, u2), _ = std_unif_pair(substream(seed, i), n)
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


def test_gaussian_pair_type_carries_parameters():
    pair = gaussian_pair(-1.0, 0.5, from_seed(3))
    assert isinstance(pair, GaussianPair)
    assert pair.mu == -1.0
    assert pair.sigma == 0.5
