"""Random-variate constructions over bit streams.

Uniform values are truncated binary expansions: depth ``n`` reads ``n`` bits
``X_0 .. X_{n-1}`` and forms ``sum_k X_k * 2**-(k+1)``, an exact dyadic
rational in ``[0, 1 - 2**-n]``.  Pairs split one stream into its even/odd
halves and expand each half independently, so the two components never share
a bit.  On top of that sit inverse-transform variates (uniform, exponential,
rayleigh, triangular) and Box-Muller standard/affine Gaussian pairs.

Scalar draws and :func:`sample_many` batches share the same numeric kernels,
so a batch entry is bit-identical to the corresponding single draw from its
derived stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstream import BitStream, SplitStreams, _words_np, substream_seeds_np
from .cdf import BLOCK_PAIRS, SamplePairs

# float64 holds integers up to 2**53 exactly; deeper truncations would make
# the dyadic-value invariants unrepresentable
MAX_TRUNCATION_BITS = 53
DEFAULT_TRUNCATION_BITS = 52

STANDARD_UNIFORM_PAIR = "standard-uniform-pair"
GAUSSIAN_PAIR = "gaussian-pair"
UNIFORM_PAIR = "uniform-pair"
EXPONENTIAL_PAIR = "exponential-pair"
RAYLEIGH_PAIR = "rayleigh-pair"
TRIANGULAR_PAIR = "triangular-pair"

_KINDS = (
    STANDARD_UNIFORM_PAIR,
    GAUSSIAN_PAIR,
    UNIFORM_PAIR,
    EXPONENTIAL_PAIR,
    RAYLEIGH_PAIR,
    TRIANGULAR_PAIR,
)


def _check_depth(n: int) -> None:
    if not 1 <= n <= MAX_TRUNCATION_BITS:
        raise ValueError(
            f"truncation depth must be in [1, {MAX_TRUNCATION_BITS}], got {n!r}"
        )


@dataclass(frozen=True)
class UniformSample:
    """A truncated-expansion uniform value plus the advanced stream."""

    value: float
    bits_used: int
    remaining: BitStream


@dataclass(frozen=True)
class GaussianPair:
    """Two jointly drawn Gaussian values with their common mean and scale."""

    g1: float
    g2: float
    mu: float
    sigma: float


@dataclass(frozen=True)
class RvPairSpec:
    """Declarative description of a paired sampler.

    ``params`` holds the distribution parameters for ``kind``:
    ``()`` for the standard uniform pair, ``(mu, sigma)`` for Gaussian,
    ``(a, b)`` for uniform, ``(rate,)`` for exponential, ``(scale,)`` for
    rayleigh, ``(lo, hi)`` for triangular.
    """

    kind: str
    params: tuple[float, ...] = ()
    truncation_bits: int = DEFAULT_TRUNCATION_BITS

    def __post_init__(self) -> None:
        _check_depth(self.truncation_bits)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if not all(math.isfinite(v) for v in p):
            raise ValueError(f"params must be finite, got {p!r}")
        if self.kind == STANDARD_UNIFORM_PAIR and p:
            raise ValueError("standard uniform pair takes no parameters")
        if self.kind == GAUSSIAN_PAIR:
            if len(p) != 2 or p[1] <= 0.0:
                raise ValueError("gaussian pair needs (mu, sigma) with sigma > 0")
        if self.kind == UNIFORM_PAIR:
            if len(p) != 2 or not p[0] < p[1]:
                raise ValueError("uniform pair needs (a, b) with a < b")
        if self.kind == EXPONENTIAL_PAIR:
            if len(p) != 1 or p[0] <= 0.0:
                raise ValueError("exponential pair needs (rate,) with rate > 0")
        if self.kind == RAYLEIGH_PAIR:
            if len(p) != 1 or p[0] <= 0.0:
                raise ValueError("rayleigh pair needs (scale,) with scale > 0")
        if self.kind == TRIANGULAR_PAIR:
            if len(p) != 2 or not p[0] < p[1]:
                raise ValueError("triangular pair needs (lo, hi) with lo < hi")

    @classmethod
    def standard_uniform(cls, truncation_bits: int = DEFAULT_TRUNCATION_BITS) -> "RvPairSpec":
        return cls(STANDARD_UNIFORM_PAIR, (), truncation_bits)

    @classmethod
    def gaussian(
        cls, mu: float, sigma: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls(GAUSSIAN_PAIR, (mu, sigma), truncation_bits)

    @classmethod
    def uniform(
        cls, a: float, b: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls(UNIFORM_PAIR, (a, b), truncation_bits)

    @classmethod
    def exponential(
        cls, rate: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls(EXPONENTIAL_PAIR, (rate,), truncation_bits)

    @classmethod
    def rayleigh(
        cls, scale: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls(RAYLEIGH_PAIR, (scale,), truncation_bits)

    @classmethod
    def triangular(
        cls, lo: float, hi: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls(TRIANGULAR_PAIR, (lo, hi), truncation_bits)


def std_unif_disc(n: int, stream: BitStream) -> UniformSample:
    """Depth-``n`` truncated binary expansion of the stream's next bits.

    The first bit read carries weight 1/2, the next 1/4, and so on; the
    result is an exact multiple of ``2**-n`` in ``[0, 1 - 2**-n]``.
    """
    _check_depth(n)
    bits, rest = stream.take(n)
    m = 0
    for b in bits.tolist():
        m = (m << 1) | b
    return UniformSample(math.ldexp(m, -n), n, rest)


def std_unif_cont(stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS) -> UniformSample:
    """Standard uniform value, approximating the infinite expansion.

    Truncating at depth ``n`` undershoots the untruncated limit by less than
    ``2**-n``; the default depth saturates the float64 mantissa.
    """
    return std_unif_disc(n, stream)


def uniform_rv(
    a: float, b: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> tuple[float, BitStream]:
    """Uniform value on ``[a, b)`` via the affine map of a standard uniform."""
    if not a < b:
        raise ValueError(f"uniform bounds need a < b, got a={a!r}, b={b!r}")
    s = std_unif_cont(stream, n)
    return float(_uniform_itm(a, b, s.value)), s.remaining


def exponential_rv(
    rate: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> tuple[float, BitStream]:
    """Exponential variate by inverting ``1 - exp(-rate*x)``."""
    if rate <= 0.0:
        raise ValueError(f"exponential rate must be > 0, got {rate!r}")
    s = std_unif_cont(stream, n)
    return float(_exponential_itm(rate, s.value)), s.remaining


def rayleigh_rv(
    scale: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> tuple[float, BitStream]:
    """Rayleigh variate by inverting ``1 - exp(-x**2 / (2*scale**2))``."""
    if scale <= 0.0:
        raise ValueError(f"rayleigh scale must be > 0, got {scale!r}")
    s = std_unif_cont(stream, n)
    return float(_rayleigh_itm(scale, s.value)), s.remaining


def triangular_rv(
    lo: float, hi: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> tuple[float, BitStream]:
    """Symmetric triangular variate on ``[lo, hi]`` with mode at the midpoint."""
    if not lo < hi:
        raise ValueError(f"triangular bounds need lo < hi, got lo={lo!r}, hi={hi!r}")
    s = std_unif_cont(stream, n)
    return float(_triangular_itm(lo, hi, s.value)), s.remaining


def std_unif_pair(
    stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> tuple[tuple[float, float], SplitStreams]:
    """Two independent standard uniforms from the even/odd halves of a stream.

    Returns the pair and the two advanced sub-streams.  The components are
    built from disjoint bit sets of the parent.
    """
    _check_depth(n)
    halves = stream.split_even_odd()
    s1 = std_unif_cont(halves.even, n)
    s2 = std_unif_cont(halves.odd, n)
    return (s1.value, s2.value), SplitStreams(even=s1.remaining, odd=s2.remaining)


def box_muller(u1_safe, u2):
    """Radius-angle map from two uniforms to an independent normal pair.

    ``u1_safe`` must lie in ``(0, 1]`` (the caller remaps a possibly-zero
    uniform before calling); ``u2`` in ``[0, 1)``.  Accepts scalars or arrays.
    """
    r = np.sqrt(-2.0 * np.log(u1_safe))
    theta = (2.0 * np.pi) * u2
    return r * np.cos(theta), r * np.sin(theta)


def std_gaussian_pair(stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS) -> GaussianPair:
    """Standard Gaussian pair via Box-Muller over an even/odd uniform pair.

    The radial uniform is remapped as ``u1' = 1 - u1``, moving its support
    from ``[0, 1 - 2**-n]`` to ``[2**-n, 1]`` so the logarithm stays finite;
    the distribution is unchanged and the radius is bounded by
    ``sqrt(2 * n * ln 2)``.
    """
    (u1, u2), _ = std_unif_pair(stream, n)
    g1, g2 = box_muller(1.0 - u1, u2)
    return GaussianPair(float(g1), float(g2), 0.0, 1.0)


def gaussian_pair(
    mu: float, sigma: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> GaussianPair:
    """Gaussian pair with mean ``mu`` and deviation ``sigma`` (affine shift)."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    std = std_gaussian_pair(stream, n)
    return GaussianPair(
        float(mu + sigma * std.g1), float(mu + sigma * std.g2), float(mu), float(sigma)
    )


# inverse-CDF transforms shared by the scalar ops and the batch kernel;
# np.* keeps scalar and array results bit-identical

def _uniform_itm(a, b, u):
    return (b - a) * u + a


def _exponential_itm(rate, u):
    return -np.log1p(-u) / rate


def _rayleigh_itm(scale, u):
    return scale * np.sqrt(-2.0 * np.log1p(-u))


def _triangular_itm(lo, hi, u):
    width = hi - lo
    lower = lo + width * np.sqrt(u / 2.0)
    upper = hi - width * np.sqrt((1.0 - u) / 2.0)
    return np.where(u < 0.5, lower, upper)


# (shift, mask) steps that pack bits 0, 2, ..., 62 of a word into bits 0..31
_EVEN_BITS = np.uint64(0x5555555555555555)
_GATHER_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (1, 0x3333333333333333),
        (2, 0x0F0F0F0F0F0F0F0F),
        (4, 0x00FF00FF00FF00FF),
        (8, 0x0000FFFF0000FFFF),
        (16, 0x00000000FFFFFFFF),
    )
)
# (shift, mask) swaps of adjacent bits, bit pairs and nibbles: reverses the
# bits within each byte
_BYTE_REVERSE_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (1, 0x5555555555555555),
        (2, 0x3333333333333333),
        (4, 0x0F0F0F0F0F0F0F0F),
    )
)


def _even_odd_halves(w: np.ndarray) -> np.ndarray:
    """Rows (even bits of ``w``, odd bits of ``w``), each packed into 32 bits.

    Bit ``k`` of row 0 is bit ``2k`` of the word and bit ``k`` of row 1 is
    bit ``2k + 1``: the odd bits are the even bits of ``w >> 1``.
    """
    x = np.stack((w, w >> np.uint64(1)))
    x &= _EVEN_BITS
    t = np.empty_like(x)
    for shift, mask in _GATHER_STEPS:
        np.right_shift(x, shift, out=t)
        x |= t
        x &= mask
    return x


def _reverse64(x: np.ndarray) -> np.ndarray:
    """Reverse the bit order of each 64-bit word in place.

    The three in-byte swap steps are followed by a byte swap, which does
    the remaining three (bytes, 16-bit halves, 32-bit halves) in one pass.
    """
    t = np.empty_like(x)
    for shift, mask in _BYTE_REVERSE_STEPS:
        np.right_shift(x, shift, out=t)
        t &= mask
        x &= mask
        x <<= shift
        x |= t
    return x.byteswap(inplace=True)


def _pair_uniforms(subseeds: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Even/odd depth-``n`` uniforms for each derived stream, vectorized.

    Equivalent to ``std_unif_pair(BitStream(seed), n)`` per entry.  The first
    ``2n`` bits of a stream live in its first two 64-bit words ``w0, w1``.
    A branch-free unshuffle (Warren, *Hacker's Delight*, ch. 7) packs the
    even and the odd bits of ``w0`` into 32 bits each, and those of ``w1``
    are ORed in above them.  Bit ``k`` of a packed half is then the
    half-stream's ``k``-th bit, which the expansion weights ``2**-(k+1)``,
    so a 64-bit bit reversal (swap steps, same chapter) followed by a shift
    right by ``64 - n`` gives the integer numerator over ``2**n``; for
    ``n <= 32`` that shift drops the bits from ``w1``.  The passes are the
    same whatever ``n``.
    """
    halves = _even_odd_halves(_words_np(subseeds, np.uint64(0)))
    high = _even_odd_halves(_words_np(subseeds, np.uint64(1)))
    high <<= np.uint64(32)
    halves |= high
    m = _reverse64(halves)
    m >>= np.uint64(64 - n)
    u = np.ldexp(m.astype(np.float64), -n)
    return u[0], u[1]


def _transform_pair(spec: RvPairSpec, u1, u2):
    """Map a uniform pair through the spec's distribution; scalar or array."""
    p = spec.params
    if spec.kind == STANDARD_UNIFORM_PAIR:
        return u1, u2
    if spec.kind == GAUSSIAN_PAIR:
        mu, sigma = p
        g1, g2 = box_muller(1.0 - u1, u2)
        return mu + sigma * g1, mu + sigma * g2
    if spec.kind == UNIFORM_PAIR:
        a, b = p
        return _uniform_itm(a, b, u1), _uniform_itm(a, b, u2)
    if spec.kind == EXPONENTIAL_PAIR:
        (rate,) = p
        return _exponential_itm(rate, u1), _exponential_itm(rate, u2)
    if spec.kind == RAYLEIGH_PAIR:
        (scale,) = p
        return _rayleigh_itm(scale, u1), _rayleigh_itm(scale, u2)
    if spec.kind == TRIANGULAR_PAIR:
        lo, hi = p
        return _triangular_itm(lo, hi, u1), _triangular_itm(lo, hi, u2)
    raise ValueError(f"unknown pair kind {spec.kind!r}")


def draw_indices(spec: RvPairSpec, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs for the given batch indices under ``(spec, seed)``.

    Entry ``i`` depends only on ``(seed, indices[i])``, so any partition of
    an index range reproduces the unpartitioned result exactly.  The
    indices are drawn :data:`~senserate.cdf.BLOCK_PAIRS` at a time into
    preallocated outputs, so every temporary stays block-sized.
    """
    x1 = np.empty(indices.shape, dtype=np.float64)
    x2 = np.empty(indices.shape, dtype=np.float64)
    for start in range(0, len(indices), BLOCK_PAIRS):
        block = slice(start, start + BLOCK_PAIRS)
        subseeds = substream_seeds_np(seed, indices[block])
        u1, u2 = _pair_uniforms(subseeds, spec.truncation_bits)
        x1[block], x2[block] = _transform_pair(spec, u1, u2)
    return x1, x2


def sample_many(spec: RvPairSpec, count: int, seed: int) -> SamplePairs:
    """Draw ``count`` pairs, one per derived stream of ``(seed, i)``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    indices = np.arange(count, dtype=np.uint64)
    x1, x2 = draw_indices(spec, seed, indices)
    return SamplePairs(x1=x1, x2=x2, spec=spec, seed=seed)
