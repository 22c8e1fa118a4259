"""Random-variate constructions over bit streams.

Uniform values are truncated binary expansions: depth ``n`` reads ``n`` bits
``X_0 .. X_{n-1}`` and forms ``sum_k X_k * 2**-(k+1)``, an exact dyadic
rational in ``[0, 1 - 2**-n]``.  Pairs split one stream into its even/odd
halves and expand each half independently, so the two components never share
a bit.  An :class:`RvPairSpec` maps the uniform pair to one of six kinds: the
standard uniform pair itself, inverse-transform variates (uniform,
exponential, rayleigh, triangular) and Box-Muller affine Gaussian pairs.

:func:`std_unif_pair` and :func:`gaussian_pair` are the scalar, bit-by-bit
reference; :func:`sample_many` batches use a vectorized kernel.  Both share
the transform table, so a batch entry is bit-identical to the corresponding
single draw from its derived stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstream import BitStream, _words_np, substream_seeds_np
from .cdf import BLOCK_PAIRS, SamplePairs

# float64 holds integers up to 2**53 exactly; deeper truncations would make
# the dyadic-value invariants unrepresentable
MAX_TRUNCATION_BITS = 53
DEFAULT_TRUNCATION_BITS = 52


def _check_depth(n: int) -> None:
    if not 1 <= n <= MAX_TRUNCATION_BITS:
        raise ValueError(
            f"truncation depth must be in [1, {MAX_TRUNCATION_BITS}], got {n!r}"
        )


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
        if self.kind not in _PAIR_KINDS:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if not all(math.isfinite(v) for v in p):
            raise ValueError(f"params must be finite, got {p!r}")
        valid, requires, _ = _PAIR_KINDS[self.kind]
        if not valid(p):
            raise ValueError(f"{self.kind} needs {requires}, got {p!r}")

    @classmethod
    def standard_uniform(cls, truncation_bits: int = DEFAULT_TRUNCATION_BITS) -> "RvPairSpec":
        return cls("standard-uniform-pair", (), truncation_bits)

    @classmethod
    def gaussian(
        cls, mu: float, sigma: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls("gaussian-pair", (mu, sigma), truncation_bits)

    @classmethod
    def uniform(
        cls, a: float, b: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls("uniform-pair", (a, b), truncation_bits)

    @classmethod
    def exponential(
        cls, rate: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls("exponential-pair", (rate,), truncation_bits)

    @classmethod
    def rayleigh(
        cls, scale: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls("rayleigh-pair", (scale,), truncation_bits)

    @classmethod
    def triangular(
        cls, lo: float, hi: float, truncation_bits: int = DEFAULT_TRUNCATION_BITS
    ) -> "RvPairSpec":
        return cls("triangular-pair", (lo, hi), truncation_bits)


def _numerator(half: BitStream, n: int) -> int:
    """The next ``n`` bits of ``half`` as an integer, first bit most significant."""
    bits, _ = half.take(n)
    m = 0
    for b in bits.tolist():
        m = (m << 1) | b
    return m


def std_unif_pair(stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS) -> tuple[float, float]:
    """Two independent standard uniforms from the even/odd halves of a stream.

    Each component is the depth-``n`` expansion of its half, read one bit at
    a time: an exact multiple of ``2**-n`` in ``[0, 1 - 2**-n]``.  The
    components are built from disjoint bit sets of the parent.
    """
    _check_depth(n)
    even, odd = stream.split_even_odd()
    return math.ldexp(_numerator(even, n), -n), math.ldexp(_numerator(odd, n), -n)


def box_muller(u1_safe, u2):
    """Radius-angle map from two uniforms to an independent normal pair.

    ``u1_safe`` must lie in ``(0, 1]`` (the caller remaps a possibly-zero
    uniform before calling); ``u2`` in ``[0, 1)``.  Accepts scalars or arrays.
    """
    r = np.sqrt(-2.0 * np.log(u1_safe))
    theta = (2.0 * np.pi) * u2
    return r * np.cos(theta), r * np.sin(theta)


def gaussian_pair(
    mu: float, sigma: float, stream: BitStream, n: int = DEFAULT_TRUNCATION_BITS
) -> GaussianPair:
    """Gaussian pair with mean ``mu`` and deviation ``sigma`` from one stream."""
    spec = RvPairSpec.gaussian(mu, sigma, n)
    g1, g2 = _transform_pair(spec, *std_unif_pair(stream, n))
    return GaussianPair(float(g1), float(g2), *spec.params)


def _gaussian(p, u1, u2):
    # u1' = 1 - u1 moves the radial uniform from [0, 1 - 2**-n] to
    # [2**-n, 1], so the logarithm stays finite and the radius is bounded by
    # sqrt(2 * n * ln 2); the distribution is unchanged
    mu, sigma = p
    g1, g2 = box_muller(1.0 - u1, u2)
    return mu + sigma * g1, mu + sigma * g2


def _triangular_itm(lo, hi, u):
    width = hi - lo
    lower = lo + width * np.sqrt(u / 2.0)
    upper = hi - width * np.sqrt((1.0 - u) / 2.0)
    return np.where(u < 0.5, lower, upper)


def _each(itm):
    """Pair transform applying the one-uniform map ``itm(p, u)`` to both."""
    return lambda p, u1, u2: (itm(p, u1), itm(p, u2))


# kind -> (params check, what it requires, pair transform); the transforms
# take scalars or arrays, and np.* keeps both results bit-identical.  Each
# check bounds the largest draw, so no seed overflows: u < 1 keeps a draw
# within width b - a of a, -log1p(-u) <= 53 ln 2 < 37, and a depth-n
# Box-Muller radius is at most sqrt(2 * 53 * ln 2) < 9
_PAIR_KINDS = {
    "standard-uniform-pair": (
        lambda p: not p, "no parameters", lambda p, u1, u2: (u1, u2)
    ),
    "gaussian-pair": (
        lambda p: len(p) == 2 and p[1] > 0.0 and math.isfinite(abs(p[0]) + 9.0 * p[1]),
        "(mu, sigma) with sigma > 0 and |mu| + 9 sigma finite",
        _gaussian,
    ),
    "uniform-pair": (
        lambda p: len(p) == 2 and p[0] < p[1] and math.isfinite(p[1] - p[0]),
        "(a, b) with a < b and b - a finite",
        _each(lambda p, u: (p[1] - p[0]) * u + p[0]),
    ),
    "exponential-pair": (
        lambda p: len(p) == 1 and p[0] > 0.0 and math.isfinite(37.0 / p[0]),
        "(rate,) with rate > 0 and 37 / rate finite",
        _each(lambda p, u: -np.log1p(-u) / p[0]),
    ),
    "rayleigh-pair": (
        lambda p: len(p) == 1 and p[0] > 0.0 and math.isfinite(9.0 * p[0]),
        "(scale,) with scale > 0 and 9 scale finite",
        _each(lambda p, u: p[0] * np.sqrt(-2.0 * np.log1p(-u))),
    ),
    "triangular-pair": (
        lambda p: len(p) == 2 and p[0] < p[1] and math.isfinite(p[1] - p[0]),
        "(lo, hi) with lo < hi and hi - lo finite",
        _each(lambda p, u: _triangular_itm(p[0], p[1], u)),
    ),
}


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
    return _PAIR_KINDS[spec.kind][2](spec.params, u1, u2)


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
    return SamplePairs(x1=x1, x2=x2)
