"""Deterministic, splittable streams of random bits.

A :class:`BitStream` is an immutable view into an infinite 0/1 sequence that
is a pure function of a 64-bit seed.  Bits are produced counter-style: block
``k`` of 64 bits is the splitmix64 finalizer applied to ``seed + (k+1)*GAMMA``,
so ``bit(i)`` is computable from ``(seed, i)`` alone, without sequential state.
That makes even/odd splitting, replay, and parallel chunking exact: any reader
of the same (seed, index) sees the same bit.

Consuming operations never mutate; they return the advanced stream as a new
value alongside the bits read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# salt keeps derived substream seeds off the parent's own word sequence
_SUBSTREAM_SALT = 0x5851F42D4C957F2D

# practical cap on root bit indices; keeps Python-int and uint64 index
# arithmetic interchangeable
_MAX_ROOT_INDEX = 1 << 62


def _mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _word(seed: int, block: int) -> int:
    """64 bits for (seed, block); pure and random-access."""
    return _mix64((seed + (block + 1) * _GAMMA) & _MASK64)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over uint64 values."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))


def _words_np(seeds: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_word`; `seeds` and `blocks` broadcast as uint64."""
    with np.errstate(over="ignore"):
        z = seeds + (blocks + np.uint64(1)) * np.uint64(_GAMMA)
    return _mix64_np(z)


def _validate_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


@dataclass(frozen=True)
class BitStream:
    """Immutable cursor into the bit sequence of one seed.

    The stream position ``i`` maps to root bit index ``offset + stride * i``;
    splitting doubles the stride so sub-streams address disjoint root indices.
    ``cursor`` marks the next unread position.  ``bit(i)`` addresses positions
    relative to the stream's origin and is independent of the cursor, so an
    advanced copy never disagrees with the original about any index.
    """

    seed: int
    stride: int = 1
    offset: int = 0
    cursor: int = 0

    def __post_init__(self) -> None:
        _validate_seed(self.seed)
        if self.stride < 1 or self.offset < 0 or self.cursor < 0:
            raise ValueError("stride must be >= 1; offset and cursor must be >= 0")

    def _root_index(self, position: int) -> int:
        j = self.offset + self.stride * position
        if j >= _MAX_ROOT_INDEX:
            raise ValueError("bit index exceeds the addressable stream range")
        return j

    def bit(self, i: int) -> int:
        """Bit at stream position ``i`` (0-based, cursor-independent)."""
        if i < 0:
            raise ValueError("bit index must be non-negative")
        j = self._root_index(i)
        return (_word(self.seed, j >> 6) >> (j & 63)) & 1

    def take(self, n: int) -> tuple[np.ndarray, "BitStream"]:
        """Read the next ``n`` bits.

        Returns ``(bits, advanced)`` where ``bits`` is a uint8 array holding
        positions ``cursor .. cursor+n-1`` and ``advanced`` is this stream
        with the cursor moved past them.  ``self`` is unchanged.
        """
        if n < 0:
            raise ValueError("bit count must be non-negative")
        self._root_index(self.cursor + n)
        positions = np.uint64(self.cursor) + np.arange(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            j = np.uint64(self.offset) + np.uint64(self.stride) * positions
        words = _words_np(np.uint64(self.seed), j >> np.uint64(6))
        bits = ((words >> (j & np.uint64(63))) & np.uint64(1)).astype(np.uint8)
        return bits, replace(self, cursor=self.cursor + n)

    def split_even_odd(self) -> tuple["BitStream", "BitStream"]:
        """Split the unread remainder into its even- and odd-indexed halves.

        Returns ``(even, odd)``, both at cursor 0: child position ``k`` reads
        the parent's position ``cursor + 2k`` (even) or ``cursor + 2k + 1``
        (odd), so the two address disjoint root indices.  The parent stays
        readable.
        """
        base = self.offset + self.stride * self.cursor
        even = BitStream(self.seed, self.stride * 2, base, 0)
        odd = BitStream(self.seed, self.stride * 2, base + self.stride, 0)
        return even, odd


def substream_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th derived stream of ``seed``.

    Used for batch drivers: item ``i`` of a batch reads an independent stream
    derived from ``(seed, i)``, so any partition of the index range replays
    identically.
    """
    _validate_seed(seed)
    if index < 0:
        raise ValueError("substream index must be non-negative")
    return _mix64(_word(seed, index) ^ _SUBSTREAM_SALT)


def substream(seed: int, index: int) -> BitStream:
    """Stream for batch item ``index`` under ``seed``."""
    return BitStream(substream_seed(seed, index))


def substream_seeds_np(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`substream_seed` over a uint64 index array."""
    _validate_seed(seed)
    words = _words_np(np.uint64(seed), indices.astype(np.uint64))
    return _mix64_np(words ^ np.uint64(_SUBSTREAM_SALT))
