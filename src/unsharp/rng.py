"""Deterministic counter-based random stream (SplitMix64).

Every simulation in this package draws its randomness through
:func:`unit_uniform`, which maps ``(seed, index)`` to a float in the open
interval (0, 1) by applying the SplitMix64 finalizer to
``seed + (index + 1) * GAMMA`` (all arithmetic modulo 2**64) and scaling the
top 53 bits.  The generator is fixed across versions: identical seeds give
bit-identical streams, and sampling parallelizes by partitioning the index
range because draw i never depends on draw i-1.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the largest float below 1; see unit_uniform
_BELOW_ONE = math.nextafter(1.0, 0.0)


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: mixes a 64-bit word into a 64-bit word."""
    z = (x + GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_word(seed: int, index: int) -> int:
    """The ``index``-th 64-bit word of the stream for ``seed``."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return splitmix64((seed + index * GAMMA) & _MASK)


def unit_uniform(seed: int, index: int) -> float:
    """The ``index``-th uniform draw in the open interval (0, 1)."""
    u = ((stream_word(seed, index) >> 11) + 0.5) * 2.0**-53
    # (2**53 - 1) + 0.5 is a tie that rounds to 2**53, so the one word whose
    # top 53 bits are all ones would give 1.0; every other word is unchanged
    return u if u < 1.0 else _BELOW_ONE


def substream_seed(seed: int, stream: int) -> int:
    """Derive an independent child seed (for repeated experiments)."""
    return splitmix64((seed ^ 0xA5A5A5A5A5A5A5A5) + stream * GAMMA & _MASK)
