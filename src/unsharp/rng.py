"""Deterministic counter-based random stream (SplitMix64).

The ``index``-th uniform of the stream for ``seed`` is a float in the open
interval (0, 1), made by applying the SplitMix64 finalizer to
``seed + (index + 1) * GAMMA`` (all arithmetic modulo 2**64) and scaling the
top 53 bits.  :func:`unit_uniform` reads one such draw and is the scalar
reference; :func:`uniforms` reads the first ``count`` draws a block at a
time, equal to :func:`unit_uniform` on every index, and is what
:func:`unsharp.measurement.sample` draws from.  The generator is fixed across
versions: identical seeds give bit-identical streams, and sampling
parallelizes by partitioning the index range because draw i never depends on
draw i-1.

Words are computed in blocks of 256 consecutive indices by a packed-integer
kernel: the block's 256 counters sit in 128-bit lanes of one Python int, so
each finalizer step is one big-int operation over all lanes.  Each word is
bit-identical to :func:`splitmix64` on its counter, which stays the scalar
reference, so a word never depends on which other words were drawn or in
which order, and split index ranges merge to the same result.
"""

from __future__ import annotations

import math
import sys

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the largest float below 1; see unit_uniform
_BELOW_ONE = math.nextafter(1.0, 0.0)

#: Words per block of the packed kernel: 2**_BLOCK_BITS.
_BLOCK_BITS = 8
_BLOCK = 1 << _BLOCK_BITS
# Lane i of a packed int is bits [128 i, 128 i + 128).  A lane holds a word
# below 2**64, and a word times a 64-bit constant stays below 2**128, so no
# step carries into the next lane.
_LANES = range(0, 128 * _BLOCK, 128)
_ONES = sum(1 << s for s in _LANES)
_LANE_MASK = _MASK * _ONES
_STEPS = sum(i * GAMMA << s for i, s in enumerate(_LANES))
# the low half of lane i is the 2i-th native word of the bytes, counted from
# the least significant end
_STRIDE = 2 if sys.byteorder == "little" else -2

# (seed, block, words) of the last block computed; always rebound whole, so a
# thread never pairs one block's key with another block's words
_last = (None, None, ())


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: mixes a 64-bit word into a 64-bit word."""
    z = (x + GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _block_words(seed: int, start: int) -> tuple:
    """``stream_word(seed, start + i)`` for i in range(_BLOCK): the scalar
    finalizer's steps, each applied to every lane at once."""
    z = (((seed + (start + 1) * GAMMA) & _MASK) * _ONES + _STEPS) & _LANE_MASK
    z = ((z ^ ((z >> 30) & _LANE_MASK)) * _MIX1) & _LANE_MASK
    z = ((z ^ ((z >> 27) & _LANE_MASK)) * _MIX2) & _LANE_MASK
    z ^= (z >> 31) & _LANE_MASK
    return tuple(memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")[::_STRIDE])


def stream_word(seed: int, index: int) -> int:
    """The ``index``-th 64-bit word of the stream for ``seed``, read from the
    block of ``_BLOCK`` words that holds it."""
    global _last
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    last_seed, last_block, words = _last
    block = index >> _BLOCK_BITS
    if block != last_block or seed != last_seed:
        words = _block_words(seed, index & -_BLOCK)
        _last = (seed, block, words)
    return words[index & (_BLOCK - 1)]


def unit_uniform(seed: int, index: int) -> float:
    """The ``index``-th uniform draw in the open interval (0, 1)."""
    u = ((stream_word(seed, index) >> 11) + 0.5) * 2.0**-53
    # (2**53 - 1) + 0.5 is a tie that rounds to 2**53, so the one word whose
    # top 53 bits are all ones would give 1.0; every other word is unchanged
    return u if u < 1.0 else _BELOW_ONE


def uniforms(seed: int, count: int) -> list:
    """``[unit_uniform(seed, i) for i in range(count)]``, each block's words
    mapped in one pass; the blocks are computed afresh and the cache that
    :func:`stream_word` keeps is left alone."""
    us = []
    for start in range(0, count, _BLOCK):
        us += [((w >> 11) + 0.5) * 2.0**-53 for w in _block_words(seed, start)[: count - start]]
    if 1.0 in us:  # the all-ones word; see unit_uniform
        us = [u if u < 1.0 else _BELOW_ONE for u in us]
    return us


def substream_seed(seed: int, stream: int) -> int:
    """Derive an independent child seed (for repeated experiments)."""
    return splitmix64((seed ^ 0xA5A5A5A5A5A5A5A5) + stream * GAMMA & _MASK)
