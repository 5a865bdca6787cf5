"""Counter-based random stream: conformance and determinism."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from unsharp import rng
from unsharp.rng import GAMMA, splitmix64, stream_word, substream_seed, uniforms, unit_uniform
from unsharp.states import mixture, normal, ppf, uniform


def test_reference_vector_seed_zero():
    # first three words of the zero-seeded SplitMix64 stream
    assert stream_word(0, 0) == 0xE220A8397B1DCDAF
    assert stream_word(0, 1) == 0x6E789E6AA1B965F4
    assert stream_word(0, 2) == 0x06C45D188009454F


def test_counter_addressing_matches_sequential_walk():
    seed = 0x123456789ABCDEF
    golden = 0x9E3779B97F4A7C15
    state = seed
    for i in range(10):
        assert stream_word(seed, i) == splitmix64(state)
        state = (state + golden) & ((1 << 64) - 1)


def test_unit_uniform_open_interval():
    for i in range(2000):
        u = unit_uniform(31337, i)
        assert 0.0 < u < 1.0


def test_all_ones_word_stays_below_one(monkeypatch):
    # (2**53 - 1) + 0.5 rounds to 2**53 in floats, which would make u == 1.0
    monkeypatch.setattr(rng, "stream_word", lambda seed, index: 2**64 - 1)
    u = unit_uniform(0, 0)
    assert 0.0 < u < 1.0
    assert u == math.nextafter(1.0, 0.0)
    half = Fraction(1, 2)
    for d in (uniform(0, 1), normal(0, 1), mixture((half, uniform(-1, 1)), (half, normal(0, 1)))):
        assert math.isfinite(ppf(d, u))


def test_streams_differ_across_seeds_and_indices():
    a = [stream_word(1, i) for i in range(64)]
    b = [stream_word(2, i) for i in range(64)]
    assert a != b
    assert len(set(a)) == 64


def test_substream_derivation_deterministic():
    assert substream_seed(7, 3) == substream_seed(7, 3)
    assert substream_seed(7, 3) != substream_seed(7, 4)
    assert substream_seed(8, 3) != substream_seed(7, 3)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        stream_word(0, -1)


# ---------------------------------------------------------------------------
# the packed block kernel against the scalar finalizer

_MASK = (1 << 64) - 1
_SEEDS = [0, 1, 2**64 - 1, 2**64 + 5, -3, 2**100]
_EDGES = [0, 255, 256, 257, 511, 2**40 + 255, 2**64 + 3]


def _reference(seed, index):
    return splitmix64((seed + index * GAMMA) & _MASK)


@pytest.mark.parametrize("seed", _SEEDS)
def test_kernel_matches_scalar_finalizer_at_block_edges(seed):
    for i in _EDGES:
        assert stream_word(seed, i) == _reference(seed, i)
    # backwards too, so each index is read from a freshly computed block
    for i in reversed(_EDGES):
        assert stream_word(seed, i) == _reference(seed, i)


def test_kernel_matches_scalar_finalizer_over_whole_blocks():
    for seed in _SEEDS:
        assert [stream_word(seed, i) for i in range(768)] == [_reference(seed, i) for i in range(768)]


def test_alternating_seeds_switch_the_cached_block():
    a, b = 0x0123456789ABCDEF, 2**64 + 0x0123456789ABCDEF + 1
    for i in range(300):
        assert stream_word(a, i) == _reference(a, i)
        assert stream_word(b, i) == _reference(b, i)


def test_two_threads_drawing_different_seeds():
    seeds = (11, 2**64 - 11)
    mismatches = []
    done = []

    def draw(seed):
        got = [stream_word(seed, i) for i in range(0, 20_000, 7)]
        if got != [_reference(seed, i) for i in range(0, 20_000, 7)]:
            mismatches.append(seed)
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == sorted(seeds)
    assert mismatches == []


# ---------------------------------------------------------------------------
# the block reader against the scalar reference


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -7])
@pytest.mark.parametrize("count", [1, 255, 256, 257, 513])
def test_block_reader_equals_scalar_reads(seed, count):
    assert uniforms(seed, count) == [unit_uniform(seed, i) for i in range(count)]


def test_block_reader_leaves_the_scalar_cache_alone():
    unit_uniform(5, 300)
    cached = rng._last
    uniforms(9, 700)
    assert rng._last is cached


def test_all_ones_word_stays_below_one_on_the_block_path(monkeypatch):
    def words(seed, start):
        return tuple(2**64 - 1 if start + i in (3, 300) else i << 20 for i in range(rng._BLOCK))

    monkeypatch.setattr(rng, "_block_words", words)
    us = uniforms(0, 400)
    assert len(us) == 400 and all(0.0 < u < 1.0 for u in us)
    assert us[3] == us[300] == math.nextafter(1.0, 0.0)
    assert us[4] == ((4 << 20 >> 11) + 0.5) * 2.0**-53
