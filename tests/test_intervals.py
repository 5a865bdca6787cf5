"""Exact interval-set algebra: canonical form, Boolean laws, measure."""

import copy
import math
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp.intervals import (
    EMPTY,
    REALS,
    Interval,
    IntervalSet,
    closed,
    combine,
    complement,
    difference,
    intersect,
    interval,
    is_subset,
    measure,
    membership,
    points,
    singleton,
    union,
)

from unsharp.common import NEG_INF, POS_INF, is_infinite
from unsharp.quotient import project

from strategies import colliding_interval_sets, interval_sets, rationals

ROOT = Path(__file__).resolve().parents[1]


class TestIntervalInvariants:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))

    def test_infinite_endpoints_must_be_open(self):
        with pytest.raises(ValueError):
            Interval(float("-inf"), Fraction(0), lo_closed=True)
        with pytest.raises(ValueError):
            Interval(Fraction(0), float("inf"), hi_closed=True)

    def test_singleton_must_be_closed(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(1))

    def test_float_endpoints_rejected(self):
        with pytest.raises(TypeError):
            Interval(0.5, 1)

    def test_non_canonical_components_rejected(self):
        a = Interval(Fraction(0), Fraction(1))
        b = Interval(Fraction(1), Fraction(2), lo_closed=True)
        with pytest.raises(ValueError):
            IntervalSet((a, b))  # (0,1) and [1,2] are adjacent, must merge


_NOT_RATIONAL = "to a rational; pass a string or Fraction, or call snap_to_rational"

# (arguments, exception type, message); where two checks could fire, the
# message shows which one runs first
INVALID_INTERVALS = [
    ((POS_INF, 1), ValueError, "lower endpoint may be -inf but not +inf"),
    ((POS_INF, POS_INF), ValueError, "lower endpoint may be -inf but not +inf"),
    ((0, NEG_INF), ValueError, "upper endpoint may be +inf but not -inf"),
    ((NEG_INF, NEG_INF), ValueError, "upper endpoint may be +inf but not -inf"),
    ((NEG_INF, 0, True), ValueError, "infinite endpoints must be open"),
    ((0, POS_INF, False, True), ValueError, "infinite endpoints must be open"),
    ((NEG_INF, POS_INF, True, True), ValueError, "infinite endpoints must be open"),
    ((2, 1), ValueError, "malformed interval: lo 2 > hi 1"),
    (("5/2", Fraction(1, 3)), ValueError, "malformed interval: lo 5/2 > hi 1/3"),
    ((1, 1), ValueError, "a zero-width interval must be closed on both ends"),
    ((Fraction(1), "1", True), ValueError, "a zero-width interval must be closed on both ends"),
    ((1, 1, False, True), ValueError, "a zero-width interval must be closed on both ends"),
    ((0.5, 1), TypeError, f"refusing to coerce float 0.5 {_NOT_RATIONAL}"),
    ((0, 0.5), TypeError, f"refusing to coerce float 0.5 {_NOT_RATIONAL}"),
    ((float("nan"), 1), TypeError, f"refusing to coerce float nan {_NOT_RATIONAL}"),
    ((True, 2), TypeError, "cannot interpret a bool as a rational"),
    ((0, False), TypeError, "cannot interpret a bool as a rational"),
    ((None, 1), TypeError, "cannot interpret NoneType as a rational"),
    ((NEG_INF, "x", True), ValueError, "not a rational literal: 'x'"),
    ((0, "1/0"), ValueError, "not a rational literal: '1/0'"),
]


@pytest.mark.parametrize("args,exc,message", INVALID_INTERVALS)
def test_invalid_interval_rejected(args, exc, message):
    with pytest.raises(exc) as info:
        Interval(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


class TestIntervalValue:
    def test_endpoints_become_fractions(self):
        iv = Interval(0, "1/2", hi_closed=True)
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (0, Fraction(1, 2), False, True)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        half_line = Interval(NEG_INF, POS_INF)
        assert half_line.lo is NEG_INF and half_line.hi is POS_INF

    def test_keyword_construction(self):
        iv = Interval(lo=Fraction(0), hi=1, lo_closed=True)
        assert iv == Interval(0, 1, True, False)
        assert iv == Interval(hi_closed=False, lo_closed=True, hi="1", lo="0")

    def test_equality_and_hash(self):
        iv = Interval(Fraction(1, 3), 2, True)
        assert iv == Interval("1/3", Fraction(2), lo_closed=True)
        assert iv != Interval(Fraction(1, 3), 2)
        assert iv != Interval(Fraction(1, 3), 3, True)
        assert iv != (Fraction(1, 3), Fraction(2), True, False)
        assert iv.__eq__((Fraction(1, 3), Fraction(2), True, False)) is NotImplemented
        assert hash(iv) == hash((Fraction(1, 3), Fraction(2), True, False))
        assert len({iv, Interval("1/3", 2, True), Interval(0, 1)}) == 2

    def test_repr(self):
        assert repr(Interval(Fraction(-1, 2), POS_INF, True)) == (
            "Interval(lo=Fraction(-1, 2), hi=inf, lo_closed=True, hi_closed=False)"
        )
        assert str(Interval(Fraction(-1, 2), POS_INF, True)) == "[-1/2, inf)"
        assert str(Interval(3, 3, True, True)) == "{3}"

    def test_pickle_and_copy(self):
        for iv in (Interval(0, 1), Interval(NEG_INF, Fraction(1, 3), False, True)):
            for twin in (pickle.loads(pickle.dumps(iv)), copy.copy(iv), copy.deepcopy(iv)):
                assert twin == iv and hash(twin) == hash(iv) and repr(twin) == repr(iv)
                assert type(twin.hi) is type(iv.hi)

    def test_frozen(self):
        iv = Interval(0, 1)
        for name in ("lo", "hi", "lo_closed", "hi_closed", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(iv, name, Fraction(5))
            with pytest.raises(FrozenInstanceError):
                delattr(iv, name)
        assert iv == Interval(0, 1)


# Endpoints whose float keys tie (1 and 1 + 2^-60), overflow (+-10^400/3)
# or are unbounded, mixed with small rationals.
_TIED = st.sampled_from(
    (Fraction(1), 1 + Fraction(1, 2**60), 1 - Fraction(1, 2**60), 1 + Fraction(1, 2**61),
     Fraction(10**400, 3), Fraction(10**400, 3) + 1, -Fraction(10**400, 3),
     -Fraction(10**400, 3) - 1)
)
_ENDS = _TIED | rationals


@st.composite
def _tied_intervals(draw):
    a, b = sorted((draw(_ENDS), draw(_ENDS)))
    if a == b and draw(st.booleans()):
        return Interval(a, a, True, True)
    lo = NEG_INF if draw(st.integers(0, 4)) == 0 else a
    hi = POS_INF if draw(st.integers(0, 4)) == 0 else b
    if lo == hi:
        return Interval(lo, hi, True, True)
    lo_closed = lo != NEG_INF and draw(st.booleans())
    hi_closed = hi != POS_INF and draw(st.booleans())
    return Interval(lo, hi, lo_closed, hi_closed)


def _reference_from_intervals(ivs):
    """Sort-and-merge of the exact cut spans, compared as Fraction tuples."""
    vals, offs = [], []
    for start, end in sorted(iv.span() for iv in ivs):
        if vals and start <= (vals[-1], offs[-1]):
            if end > (vals[-1], offs[-1]):
                vals[-1], offs[-1] = end
        else:
            vals += (start[0], end[0])
            offs += (start[1], end[1])
    return tuple(vals), bytes(offs)


@settings(max_examples=300)
@given(st.lists(_tied_intervals(), max_size=8))
def test_from_intervals_matches_exact_merge(ivs):
    s = IntervalSet.from_intervals(ivs)
    vals, offs = _reference_from_intervals(ivs)
    assert s._vals == vals and s._offs == offs
    assert [type(v) for v in s._vals] == [type(v) for v in vals]
    assert IntervalSet(s.components) == s
    assert IntervalSet.from_intervals(reversed(ivs)) == s
    assert str(s) == (" | ".join(str(c) for c in s.components) or "empty")


class TestCanonicalForm:
    def test_adjacent_closed_merges(self):
        s = union(interval(0, 1), closed(1, 2))
        assert str(s) == "(0, 2]"

    def test_open_touch_does_not_merge(self):
        s = union(interval(0, 1), interval(1, 2))
        assert len(s.components) == 2

    def test_swallowed_singleton(self):
        s = union(interval(0, 1), singleton(1))
        assert str(s) == "(0, 1]"

    def test_from_intervals_idempotent(self):
        s = IntervalSet.from_intervals(
            [Interval(Fraction(0), Fraction(2)), Interval(Fraction(1), Fraction(3))]
        )
        assert IntervalSet.from_intervals(s.components) == s


class TestCombine:
    def test_union_excludes_shared_open_point(self):
        s = combine("union", interval(0, 1), interval(1, 2))
        assert not membership(1, s)
        assert len(s.components) == 2

    def test_symmdiff_self_is_empty(self):
        s = union(interval(0, 1), closed(3, 4))
        assert combine("symmdiff", s, s) == EMPTY

    def test_diff_carves_closed_interval(self):
        assert str(combine("diff", interval(0, 3), closed(1, 2))) == "(0, 1) | (2, 3)"

    def test_symmdiff_mixed_closure(self):
        got = combine("symmdiff", interval(0, 2), interval(1, 3))
        assert str(got) == "(0, 1] | [2, 3)"

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            combine("nand", EMPTY, EMPTY)


class TestComplement:
    def test_of_empty(self):
        assert complement(EMPTY) == REALS

    def test_of_open_interval(self):
        assert str(complement(interval(0, 1))) == "(-inf, 0] | [1, inf)"

    def test_of_point(self):
        assert str(complement(singleton(0))) == "(-inf, 0) | (0, inf)"


class TestMeasure:
    def test_two_components(self):
        assert measure(union(interval(0, 1), interval(2, 3, lo_closed=True))) == 2

    def test_points_are_null(self):
        assert measure(points(1, 2, 3)) == 0

    def test_unbounded(self):
        assert measure(complement(interval(0, 1))) == math.inf


class TestMembership:
    @pytest.mark.parametrize(
        "q,text,expected",
        [
            (Fraction(1, 2), interval(0, 1), True),
            (Fraction(1), interval(0, 1), False),
            (Fraction(1), closed(1, 2), True),
        ],
    )
    def test_spec_cases(self, q, text, expected):
        assert membership(q, text) is expected


def _sample_points(*sets):
    pts = set()
    for s in sets:
        for c in s.components:
            for p in (c.lo, c.hi):
                if not isinstance(p, float):
                    pts.update((p - Fraction(1, 7), p, p + Fraction(1, 7)))
    pts.add(Fraction(0))
    return pts


@settings(max_examples=200)
@given(interval_sets(), interval_sets())
def test_operations_agree_with_membership_oracle(a, b):
    table = {
        "union": lambda x, y: x or y,
        "intersect": lambda x, y: x and y,
        "diff": lambda x, y: x and not y,
        "symmdiff": lambda x, y: x != y,
    }
    results = {op: combine(op, a, b) for op in table}
    for q in _sample_points(a, b):
        in_a, in_b = membership(q, a), membership(q, b)
        for op, fn in table.items():
            assert membership(q, results[op]) == fn(in_a, in_b)
    comp = complement(a)
    for q in _sample_points(a):
        assert membership(q, comp) == (not membership(q, a))


def _assert_boolean_laws(a, b, c):
    assert union(a, b) == union(b, a)
    assert intersect(a, b) == intersect(b, a)
    assert union(union(a, b), c) == union(a, union(b, c))
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
    assert intersect(a, union(b, c)) == union(intersect(a, b), intersect(a, c))
    assert union(a, intersect(b, c)) == intersect(union(a, b), union(a, c))
    assert complement(union(a, b)) == intersect(complement(a), complement(b))
    assert complement(intersect(a, b)) == union(complement(a), complement(b))
    assert union(a, intersect(a, b)) == a
    assert intersect(a, union(a, b)) == a
    assert complement(complement(a)) == a


@settings(max_examples=200)
@given(interval_sets(), interval_sets(), interval_sets())
def test_boolean_laws(a, b, c):
    _assert_boolean_laws(a, b, c)


@settings(max_examples=200)
@given(interval_sets(), interval_sets())
def test_measure_finitely_additive_on_disjoint(a, b):
    b = difference(b, a)
    assert intersect(a, b) == EMPTY
    total = measure(union(a, b))
    ma, mb = measure(a), measure(b)
    if isinstance(ma, float) or isinstance(mb, float):
        assert total == math.inf
    else:
        assert total == ma + mb


def _measure_by_fraction_sums(a):
    """measure as a fold of Fraction sums, the reference for the integer sum."""
    if any(is_infinite(c.lo) or is_infinite(c.hi) for c in a.components):
        return POS_INF
    total = Fraction(0)
    for c in a.components:
        total += c.hi - c.lo
    return total


@settings(max_examples=300)
@given(st.one_of(interval_sets(max_components=8), colliding_interval_sets()))
def test_measure_equals_the_fraction_fold(a):
    got, want = measure(a), _measure_by_fraction_sums(a)
    assert got == want and type(got) is type(want)


@settings(max_examples=200)
@given(interval_sets())
def test_canonicalization_idempotent(a):
    assert IntervalSet.from_intervals(a.components) == a
    assert IntervalSet(a.components) == a


@settings(max_examples=100)
@given(interval_sets(), interval_sets())
def test_subset_of_intersection_and_union(a, b):
    assert is_subset(intersect(a, b), a)
    assert is_subset(a, union(a, b))


class TestValueSemantics:
    def test_repr_and_str(self):
        s = union(interval(0, 1), closed(2, 3))
        assert repr(s) == (
            "IntervalSet(components=("
            "Interval(lo=Fraction(0, 1), hi=Fraction(1, 1), lo_closed=False, hi_closed=False), "
            "Interval(lo=Fraction(2, 1), hi=Fraction(3, 1), lo_closed=True, hi_closed=True)))"
        )
        assert str(s) == "(0, 1) | [2, 3]"
        assert repr(EMPTY) == "IntervalSet(components=())"
        assert str(EMPTY) == "empty"
        assert repr(REALS) == (
            "IntervalSet(components=(Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False),))"
        )
        assert str(complement(s)) == "(-inf, 0] | [1, 2) | (3, inf)"
        assert str(points(2, 1)) == "{1} | {2}"

    def test_immutable(self):
        s = union(interval(0, 1), closed(2, 3))
        for name in ("components", "_vals", "_offs", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, ())
        with pytest.raises(FrozenInstanceError):
            del s.components
        assert str(s) == "(0, 1) | [2, 3]"

    def test_constructor_rejects_non_intervals(self):
        with pytest.raises(TypeError):
            IntervalSet(((Fraction(0), Fraction(1)),))

    def test_constructor_rejects_unsorted_or_overlapping(self):
        a = Interval(Fraction(0), Fraction(2))
        b = Interval(Fraction(1), Fraction(3))
        with pytest.raises(ValueError):
            IntervalSet((b, Interval(Fraction(-1), Fraction(0))))
        with pytest.raises(ValueError):
            IntervalSet((a, b))
        with pytest.raises(ValueError):
            IntervalSet((a, a))

    def test_hash_does_not_depend_on_the_process(self):
        # a set, a class or a smear must not iterate in a per-process order
        code = (
            "from unsharp.effects import box, smear\n"
            "from unsharp.intervals import interval\n"
            "from unsharp.quotient import project\n"
            "s = interval(0, 1)\n"
            "print(hash(s), hash(project(s)), hash(smear(s, box(1))))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=salt),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for salt in ("0", "1")
        ]
        assert outs[0] == outs[1] != ""


@settings(max_examples=200)
@given(colliding_interval_sets(), colliding_interval_sets())
def test_value_semantics(a, b):
    u = union(a, b)
    rebuilt = IntervalSet(u.components)
    assert rebuilt == u and hash(rebuilt) == hash(u)
    assert IntervalSet.from_intervals(u.components) == u
    flipped = union(b, a)
    assert flipped == u and hash(flipped) == hash(u)
    assert (a == b) == (repr(a) == repr(b))
    assert (a != b) == (repr(a) != repr(b))
    for s in (a, u, complement(u)):
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
        assert union(copy, b) == union(s, b)


def _probe_points(*sets):
    """Every finite endpoint, the midpoint between each pair of neighbouring
    endpoints, and one point beyond either end, in increasing order."""
    ends = sorted(
        {p for s in sets for c in s.components for p in (c.lo, c.hi) if not isinstance(p, float)}
    )
    if not ends:
        return [Fraction(0)]
    mids = [(p + q) / 2 for p, q in zip(ends, ends[1:])]
    return sorted(ends + mids + [ends[0] - 1, ends[-1] + 1])


def _contains(s, q):
    """Membership read off the components, independent of the cut sweep."""
    return any(c.contains(q) for c in s.components)


_TRUTH = {
    "union": lambda x, y: x or y,
    "intersect": lambda x, y: x and y,
    "diff": lambda x, y: x and not y,
    "symmdiff": lambda x, y: x != y,
}


@settings(max_examples=200)
@given(colliding_interval_sets(), colliding_interval_sets(), colliding_interval_sets())
def test_sweeps_exact_where_floats_collide(a, b, c):
    _assert_boolean_laws(a, b, c)
    results = {op: combine(op, a, b) for op in _TRUTH}
    comp = complement(a)
    for q in _probe_points(a, b):
        in_a, in_b = _contains(a, q), _contains(b, q)
        for op, fn in _TRUTH.items():
            assert _contains(results[op], q) == membership(q, results[op]) == fn(in_a, in_b)
        assert _contains(comp, q) == membership(q, comp) == (not in_a)


@settings(max_examples=200)
@given(colliding_interval_sets())
def test_project_exact_where_floats_collide(s):
    rep = project(s).rep
    pts = _probe_points(s)
    ends = {p for c in s.components for p in (c.lo, c.hi)}
    for k, q in enumerate(pts):
        if q in ends:  # open class: in iff the set fills both sides of q
            expected = _contains(s, pts[k - 1]) and _contains(s, pts[k + 1])
        else:  # between endpoints the class and the set agree
            expected = _contains(s, q)
        assert _contains(rep, q) == membership(q, rep) == expected
