"""Exact interval-set algebra: canonical form, Boolean laws, measure."""

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

from unsharp.quotient import project

from strategies import colliding_interval_sets, interval_sets

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
