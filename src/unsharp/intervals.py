"""Exact algebra of finite unions of intervals over the extended real line.

Endpoints are arbitrary-precision rationals (``fractions.Fraction``); the
symbols ``-inf``/``inf`` (Python floats) mark unbounded ends, which are always
open.  An :class:`Interval` is a slotted immutable value, checked once when it
is built and compared, hashed and pickled as a frozen dataclass would be.  An
:class:`IntervalSet` is kept in a canonical form: components sorted, pairwise
disjoint, and non-adjacent (no two components could be merged into a single
interval).  Two canonical sets are equal as point sets exactly when
their cut sequences compare equal, so Boolean-algebra laws can be asserted
with ``==``.

A cut is a pair ``(value, offset)`` with ``offset`` in {0, 1}: ``(q, 0)`` sits
at the point ``q`` and ``(q, 1)`` sits immediately above it.  An interval maps
to the half-open cut span ``[start, end)`` where

    start = (lo, 0) if lo is closed else (lo, 1)
    end   = (hi, 1) if hi is closed else (hi, 0)

Membership of a point ``x`` is ``start <= (x, 0) < end``.  Under this
encoding ``(0,1)`` and ``[1,2]`` touch (and merge to ``(0,2]``) while
``(0,1)`` and ``(1,2)`` do not, which is exactly the adjacency rule the
canonical form requires.

A set stores nothing but its flat cut sequence: a tuple of endpoint values
(start, end, start, end, ...) and a ``bytes`` of the matching offsets, in
strictly increasing cut order.  A point lies in the set exactly when an odd
number of cuts sit at or below it.  Set operations are one linear sweep over
two merged cut sequences; their results go straight into a new set, with no
re-validation, and :attr:`IntervalSet.components` builds ``Interval`` views
only when asked.  Validation happens once, in the public constructors.

The sweep orders cuts by float keys: ``float(value)``, or ``-inf``/``inf``
when that overflows.  The conversion rounds correctly, so keys are weakly
monotone in the value, and a smaller key means a smaller cut.  Only when two
keys are equal does the sweep compare the cuts exactly, and not even then
when both are the same endpoint object.  :meth:`IntervalSet.from_intervals`
sorts and merges spans by the same rule.  Keys order cuts and never decide
them, so every result is exact: no rounding anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .common import NEG_INF, POS_INF, Frozen, as_fraction, fraction_str, is_infinite, set_field

Endpoint = Union[Fraction, float]


class Interval(Frozen):
    """One interval with exact endpoints; an immutable value.

    Invariants: ``lo <= hi``; infinite endpoints are open; if ``lo == hi``
    both ends are closed (a singleton point).
    """

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(
        self, lo: Endpoint, hi: Endpoint, lo_closed: bool = False, hi_closed: bool = False
    ):
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_closed(self, lo_closed)
        _set_hi_closed(self, hi_closed)
        self.__post_init__()

    def __post_init__(self):
        """Validate the endpoints and coerce finite ones to ``Fraction``.  A
        method of its own, run once per checked construction: the benchmark
        counts built intervals by wrapping it."""
        lo, hi = self.lo, self.hi
        if lo.__class__ is not Fraction:
            if not is_infinite(lo):
                lo = as_fraction(lo)
                _set_lo(self, lo)
            elif lo != NEG_INF:
                raise ValueError("lower endpoint may be -inf but not +inf")
        if hi.__class__ is not Fraction:
            if not is_infinite(hi):
                hi = as_fraction(hi)
                _set_hi(self, hi)
            elif hi != POS_INF:
                raise ValueError("upper endpoint may be +inf but not -inf")
        # an infinite end is now -inf below or +inf above, so lo < hi holds
        # unless both ends are finite; a float end is an infinite one
        if lo < hi:
            if (self.lo_closed and isinstance(lo, float)) or (
                self.hi_closed and isinstance(hi, float)
            ):
                raise ValueError("infinite endpoints must be open")
        elif lo > hi:
            raise ValueError(f"malformed interval: lo {lo} > hi {hi}")
        elif not (self.lo_closed and self.hi_closed):
            raise ValueError("a zero-width interval must be closed on both ends")

    def __reduce__(self):
        return _view, (self.lo, self.hi, self.lo_closed, self.hi_closed)

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def span(self):
        start = (self.lo, 0 if self.lo_closed else 1)
        end = (self.hi, 1 if self.hi_closed else 0)
        return start, end

    def contains(self, q) -> bool:
        q = as_fraction(q)
        start, end = self.span()
        return start <= (q, 0) < end

    def __str__(self) -> str:
        return _format(self.lo, self.hi, self.lo_closed, self.hi_closed)


# The slots' own setters: they pass by the refusing __setattr__, and cost less
# than object.__setattr__, which looks the slot up by name on every call.
_set_lo, _set_hi, _set_lo_closed, _set_hi_closed = (
    Interval.__dict__[name].__set__ for name in Interval.__slots__
)


def _format(lo, hi, lo_closed: bool, hi_closed: bool) -> str:
    """An interval in the set-expression syntax: "{q}", "(a, b]", ..."""
    if lo == hi:
        return "{%s}" % fraction_str(lo)
    lb = "[" if lo_closed else "("
    rb = "]" if hi_closed else ")"
    return f"{lb}{fraction_str(lo)}, {fraction_str(hi)}{rb}"


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> "IntervalSet":
    """A one-interval set; open on both ends unless stated otherwise."""
    return IntervalSet((Interval(lo, hi, lo_closed, hi_closed),))


def closed(lo, hi) -> "IntervalSet":
    return interval(lo, hi, True, True)


def singleton(q) -> "IntervalSet":
    q = as_fraction(q)
    return interval(q, q, True, True)


def points(*qs) -> "IntervalSet":
    """The finite point set {q1, ..., qk}."""
    return IntervalSet.from_intervals(
        Interval(q, q, True, True) for q in map(as_fraction, qs)
    )


_new = object.__new__


def _make(vals: tuple, offs: bytes, keys) -> "IntervalSet":
    """Trusted constructor: ``vals``/``offs`` must already be a canonical cut
    sequence, and ``keys`` its float keys or None."""
    s = _new(IntervalSet)
    set_field(s, "_vals", vals)
    set_field(s, "_offs", offs)
    set_field(s, "_keys", keys)
    set_field(s, "_components", None)
    return s


def _key(v) -> float:
    """Sort key of an endpoint, weakly monotone in it: ``float(v)``, or an
    infinity where that overflows.  Integer true division rounds correctly,
    so for a rational it is ``float(v)`` without the ``Fraction`` call."""
    try:
        return v.numerator / v.denominator
    except OverflowError:
        return POS_INF if v > 0 else NEG_INF
    except AttributeError:  # an infinite endpoint is its own key
        return v


def _keys(s: "IntervalSet") -> tuple:
    """The float keys of a set's cuts, computed once and kept on the set."""
    keys = s._keys
    if keys is None:
        keys = tuple(map(_key, s._vals))
        set_field(s, "_keys", keys)
    return keys


def _view(lo, hi, lo_closed: bool, hi_closed: bool) -> Interval:
    """An ``Interval`` made without validation, from trusted endpoints."""
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    _set_lo_closed(iv, lo_closed)
    _set_hi_closed(iv, hi_closed)
    return iv


class IntervalSet(Frozen):
    """Canonical finite union of intervals, stored as its cut sequence.

    Construct through :meth:`from_intervals` (which normalizes any collection
    of intervals) or the module-level builders; the raw constructor insists
    that the components already are canonical.  Instances are immutable;
    equality, hash and repr read the cut sequence, not fields.
    """

    __slots__ = ("_vals", "_offs", "_keys", "_components")

    def __init__(self, components: Iterable[Interval] = ()):
        comps = tuple(components)
        vals, offs = [], []
        prev_end = None
        for c in comps:
            if not isinstance(c, Interval):
                raise TypeError("components must be Interval instances")
            start, end = c.span()
            if prev_end is not None and start <= prev_end:
                raise ValueError(
                    "components must be sorted, disjoint, and non-adjacent"
                )
            vals += (start[0], end[0])
            offs += (start[1], end[1])
            prev_end = end
        set_field(self, "_vals", tuple(vals))
        set_field(self, "_offs", bytes(offs))
        set_field(self, "_keys", None)
        set_field(self, "_components", comps)

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """Normalize an arbitrary collection of intervals to canonical form.

        Spans sort by float keys first, as in :func:`_sweep`, so endpoints
        are compared exactly only where their keys tie."""
        spans = sorted(
            (_key(iv.lo), iv.lo, 0 if iv.lo_closed else 1,
             _key(iv.hi), iv.hi, 1 if iv.hi_closed else 0)
            for iv in intervals
        )
        vals, offs = [], []
        top = NEG_INF  # key of the last end cut
        for klo, lo, olo, khi, hi, ohi in spans:
            # the span overlaps or touches the last component: start <= end
            if vals and (klo < top or klo == top and (lo, olo) <= (vals[-1], offs[-1])):
                if khi > top or khi == top and (hi, ohi) > (vals[-1], offs[-1]):
                    vals[-1], offs[-1], top = hi, ohi, khi
            else:
                vals += (lo, hi)
                offs += (olo, ohi)
                top = khi
        return _make(tuple(vals), bytes(offs), None)

    @property
    def components(self) -> tuple:
        """The components as ``Interval`` values, in increasing order."""
        comps = self._components
        if comps is None:
            vals, offs = self._vals, self._offs
            comps = tuple(
                _view(vals[k], vals[k + 1], offs[k] == 0, offs[k + 1] == 1)
                for k in range(0, len(vals), 2)
            )
            set_field(self, "_components", comps)
        return comps

    @property
    def is_empty(self) -> bool:
        return not self._vals

    def __reduce__(self):
        return _make, (self._vals, self._offs, None)

    def __eq__(self, other):
        if other.__class__ is not IntervalSet:
            return NotImplemented
        return self._vals == other._vals and self._offs == other._offs

    def __hash__(self) -> int:
        return hash(self._vals)  # Fraction and float hashes are the same in every process

    def __repr__(self) -> str:
        return f"IntervalSet(components={self.components!r})"

    def __contains__(self, q) -> bool:
        return membership(q, self)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return union(self, other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return intersect(self, other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return difference(self, other)

    def __xor__(self, other: "IntervalSet") -> "IntervalSet":
        return symmetric_difference(self, other)

    def __invert__(self) -> "IntervalSet":
        return complement(self)

    def __str__(self) -> str:
        vals, offs = self._vals, self._offs
        if not vals:
            return "empty"
        return " | ".join(
            _format(vals[k], vals[k + 1], offs[k] == 0, offs[k + 1] == 1)
            for k in range(0, len(vals), 2)
        )


EMPTY = IntervalSet()
REALS = IntervalSet((Interval(NEG_INF, POS_INF),))

# Truth tables indexed by 2*in_a + in_b.  Every table maps (out, out) to out,
# which the sweep relies on.
_TABLES = {
    "union": (False, True, True, True),
    "intersect": (False, False, False, True),
    "diff": (False, False, True, False),
    "symmdiff": (False, True, True, False),
}


def _sweep(a: IntervalSet, b: IntervalSet, table) -> IntervalSet:
    """Linear boolean sweep over the cut sequences of two canonical sets."""
    va, oa, ka = a._vals, a._offs, _keys(a)
    vb, ob, kb = b._vals, b._offs, _keys(b)
    na, nb = len(va), len(vb)
    vals, offs, keys = [], [], []
    i = j = 0
    state = False
    while i < na and j < nb:
        x, y = ka[i], kb[j]
        if x == y:  # equal keys: compare the cuts exactly
            x, y = va[i], vb[j]
            if x is y or x == y:
                x, y = oa[i], ob[j]
        if x < y:
            v, o, k = va[i], oa[i], ka[i]
            i += 1
        elif y < x:
            v, o, k = vb[j], ob[j], kb[j]
            j += 1
        else:
            v, o, k = va[i], oa[i], ka[i]
            i += 1
            j += 1
        new = table[2 * (i & 1) + (j & 1)]
        if new is not state:
            vals.append(v)
            offs.append(o)
            keys.append(k)
            state = new
    # One side is used up and outside; the other's cuts all count or none do.
    if i < na and table[2]:
        vals += va[i:]
        offs += oa[i:]
        keys += ka[i:]
    elif j < nb and table[1]:
        vals += vb[j:]
        offs += ob[j:]
        keys += kb[j:]
    return _make(tuple(vals), bytes(offs), tuple(keys))


def combine(op: str, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Apply one of {union, intersect, diff, symmdiff} exactly."""
    try:
        table = _TABLES[op]
    except KeyError:
        raise ValueError(f"unknown set operation {op!r}") from None
    return _sweep(a, b, table)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _sweep(a, b, _TABLES["union"])


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _sweep(a, b, _TABLES["intersect"])


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _sweep(a, b, _TABLES["diff"])


def symmetric_difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _sweep(a, b, _TABLES["symmdiff"])


def complement(a: IntervalSet) -> IntervalSet:
    """Complement in the real line; an exact involution on canonical forms.

    The cut sequence stays, except that the bottom cut ``(-inf, 1)`` and the
    top cut ``(inf, 0)`` each toggle in or out."""
    vals, offs, keys = a._vals, a._offs, _keys(a)
    n = len(vals)
    lo = 1 if n and is_infinite(vals[0]) else 0
    hi = n - 1 if n and is_infinite(vals[-1]) else n
    head, tail = not lo, hi == n
    return _make(
        (NEG_INF,) * head + vals[lo:hi] + (POS_INF,) * tail,
        b"\x01" * head + offs[lo:hi] + b"\x00" * tail,
        (NEG_INF,) * head + keys[lo:hi] + (POS_INF,) * tail,
    )


def measure(a: IntervalSet):
    """Lebesgue measure: exact rational, or ``inf`` if any component is unbounded.

    The component lengths are summed as integers over D, the lcm of the
    endpoints' denominators, and one Fraction is built from the sum."""
    vals = a._vals
    if vals and (is_infinite(vals[0]) or is_infinite(vals[-1])):
        return POS_INF
    D = lcm(*[v.denominator for v in vals])
    total = 0
    for k in range(0, len(vals), 2):
        lo, hi = vals[k], vals[k + 1]
        total += hi.numerator * (D // hi.denominator) - lo.numerator * (D // lo.denominator)
    return Fraction(total, D)


def membership(q, a: IntervalSet) -> bool:
    """Exact point membership test: an odd number of cuts at or below ``(q, 0)``."""
    q = as_fraction(q)
    vals = a._vals
    k = bisect_left(vals, q)
    if k < len(vals) and a._offs[k] == 0 and vals[k] == q:
        k += 1
    return k % 2 == 1


def is_subset(a: IntervalSet, b: IntervalSet) -> bool:
    return difference(a, b).is_empty
