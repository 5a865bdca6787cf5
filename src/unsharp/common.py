"""Shared primitives: extended-real endpoints, rational coercion, the two
lowerings of an evaluator, sentinels."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Seed used by every CLI subcommand unless overridden by --seed or UNSHARP_SEED.
DEFAULT_SEED = 4711


def is_infinite(x) -> bool:
    return isinstance(x, float) and math.isinf(x)


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact rational.

    Accepts Fraction, int, and strings ("3", "-5/8", "0.25"; decimals are read
    exactly).  Floats are rejected: an inexact endpoint would silently break
    the exact algebra.  Use :func:`snap_to_rational` to admit a float on
    purpose.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("cannot interpret a bool as a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {x!r}") from exc
    if isinstance(x, float):
        raise TypeError(
            f"refusing to coerce float {x!r} to a rational; "
            "pass a string or Fraction, or call snap_to_rational"
        )
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def float_below(t) -> float:
    """The largest float <= the rational t: for every float x, ``x <= t``
    exactly iff ``x <= float_below(t)``."""
    f = float(t)
    return math.nextafter(f, -math.inf) if f > t else f


def float_above(t) -> float:
    """The smallest float >= the rational t: for every float x, ``x >= t``
    exactly iff ``x >= float_above(t)``."""
    f = float(t)
    return math.nextafter(f, math.inf) if f < t else f


#: How an evaluator's rational constants become operands: ``num`` for a value,
#: ``below``/``above`` for a knot compared with ``<=``/``>=``.
Lowering = namedtuple("Lowering", "num below above")


def _keep(t):
    return t


#: Keeps every rational as it is: the closure computes in exact arithmetic,
#: mixed with floats only where a float operand or a float query enters.
EXACT = Lowering(_keep, _keep, _keep)

#: Turns every rational into the float that Python's mixed Fraction/float
#: arithmetic would use, and every knot into the nearest float on the side of
#: the comparison, so that on float queries the closure gives, bit for bit and
#: type for type, what the EXACT closure gives.
FLOAT = Lowering(float, float_below, float_above)


class FloatClosures:
    """Base of immutable values that evaluate through one closure builder,
    ``_build(low)``.  Its EXACT closure is cached in ``_exact`` and its FLOAT
    closure in ``_float``; where a parameter lies beyond float range the float
    closure is the exact one.  Pickled state leaves the closures out; they are
    built again on first use."""

    @cached_property
    def _exact(self):
        return self._build(EXACT)

    @cached_property
    def _float(self):
        try:
            return self._build(FLOAT)
        except OverflowError:  # a parameter beyond float range: keep the exact arithmetic
            return self._exact

    def _closure(self, low: Lowering):
        return self._float if low is FLOAT else self._exact

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if not k.startswith(("_float", "_exact"))}


def snap_to_rational(x: float, max_denominator: int = 10**12) -> Fraction:
    """Snap a float to a nearby rational with bounded denominator."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot snap a non-finite value")
    return Fraction(x).limit_denominator(max_denominator)


def fraction_str(x) -> str:
    """Serialize an exact endpoint: "p/q" (or "p"), "inf", "-inf"."""
    if is_infinite(x):
        return "inf" if x > 0 else "-inf"
    return str(Fraction(x))


def float_str(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False


#: Returned when a partial sharp state cannot decide a question.  A result,
#: not an error: partial sharp states are never totalized.
UNDETERMINED = _Sentinel("Undetermined")

#: Returned by convergence analysis when truncated meets escape to infinity.
DIVERGENT = _Sentinel("Divergent")
