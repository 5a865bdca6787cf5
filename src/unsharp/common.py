"""Shared primitives: extended-real endpoints, rational coercion, sentinels."""

from __future__ import annotations

import math
from fractions import Fraction

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


class FloatClosures:
    """Base of immutable values that cache float closures in ``_float*``
    attributes.  Pickled state leaves the closures out; they are built again
    on first use."""

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if not k.startswith("_float")}


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
