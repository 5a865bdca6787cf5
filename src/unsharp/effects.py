"""Unsharp position questions: confidence densities, smeared indicators, and
the partial algebra they generate.

Smearing an indicator with a confidence density is a convolution, evaluated
in closed form per interval component as a difference of the density's CDF.
Box and triangle CDFs are piecewise polynomials with rational coefficients,
so evaluation at a rational point is exact; the Gaussian CDF goes through
``math.erf`` (absolute error well below 1e-14).  Detectors are centred; the
density models of :mod:`unsharp.states` place the box and Gaussian anywhere.

Each node and density writes its evaluator once, as a closure builder
``_build(low)`` that takes a lowering from :mod:`unsharp.common`.  Under
``EXACT`` every rational constant stays as it is, so a rational query is
answered exactly.  Under ``FLOAT`` every rational becomes the float the mixed
Fraction/float arithmetic would convert it to, and every knot the nearest
float on the correct side of its comparison, so a float query (the kind every
certification grid, squeeze and quadrature makes) gets, bit for bit, what the
EXACT closure would give it, including the int 0 or 1 or exact Fraction of a
branch that yields one.  Each closure is built once per instance from the
children's closures under the same lowering and cached.

A box or triangle smear answers exact queries through an integer form
instead: its endpoints and detector are scaled once to integers over one
common denominator, each query sums the detector's integer CDF numerators,
and one Fraction is built from the sum.  The ``_build(low)`` formula still
serves FLOAT queries and Gaussian detectors, and it is the reference the
integer form is tested against, value and type.

Effects form expression trees over smear and constant leaves with three node
kinds: orthosum (built only after certifying the pointwise sum stays below
one), rational scaling, and complement-in-one.  Every tree caches a certified
range, a Lipschitz bound and both limits at infinity, and every node bounds
its values on a panel [x0, x1], ends possibly infinite, by ``enclose``:
a smear term F(q - a) - F(q - b) lies in
[F(x0 - a) - F(x1 - b), F(x1 - a) - F(x0 - b)] ∩ [0, 1], and scaling,
complement and orthosum pass enclosures on by interval arithmetic.  Each
float step of an enclosure rounds outward: endpoints to the floats just below
and above them, CDF arguments one ``nextafter`` step out, every float CDF
value widened by ``_CDF_ERR``, a stated bound on its float error, and every
inexact sum or product one step out.

The certification helpers (orthogonality, vanishing at infinity) combine the
exact range bounds with one best-first branch and bound over enclosures,
``_certify_upper``, on windows that cover the whole line or both tails.
Ordering is orthogonality to the complement, f <= g exactly when
f + (1 - g) <= 1, so :func:`leq` certifies through :func:`orthogonality`.
Smears through one detector, each possibly complemented (1 - smear(S) is
smear(complement(S)) pointwise), are compared by their regions modulo null
sets, which a smear ignores.  In the search, a panel whose enclosure settles
the question is discharged, and any other is evaluated at an inner point,
``_split``, which either refutes (and is the witness) or splits it.  So a
positive answer is always sound, and an inconclusive search raises
:class:`~unsharp.errors.CannotCertify` instead of guessing.
:func:`effect_range_on` alone still brackets by a Lipschitz grid and analytic
tail bounds, and :func:`range_stays_wide` reads that grid's slack to tell,
without evaluating, when its bracket cannot be narrower than a given width.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from functools import cached_property
from statistics import NormalDist

from .common import (
    EXACT,
    NEG_INF,
    POS_INF,
    FloatClosures,
    Frozen,
    as_fraction,
    float_above,
    float_below,
    is_infinite,
    set_field,
)
from .errors import CannotCertify, NotOrthogonal, UnsharpError
from .intervals import IntervalSet, complement, intersect
from .quotient import project

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_TAU = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()

# cushion applied to float-valued Lipschitz/peak bounds so they stay upper bounds
_UP = 1.0 + 1e-9
# tolerance for float noise when clamping evaluations into the certified range
_CLAMP_SLACK = 1e-12
# bound on |float CDF - true CDF| at a float argument.  The box and triangle
# CDFs round a handful of operations on values in [0, 1] (at most about 5 units
# of 2**-53); the Gaussian CDF adds libm's erf (within one ulp) and the rounded
# argument x / sigma / sqrt(2) (at most about 3 units of 2**-53 in all).  The
# margin also absorbs the rounding of the widening itself.
_CDF_ERR = 2.0**-48


def _add_down(a, b):
    """A float at most a + b: the rounded sum, one step down unless it is exact
    (the exactness test is Fast2Sum's, valid for finite operands)."""
    s = a + b
    return s if s - a == b and s - b == a else math.nextafter(s, NEG_INF)


def _add_up(a, b):
    """A float at least a + b: the rounded sum, one step up unless it is exact."""
    s = a + b
    return s if s - a == b and s - b == a else math.nextafter(s, POS_INF)


# ---------------------------------------------------------------------------
# confidence densities


class _Density(FloatClosures):
    """Base of the confidence densities; ``_build(low)`` makes the CDF closure.
    As model parts, boxes and Gaussians also give a mixture CDF term, window
    at k sigma, weighted pdf, piece constant, weighted tail, ppf and spelling."""

    @cached_property
    def _cdf_err(self):
        # _CDF_ERR counts rounding at full precision; a parameter below the
        # normal float range rounds coarser, and the float CDF is then only
        # known to lie in [0, 1]
        return _CDF_ERR if self._smallest_parameter >= sys.float_info.min else 1.0

    def enclose(self, t0: float, t1: float):
        """Bounds (lo, hi) on the CDF over [t0, t1]: its float values at the
        two ends, each widened by its error bound unless a knot branch gave
        an exact 0 or 1."""
        lo, hi, err = self._float(t0), self._float(t1), self._cdf_err
        if lo.__class__ is not int:
            lo = max(lo - err, 0.0)
        if hi.__class__ is not int:
            hi = min(hi + err, 1.0)
        return lo, hi

    def upper_tail(self, t):
        """Mass of the density above t, for t >= 0; exact for compact support."""
        if t >= self.mass_radius:
            return 0
        return 1 - self._exact(t)

    #: The CDF in integers, for the densities whose CDF is a piecewise
    #: polynomial with rational coefficients (a box and a triangle): see
    #: :meth:`BoxDensity._int_cdf`.
    _int_cdf = None


class BoxDensity(_Density):
    """Uniform density on (lo, hi); total mass 1."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        set_field(self, "lo", as_fraction(lo))
        set_field(self, "hi", as_fraction(hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mass_radius(self) -> Fraction:
        return max(-self.lo, self.hi)

    @property
    def _smallest_parameter(self) -> Fraction:
        return self.width / 2

    @property
    def peak(self) -> Fraction:
        return 1 / self.width

    def _cdf_term(self, low):
        """The knots as compared and the operands of (x - lo) / width."""
        return low.below(self.lo), low.above(self.hi), low.num(self.lo), low.num(self.width)

    def _build(self, low):
        left, right, lo, w = self._cdf_term(low)

        def cdf(x):
            if x <= left:
                return 0
            if x >= right:
                return 1
            return (x - lo) / w

        return cdf

    def _int_cdf(self, D: int):
        """The CDF in integers over the grid 1/D, for a D that clears the
        denominators of the fields: ``(left, span, den, num)``.  The support
        is [left, left + span] in units of 1/D.  In units of 1/(k D), for an
        integer k >= 1, with s = k span, a point Y units right of the
        support's left end has CDF 0 for Y <= 0, 1 for Y >= s, and
        num(Y, s) / den(s) in between.  For a box, den(s) = s (the width W
        in units of 1/(k D)) and num(Y, s) = Y."""
        return (self.lo * D).numerator, (self.width * D).numerator, _box_den, _box_num

    def knots(self):
        return (self.lo, self.hi)

    def window(self, k: float):
        return float(self.lo), float(self.hi)

    def _weighted_pdf(self, w):
        c, lo, hi = float(w / self.width), float(self.lo), float(self.hi)
        return lambda x: c if lo <= x <= hi else 0.0

    def _piece_constant(self, w, mid: float):
        return float(w / self.width) if float(self.lo) < mid < float(self.hi) else 0.0

    def _weighted_tail(self, w: float):
        lo, hi = float(self.lo), float(self.hi)
        return lambda x: 0.0 if x >= hi else w if x <= lo else w * ((hi - x) / (hi - lo))

    @cached_property
    def _float_ppf(self):
        lo, hi = float(self.lo), float(self.hi)
        return lambda u: lo + (hi - lo) * u

    _narrow_width = 0.0

    def describe(self) -> str:
        return f"box({self.width})"

    def model_text(self) -> str:
        return f"uniform({self.lo}, {self.hi})"


class TriangleDensity(_Density):
    """Symmetric triangular density on (-half_width, half_width)."""

    _fields = ("half_width",)

    def __init__(self, half_width: Fraction):
        h = as_fraction(half_width)
        # the float CDF divides by 2 * half_width**2, which must not round to 0.0
        h2 = 2 * h * h
        if h <= 0 or h2 < 1 and not float(h2):
            raise ValueError("half_width must be positive, with 2*half_width**2 positive as a float")
        set_field(self, "half_width", h)

    @property
    def mass_radius(self) -> Fraction:
        return self.half_width

    @property
    def _smallest_parameter(self) -> Fraction:
        return min(self.half_width, 2 * self.half_width * self.half_width)

    @property
    def peak(self) -> Fraction:
        return 1 / self.half_width

    def _build(self, low):
        h = self.half_width
        left, right, h2 = low.below(-h), low.above(h), low.num(2 * h * h)
        h = low.num(h)

        def cdf(x):
            if x <= left:
                return 0
            if x >= right:
                return 1
            if x <= 0:
                return (x + h) * (x + h) / h2
            return 1 - (h - x) * (h - x) / h2

        return cdf

    def _int_cdf(self, D: int):
        """The integer form of :meth:`BoxDensity._int_cdf`, with support
        [-H, H] for H = half_width D: den(s) = s**2 / 2, which is 2 (k H)**2,
        and num(Y, s) = Y**2 up to the centre, den(s) - (s - Y)**2 past it."""
        H = (self.half_width * D).numerator
        return -H, 2 * H, _triangle_den, _triangle_num

    def knots(self):
        h = self.half_width
        return (-h, Fraction(0), h)

    def describe(self) -> str:
        return f"triangle({self.half_width})"


class GaussianDensity(_Density):
    """Gaussian density with standard deviation sigma about mean (evaluated in
    floats)."""

    _fields = ("sigma", "mean")

    def __init__(self, sigma: Fraction, mean: Fraction = Fraction(0)):
        mean, sigma = as_fraction(mean), as_fraction(sigma)
        # the CDF is computed in floats, where sigma must not round to 0.0
        if sigma <= 0 or sigma < 1 and not float(sigma):
            raise ValueError("sigma must be positive as a float")
        set_field(self, "sigma", sigma)
        set_field(self, "mean", mean)

    @property
    def mass_radius(self) -> None:
        return None  # unbounded support

    @property
    def _smallest_parameter(self) -> Fraction:
        return self.sigma

    @property
    def peak(self) -> float:
        return _INV_SQRT_TAU / float(self.sigma) * _UP

    def _cdf_term(self, low):
        # no knots; a Fraction x less a float is float(x): floats under both lowerings
        return None, None, float(self.mean), float(self.sigma)

    def _build(self, low):
        _, _, m, s = self._cdf_term(low)
        erf = math.erf
        return lambda x: 0.5 * (1.0 + erf((x - m) / s / _SQRT2))

    def upper_tail(self, t) -> float:
        z = float(t) / float(self.sigma)
        v = 0.5 * math.erfc(z / _SQRT2) * _UP
        # the true tail is never zero; keep the bound honest under underflow
        return v if v > 0.0 else 5e-324

    def tail_radius(self, eps: float) -> float:
        """Distance beyond which the upper tail is at most eps."""
        p = min(max(float(eps) / _UP, 1e-300), 0.5)
        return -float(self.sigma) * _STD_NORMAL.inv_cdf(p)

    def knots(self):
        return ()

    def window(self, k: float):
        m, s = float(self.mean), float(self.sigma)
        return m - k * s, m + k * s

    def _weighted_pdf(self, w):
        w, m, s = float(w), float(self.mean), float(self.sigma)
        norm = s * math.sqrt(2 * math.pi)
        return lambda x: w * math.exp(-0.5 * (z := (x - m) / s) * z) / norm

    def _piece_constant(self, w, mid: float):
        return None

    def _weighted_tail(self, w: float):
        m, s = float(self.mean), float(self.sigma) * _SQRT2
        return lambda x: w * 0.5 * math.erfc((x - m) / s)

    @cached_property
    def _float_ppf(self):
        return NormalDist(float(self.mean), float(self.sigma)).inv_cdf

    @cached_property
    def _narrow_width(self) -> float:
        """sharp_probability integrates the pdf on cells narrower than this."""
        return 2.0**-20 * float(self.sigma)

    def describe(self) -> str:
        return f"gaussian({self.sigma})"

    def model_text(self) -> str:
        return f"gaussian({self.mean}, {self.sigma})"


def _box_den(s):
    return s


def _box_num(Y, s):
    return Y


def _triangle_den(s):
    return s * s >> 1


def _triangle_num(Y, s):
    return Y * Y if 2 * Y <= s else (s * s >> 1) - (s - Y) * (s - Y)


def box(width) -> BoxDensity:
    w = as_fraction(width)
    # the float CDF divides by the width, which must not round to 0.0
    if w <= 0 or w < 1 and not float(w):
        raise ValueError("width must be positive as a float")
    return BoxDensity(-w / 2, w / 2)


def triangle(half_width) -> TriangleDensity:
    return TriangleDensity(as_fraction(half_width))


def gaussian(sigma) -> GaussianDensity:
    return GaussianDensity(as_fraction(sigma))


# ---------------------------------------------------------------------------
# effect trees


class Effect(FloatClosures):
    """Base class; all nodes are immutable and cache their certified bounds.

    Each node writes its evaluator once, as ``_build(low)``, from its
    children's closures under the same lowering.  ``value_at(q)`` reads a
    float q through the cached FLOAT closure and every other q through the
    cached EXACT one."""

    def value_at(self, q):
        return self._float(q) if q.__class__ is float else self._exact(q)

    # enclose(x0, x1) -> (lo, hi), per node: floats (or the ints 0 and 1)
    # with lo <= value_at(q) <= hi for every real q in the panel [x0, x1],
    # where x0 <= x1 are floats and either may be infinite

    def __call__(self, q):
        return evaluate(self, q)

    # certified data, overridden per node

    @property
    def range_lo(self) -> Fraction:
        return self.range_bounds[0]

    @property
    def range_hi(self) -> Fraction:
        return self.range_bounds[1]

    @cached_property
    def _float_range(self):
        # for every float v: v < lo iff v < first, and v > hi iff v > second
        lo, hi = self.range_bounds
        return float_above(lo), float_below(hi)


class Constant(Effect):
    _fields = ("value",)

    def __init__(self, value: Fraction):
        value = as_fraction(value)
        if not 0 <= value <= 1:
            raise ValueError("constant effects live in [0, 1]")
        set_field(self, "value", value)

    # each node class keeps value_at in its own __dict__, where
    # bench/tracing.py wraps it to count and time top-level evaluations
    value_at = Effect.value_at

    def _build(self, low):
        return lambda q, value=self.value: value

    @cached_property
    def _enclosure(self):
        return (float_below(self.value), float_above(self.value))

    def enclose(self, x0, x1):
        return self._enclosure

    @cached_property
    def range_bounds(self):
        return (self.value, self.value)

    @property
    def lipschitz(self) -> float:
        return 0.0

    @cached_property
    def limits(self):
        return (self.value, self.value)

    def knots(self):
        return ()

    def outside_bounds(self, horizon):
        pair = (self.value, self.value)
        return (pair, pair)

    def tail_radius(self, eps) -> float:
        return 0.0

    def describe(self) -> str:
        return f"const({self.value})"


class SmearedIndicator(Effect):
    """The indicator of a set convolved with a confidence density.

    At q the value is the mass the density (centered at q) assigns to the
    set: sum over components of CDF(q - lo) - CDF(q - hi).
    """

    _fields = ("region", "density")

    def __init__(self, region: IntervalSet, density):
        set_field(self, "region", region)
        set_field(self, "density", density)

    @cached_property
    def _pairs(self):
        return tuple((c.lo, c.hi) for c in self.region.components)

    @cached_property
    def _finite_endpoints(self):
        pts = []
        for a, b in self._pairs:
            if not is_infinite(a):
                pts.append(a)
            if not is_infinite(b):
                pts.append(b)
        return tuple(pts)

    value_at = Effect.value_at

    def _build(self, low):
        # a region with no finite endpoint never reads the density, so its CDF,
        # which a parameter beyond float range makes fail, is not built
        cdf = self.density._closure(low) if self._finite_endpoints else None
        pairs = tuple(
            (None if is_infinite(a) else low.num(a), None if is_infinite(b) else low.num(b))
            for a, b in self._pairs
        )

        def value(q):
            total = 0
            for a, b in pairs:
                upper = 1 if a is None else cdf(q - a)
                lower = 0 if b is None else cdf(q - b)
                total = total + (upper - lower)
            return total

        return value

    @cached_property
    def _exact(self):
        """The EXACT closure; for a box or triangle detector it sums integers.

        The finite endpoints and the detector's fields are scaled once to
        integers over D, the lcm of all their denominators.  A query n/m is
        lifted to the grid 1/(k D), with k D = lcm(D, m); each CDF term is the
        integer numerator of the detector's :meth:`~BoxDensity._int_cdf` over
        one common denominator, and one Fraction is built at the end.  That
        gives the value of the ``_build(EXACT)`` closure, and its type: the
        int 0 or 1 when every CDF term took its 0 or 1 branch, else a
        Fraction.  A query without ``numerator`` and ``denominator`` (a float
        where a parameter is beyond float range) takes ``_build(EXACT)``."""
        generic = self._build(EXACT)
        int_cdf = self.density._int_cdf
        if int_cdf is None:
            return generic
        # the fields count even when no endpoint is finite
        D = math.lcm(*[t.denominator for t in self._finite_endpoints + self.density._astuple()])
        left, span, den_of, num = int_cdf(D)
        pairs = tuple(
            tuple(None if is_infinite(t) else (t * D).numerator + left for t in pair)
            for pair in self._pairs
        )
        gcd = math.gcd

        def value(q):
            try:
                n, m = q.numerator, q.denominator
            except AttributeError:
                return generic(q)
            g = gcd(D, m)
            k = m // g
            X, s = n * (D // g), k * span
            den = den_of(s)
            total, interior = 0, False
            for a, b in pairs:
                if a is None:
                    total += den
                else:
                    Y = X - k * a
                    if Y >= s:
                        total += den
                    elif Y > 0:
                        total += num(Y, s)
                        interior = True
                if b is not None:
                    Y = X - k * b
                    if Y >= s:
                        total -= den
                    elif Y > 0:
                        total -= num(Y, s)
                        interior = True
            return Fraction(total, den) if interior else total // den

        return value

    @cached_property
    def _float_pairs(self):
        # each finite endpoint as the floats just below and above it; a
        # single-point component adds F(q - a) - F(q - a) = 0 and is left out
        return tuple(
            tuple(None if is_infinite(t) else (float_below(t), float_above(t)) for t in pair)
            for pair in self._pairs
            if pair[0] != pair[1]
        )

    def enclose(self, x0, x1):
        # F(q - a) and F(q - b) are nondecreasing in q, so on [x0, x1] the term
        # F(q - a) - F(q - b) lies in [F(x0 - a) - F(x1 - b), F(x1 - a) - F(x0 - b)];
        # each CDF argument is rounded one step outward
        d, nxt = self.density, math.nextafter
        lo = hi = 0
        for a, b in self._float_pairs:
            a_lo, a_hi = (1, 1) if a is None else d.enclose(
                nxt(x0 - a[1], NEG_INF), nxt(x1 - a[0], POS_INF)
            )
            b_lo, b_hi = (0, 0) if b is None else d.enclose(
                nxt(x0 - b[1], NEG_INF), nxt(x1 - b[0], POS_INF)
            )
            lo = _add_down(lo, max(_add_down(a_lo, -b_hi), 0))
            hi = _add_up(hi, min(_add_up(a_hi, -b_lo), 1))
        return lo, min(hi, 1)

    @cached_property
    def range_bounds(self):
        if not self._pairs:
            return (Fraction(0), Fraction(0))
        if self._pairs == ((NEG_INF, POS_INF),):
            return (Fraction(1), Fraction(1))
        return (Fraction(0), Fraction(1))

    @cached_property
    def lipschitz(self) -> float:
        if not self._finite_endpoints:
            return 0.0
        return 2.0 * len(self._pairs) * float(self.density.peak) * _UP

    @cached_property
    def limits(self):
        if not self._pairs:
            return (Fraction(0), Fraction(0))
        left = Fraction(1) if is_infinite(self._pairs[0][0]) else Fraction(0)
        right = Fraction(1) if is_infinite(self._pairs[-1][1]) else Fraction(0)
        return (left, right)

    def knots(self):
        pts = set()
        for p in self._finite_endpoints:
            pts.add(p)
            for d in self.density.knots():
                pts.add(p + d)
        return tuple(sorted(pts))

    def outside_bounds(self, horizon):
        left_lim, right_lim = self.limits
        pts = self._finite_endpoints
        if not pts:
            return ((left_lim, left_lim), (right_lim, right_lim))
        pmin, pmax = min(pts), max(pts)
        k = len(pts)

        def side(limit, distance):
            if distance <= 0:
                return (Fraction(0), Fraction(1))
            dev = k * self.density.upper_tail(distance)
            return (max(limit - dev, 0), min(limit + dev, 1))

        return (side(left_lim, pmin + horizon), side(right_lim, horizon - pmax))

    def tail_radius(self, eps) -> float:
        pts = self._finite_endpoints
        if not pts:
            return 0.0
        extent = float(max(abs(min(pts)), abs(max(pts))))
        radius = self.density.mass_radius
        if radius is not None:
            return extent + float(radius)
        return extent + self.density.tail_radius(float(eps) / len(pts))

    def describe(self) -> str:
        return f"smear({self.region}; {self.density.describe()})"


class OrthoSum(Effect):
    """Pointwise sum of two effects; built only once orthogonality is known."""

    _fields = ("left", "right")

    def __init__(self, left: Effect, right: Effect):
        set_field(self, "left", left)
        set_field(self, "right", right)

    value_at = Effect.value_at

    def _build(self, low):
        left, right = self.left._closure(low), self.right._closure(low)

        def value(q):
            x, y = left(q), right(q)
            # a Fraction meeting a float adds as its float, without the fallback
            if x.__class__ is Fraction:
                if y.__class__ is float:
                    return x.numerator / x.denominator + y
            elif y.__class__ is Fraction and x.__class__ is float:
                return x + y.numerator / y.denominator
            return x + y

        return value

    def enclose(self, x0, x1):
        llo, lhi = self.left.enclose(x0, x1)
        rlo, rhi = self.right.enclose(x0, x1)
        # an orthosum is certified to stay at or below one
        return _add_down(llo, rlo), min(_add_up(lhi, rhi), 1)

    @cached_property
    def range_bounds(self):
        llo, lhi = self.left.range_bounds
        rlo, rhi = self.right.range_bounds
        return (llo + rlo, min(lhi + rhi, Fraction(1)))

    @cached_property
    def lipschitz(self) -> float:
        return self.left.lipschitz + self.right.lipschitz

    @cached_property
    def limits(self):
        ll, lr = self.left.limits
        rl, rr = self.right.limits
        return (ll + rl, lr + rr)

    def knots(self):
        return tuple(sorted(set(self.left.knots()) | set(self.right.knots())))

    def outside_bounds(self, horizon):
        (lll, llh), (lrl, lrh) = self.left.outside_bounds(horizon)
        (rll, rlh), (rrl, rrh) = self.right.outside_bounds(horizon)
        clip = lambda v: min(max(v, 0), 1)
        return (
            (clip(lll + rll), clip(llh + rlh)),
            (clip(lrl + rrl), clip(lrh + rrh)),
        )

    def tail_radius(self, eps) -> float:
        half = eps / 2
        return max(self.left.tail_radius(half), self.right.tail_radius(half))

    def describe(self) -> str:
        return f"oplus({self.left.describe()}; {self.right.describe()})"


class Scaled(Effect):
    """Rational multiple a*f with a in (0, 1]."""

    _fields = ("factor", "inner")

    def __init__(self, factor: Fraction, inner: Effect):
        factor = as_fraction(factor)
        if not 0 < factor <= 1:
            raise ValueError("scale factor must lie in (0, 1]")
        set_field(self, "factor", factor)
        set_field(self, "inner", inner)

    value_at = Effect.value_at

    def _build(self, low):
        inner, a, fa = self.inner._closure(low), self.factor, low.num(self.factor)
        # a far-away smear yields an int 0 or 1, and a times it stays exact
        exact = {0: a * 0, 1: a * 1}

        def value(q):
            v = inner(q)
            if v.__class__ is float:
                return fa * v
            p = exact.get(v)
            return a * v if p is None else p

        return value

    @cached_property
    def _float_factor(self):
        return float_below(self.factor), float_above(self.factor)

    def enclose(self, x0, x1):
        lo, hi = self.inner.enclose(x0, x1)
        a_lo, a_hi = self._float_factor
        # a product with 0 or 1 is exact; any other rounds one step outward
        lo = a_lo * lo if lo == 0 or lo == 1 else math.nextafter(a_lo * lo, NEG_INF)
        hi = a_hi * hi if hi == 0 or hi == 1 else math.nextafter(a_hi * hi, POS_INF)
        return lo, hi

    @cached_property
    def range_bounds(self):
        lo, hi = self.inner.range_bounds
        return (self.factor * lo, self.factor * hi)

    @cached_property
    def lipschitz(self) -> float:
        return float(self.factor) * self.inner.lipschitz

    @cached_property
    def limits(self):
        left, right = self.inner.limits
        return (self.factor * left, self.factor * right)

    def knots(self):
        return self.inner.knots()

    def outside_bounds(self, horizon):
        (ll, lh), (rl, rh) = self.inner.outside_bounds(horizon)
        a = self.factor
        return ((a * ll, a * lh), (a * rl, a * rh))

    def tail_radius(self, eps) -> float:
        return self.inner.tail_radius(eps / float(self.factor))

    def describe(self) -> str:
        return f"scale({self.factor}; {self.inner.describe()})"


class Complemented(Effect):
    """The complement-in-one, 1 - f."""

    _fields = ("inner",)

    def __init__(self, inner: Effect):
        set_field(self, "inner", inner)

    value_at = Effect.value_at

    def _build(self, low):
        inner = self.inner._closure(low)
        return lambda q: 1 - inner(q)

    def enclose(self, x0, x1):
        lo, hi = self.inner.enclose(x0, x1)
        return _add_down(1, -hi), _add_up(1, -lo)

    @cached_property
    def range_bounds(self):
        lo, hi = self.inner.range_bounds
        return (1 - hi, 1 - lo)

    @cached_property
    def lipschitz(self) -> float:
        return self.inner.lipschitz

    @cached_property
    def limits(self):
        left, right = self.inner.limits
        return (1 - left, 1 - right)

    def knots(self):
        return self.inner.knots()

    def outside_bounds(self, horizon):
        (ll, lh), (rl, rh) = self.inner.outside_bounds(horizon)
        return ((1 - lh, 1 - ll), (1 - rh, 1 - rl))

    def tail_radius(self, eps) -> float:
        return self.inner.tail_radius(eps)

    def describe(self) -> str:
        return f"neg({self.inner.describe()})"


# ---------------------------------------------------------------------------
# constructors


def constant(c) -> Constant:
    return Constant(as_fraction(c))


def smear(s: IntervalSet, e) -> SmearedIndicator:
    """The unsharp question "is the value in s?" asked through detector e,
    which must be centred at 0: its tail bounds read one tail for both sides."""
    if tuple(-k for k in reversed(e.knots())) != e.knots() or getattr(e, "mean", 0):
        raise ValueError("a detector density must be centred at 0")
    return SmearedIndicator(s, e)


def neg(f: Effect) -> Effect:
    """Complement-in-one; for smears this matches smearing the complement set."""
    if isinstance(f, Complemented):
        return f.inner
    if isinstance(f, Constant):
        return Constant(1 - f.value)
    return Complemented(f)


def scale(a, f: Effect) -> Effect:
    a = as_fraction(a)
    if not 0 < a <= 1:
        raise ValueError("scale factor must lie in (0, 1]")
    if a == 1:
        return f
    if isinstance(f, Constant):
        return Constant(a * f.value)
    if isinstance(f, Scaled):
        return Scaled(a * f.factor, f.inner)
    return Scaled(a, f)


def evaluate(f: Effect, q):
    """Evaluate an effect at a point; exact when the tree is float-free.

    Float round-off may leave the raw value a hair outside the certified
    range; it is then clamped to the range boundary.  A larger excursion is a
    bug, not noise, and raises."""
    v = f.value_at(q)
    if isinstance(v, (Fraction, int)):
        return v
    lo, hi = f.range_bounds
    float_lo, float_hi = f._float_range
    if v < float_lo:
        if v < float(lo) - _CLAMP_SLACK:
            raise UnsharpError(f"evaluation {v!r} escaped certified range [{lo}, {hi}]")
        return float(lo)
    if v > float_hi:
        if v > float(hi) + _CLAMP_SLACK:
            raise UnsharpError(f"evaluation {v!r} escaped certified range [{lo}, {hi}]")
        return float(hi)
    return v


# ---------------------------------------------------------------------------
# numeric certification helpers

# midpoint evaluations one certificate may make before it gives up
_EVAL_CAP = 1 << 13


def _grid_minmax(value_at, x0: float, x1: float, pts: int):
    step = (x1 - x0) / pts
    values = [float(value_at(x0 + i * step)) for i in range(pts + 1)]
    return min(values), max(values)


def _split(x0: float, x1: float) -> float:
    """Where the search evaluates and splits the panel [x0, x1]: its midpoint
    if finite, 0 for the whole line, and on a tail panel a point past twice
    its finite end, so tail panels move out by doubling (to ±inf on
    overflow)."""
    if x0 == NEG_INF:
        return 0.0 if x1 == POS_INF else 2.0 * min(x1, 0.0) - 1.0
    if x1 == POS_INF:
        return 2.0 * max(x0, 0.0) + 1.0
    return 0.5 * x0 + 0.5 * x1


def _certify_upper(h, upper, c: float, windows, message: str):
    """Certify h <= c on the windows, whose ends may be infinite, by
    best-first branch and bound.

    ``upper(x0, x1)`` bounds h from above on the panel [x0, x1].  A panel is
    discharged when that bound is at most c.  Otherwise the open panel with the
    largest bound (ties broken by position) is evaluated at its split point m
    (see :func:`_split`), which refutes when ``h(m) > c + _CLAMP_SLACK``; if it
    does not, the panel is split at m.  Returns the refuting ``(m, h(m))``, or
    None once every panel is discharged.  Raises :class:`CannotCertify` with
    ``message`` otherwise: when a split point overflows, or at the latest after
    ``_EVAL_CAP`` evaluations."""
    heap = [(-u, x0, x1) for x0, x1 in windows if (u := upper(x0, x1)) > c]
    heapq.heapify(heap)
    for _ in range(_EVAL_CAP):
        if not heap:
            return None
        _, x0, x1 = heapq.heappop(heap)
        m = _split(x0, x1)
        if math.isinf(m):
            raise CannotCertify(message)
        v = h(m)
        if v > c + _CLAMP_SLACK:
            return m, v
        for a, b in ((x0, m), (m, x1)):
            u = upper(a, b)
            if u > c:
                heapq.heappush(heap, (-u, a, b))
    if heap:
        raise CannotCertify(message)
    return None


def _smear_parts(f: Effect):
    """(density, region, complemented) when f is a smear, or the complement of
    one, which is pointwise the smear of the complement region; else None.
    A multiple a*h with 0 < a <= 1 reads as h, which bounds it from above."""
    if isinstance(f, Scaled):
        f = f.inner
    if isinstance(f, Complemented) and isinstance(f.inner, SmearedIndicator):
        return f.inner.density, f.inner.region, True
    if isinstance(f, SmearedIndicator):
        return f.density, f.region, False
    return None


def orthogonality(f: Effect, g: Effect):
    """Certify sup(f + g) <= 1 over the whole line.  Returns None on success;
    raises :class:`NotOrthogonal` with a finite witness point when refuted and
    :class:`CannotCertify` when the search runs out of budget or of floats.

    Two smears through one detector, each possibly complemented, are
    orthogonal when their regions meet in a null set, since a smear ignores
    null sets: smear(A) + smear(B) = smear(A | B) + smear(A & B) <= 1.  Either
    may also be scaled by a factor a in (0, 1], since a*h <= h."""
    fs, gs = _smear_parts(f), _smear_parts(g)
    if fs and gs and fs[0] == gs[0]:
        a, b = (complement(region) if co else region for _, region, co in (fs, gs))
        if project(intersect(a, b)).is_zero:
            return
    if isinstance(g, Complemented) and g.inner == f:
        return
    if isinstance(f, Complemented) and f.inner == g:
        return
    if f.range_hi + g.range_hi <= 1:
        return
    if f.range_lo + g.range_lo > 1:
        v = float(f.value_at(0.0)) + float(g.value_at(0.0))
        raise NotOrthogonal("sum exceeds 1 everywhere", witness_point=0.0, witness_value=v)

    total = lambda x: float(f.value_at(x)) + float(g.value_at(x))
    upper = lambda x0, x1: _add_up(f.enclose(x0, x1)[1], g.enclose(x0, x1)[1])
    refuted = _certify_upper(
        total, upper, 1.0, ((NEG_INF, POS_INF),),
        "orthogonality certification exhausted its grid budget",
    )
    if refuted is not None:
        raise NotOrthogonal("sum exceeds 1", witness_point=refuted[0], witness_value=refuted[1])


def oplus(f: Effect, g: Effect) -> Effect:
    """Orthosum: defined exactly when f + g stays at or below 1."""
    orthogonality(f, g)
    return OrthoSum(f, g)


def _difference_effect(g: Effect, f: Effect) -> Effect:
    # g - f as an effect tree, valid once f <= g is certified
    if f == g:
        return Constant(Fraction(0))
    if isinstance(f, Constant) and f.value == 0:
        return g
    return Complemented(OrthoSum(Complemented(g), f))


class LeqResult(Frozen):
    """Outcome of an ordering check: on success carries the gap effect C with
    f + C = g pointwise; on failure carries a point where f exceeds g."""

    _fields = ("holds", "witness_effect", "witness_point")

    def __init__(
        self, holds: bool, witness_effect: Effect | None = None, witness_point: float | None = None
    ):
        set_field(self, "holds", holds)
        set_field(self, "witness_effect", witness_effect)
        set_field(self, "witness_point", witness_point)

    def __bool__(self) -> bool:
        return self.holds


def leq(f: Effect, g: Effect) -> LeqResult:
    """Certify f <= g pointwise, or refute it with a witness point.

    In an effect algebra f <= g exactly when f is orthogonal to 1 - g, so the
    certificate is :func:`orthogonality` of f and ``neg(g)`` (two smears
    through one detector are thus compared by their regions modulo null
    sets), and the gap g - f is the complement of their orthosum."""
    if isinstance(f, Scaled) and f.inner == g:
        # a*g <= g for nonnegative g; the gap is exactly (1-a)*g
        return LeqResult(True, witness_effect=Scaled(1 - f.factor, g))
    try:
        orthogonality(f, neg(g))
    except NotOrthogonal as exc:
        return LeqResult(False, witness_point=exc.witness_point)
    except CannotCertify as exc:
        raise CannotCertify("ordering certification exhausted its grid budget") from exc
    return LeqResult(True, witness_effect=_difference_effect(g, f))


def vanishes_at_infinity(f: Effect, tol, horizon) -> bool:
    """Certify (or refute) that f stays at or below tol outside
    [-horizon, horizon]: by the certified range of f, else by a branch and
    bound over the tails (-inf, -horizon) and (horizon, inf).  Raises
    :class:`CannotCertify` when inconclusive, as for a Gaussian smear at
    tol 0, whose tail is positive everywhere."""
    tol_f = float(tol)
    horizon_f = float(horizon)
    if horizon_f <= 0:
        raise ValueError("horizon must be positive")
    if f.range_hi <= tol:
        return True
    if f.range_lo > tol:
        return False
    tails = ((NEG_INF, -horizon_f), (horizon_f, POS_INF))
    upper = lambda x0, x1: f.enclose(x0, x1)[1]
    message = "vanishing certification exhausted its grid budget"
    return _certify_upper(f.value_at, upper, tol_f, tails, message) is None


# grid steps effect_range_on takes over each component
_RANGE_PTS = 64


def _grid_slack(L: float, x0: float, x1: float, pts: int) -> float:
    """How far :func:`effect_range_on` widens a grid's min and max over
    [x0, x1] on each side: half of one of its ``pts`` steps times the
    Lipschitz bound ``L``."""
    return L * (x1 - x0) / pts / 2.0


def range_stays_wide(f: Effect, region: IntervalSet, tol: float) -> bool:
    """True only if ``effect_range_on(f, region)`` is at least ``tol > 0``
    wide, judged from its grid slack without evaluating f.

    The test: the region is bounded, the float range of f is at least tol
    wide, and the widest component gets slack S >= 2 tol + 2 _CLAMP_SLACK.
    Before the clamp the bracket holds [vmin - S, vmax + S], at least 2 S
    wide.  Clamped on one side only, it keeps S minus the float excursion of
    ``value_at`` past the range (at most _CLAMP_SLACK) minus the rounding of
    the sums (a few units of 2**-53 on values in [0, 1], under the second
    _CLAMP_SLACK).  Clamped on both sides, it is the float range.

    A bounded region containing one that passes passes too: the component
    around the widest one is at least as wide, so it gets at least that S."""
    vals = region._vals
    if is_infinite(vals[0]) or is_infinite(vals[-1]):
        return False
    if float(f.range_hi) - float(f.range_lo) < tol:
        return False
    ga, gb = max(
        ((float(vals[k]), float(vals[k + 1])) for k in range(0, len(vals), 2)),
        key=lambda c: c[1] - c[0],
    )
    return _grid_slack(f.lipschitz, ga, gb, _RANGE_PTS) >= 2.0 * tol + 2.0 * _CLAMP_SLACK


def effect_range_on(f: Effect, region: IntervalSet, tail_eps: float = 1e-12):
    """Certified bracket [lo, hi] around {f(q) : q in region} (closure).

    Bounded components are bracketed by a grid with Lipschitz slack;
    unbounded components combine a grid out to the quiet radius with the
    analytic tail bounds.
    """
    if region.is_empty:
        raise ValueError("cannot bound an effect on the empty region")
    L = f.lipschitz
    lo = math.inf
    hi = -math.inf
    base_radius = None
    for c in region.components:
        a, b = c.lo, c.hi
        ga: float
        gb: float
        if is_infinite(a):
            if base_radius is None:
                base_radius = f.tail_radius(tail_eps)
            h_left = max(base_radius, -float(b) if not is_infinite(b) else base_radius, 1.0)
            (plo, phi), _ = f.outside_bounds(h_left)
            lo = min(lo, float(plo))
            hi = max(hi, float(phi))
            ga = -h_left
        else:
            ga = float(a)
        if is_infinite(b):
            if base_radius is None:
                base_radius = f.tail_radius(tail_eps)
            h_right = max(base_radius, float(a) if not is_infinite(a) else base_radius, 1.0)
            _, (plo, phi) = f.outside_bounds(h_right)
            lo = min(lo, float(plo))
            hi = max(hi, float(phi))
            gb = h_right
        else:
            gb = float(b)
        if gb > ga:
            vmin, vmax = _grid_minmax(f.value_at, ga, gb, _RANGE_PTS)
            slack = _grid_slack(L, ga, gb, _RANGE_PTS)
            lo = min(lo, vmin - slack)
            hi = max(hi, vmax + slack)
        else:
            v = float(f.value_at(ga))
            lo = min(lo, v)
            hi = max(hi, v)
    lo = max(lo, float(f.range_lo))
    hi = min(hi, float(f.range_hi))
    return lo, hi
