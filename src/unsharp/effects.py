"""Unsharp position questions: confidence densities, smeared indicators, and
the partial algebra they generate.

Smearing an indicator with a confidence density is a convolution, evaluated
in closed form per interval component as a difference of the density's CDF.
Box and triangle CDFs are piecewise polynomials with rational coefficients,
so evaluation at a rational point is exact; the Gaussian CDF goes through
``math.erf`` (absolute error well below 1e-14).

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

Effects form expression trees over smear and constant leaves with three node
kinds: orthosum (built only after certifying the pointwise sum stays below
one), rational scaling, and complement-in-one.  Every tree caches a certified
range, a Lipschitz bound, both limits at infinity, and analytic tail bounds;
the certification helpers (orthogonality, ordering, vanishing at infinity)
combine those exact bounds with one shared grid search, ``_certify_upper``,
whose slack is controlled by the Lipschitz constant, so a positive answer is
always sound and an inconclusive search raises
:class:`~unsharp.errors.CannotCertify` instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from statistics import NormalDist

from .common import (
    NEG_INF,
    POS_INF,
    FloatClosures,
    as_fraction,
    float_above,
    float_below,
    is_infinite,
)
from .errors import CannotCertify, NotOrthogonal, UnsharpError
from .intervals import IntervalSet, intersect, is_subset

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_TAU = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()

# cushion applied to float-valued Lipschitz/peak bounds so they stay upper bounds
_UP = 1.0 + 1e-9
# tolerance for float noise when clamping evaluations into the certified range
_CLAMP_SLACK = 1e-12


# ---------------------------------------------------------------------------
# confidence densities


class _Density(FloatClosures):
    """Base of the detector densities; ``_build(low)`` makes the CDF closure."""

    def upper_tail(self, t):
        """Mass of the density above t, for t >= 0; exact for compact support."""
        if t >= self.mass_radius:
            return 0
        return 1 - self._exact(t)


@dataclass(frozen=True)
class BoxDensity(_Density):
    """Uniform density on (-width/2, width/2); total mass 1."""

    width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "width", as_fraction(self.width))
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def mass_radius(self) -> Fraction:
        return self.width / 2

    @property
    def peak(self) -> Fraction:
        return 1 / self.width

    def _build(self, low):
        h = self.width / 2
        left, right = low.below(-h), low.above(h)
        h, w = low.num(h), low.num(self.width)

        def cdf(x):
            if x <= left:
                return 0
            if x >= right:
                return 1
            return (x + h) / w

        return cdf

    def knots(self):
        h = self.width / 2
        return (-h, h)

    def describe(self) -> str:
        return f"box({self.width})"


@dataclass(frozen=True)
class TriangleDensity(_Density):
    """Symmetric triangular density on (-half_width, half_width)."""

    half_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "half_width", as_fraction(self.half_width))
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def mass_radius(self) -> Fraction:
        return self.half_width

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

    def knots(self):
        h = self.half_width
        return (-h, Fraction(0), h)

    def describe(self) -> str:
        return f"triangle({self.half_width})"


@dataclass(frozen=True)
class GaussianDensity(_Density):
    """Gaussian density with standard deviation sigma (evaluated in floats)."""

    sigma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sigma", as_fraction(self.sigma))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def mass_radius(self) -> None:
        return None  # unbounded support

    @property
    def peak(self) -> float:
        return _INV_SQRT_TAU / float(self.sigma) * _UP

    def _build(self, low):
        # a Fraction x divides by a float as float(x): both lowerings compute in floats
        s, erf = float(self.sigma), math.erf
        return lambda x: 0.5 * (1.0 + erf(x / s / _SQRT2))

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

    def describe(self) -> str:
        return f"gaussian({self.sigma})"


def box(width) -> BoxDensity:
    return BoxDensity(as_fraction(width))


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


@dataclass(frozen=True)
class Constant(Effect):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if not 0 <= self.value <= 1:
            raise ValueError("constant effects live in [0, 1]")

    # each node class keeps value_at in its own __dict__, where
    # bench/tracing.py wraps it to count and time top-level evaluations
    value_at = Effect.value_at

    def _build(self, low):
        return lambda q, value=self.value: value

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


@dataclass(frozen=True)
class SmearedIndicator(Effect):
    """The indicator of a set convolved with a confidence density.

    At q the value is the mass the density (centered at q) assigns to the
    set: sum over components of CDF(q - lo) - CDF(q - hi).
    """

    region: IntervalSet
    density: object

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


@dataclass(frozen=True)
class OrthoSum(Effect):
    """Pointwise sum of two effects; built only once orthogonality is known."""

    left: Effect
    right: Effect

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


@dataclass(frozen=True)
class Scaled(Effect):
    """Rational multiple a*f with a in (0, 1]."""

    factor: Fraction
    inner: Effect

    def __post_init__(self):
        object.__setattr__(self, "factor", as_fraction(self.factor))
        if not 0 < self.factor <= 1:
            raise ValueError("scale factor must lie in (0, 1]")

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


@dataclass(frozen=True)
class Complemented(Effect):
    """The complement-in-one, 1 - f."""

    inner: Effect

    value_at = Effect.value_at

    def _build(self, low):
        inner = self.inner._closure(low)
        return lambda q: 1 - inner(q)

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
    """The unsharp question "is the value in s?" asked through detector e."""
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

_GRID_START = 1 << 10
_GRID_CAP = 1 << 20
_TAIL_EPS = 2.0**-40


def _grid_minmax(value_at, x0: float, x1: float, pts: int):
    step = (x1 - x0) / pts
    vmin = math.inf
    vmax = -math.inf
    argmin = argmax = x0
    for i in range(pts + 1):
        x = x0 + i * step
        v = float(value_at(x))
        if v < vmin:
            vmin, argmin = v, x
        if v > vmax:
            vmax, argmax = v, x
    return vmin, argmin, vmax, argmax


def _certify_upper(h, c: float, windows, L: float, settled: bool, what: str):
    """Certify h <= c on the windows by doubling grids, h being L-Lipschitz.
    Returns a refuting grid argmax ``(x, h(x))``, or None once every window's
    max plus half a step of slack is at most c and ``settled`` (the verdict
    outside the windows) holds; raises :class:`CannotCertify` at the cap."""
    pts = _GRID_START
    while pts <= _GRID_CAP:
        worst = -math.inf
        for x0, x1 in windows:
            _, _, vmax, argmax = _grid_minmax(h, x0, x1, pts)
            if vmax > c + _CLAMP_SLACK:
                return argmax, vmax
            worst = max(worst, vmax + L * (x1 - x0) / pts / 2.0)
        if worst <= c and settled:
            return None
        pts *= 2
    raise CannotCertify(f"{what} certification exhausted its grid budget")


def orthogonality(f: Effect, g: Effect):
    """Certify sup(f + g) <= 1.  Returns None on success; raises
    :class:`NotOrthogonal` with a witness point when refuted and
    :class:`CannotCertify` when the refinement budget runs out."""
    if isinstance(f, SmearedIndicator) and isinstance(g, SmearedIndicator):
        if f.density == g.density and intersect(f.region, g.region).is_empty:
            return  # indicators of disjoint sets sum to at most one everywhere
    if isinstance(g, Complemented) and g.inner == f:
        return
    if isinstance(f, Complemented) and f.inner == g:
        return
    if f.range_hi + g.range_hi <= 1:
        return
    if f.range_lo + g.range_lo > 1:
        v = float(f.value_at(0.0)) + float(g.value_at(0.0))
        raise NotOrthogonal("sum exceeds 1 everywhere", witness_point=0.0, witness_value=v)

    L = f.lipschitz + g.lipschitz
    H = max(f.tail_radius(_TAIL_EPS), g.tail_radius(_TAIL_EPS), 1.0)
    fo = f.outside_bounds(H)
    go = g.outside_bounds(H)
    for side, probe in ((0, -(H + 1.0)), (1, H + 1.0)):
        if fo[side][0] + go[side][0] > 1:
            v = float(f.value_at(probe)) + float(g.value_at(probe))
            if v > 1:
                raise NotOrthogonal(
                    "sum exceeds 1 beyond the horizon", witness_point=probe, witness_value=v
                )
    out_hi = max(float(fo[0][1] + go[0][1]), float(fo[1][1] + go[1][1]))

    total = lambda x: float(f.value_at(x)) + float(g.value_at(x))
    refuted = _certify_upper(total, 1.0, ((-H, H),), L, out_hi <= 1.0, "orthogonality")
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


@dataclass(frozen=True)
class LeqResult:
    """Outcome of an ordering check: on success carries the gap effect C with
    f + C = g pointwise; on failure carries a point where f exceeds g."""

    holds: bool
    witness_effect: Effect | None = None
    witness_point: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def leq(f: Effect, g: Effect) -> LeqResult:
    """Certify f <= g pointwise, or refute it with a witness point."""
    if f == g:
        return LeqResult(True, witness_effect=Constant(Fraction(0)))
    if isinstance(f, Scaled) and f.inner == g:
        # a*g <= g for nonnegative g; the gap is exactly (1-a)*g
        return LeqResult(True, witness_effect=Scaled(1 - f.factor, g))
    if (
        isinstance(f, SmearedIndicator)
        and isinstance(g, SmearedIndicator)
        and f.density == g.density
        and is_subset(f.region, g.region)
    ):
        return LeqResult(True, witness_effect=_difference_effect(g, f))
    if g.range_lo >= f.range_hi:
        return LeqResult(True, witness_effect=_difference_effect(g, f))
    if g.range_hi < f.range_lo:
        return LeqResult(False, witness_point=0.0)

    L = f.lipschitz + g.lipschitz
    H = max(f.tail_radius(_TAIL_EPS), g.tail_radius(_TAIL_EPS), 1.0)
    fo = f.outside_bounds(H)
    go = g.outside_bounds(H)
    for side, probe in ((0, -(H + 1.0)), (1, H + 1.0)):
        if float(go[side][1]) - float(fo[side][0]) < 0.0:
            if float(f.value_at(probe)) > float(g.value_at(probe)):
                return LeqResult(False, witness_point=probe)
    out_lo = min(
        float(go[0][0]) - float(fo[0][1]),
        float(go[1][0]) - float(fo[1][1]),
    )

    # the exact float negation of the gap g - f: its first grid argmax is the
    # gap's first argmin
    excess = lambda x: float(f.value_at(x)) - float(g.value_at(x))
    refuted = _certify_upper(excess, 0.0, ((-H, H),), L, out_lo >= 0.0, "ordering")
    if refuted is not None:
        return LeqResult(False, witness_point=refuted[0])
    return LeqResult(True, witness_effect=_difference_effect(g, f))


def vanishes_at_infinity(f: Effect, tol, horizon) -> bool:
    """Certify (or refute) that f stays at or below tol outside
    [-horizon, horizon].  Exact for compact-support detectors, analytic tail
    bounds for Gaussians; raises :class:`CannotCertify` when inconclusive."""
    tol_f = float(tol)
    horizon_f = float(horizon)
    if horizon_f <= 0:
        raise ValueError("horizon must be positive")
    (llo, lhi), (rlo, rhi) = f.outside_bounds(horizon)
    if max(lhi, rhi) <= tol:
        return True
    if llo > tol or rlo > tol:
        return False

    # the horizon cuts into the active zone: bound the two rings by grid
    eps = min(_TAIL_EPS, tol_f / 4 if tol_f > 0 else _TAIL_EPS)
    H = max(f.tail_radius(eps), horizon_f)
    (llo2, lhi2), (rlo2, rhi2) = f.outside_bounds(H)
    if max(float(lhi2), float(rhi2)) > tol_f:
        return _ring_refute_or_fail(f, tol_f, horizon_f, H)
    rings = tuple((x0, x1) for x0, x1 in ((-H, -horizon_f), (horizon_f, H)) if x1 > x0)
    return _certify_upper(f.value_at, tol_f, rings, f.lipschitz, True, "vanishing") is None


def _ring_refute_or_fail(f, tol_f, horizon_f, H):
    pts = _GRID_CAP >> 4
    for x0, x1 in ((-H, -horizon_f), (horizon_f, H)):
        if x1 <= x0:
            continue
        _, _, vmax, _ = _grid_minmax(f.value_at, x0, x1, pts)
        if vmax > tol_f + _CLAMP_SLACK:
            return False
    raise CannotCertify("cannot certify vanishing: tail bound exceeds tolerance")


def effect_range_on(f: Effect, region: IntervalSet, tail_eps: float = 1e-12, pts: int = 64):
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
            vmin, _, vmax, _ = _grid_minmax(f.value_at, ga, gb, pts)
            slack = L * (gb - ga) / pts / 2.0
            lo = min(lo, vmin - slack)
            hi = max(hi, vmax + slack)
        else:
            v = float(f.value_at(ga))
            lo = min(lo, v)
            hi = max(hi, v)
    lo = max(lo, float(f.range_lo))
    hi = min(hi, float(f.range_hi))
    return lo, hi


def describe(f: Effect) -> str:
    return f.describe()
