"""State evaluation: point states, density states, partial sharp states from
filter bases, and escaping states.

Density states integrate an effect against a closed-form probability density.
Two independent numerical routes exist on purpose: :func:`eval_density` uses
adaptive Simpson panels split at every knot of the integrand, while
:func:`mixture_expectation` evaluates the same ignorance-decomposition
integral with a composite Gauss-Legendre rule on its own mesh, so one route
can check the other without sharing failure modes.

Sharp states induced by filter bases are partial: :func:`eval_sharp` answers
1, 0, or :data:`~unsharp.common.UNDETERMINED` and is never totalized.

Each model writes its CDF once, as a closure builder ``_build(low)`` over the
lowerings of :mod:`unsharp.common`.  :func:`cdf` reads a rational point
through the ``EXACT`` closure, so it is exact for uniform-only models, and a
finite float point through the ``FLOAT`` closure, which gives bit for bit what
the ``EXACT`` closure would give it.  The closed-form :func:`ppf` branches
cache their float parameters in the same way.
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
    UNDETERMINED,
    FloatClosures,
    as_fraction,
    is_infinite,
)
from .effects import Effect, effect_range_on, evaluate
from .filters import FilterBase, doubling_depths, escaping_base
from .intervals import Interval, IntervalSet, REALS
from .quadrature import adaptive_simpson_pieces, gauss_legendre
from .quotient import QuotientClass, point_membership_state, q_leq, q_not

_STD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# density models


class _Model(FloatClosures):
    def _build(self, low):
        """The CDF at finite x.  Normal parts compute in floats under both
        lowerings; uniform parts compare x with their ends through the
        lowering's knots."""
        terms = [
            (w, low.num(w), low.below(c.lo), low.above(c.hi), low.num(c.lo), low.num(c.hi - c.lo))
            if isinstance(c, Uniform)
            else (w, low.num(w), None, None, float(c.mean), float(c.sigma))
            for w, c in _as_parts(self)
        ]
        erf = math.erf

        def cdf(x):
            # w * 0 and w * 1 stay exact until the total turns float, and a
            # float total adds them as float(w * 0) == 0.0 and float(w) == fw
            total = 0
            for w, fw, below, above, shift, spread in terms:
                if below is None:
                    total = total + fw * (0.5 * (1.0 + erf((x - shift) / spread / _SQRT2)))
                elif x <= below:
                    total = total + 0.0 if total.__class__ is float else total + _ZERO
                elif x >= above:
                    total = total + fw if total.__class__ is float else total + w
                else:
                    total = total + fw * ((x - shift) / spread)
            return total

        return cdf


@dataclass(frozen=True)
class Uniform(_Model):
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("uniform model needs lo < hi")

    @cached_property
    def _float_ppf(self):
        lo, hi = float(self.lo), float(self.hi)
        return lambda u: lo + (hi - lo) * u

    def describe(self) -> str:
        return f"uniform({self.lo}, {self.hi})"


@dataclass(frozen=True)
class Normal(_Model):
    mean: Fraction
    sigma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mean", as_fraction(self.mean))
        object.__setattr__(self, "sigma", as_fraction(self.sigma))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @cached_property
    def _float_ppf(self):
        return NormalDist(float(self.mean), float(self.sigma)).inv_cdf

    def describe(self) -> str:
        return f"gaussian({self.mean}, {self.sigma})"


@dataclass(frozen=True)
class Mixture(_Model):
    """Finite convex mixture; weights are exact and sum to one."""

    parts: tuple

    def __post_init__(self):
        parts = tuple((as_fraction(w), comp) for w, comp in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("mixture needs at least one part")
        for w, comp in parts:
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            if not isinstance(comp, (Uniform, Normal)):
                raise TypeError("mixture parts must be Uniform or Normal models")
        if sum(w for w, _ in parts) != 1:
            raise ValueError("mixture weights must sum to exactly 1")

    def describe(self) -> str:
        inner = "; ".join(f"{w}*{comp.describe()}" for w, comp in self.parts)
        return f"mix({inner})"


def uniform(lo, hi) -> Uniform:
    return Uniform(as_fraction(lo), as_fraction(hi))


def normal(mean, sigma) -> Normal:
    return Normal(as_fraction(mean), as_fraction(sigma))


def mixture(*parts) -> Mixture:
    return Mixture(tuple(parts))


def _as_parts(d):
    if isinstance(d, Mixture):
        return d.parts
    return ((Fraction(1), d),)


def pdf(d, x) -> float:
    total = 0.0
    xf = float(x)
    for w, comp in _as_parts(d):
        if isinstance(comp, Uniform):
            if float(comp.lo) <= xf <= float(comp.hi):
                total += float(w / (comp.hi - comp.lo))
        else:
            z = (xf - float(comp.mean)) / float(comp.sigma)
            total += float(w) * math.exp(-0.5 * z * z) / (float(comp.sigma) * math.sqrt(2 * math.pi))
    return total


def cdf(d, x):
    """Distribution function; exact rational when every part is uniform and
    x is exact, float otherwise, and exactly 0 or 1 at -inf or inf.  A float x
    is read through the model's FLOAT closure, any other x through its EXACT
    one."""
    if x.__class__ is float:
        if math.isinf(x):
            return Fraction(1 if x > 0 else 0)
        return d._float(x)
    return d._exact(x)


def ppf(d, u: float) -> float:
    """Inverse distribution function; closed form where available, monotone
    bisection to 1e-12 for mixtures."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    if isinstance(d, (Uniform, Normal)):
        return d._float_ppf(u)
    lo, hi = _bracket(d, u)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            return mid
        if float(cdf(d, mid)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bracket(d, u: float):
    lo = math.inf
    hi = -math.inf
    for _, comp in _as_parts(d):
        if isinstance(comp, Uniform):
            lo = min(lo, float(comp.lo))
            hi = max(hi, float(comp.hi))
        else:
            lo = min(lo, float(comp.mean) - 10.0 * float(comp.sigma))
            hi = max(hi, float(comp.mean) + 10.0 * float(comp.sigma))
    while float(cdf(d, lo)) >= u:
        lo -= max(1.0, hi - lo)
    while float(cdf(d, hi)) <= u:
        hi += max(1.0, hi - lo)
    return lo, hi


def support(d) -> IntervalSet:
    """Closed support: the smallest closed set of full probability.  It is the
    set a density state assigns to the position question as a whole (the
    literal intersection of all probability-one sets is empty, since
    co-singletons qualify)."""
    pieces = []
    for _, comp in _as_parts(d):
        if isinstance(comp, Uniform):
            pieces.append(Interval(comp.lo, comp.hi, True, True))
        else:
            return REALS
    return IntervalSet.from_intervals(pieces)


def model_knots(d):
    pts = set()
    for _, comp in _as_parts(d):
        if isinstance(comp, Uniform):
            pts.add(comp.lo)
            pts.add(comp.hi)
    return pts


# ---------------------------------------------------------------------------
# sharp probabilities and state evaluation


def sharp_probability(d, s: IntervalSet):
    """Probability that the sharp value lies in s: summed CDF differences.
    Exact for uniform-only models; null sets get probability zero."""
    total = 0
    for c in s.components:
        lo = NEG_INF if is_infinite(c.lo) else c.lo
        hi = POS_INF if is_infinite(c.hi) else c.hi
        total = total + (cdf(d, hi) - cdf(d, lo))
    return total


def eval_point(lam, f: Effect):
    """The point state: the effect's response curve read at the point."""
    return evaluate(f, lam)


def _piece_weight(d, mid: float):
    """Density restricted to a knot-free piece as a smooth callable.

    Uniform parts are branch-selected once by the piece midpoint, so the
    returned function is smooth on the whole closed piece."""
    const = 0.0
    gauss = []
    for w, comp in _as_parts(d):
        if isinstance(comp, Uniform):
            if float(comp.lo) < mid < float(comp.hi):
                const += float(w / (comp.hi - comp.lo))
        else:
            gauss.append((float(w), float(comp.mean), float(comp.sigma)))
    if not gauss:
        return lambda x: const

    def weight(x: float) -> float:
        total = const
        for w, mu, sig in gauss:
            z = (x - mu) / sig
            total += w * math.exp(-0.5 * z * z) / (sig * math.sqrt(2 * math.pi))
        return total

    return weight


def _domain(d, tail_mass: float):
    """Truncation window covering all probability except at most tail_mass."""
    lo = math.inf
    hi = -math.inf
    parts = _as_parts(d)
    budget = tail_mass / len(parts)
    for w, comp in parts:
        if isinstance(comp, Uniform):
            lo = min(lo, float(comp.lo))
            hi = max(hi, float(comp.hi))
        else:
            share = budget / float(w) if w > 0 else 0.5
            z = -_STD_NORMAL.inv_cdf(min(max(share / 2, 1e-300), 0.5))
            lo = min(lo, float(comp.mean) - z * float(comp.sigma))
            hi = max(hi, float(comp.mean) + z * float(comp.sigma))
    return lo, hi


def _pieces(d, f: Effect, lo: float, hi: float):
    cuts = {lo, hi}
    for p in model_knots(d):
        pf = float(p)
        if lo < pf < hi:
            cuts.add(pf)
    for p in f.knots():
        pf = float(p)
        if lo < pf < hi:
            cuts.add(pf)
    return sorted(cuts)


def eval_density(d, f: Effect, tol: float) -> float:
    """Expectation of an effect in a density state, by adaptive Simpson with
    panels split at every knot; truncation tails carry at most tol/10."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = _domain(d, tail_mass=tol / 10.0)
    cuts = _pieces(d, f, lo, hi)
    total = 0.0
    width = cuts[-1] - cuts[0]
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        w = _piece_weight(d, 0.5 * (a + b))
        integrand = lambda x, w=w: float(f.value_at(x)) * w(x)
        total += adaptive_simpson_pieces(integrand, [a, b], tol * 0.8 * (b - a) / width)
    return total


def mixture_expectation(d, f: Effect, tol: float) -> float:
    """The same expectation computed the decomposed way: integrate the point
    state's value against the mixing measure, on an independent mesh
    (composite Gauss-Legendre, per-part truncation at tol/20)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = 0.0
    for w, comp in _as_parts(d):
        if w == 0:
            continue
        wlo, whi = _domain(comp, tail_mass=float(tol) / 20.0)
        cuts = _pieces(comp, f, wlo, whi)
        pieces_total = 0.0
        width = cuts[-1] - cuts[0]
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            weight = _piece_weight(comp, 0.5 * (a + b))
            integrand = lambda lam, weight=weight: float(eval_point(lam, f)) * weight(lam)
            pieces_total += gauss_legendre(integrand, [a, b], tol * 0.4 * (b - a) / width)
        total += float(w) * pieces_total
    return total


# ---------------------------------------------------------------------------
# partial sharp states and escaping states


@dataclass(frozen=True)
class StateHandle:
    """One handle over the four state variants.

    Point and density states are total on effects; sharp and escaping states
    may answer :data:`UNDETERMINED`.  Construct through :func:`point_state`,
    :func:`density_state`, :func:`sharp_state`, or :func:`escaping_state`.
    """

    kind: str  # "point" | "density" | "sharp" | "escaping"
    payload: object

    def value_of(self, f: Effect, depth: int = 2**40, tol=1e-9):
        if self.kind == "point":
            return eval_point(self.payload, f)
        if self.kind == "density":
            return eval_density(self.payload, f, float(tol))
        return filter_effect_value(self.payload, f, depth, tol)

    def sharp_value_of(self, x: QuotientClass, depth: int = 64):
        """Answer a sharp question where the variant can."""
        if self.kind == "point":
            return point_membership_state(self.payload, x.rep)
        if self.kind == "density":
            return sharp_probability(self.payload, x.rep)
        return eval_sharp(self.payload, x, depth)

    def describe(self) -> str:
        if self.kind in ("point", "escaping"):
            return f"{self.kind}({self.payload})" if self.kind == "point" else "escaping"
        if self.kind == "density":
            return self.payload.describe()
        return f"sharp[{self.payload.describe()}]"


def point_state(lam) -> StateHandle:
    return StateHandle("point", as_fraction(lam))


def density_state(d) -> StateHandle:
    return StateHandle("density", d)


def sharp_state(base: FilterBase) -> StateHandle:
    return StateHandle("sharp", base)


def escaping_state(direction: int = 1, depth: int = 2**40) -> StateHandle:
    return StateHandle("escaping", escaping_base(depth, direction))


def eval_sharp(base: FilterBase, x: QuotientClass, depth: int):
    """Partial two-valued state induced by a filter base.

    Returns 1 when the depth-truncated meet of the base is below x, 0 when it
    is below the complement of x, :data:`UNDETERMINED` otherwise.  Because
    meets only shrink as elements accumulate, the truncated meet decides every
    question any sub-meet of those elements decides."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    m = base.truncated_meet(depth)
    if m.is_zero:
        return UNDETERMINED
    if q_leq(m, x):
        return 1
    if q_leq(m, q_not(x)):
        return 0
    return UNDETERMINED


def filter_effect_value(base: FilterBase, f: Effect, depth: int, tol):
    """Squeeze an effect's value along a filter base.

    Over truncated meets M_k the certified bracket [inf f, sup f] is computed;
    once its width drops below tol the midpoint is returned.  For a base
    converging to a point this equals the response curve at that point (the
    curve is Lipschitz and the meets shrink onto the point); for escaping
    bases and effects that vanish at infinity it returns a value within tol of
    zero.  Returns :data:`UNDETERMINED` if the squeeze never closes."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tol_f = float(tol)
    if tol_f <= 0:
        raise ValueError("tol must be positive")
    lo_r, hi_r = f.range_bounds
    if hi_r - lo_r < tol:
        return (lo_r + hi_r) / 2  # global range already narrower than tol
    depth = max(min(depth, base.size), 1)  # an empty base still yields one (unit) meet
    tail_eps = tol_f / 8.0
    for k in doubling_depths(depth, 1):
        m = base.truncated_meet(k)
        if m.is_zero:
            return UNDETERMINED
        lo, hi = effect_range_on(f, m.rep, tail_eps=tail_eps)
        if hi - lo < tol_f:
            return 0.5 * (lo + hi)
    return UNDETERMINED
