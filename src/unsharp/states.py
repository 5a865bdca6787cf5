"""State evaluation, one evaluator per state kind.  A point state reads the
response curve (:func:`eval_point`).  A density state integrates it
(:func:`eval_density`).  A sharp state, built from a filter base, answers a
sharp question with :func:`eval_sharp` and an effect with
:func:`filter_effect_value`.  An escaping state is a sharp state along
:func:`~unsharp.filters.escaping_base`.

Density states integrate an effect against a closed-form probability density.
Two independent numerical routes exist on purpose: :func:`eval_density` uses
adaptive Simpson panels split at every knot of the integrand, while
:func:`mixture_expectation` evaluates the same ignorance-decomposition
integral with a composite Gauss-Legendre rule on its own mesh, so one route
can check the other without sharing failure modes.

Sharp states induced by filter bases are partial: :func:`eval_sharp` answers
1, 0, or :data:`~unsharp.common.UNDETERMINED` and is never totalized.  On
effects, :func:`filter_effect_value` squeezes a certified bracket along the
truncated meets at doubling depths.  It skips, unevaluated, the leading rounds
whose grid slack alone keeps the bracket at least tol wide; no such round can
close, so no value moves.

A density model is a detector's box (``uniform(lo, hi)``) or Gaussian
(``normal(mean, sigma)``) density placed anywhere, or a :class:`Mixture` of
them, which answers for a bare part too.  Its CDF is one closure builder
``_build(low)`` over the lowerings of :mod:`unsharp.common`.  :func:`cdf`
reads a rational point through the ``EXACT`` closure, so it is exact for
uniform-only models, and a finite float point through the ``FLOAT`` closure,
which gives bit for bit what the ``EXACT`` closure would give it.

Every model caches its inverse CDF for :func:`ppf` as ``_float_ppf``: a closed
form for a bare box or Gaussian part.  A ``Mixture`` caches a table of CDF
values at 64 equal cells over its ``_bracket`` and at its box knots, built on
the first draw; each draw finds its cell by ``bisect`` and narrows it by
Chandrupatla's method.  Every CDF value, table entries included, comes from
:func:`cdf`.  A u above the table's last value, which the float CDF never
reaches, inverts the upper tail instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    set_field,
)
from .effects import BoxDensity, Effect, GaussianDensity, effect_range_on, evaluate, range_stays_wide
from .filters import FilterBase, doubling_depths
from .intervals import Interval, IntervalSet, REALS
from .quadrature import adaptive_simpson_pieces, gauss_legendre
from .quotient import QuotientClass, q_leq, q_not

_STD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# density models


class Mixture(FloatClosures):
    """Finite convex mixture of box and Gaussian densities; weights are exact
    and sum to one."""

    _fields = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple((as_fraction(w), comp) for w, comp in parts)
        if not parts:
            raise ValueError("mixture needs at least one part")
        for w, comp in parts:
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            if not hasattr(comp, "model_text"):
                raise TypeError("mixture parts must be uniform or normal models")
        if sum(w for w, _ in parts) != 1:
            raise ValueError("mixture weights must sum to exactly 1")
        set_field(self, "parts", parts)

    def _build(self, low):
        """The CDF at finite x: one flat loop over the parts' ``_cdf_term``
        tuples, with each shape's formula written inline."""
        terms = [(w, low.num(w), *c._cdf_term(low)) for w, c in self.parts]
        erf = math.erf
        # w * 0 and w * 1 stay exact until the total turns float, and a float
        # total adds them as float(w * 0) == 0.0 and float(w) == fw.  A
        # Gaussian term always turns it float, so where at most one part comes
        # before the first one, a 0.0 start gives the same bits and type: one
        # exact term t reaches the float total as float(t) either way.  Two
        # would round once as an exact sum but twice as floats.
        gaussians = [i for i, term in enumerate(terms) if term[2] is None]
        start = 0.0 if gaussians and gaussians[0] <= 1 else 0

        def cdf(x):
            total = start
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

    @cached_property
    def _float_ppf(self):
        lo, cdf_lo, hi, cdf_hi = _bracket(self, 0.5)
        inner = {lo + (hi - lo) * k / _CELLS for k in range(1, _CELLS)}
        inner.update(float(p) for p in model_knots(self))
        xs = [lo] + sorted(x for x in inner if lo < x < hi) + [hi]
        cs = [cdf_lo] + [float(cdf(self, x)) for x in xs[1:-1]] + [cdf_hi]

        def value(x):
            return float(cdf(self, x))

        def draw(u):
            k = bisect_left(cs, u)  # cs[k - 1] < u <= cs[k]
            if 0 < k < len(cs):
                return _narrow(value, u, xs[k - 1], cs[k - 1], xs[k], cs[k])
            if k == len(cs):
                return _upper_tail(self, u, xs)
            return _narrow(value, u, *_bracket(self, u))

        return draw

    def model_text(self) -> str:
        inner = "; ".join(f"{w}*{comp.model_text()}" for w, comp in self.parts)
        return f"mix({inner})"

    describe = model_text


def uniform(lo, hi) -> BoxDensity:
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not lo < hi:
        raise ValueError("uniform model needs lo < hi")
    # the CDF divides by hi - lo in floats, where it must not round to 0.0
    if hi - lo < 1 and not float(hi - lo):
        raise ValueError("uniform model needs hi - lo positive as a float")
    return BoxDensity(lo, hi)


def normal(mean, sigma) -> GaussianDensity:
    return GaussianDensity(mean=as_fraction(mean), sigma=as_fraction(sigma))


def mixture(*parts) -> Mixture:
    return Mixture(tuple(parts))


def _as_mixture(d) -> Mixture:
    """A Mixture as it is; a bare part as its one-part Mixture, built once and
    kept on the part under a ``_float`` key, which pickles leave out."""
    if isinstance(d, Mixture):
        return d
    if (m := vars(d).get("_float_mixture")) is None:
        m = vars(d)["_float_mixture"] = Mixture(((1, d),))
    return m


def pdf(d, x) -> float:
    total = 0.0
    xf = float(x)
    for w, comp in _as_mixture(d).parts:
        total += comp._weighted_pdf(w)(xf)
    return total


def cdf(d, x):
    """Distribution function; exact rational when every part is uniform and
    x is exact, float otherwise, and exactly 0 or 1 at -inf or inf.  A float x
    is read through the model's FLOAT closure, any other x through its EXACT
    one.  A bare part answers through its one-part Mixture."""
    if d.__class__ is not Mixture:  # inline: a mixture draw makes about five calls
        d = _as_mixture(d)
    if x.__class__ is float:
        if math.isinf(x):
            return Fraction(1 if x > 0 else 0)
        return d._float(x)
    return d._exact(x)


def ppf(d, u: float) -> float:
    """Inverse distribution function: closed form for a bare box or Gaussian
    part; for a mixture, the midpoint of a bracket [a, b] with
    ``cdf(a) < u <= cdf(b)`` narrowed to width 1e-12, or to adjacent floats
    where one ulp exceeds 1e-12."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    return d._float_ppf(u)


#: Equal cells of a mixture's ppf table over ``_bracket(d, 1/2)``.
_CELLS = 64


def _narrow(f, u, a, fa, b, fb):
    """Chandrupatla's method (Adv. Eng. Softw. 28, 1997) on f(x) - u over
    [a, b], where f is nondecreasing and f(a) < u <= f(b); fa and fb are those
    values of f.

    The first step is a secant step.  Then ``a`` is the newest point, ``b``
    the opposite end of the bracket and ``c`` the end last dropped; the xi/phi
    test takes an inverse quadratic step where the three points' interpolant
    is monotone, and bisects otherwise.  Each step lands at least ``tol``
    inside the bracket.  Stops at width 1e-12, or once the midpoint is an end
    (adjacent floats), and returns the midpoint."""
    fa -= u
    fb -= u
    tol = max(0.5e-12, 2.0 * math.ulp(max(abs(a), abs(b))))
    t = fa / (fa - fb)
    for _ in range(200):
        lo, hi = (a, b) if a < b else (b, a)
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 or mid == lo or mid == hi:
            return mid
        tl = min(tol / (hi - lo), 0.5)
        x = a + min(1.0 - tl, max(tl, t)) * (b - a)
        if not lo < x < hi:
            x = mid
        fx = f(x) - u
        if (fx < 0) == (fa < 0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            t = 0.5
    return 0.5 * (a + b)


def _upper_tail(d, u, xs):
    """ppf for a u above the last CDF value of the table over ``xs``.  There
    the float CDF has stopped short of u (seven float weights 1/7 sum to
    1 - 2**-52), so solve the upper tail ``sum w * Q(x) = 1 - u`` instead,
    with Q from :func:`math.erfc` for Gaussian parts and linear on box
    parts."""
    tails = [c._weighted_tail(float(w)) for w, c in d.parts]

    def minus_tail(x):
        total = 0.0
        for tail in tails:
            total += tail(x)
        return -total

    # 1 - u is exact for u > 1/2, and the tail at xs[-1], past every part's
    # hi and mean + 10 sigma, is below 1e-23 < 1 - u
    r = 1.0 - u
    k = len(xs) - 1
    fb, fa = minus_tail(xs[k]), minus_tail(xs[k - 1])
    while fa >= -r:
        k -= 1
        fb, fa = fa, minus_tail(xs[k - 1])
    return _narrow(minus_tail, -r, xs[k - 1], fa, xs[k], fb)


def _bracket(d, u: float):
    """``(lo, cdf(lo), hi, cdf(hi))`` with cdf(lo) < u < cdf(hi): the parts'
    windows at 10 sigma (box ends, Gaussian means +- 10 sigma), widened while
    needed."""
    windows = [comp.window(10.0) for _, comp in _as_mixture(d).parts]
    lo, hi = min(a for a, _ in windows), max(b for _, b in windows)
    # a step of at least one ulp moves an end that 1.0 cannot move
    while (cdf_lo := float(cdf(d, lo))) >= u:
        lo -= max(1.0, hi - lo, math.ulp(lo))
    while (cdf_hi := float(cdf(d, hi))) <= u:
        hi += max(1.0, hi - lo, math.ulp(hi))
    return lo, cdf_lo, hi, cdf_hi


def support(d) -> IntervalSet:
    """Closed support: the smallest closed set of full probability.  It is the
    set a density state assigns to the position question as a whole (the
    literal intersection of all probability-one sets is empty, since
    co-singletons qualify).  Parts of weight 0 carry no probability; a part
    spans the hull of its knots, and a part without knots the whole line."""
    pieces = []
    for w, comp in _as_mixture(d).parts:
        if w:
            if not (ks := comp.knots()):
                return REALS
            pieces.append(Interval(ks[0], ks[-1], True, True))
    return IntervalSet.from_intervals(pieces)


def model_knots(d):
    return {k for _, comp in _as_mixture(d).parts for k in comp.knots()}


# ---------------------------------------------------------------------------
# sharp probabilities and state evaluation


def sharp_probability(d, s: IntervalSet):
    """Probability that the sharp value lies in s: summed CDF differences.
    Exact for uniform-only models; null sets get probability zero.

    On a component narrower than 2^-20 sigma of a Gaussian part, that part's
    mass is two-point Gauss-Legendre of its pdf instead: there the difference
    of two float CDF values keeps few digits, and none once the component is
    narrower than the CDF's ulp."""
    d = _as_mixture(d)
    cut = max(p._narrow_width for _, p in d.parts)
    total = 0
    for c in s.components:
        lo = NEG_INF if is_infinite(c.lo) else c.lo
        hi = POS_INF if is_infinite(c.hi) else c.hi
        if cut and (width := float(hi) - float(lo)) < cut:
            for w, part in d.parts:
                if width < part._narrow_width:
                    total = total + float(w) * _gauss_legendre_2(part, lo, hi)
                else:
                    total = total + w * (cdf(part, hi) - cdf(part, lo))
        else:
            total = total + (cdf(d, hi) - cdf(d, lo))
    return total


def _gauss_legendre_2(part, lo, hi) -> float:
    """Two-point Gauss-Legendre of a Gaussian part's pdf over [lo, hi]; its
    relative error is of order ((hi - lo) / sigma)^4."""
    half = float(hi - lo) / 2.0
    mid = float((lo + hi) / 2)
    node = half / math.sqrt(3.0)
    return half * (pdf(part, mid - node) + pdf(part, mid + node))


def eval_point(lam, f: Effect):
    """The point state: the effect's response curve read at the point."""
    return evaluate(f, lam)


def _piece_weight(d, mid: float):
    """Density restricted to a knot-free piece as a smooth callable.

    Box parts are branch-selected once by the piece midpoint, so the
    returned function is smooth on the whole closed piece."""
    const = 0.0
    smooth = []
    for w, comp in _as_mixture(d).parts:
        c = comp._piece_constant(w, mid)
        if c is None:
            smooth.append(comp._weighted_pdf(w))
        else:
            const += c
    if not smooth:
        return lambda x: const

    def weight(x: float) -> float:
        total = const
        for part in smooth:
            total += part(x)
        return total

    return weight


def _domain(d, tail_mass: float):
    """Truncation window covering all probability except at most tail_mass."""
    parts = _as_mixture(d).parts
    budget = tail_mass / len(parts)
    windows = []
    for w, comp in parts:
        share = budget / float(w) if w > 0 else 0.5
        windows.append(comp.window(-_STD_NORMAL.inv_cdf(min(max(share / 2, 1e-300), 0.5))))
    return min(a for a, _ in windows), max(b for _, b in windows)


def _piecewise(d, f: Effect, value, rule, tail_mass: float, tol: float) -> float:
    """Integrate value(x) against the density of d over the window that leaves
    out at most tail_mass, split at every model and effect knot inside it.
    Each knot-free piece goes to ``rule(integrand, [a, b], share)`` with a
    share of tol proportional to its width; a share that underflows to 0.0
    is the smallest positive float instead."""
    lo, hi = _domain(d, tail_mass)
    cuts = {lo, hi}
    for p in (*model_knots(d), *f.knots()):
        pf = float(p)
        if lo < pf < hi:
            cuts.add(pf)
    cuts = sorted(cuts)
    width = cuts[-1] - cuts[0]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        w = _piece_weight(d, 0.5 * (a + b))
        share = tol * (b - a) / width or math.ulp(0.0)
        total += rule(lambda x, w=w: float(value(x)) * w(x), [a, b], share)
    return total


def eval_density(d, f: Effect, tol: float) -> float:
    """Expectation of an effect in a density state, by adaptive Simpson with
    panels split at every knot; truncation tails carry at most tol/10."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _piecewise(d, f, f.value_at, adaptive_simpson_pieces, tol / 10.0, tol * 0.8)


def mixture_expectation(d, f: Effect, tol: float) -> float:
    """The same expectation computed the decomposed way: integrate the point
    state's value against the mixing measure, on an independent mesh
    (composite Gauss-Legendre, per-part truncation at tol/20)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    point_value = lambda lam: eval_point(lam, f)
    total = 0.0
    for w, comp in _as_mixture(d).parts:
        if w != 0:
            part = _piecewise(comp, f, point_value, gauss_legendre, float(tol) / 20.0, tol * 0.4)
            total += float(w) * part
    return total


# ---------------------------------------------------------------------------
# partial sharp states and escaping states


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
    zero.  Returns :data:`UNDETERMINED` if the squeeze never closes.

    Rounds that cannot close are skipped unevaluated.  When the first meet
    is bounded and :func:`~unsharp.effects.range_stays_wide` shows that the
    grid slack of :func:`~unsharp.effects.effect_range_on` keeps its bracket
    at least tol wide, the depths are bisected for the first round where it
    no longer does, and the loop starts there.  The meets are nested, so the
    skipped rounds form a prefix of the depths; none of them could have
    closed, so the value is the one the loop over every round gives."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tol_f = float(tol)
    if not tol_f > 0:
        raise ValueError("tol must be positive")
    lo_r, hi_r = f.range_bounds
    if hi_r - lo_r < tol:
        return (lo_r + hi_r) / 2  # global range already narrower than tol
    depth = max(min(depth, base.size), 1)  # an empty base still yields one (unit) meet
    tail_eps = tol_f / 8.0
    depths = doubling_depths(depth, 1)

    # Every meet lies inside the first, so when the first is bounded the
    # rounds whose bracket range_stays_wide proves too wide form a prefix of
    # the depths; a zero meet ends the search, and every later meet is zero.
    def cannot_close(k):
        m = base.truncated_meet(k)
        return not m.is_zero and range_stays_wide(f, m.rep, tol_f)

    start = 0
    if cannot_close(depths[0]):
        start, stop = 1, len(depths)
        while start < stop:
            mid = (start + stop) // 2
            if cannot_close(depths[mid]):
                start = mid + 1
            else:
                stop = mid
    for k in depths[start:]:
        m = base.truncated_meet(k)
        if m.is_zero:
            return UNDETERMINED
        lo, hi = effect_range_on(f, m.rep, tail_eps=tail_eps)
        if hi - lo < tol_f:
            return 0.5 * (lo + hi)
    return UNDETERMINED
