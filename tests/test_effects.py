"""Effects: closed-form smearing against a quadrature oracle, the partial
algebra, ordering, scaling, and tail behavior."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp import effects
from unsharp.common import EXACT, NEG_INF, POS_INF
from unsharp.effects import (
    BoxDensity,
    SmearedIndicator,
    box,
    constant,
    effect_range_on,
    evaluate,
    gaussian,
    leq,
    neg,
    oplus,
    scale,
    smear,
    triangle,
    vanishes_at_infinity,
)
from unsharp.errors import CannotCertify, NotOrthogonal
from unsharp.intervals import (
    EMPTY,
    REALS,
    Interval,
    IntervalSet,
    complement,
    difference,
    intersect,
    membership,
    points,
    symmetric_difference,
    union,
)
from unsharp.quadrature import adaptive_simpson
from unsharp.setexpr import parse_set_expr as parse

from strategies import colliding_interval_sets, colliding_rationals, interval_sets, rationals

DENSITIES = [box(1), box(Fraction(1, 5)), triangle(Fraction(1, 2)), gaussian(Fraction(1, 5))]


def _grid(lo=-4, hi=4, n=161):
    step = Fraction(hi - lo, n - 1)
    return [lo + k * step for k in range(n)]


class TestSmearClosedForm:
    def test_box_inside(self):
        f = smear(parse("(-1,1)"), box(1))
        assert evaluate(f, 0) == 1

    def test_box_at_edge_is_half(self):
        f = smear(parse("(-1,1)"), box(1))
        assert evaluate(f, 1) == Fraction(1, 2)

    def test_half_line_ramp(self):
        f = smear(parse("(0,inf)"), box(Fraction(1, 2)))
        assert evaluate(f, 0) == Fraction(1, 2)
        assert evaluate(f, Fraction(1, 4)) == 1
        assert evaluate(f, Fraction(-1, 8)) == Fraction(1, 4)

    def test_gaussian_matches_cdf_formula(self):
        sigma = 0.25
        f = smear(parse("(0,1)"), gaussian(Fraction(1, 4)))
        for q in (-0.5, 0.0, 0.3, 0.99, 2.5):
            phi = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
            want = phi((1 - q) / sigma) - phi((0 - q) / sigma)
            assert abs(evaluate(f, q) - want) < 1e-14

    @pytest.mark.parametrize("density", DENSITIES)
    def test_against_quadrature_oracle(self, density):
        # independent route: integrate the density over the set directly,
        # splitting panels at the density's breakpoints (shifted to t = q - k)
        # and using closed boundaries so panel endpoints match interior limits
        s = parse("(-1, -1/4) | (0, 2)")
        f = smear(s, density)
        if isinstance(density.mass_radius, Fraction):
            radius = float(density.mass_radius)
        else:
            radius = 10.0 * float(density.sigma)

        # padding keeps panel endpoints on the inside branch when float
        # rounding pushes a window edge a few ulps past the support edge
        pad = 1e-12

        def pdf(x: float) -> float:
            if density.describe().startswith("box"):
                w = float(density.width)
                return 1.0 / w if abs(x) <= w / 2 + pad else 0.0
            if density.describe().startswith("triangle"):
                h = float(density.half_width)
                return max(0.0, (1.0 - abs(x) / h) / h) if abs(x) <= h + pad else 0.0
            sig = float(density.sigma)
            return math.exp(-0.5 * (x / sig) ** 2) / (sig * math.sqrt(2 * math.pi))

        for q in [-1.3, -0.5, 0.0, 0.4, 1.0, 1.9, 2.4]:
            total = 0.0
            for c in s.components:
                lo = max(float(c.lo), q - radius)
                hi = min(float(c.hi), q + radius)
                if hi <= lo:
                    continue
                cuts = sorted(
                    {lo, hi}
                    | {q - float(k) for k in density.knots() if lo < q - float(k) < hi}
                )
                for a, b in zip(cuts, cuts[1:]):
                    total += adaptive_simpson(lambda t: pdf(q - t), a, b, 1e-12)
            assert abs(float(evaluate(f, q)) - total) < 1e-10

    def test_empty_and_full(self):
        assert evaluate(smear(EMPTY, box(1)), 17) == 0
        assert evaluate(smear(REALS, box(1)), 17) == 1


class TestEvaluate:
    def test_constant(self):
        assert evaluate(constant(Fraction(1, 2)), 123.4) == Fraction(1, 2)

    def test_complement_node(self):
        f = smear(parse("(0,1)"), box(1))
        for q in _grid():
            assert evaluate(neg(f), q) == 1 - evaluate(f, q)

    def test_exact_at_rational_points_with_compact_density(self):
        f = smear(parse("(0,1)"), triangle(Fraction(1, 2)))
        v = evaluate(f, Fraction(1, 3))
        assert isinstance(v, Fraction)


class TestOplus:
    def test_disjoint_smears_equal_joint_smear(self):
        e = gaussian(Fraction(3, 10))
        s1, s2 = parse("(-2,0)"), parse("(1/2, 3)")
        lhs = oplus(smear(s1, e), smear(s2, e))
        rhs = smear(union(s1, s2), e)
        assert max(abs(float(evaluate(lhs, q)) - float(evaluate(rhs, q))) for q in _grid()) <= 1e-12

    def test_half_lines_sum_to_one(self):
        e = triangle(Fraction(1, 2))
        f = oplus(smear(parse("(-inf,0)"), e), smear(parse("(0,inf)"), e))
        assert all(abs(float(evaluate(f, q)) - 1.0) <= 1e-12 for q in _grid())

    def test_overfull_constants_rejected(self):
        with pytest.raises(NotOrthogonal) as err:
            oplus(constant(Fraction(3, 5)), constant(Fraction(3, 5)))
        assert err.value.witness_value > 1

    def test_grid_refutation_finds_point(self):
        f = smear(parse("(-1,1)"), box(1))
        g = smear(parse("(-1,1)"), triangle(1))  # different density: no structural path
        with pytest.raises(NotOrthogonal) as err:
            oplus(f, g)
        assert err.value.witness_point is not None

    def test_commutative_and_associative_pointwise(self):
        a = scale(Fraction(1, 4), smear(parse("(0,1)"), box(1)))
        b = scale(Fraction(1, 4), smear(parse("(-1,0)"), triangle(1)))
        c = scale(Fraction(1, 2), constant(Fraction(1, 3)))
        ab_c = oplus(oplus(a, b), c)
        a_bc = oplus(a, oplus(b, c))
        ba_c = oplus(oplus(b, a), c)
        for q in _grid():
            v = float(evaluate(ab_c, q))
            assert abs(v - float(evaluate(a_bc, q))) <= 1e-12
            assert abs(v - float(evaluate(ba_c, q))) <= 1e-12


class TestNeg:
    def test_constant(self):
        assert neg(constant(Fraction(1, 4))) == constant(Fraction(3, 4))

    def test_involution(self):
        f = smear(parse("(0,1)"), box(1))
        assert neg(neg(f)) == f

    def test_smear_complement_identity(self):
        e = gaussian(Fraction(1, 5))
        s = parse("(0,1) | (2,3)")
        lhs = neg(smear(s, e))
        rhs = smear(complement(s), e)
        assert max(abs(float(evaluate(lhs, q)) - float(evaluate(rhs, q))) for q in _grid()) <= 1e-12

    def test_oplus_with_complement_is_unit(self):
        f = scale(Fraction(2, 3), smear(parse("(0,2)"), triangle(Fraction(1, 2))))
        total = oplus(f, neg(f))
        assert all(abs(float(evaluate(total, q)) - 1.0) <= 1e-12 for q in _grid())


class TestLeq:
    def test_subset_smears(self):
        e = box(Fraction(1, 2))
        r = leq(smear(parse("(0,1)"), e), smear(parse("(-1,2)"), e))
        assert r.holds and r.witness_effect is not None

    def test_constants_refuted_with_witness(self):
        r = leq(constant(Fraction(3, 10)), constant(Fraction(1, 5)))
        assert not r.holds and r.witness_point is not None

    def test_reflexive_with_zero_witness(self):
        f = smear(parse("(0,1)"), gaussian(Fraction(1, 4)))
        r = leq(f, f)
        assert r.holds and r.witness_effect == constant(0)

    def test_witness_closes_the_gap(self):
        e = box(Fraction(1, 2))
        f = smear(parse("(0,1)"), e)
        g = smear(parse("(-1,2)"), e)
        c = leq(f, g).witness_effect
        for q in _grid():
            assert abs(float(evaluate(f, q)) + float(evaluate(c, q)) - float(evaluate(g, q))) <= 1e-12

    def test_scaled_below_original(self):
        f = smear(parse("(0,1)"), triangle(1))
        r = leq(scale(Fraction(1, 2), f), f)
        assert r.holds

    def test_crossing_curves_refuted(self):
        f = smear(parse("(-1,0)"), box(1))
        g = smear(parse("(0,1)"), box(1))
        r = leq(f, g)
        assert not r.holds
        q = r.witness_point
        assert float(evaluate(f, q)) > float(evaluate(g, q))

    def test_monotone_consequence(self):
        e = triangle(Fraction(1, 2))
        f, g = smear(parse("(0,1)"), e), smear(parse("(-1,3)"), e)
        assert leq(f, g).holds
        for q in _grid():
            assert float(evaluate(f, q)) <= float(evaluate(g, q)) + 1e-12


class TestScale:
    def test_identity_factor(self):
        f = smear(parse("(0,1)"), box(1))
        assert scale(1, f) is f

    def test_halving_constant(self):
        assert scale(Fraction(1, 2), constant(1)) == constant(Fraction(1, 2))

    def test_dyadic_decomposition(self):
        f = smear(parse("(-1,2)"), gaussian(Fraction(1, 4)))
        eighth = scale(Fraction(1, 8), f)
        total = oplus(oplus(eighth, eighth), eighth)
        direct = scale(Fraction(3, 8), f)
        assert max(
            abs(float(evaluate(total, q)) - float(evaluate(direct, q))) for q in _grid()
        ) <= 1e-12

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            scale(Fraction(3, 2), constant(0))


class TestVanishing:
    def test_compact_support_exact(self):
        f = smear(parse("(0,1)"), box(1))
        assert vanishes_at_infinity(f, 0, 2) is True

    def test_constant_does_not_vanish(self):
        assert vanishes_at_infinity(constant(Fraction(1, 2)), Fraction(1, 10), 5) is False

    def test_gaussian_tail_bound(self):
        f = smear(parse("(0,1)"), gaussian(Fraction(1, 10)))
        assert vanishes_at_infinity(f, 1e-6, 2) is True

    def test_unbounded_set_does_not_vanish(self):
        f = smear(parse("(0,inf)"), box(1))
        assert vanishes_at_infinity(f, Fraction(1, 10), 50) is False

    def test_horizon_inside_support_is_refuted(self):
        f = smear(parse("(0,1)"), box(1))
        assert vanishes_at_infinity(f, 0, Fraction(5, 4)) is False

    def test_plateau_exactly_at_tol_certifies(self):
        # sup outside the horizon equals tol exactly; "at or below" holds
        f = scale(Fraction(1, 2), smear(parse("(-10,10)"), box(1)))
        assert vanishes_at_infinity(f, Fraction(1, 2), 1) is True

    def test_gaussian_tail_never_certifies_zero(self, monkeypatch):
        # the true tail is positive everywhere, so no point refutes and no
        # enclosure reaches zero: the tail panels move out by doubling until
        # a split point overflows, well before the evaluation cap
        split, splits = effects._split, []
        monkeypatch.setattr(effects, "_split", lambda x0, x1: splits.append(split(x0, x1)) or splits[-1])
        f = smear(parse("(0,1)"), gaussian(Fraction(1, 10)))
        start = time.perf_counter()
        with pytest.raises(CannotCertify):
            vanishes_at_infinity(f, 0, 100)
        assert time.perf_counter() - start < 1.0
        assert math.isinf(splits[-1]) and len(splits) < effects._EVAL_CAP


def test_touching_one_pairs_certify():
    # (0,2) and (0,1) | (1,2) differ by the point 1, so their smears are equal:
    # the sum is 1 on the whole ramp, and the regions certify as classes
    f = smear(parse("(0,2)"), box(1))
    g = smear(parse("(0,1) | (1,2)"), box(1))
    total = oplus(f, neg(g))
    assert all(float(evaluate(total, q)) <= 1.0 + 1e-12 for q in _grid())
    r = leq(f, g)
    assert r.holds
    for q in _grid():
        gap = float(evaluate(r.witness_effect, q))
        assert abs(float(evaluate(f, q)) + gap - float(evaluate(g, q))) <= 1e-12


@pytest.mark.parametrize("region", ["(0,2)", "(0,1) | (5,6)"])
def test_scaled_subset_smear_certifies_at_once(region):
    # a*smear(A) <= smear(A) <= smear(B) for A inside B and 0 < a <= 1.  Left
    # of -1/2 both sides vanish, so f + (1 - g) is exactly 1 there and a
    # search can neither refute nor discharge: only the region shortcut decides
    f = scale(Fraction(1, 2), smear(parse("(0,1)"), box(1)))
    g = smear(parse(region), box(1))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        r = leq(f, g)
        best = min(best, time.perf_counter() - start)
    assert r.holds and best < 1e-3
    for q in _grid():
        gap = float(evaluate(r.witness_effect, q))
        assert abs(float(evaluate(f, q)) + gap - float(evaluate(g, q))) <= 1e-12
    # the shortcut only bounds from above: a scaled smear of a larger region
    # is still refuted by the search
    big = scale(Fraction(1, 2), smear(parse("(0,3)"), box(1)))
    assert not leq(big, smear(parse("(0,1)"), box(1))).holds


def _equal_sum():
    # g equals s pointwise, as an orthosum no shortcut reads as a smear
    s = smear(parse("(0,2)"), box(1))
    t = smear(parse("(0,1) | (1,2)"), box(1))
    return s, oplus(scale(Fraction(1, 2), s), scale(Fraction(1, 2), t))


def test_equal_sum_orthosum_default_budget():
    # s + (1 - g) is 1 on the whole ramp, so every enclosure there reaches
    # above 1 and no midpoint exceeds it: the default budget runs out, in
    # under a second
    s, g = _equal_sum()
    with pytest.raises(CannotCertify) as info:
        oplus(s, neg(g))
    assert str(info.value) == "orthogonality certification exhausted its grid budget"


@settings(max_examples=60, deadline=None)
@given(
    interval_sets(max_components=3),
    st.lists(rationals, max_size=3),
    st.sampled_from(DENSITIES),
)
def test_smears_meeting_in_points_certify(s, pts, density):
    # a smear ignores null sets: regions that meet only in points are
    # orthogonal, and regions equal up to points are ordered both ways
    ends = [v for c in s.components for v in (c.lo, c.hi) if isinstance(v, Fraction)]
    closed_complement = union(complement(s), points(*ends, *pts))
    oplus(smear(s, density), smear(closed_complement, density))
    moved = symmetric_difference(s, points(*pts))
    assert leq(smear(s, density), smear(moved, density)).holds
    assert leq(smear(moved, density), smear(s, density)).holds


class TestCertifierBudget:
    """The sup equals the bound exactly, so no midpoint refutes and no
    enclosure at the sup discharges its panel: a small evaluation budget runs
    out with the caller's message."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(effects, "_EVAL_CAP", 1 << 8)

    def _message(self, call):
        with pytest.raises(CannotCertify) as info:
            call()
        return str(info.value)

    def test_equal_sum_orthosum(self):
        s, g = _equal_sum()
        message = self._message(lambda: oplus(s, neg(g)))
        assert message == "orthogonality certification exhausted its grid budget"

    def test_equal_sum_ordering(self):
        s, g = _equal_sum()
        message = self._message(lambda: leq(s, g))
        assert message == "ordering certification exhausted its grid budget"

    def test_plateau_at_tol_inside_the_rings(self):
        # 1/2 on [2, 3], beyond the horizon 1 but not beyond the support
        f = smear(parse("(2,3)"), box(2))
        message = self._message(lambda: vanishes_at_infinity(f, Fraction(1, 2), 1))
        assert message == "vanishing certification exhausted its grid budget"


class TestLipschitzAndRange:
    @pytest.mark.parametrize("density", DENSITIES)
    def test_uniform_continuity_bound(self, density):
        f = smear(parse("(-1,0) | (1/2, 2)"), density)
        L = f.lipschitz
        qs = [Fraction(k, 16) for k in range(-64, 64)]
        for a, b in zip(qs, qs[1:]):
            assert abs(float(evaluate(f, a)) - float(evaluate(f, b))) <= L * float(b - a) + 1e-12

    def test_range_certificate_contains_values(self):
        f = scale(Fraction(5, 8), neg(smear(parse("(0,1)"), triangle(1))))
        lo, hi = f.range_bounds
        for q in _grid():
            assert float(lo) - 1e-12 <= float(evaluate(f, q)) <= float(hi) + 1e-12


class TestNonMultiplicativity:
    def test_witness(self):
        s1, s2 = parse("(-inf,0)"), parse("(0,inf)")
        e = box(1)
        q = Fraction(0)
        joint = evaluate(smear(intersect(s1, s2), e), q)
        prod = evaluate(smear(s1, e), q) * evaluate(smear(s2, e), q)
        assert joint == 0 and prod == Fraction(1, 4)


class TestDeltaLimit:
    def test_sharpening_recovers_indicator(self):
        s = parse("(0,1) | (2,3)")
        for sigma in (Fraction(1, 10), Fraction(1, 100)):
            f = smear(s, gaussian(sigma))
            for q in _grid(lo=-2, hi=4, n=121):
                dist = min(abs(q - p) for p in (0, 1, 2, 3))
                if dist < 5 * sigma:
                    continue
                chi = 1 if membership(q, s) else 0
                assert abs(float(evaluate(f, q)) - chi) <= 1e-6


class TestEffectRangeOn:
    def test_far_region_of_compact_smear_is_zero(self):
        f = smear(parse("(0,1)"), box(1))
        lo, hi = effect_range_on(f, parse("(5, inf)"))
        assert lo == 0.0 and hi == 0.0

    def test_bracket_contains_point_values(self):
        f = smear(parse("(0,1)"), gaussian(Fraction(1, 4)))
        region = parse("(1/4, 3/4)")
        lo, hi = effect_range_on(f, region)
        for q in (0.3, 0.5, 0.7):
            assert lo - 1e-12 <= float(evaluate(f, q)) <= hi + 1e-12


@settings(max_examples=60, deadline=None)
@given(interval_sets(max_components=3), st.sampled_from(DENSITIES))
def test_mass_conservation_between_set_and_complement(s, density):
    f = smear(s, density)
    g = smear(complement(s), density)
    for q in (Fraction(-3, 2), Fraction(0), Fraction(11, 8)):
        assert abs(float(evaluate(f, q)) + float(evaluate(g, q)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the integer closure of box and triangle smears against the generic one

_half_lines = st.builds(
    lambda t, right, closed: IntervalSet.from_intervals(
        [Interval(t, POS_INF, closed, False) if right else Interval(NEG_INF, t, False, closed)]
    ),
    rationals,
    st.booleans(),
    st.booleans(),
)
_regions = st.one_of(
    interval_sets(), colliding_interval_sets(), _half_lines, st.sampled_from([EMPTY, REALS])
)
# positive parameters over assorted denominators, some far below float spacing
_sizes = st.one_of(
    st.builds(Fraction, st.integers(1, 64), st.integers(1, 8)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.sampled_from([Fraction(1, 3), Fraction(7, 2), Fraction(1, 10**40), Fraction(10**30, 7)]),
)
_detectors = st.one_of(
    st.builds(box, _sizes),
    st.builds(triangle, _sizes),
    # a box off the centre, as a density model places it
    st.builds(lambda lo, w: BoxDensity(lo, lo + w), rationals, _sizes),
)
_queries = st.one_of(
    st.integers(-100, 100),
    rationals,
    colliding_rationals,
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9)),
)


@settings(max_examples=300, deadline=None)
@given(_regions, _detectors, st.lists(_queries, min_size=1, max_size=8))
def test_integer_closure_equals_the_generic_exact_closure(region, detector, queries):
    f = SmearedIndicator(region, detector)
    generic = f._build(EXACT)
    # every knot q - t = k of each CDF term, where a branch changes
    knots = [t + k for t in f._finite_endpoints for k in detector.knots()]
    for q in queries + knots:
        got, want = f._exact(q), generic(q)
        assert got == want and type(got) is type(want), (q, got, want)


@pytest.mark.parametrize("detector", [box(Fraction(2, 3)), triangle(Fraction(3, 5))], ids=str)
def test_integer_closure_hits_every_branch(detector):
    # each query on the grid 1/60 around the region takes every CDF branch
    # somewhere; the values are exact and typed as the generic closure's
    f = smear(parse("(-1, 1/4) | [1/2, 2] | {3}"), detector)
    generic = f._build(EXACT)
    kinds = set()
    for k in range(-180, 301):
        q = Fraction(k, 60)
        got, want = f._exact(q), generic(q)
        assert got == want and type(got) is type(want), q
        kinds.add(type(got))
    assert kinds == {int, Fraction}


def test_integer_closure_passes_other_queries_to_the_generic_closure():
    # a query without numerator and denominator (a float where the float
    # closure fell back to the exact one) takes the generic route
    f = smear(parse("(0, 1)"), triangle(Fraction(1, 2)))
    for q in (0.1, -0.25, 0.75, 3.0):
        assert repr(f._exact(q)) == repr(f._build(EXACT)(q))


def test_integer_closure_with_no_finite_endpoint_reads_the_detector():
    # the common denominator includes the detector's fields, so a region
    # with no finite endpoint still gets a nonzero one
    for region, want in ((REALS, 1), (EMPTY, 0)):
        f = smear(region, triangle(Fraction(1, 3)))
        for q in (Fraction(1, 7), 0, -5):
            got = f._exact(q)
            assert got == want and type(got) is int


def test_gaussian_smear_keeps_the_generic_exact_closure():
    f = smear(parse("(0, 1)"), gaussian(Fraction(1, 4)))
    assert repr(f._exact(Fraction(1, 3))) == repr(f._build(EXACT)(Fraction(1, 3)))
