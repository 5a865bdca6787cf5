"""States: point evaluation, density expectations with frozen oracle values,
partial sharp states, and the state laws."""

import math
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp import effects, states

from unsharp.common import EXACT, FLOAT, UNDETERMINED, float_above, float_below
from unsharp.effects import BoxDensity, GaussianDensity, box, constant, evaluate, gaussian, leq, neg, oplus, scale, smear, triangle
from unsharp.filters import adjoin, disjoint_family, doubling_depths, escaping_base, filter_base, neighborhood_base
from unsharp.intervals import interval, points
from unsharp.quadrature import adaptive_simpson, adaptive_simpson_pieces, gauss_legendre
from unsharp.quotient import ZERO, point_membership_state, project
from unsharp.rng import substream_seed
from unsharp.setexpr import parse_model_spec, parse_set_expr as parse
from unsharp.verify import Draw, _random_effect
from unsharp.states import (
    Mixture,
    cdf,
    eval_density,
    eval_point,
    eval_sharp,
    filter_effect_value,
    mixture,
    mixture_expectation,
    normal,
    pdf,
    ppf,
    sharp_probability,
    support,
    uniform,
)

HALF = Fraction(1, 2)
_PI50 = Decimal("3.14159265358979323846264338327950288419716939937510582")


class TestEvalPoint:
    def test_support_inclusion(self):
        assert eval_point(0, smear(parse("(-1,1)"), box(1))) == 1

    def test_edge_symmetry(self):
        assert eval_point(1, smear(parse("(-1,1)"), box(1))) == HALF

    def test_complement_relation(self):
        g = smear(parse("(0,1)"), gaussian(Fraction(1, 4)))
        for lam in (-0.3, 0.2, 1.7):
            assert abs(eval_point(lam, neg(g)) - (1 - eval_point(lam, g))) < 1e-15


class TestSharpProbability:
    def test_uniform_half(self):
        assert sharp_probability(uniform(0, 1), parse("(0,1/2)")) == HALF

    def test_gaussian_half_line(self):
        assert abs(sharp_probability(normal(0, 1), parse("(-inf,0)")) - 0.5) < 1e-15

    def test_null_sets_get_zero(self):
        for d in (uniform(0, 1), normal(0, 1), mixture((HALF, uniform(0, 1)), (HALF, normal(0, 1)))):
            assert sharp_probability(d, points(Fraction(1, 3), 2, 3)) == 0

    def test_mixture_exact_when_uniform(self):
        d = mixture((Fraction(1, 4), uniform(0, 1)), (Fraction(3, 4), uniform(2, 4)))
        got = sharp_probability(d, parse("(1/2, 3)"))
        assert got == Fraction(1, 4) * HALF + Fraction(3, 4) * HALF
        assert isinstance(got, Fraction)

    @pytest.mark.parametrize("level", [40, 60])
    def test_fine_cells_keep_their_digits(self, level):
        # a cell far narrower than sigma holds width * pdf(mid) to O(width^3)
        def dec(x):
            return Decimal(x.numerator) / x.denominator

        def pdf50(model, x):
            total = Decimal(0)
            for w, part in model.parts if isinstance(model, Mixture) else ((1, model),):
                if isinstance(part, BoxDensity):
                    total += dec(w / (part.hi - part.lo)) if part.lo <= x < part.hi else 0
                else:
                    z = (dec(x) - dec(part.mean)) / dec(part.sigma)
                    total += dec(Fraction(w)) * (-z * z / 2).exp() / (dec(part.sigma) * (2 * _PI50).sqrt())
            return total

        g = normal(Fraction(1, 3), Fraction(1, 4))
        d = mixture((Fraction(1, 4), uniform(0, 1)), (Fraction(1, 4), g), (HALF, normal(-1, 2)))
        width = Fraction(1, 2**level)
        with localcontext() as ctx:
            ctx.prec = 50
            for q in (Fraction(-3, 2), Fraction(1, 5), Fraction(1, 3), Fraction(7, 10), Fraction(5, 2)):
                lo = math.floor(q / width) * width
                for model in (g, d):
                    want = dec(width) * pdf50(model, lo + width / 2)
                    p = float(sharp_probability(model, interval(lo, lo + width, True, False)))
                    assert abs(Decimal(p) - want) <= Decimal("1e-12") * want, (level, q, model)


class TestOneClassPerShape:
    """A model part is a detector's density placed anywhere; only its CDF
    types and its spelling tell the roles apart."""

    def test_models_are_the_detector_classes(self):
        assert uniform(Fraction(-1, 2), HALF) == box(1) and isinstance(uniform(0, 1), BoxDensity)
        assert normal(0, Fraction(1, 4)) == gaussian(Fraction(1, 4)) and isinstance(normal(1, 2), GaussianDensity)
        assert (box(1).describe(), box(1).model_text()) == ("box(1)", "uniform(-1/2, 1/2)")
        assert (gaussian(HALF).describe(), normal(1, HALF).model_text()) == ("gaussian(1/2)", "gaussian(1, 1/2)")
        assert uniform(0, 1).model_text() == "uniform(0, 1)"

    def test_model_cdf_keeps_the_mixture_types(self):
        d = uniform(Fraction(-1, 2), HALF)
        assert [(v, type(v)) for v in (d._float(-1.0), d._float(1.0))] == [(0, int), (1, int)]
        assert [(v, type(v)) for v in (cdf(d, -1.0), cdf(d, 1.0))] == [(0, Fraction), (1, Fraction)]
        assert cdf(d, 0.25) == d._float(0.25) == 0.75

    def test_a_detector_is_centred(self):
        # smear's tail bounds read one tail for both sides
        for d in (uniform(0, 1), normal(1, 1)):
            with pytest.raises(ValueError, match="centred"):
                smear(parse("(0,1)"), d)

    def test_a_triangle_is_no_model_part(self):
        with pytest.raises(TypeError):
            mixture((1, triangle(1)))

    def test_a_one_part_mixture_keeps_its_table_and_spelling(self, monkeypatch):
        m = mixture((1, normal(0, 1)))
        assert m.describe() == m.model_text() == "mix(1*gaussian(0, 1))"
        ppf(m, 0.5)  # builds the table
        calls = _count_cdf(monkeypatch)
        x = ppf(normal(0, 1), 0.3)  # closed form: no CDF call
        assert calls == []
        assert abs(ppf(m, 0.3) - x) <= 1e-12 and calls


class TestSetValue:
    def test_uniform(self):
        assert str(support(uniform(0, 1))) == "[0, 1]"

    def test_gaussian_full_line(self):
        assert str(support(normal(Fraction(1, 2), 3))) == "(-inf, inf)"

    def test_mixture_union(self):
        d = mixture((HALF, uniform(0, 1)), (HALF, uniform(2, 3)))
        assert str(support(d)) == "[0, 1] | [2, 3]"

    def test_parts_of_weight_zero_are_left_out(self):
        # they carry no probability, so the smallest closed set of full
        # probability does not reach them
        assert str(support(mixture((1, uniform(0, 1)), (0, normal(0, 1))))) == "[0, 1]"
        assert str(support(mixture((0, uniform(5, 6)), (1, uniform(0, 1))))) == "[0, 1]"

    def test_probability_one_on_support(self):
        d = mixture((HALF, uniform(0, 1)), (HALF, uniform(2, 3)))
        assert sharp_probability(d, support(d)) == 1


class TestEvalDensity:
    def test_constant(self):
        assert abs(eval_density(uniform(0, 1), constant(Fraction(2, 7)), 1e-10) - 2 / 7) < 1e-10

    def test_joint_symmetry_half(self):
        v = eval_density(normal(0, 1), smear(parse("(-inf,0)"), gaussian(Fraction(1, 5))), 1e-10)
        assert abs(v - 0.5) < 1e-10

    def test_box_ramp_against_exact_trapezoid(self):
        # oracle: the response curve is piecewise linear with knots at w/2 and
        # 1 - w/2, so its integral over [0,1] is a sum of exact trapezoids
        w = Fraction(1, 5)
        f = smear(parse("(0,1)"), box(w))
        knots = [Fraction(0), w / 2, 1 - w / 2, Fraction(1)]
        exact = Fraction(0)
        for a, b in zip(knots, knots[1:]):
            fa, fb = evaluate(f, a), evaluate(f, b)
            exact += (b - a) * (fa + fb) / 2
        assert exact == Fraction(19, 20)
        got = eval_density(uniform(0, 1), f, 1e-12)
        assert abs(got - float(exact)) < 1e-11

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            eval_density(uniform(0, 1), constant(0), 0)

    @pytest.mark.parametrize("tol", [0, -1e-9, math.nan])
    def test_every_route_refuses_a_tolerance_not_positive(self, tol):
        f = smear(parse("(0,1)"), box(1))
        for route in (eval_density, mixture_expectation):
            with pytest.raises(ValueError, match="tol must be positive"):
                route(uniform(0, 1), f, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            filter_effect_value(escaping_base(2**40), f, 2**40, tol)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            adaptive_simpson(lambda x: x, 0, 1, tol)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            adaptive_simpson_pieces(lambda x: x, [0, 1], tol)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            gauss_legendre(lambda x: x, [0, 1], tol)


class TestMixtureExpectation:
    @pytest.mark.parametrize(
        "d",
        [
            uniform(0, 1),
            normal(0, 1),
            mixture((HALF, uniform(0, 1)), (HALF, uniform(2, 3))),
            mixture((Fraction(1, 3), normal(0, 1)), (Fraction(2, 3), uniform(-1, 1))),
        ],
    )
    def test_agrees_with_direct_route(self, d):
        f = smear(parse("(0,1) | (2, 5/2)"), triangle(Fraction(1, 2)))
        tol = 1e-9
        assert abs(eval_density(d, f, tol) - mixture_expectation(d, f, tol)) <= 2 * tol

    def test_constant_recovers_weighted_value(self):
        d = uniform(0, 1)
        assert abs(mixture_expectation(d, constant(Fraction(3, 8)), 1e-10) - 0.375) < 1e-10

    def test_degenerate_weights_reduce(self):
        d = Mixture(((Fraction(1), uniform(0, 1)), (Fraction(0), uniform(5, 6))))
        f = smear(parse("(0,1)"), box(Fraction(1, 5)))
        plain = mixture_expectation(uniform(0, 1), f, 1e-10)
        assert abs(mixture_expectation(d, f, 1e-10) - plain) < 2e-10


class TestEvalSharp:
    def setup_method(self):
        self.right = project(parse("(0,inf)"))
        self.base = neighborhood_base(0, 2**20)
        self.s1 = adjoin(self.base, self.right, 64)
        self.s2 = adjoin(self.base, project(parse("(-inf,0)")), 64)

    def test_half_line_decided(self):
        assert eval_sharp(self.s1, self.right, 64) == 1
        assert eval_sharp(self.s2, self.right, 64) == 0

    def test_far_interval_excluded(self):
        assert eval_sharp(self.s1, project(parse("(5,6)")), 64) == 0

    def test_plain_neighborhoods_undetermined_on_half_line(self):
        assert eval_sharp(self.base, self.right, 64) is UNDETERMINED

    def test_zero_class_always_excluded(self):
        assert eval_sharp(self.base, ZERO, 8) == 0

    def test_neighborhoods_affirmed(self):
        assert eval_sharp(self.base, project(parse("(-1/5, 1/5)")), 64) == 1


class TestNormalityFailureWitness:
    def test_finite_yes_answers_with_zero_limit(self):
        lam = Fraction(1, 3)
        depth = 64
        base = neighborhood_base(lam, depth)
        for n in (1, 2, 16, 64):
            assert eval_sharp(base, base.family.meet_first(n), depth) == 1
        limit_class = project(points(lam))
        assert limit_class.is_zero
        assert eval_sharp(base, limit_class, depth) == 0


class TestFilterEffectValue:
    def test_matches_point_value_through_erf_oracle(self):
        lam = Fraction(0)
        sigma = 0.2
        f = smear(parse("(-1,1)"), gaussian(Fraction(1, 5)))
        phi = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
        closed_form = phi((1 - 0) / sigma) - phi((-1 - 0) / sigma)
        s1 = adjoin(neighborhood_base(lam, 2**40), project(parse("(0,inf)")), 64)
        v = filter_effect_value(s1, f, 2**40, 1e-9)
        assert abs(float(v) - closed_form) <= 1e-9

    def test_left_and_right_agree(self):
        lam = Fraction(1, 3)
        f = smear(parse("(0,1)"), triangle(Fraction(1, 2)))
        base = neighborhood_base(lam, 2**40)
        v1 = filter_effect_value(adjoin(base, project(interval(lam, float("inf"))), 64), f, 2**40, 1e-9)
        v2 = filter_effect_value(adjoin(base, project(interval(float("-inf"), lam)), 64), f, 2**40, 1e-9)
        assert abs(float(v1) - float(v2)) <= 2e-9

    def test_escaping_base_kills_compact_questions(self):
        base = escaping_base(2**40)
        assert abs(float(filter_effect_value(base, smear(parse("(0,1)"), box(1)), 2**40, 1e-6))) <= 1e-6

    def test_escaping_base_keeps_constants(self):
        base = escaping_base(2**40)
        assert filter_effect_value(base, constant(Fraction(2, 5)), 2**40, 1e-6) == Fraction(2, 5)

    def test_insufficient_depth_is_undetermined(self):
        f = smear(parse("(0,1)"), box(1))
        base = neighborhood_base(10, 2)  # meets never leave (9.5, 10.5)... too wide
        assert filter_effect_value(base, f, 2, 1e-9) is UNDETERMINED


def _squeeze_every_round(base, f, depth, tol):
    """filter_effect_value as it was before rounds were skipped: the oracle."""
    tol_f = float(tol)
    lo_r, hi_r = f.range_bounds
    if hi_r - lo_r < tol:
        return (lo_r + hi_r) / 2
    depth = max(min(depth, base.size), 1)
    for k in doubling_depths(depth, 1):
        m = base.truncated_meet(k)
        if m.is_zero:
            return UNDETERMINED
        lo, hi = states.effect_range_on(f, m.rep, tail_eps=tol_f / 8.0)
        if hi - lo < tol_f:
            return 0.5 * (lo + hi)
    return UNDETERMINED


def _cls(text):
    return project(parse(text))


def _skip_bases():
    """Name, base, and whether its first meet is bounded: rounds are skipped
    only after a bounded first meet."""
    lam = Fraction(1, 3)
    nbhd = neighborhood_base(lam, 2**40)
    return [
        ("right half-line", adjoin(nbhd, _cls("(1/3, inf)"), 64), True),
        ("left half-line", adjoin(nbhd, _cls("(-inf, 1/3)"), 64), True),
        ("disjoint-family class", adjoin(nbhd, disjoint_family(lam, 2).truncated_class(64), 40), True),
        ("bare neighbourhoods", neighborhood_base(Fraction(-7, 4), 2**40), True),
        # the meets are zero from depth 1000 on
        ("zero deep meets", adjoin(neighborhood_base(0, 2**40), _cls("(1/1000, 1)"), 64), True),
        ("finite, nested", filter_base([_cls("(-2, 2)"), _cls("(0, 1)"), _cls("(1/2, 5/8)")]), True),
        ("finite, zero meet", filter_base([_cls("(-4, 4)"), _cls("(0, 3)"), _cls("(5, 6)")]), True),
        # the second round closes on the tail, and the third meet is bounded
        ("finite, unbounded first", filter_base([_cls("(0, 1) | (10, inf)"), _cls("(10, inf)"), _cls("(10, 20)")]), False),
        ("escaping right", escaping_base(2**40, 1), False),
        ("escaping left", escaping_base(2**40, -1), False),
    ]


def _skip_effects():
    draw = Draw(substream_seed(7, 23))
    return [_random_effect(draw) for _ in range(6)] + [
        smear(parse("(0,1)"), gaussian(Fraction(1, 50))),
        constant(Fraction(3, 8)),
    ]


class TestSqueezeSkipsRounds:
    """Skipping the rounds a squeeze's grid slack keeps open moves no value."""

    @pytest.mark.parametrize("name, base, bounded", _skip_bases(), ids=[b[0] for b in _skip_bases()])
    def test_equals_the_loop_over_every_round(self, monkeypatch, name, base, bounded):
        calls = 0
        real = states.effect_range_on

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(states, "effect_range_on", counted)
        fewer = point_rounds = point_rounds_every = 0
        for f in _skip_effects():
            for tol in (1e-15, 1e-9, 1e-6, 1e-3):
                for depth in (1, 7, 2**40):
                    calls = 0
                    expected = _squeeze_every_round(base, f, depth, tol)
                    every, calls = calls, 0
                    got = filter_effect_value(base, f, depth, tol)
                    case = (f.describe(), tol, depth)
                    if expected is UNDETERMINED:
                        assert got is UNDETERMINED, case
                    else:
                        assert got == expected and type(got) is type(expected), case
                    assert calls <= every, case
                    fewer += calls < every
                    if tol == 1e-9 and depth == 2**40:
                        point_rounds += calls
                        point_rounds_every += every
        assert (fewer > 0) == bounded
        if name.endswith("half-line"):  # the point squeezes of the benchmark
            assert point_rounds < point_rounds_every / 2

    def test_a_round_with_slack_below_the_threshold_is_evaluated(self):
        # The first meet (0, 1/4) gets grid slack S = tol, which lies between
        # tol and the threshold 2 tol + 2 _CLAMP_SLACK.  On the plateau, where
        # f is 1/2 = its range's top, the bracket is [1/2 - S, 1/2] rounded,
        # a hair narrower than S, so that round closes; skipping it on
        # S >= tol would answer from the second meet instead.
        f = scale(HALF, smear(parse("(-10, 10)"), box(1)))
        base = filter_base([_cls("(0, 1/4)"), _cls("(0, 1/8)")])
        slack = effects._grid_slack(f.lipschitz, 0.0, 0.25, effects._RANGE_PTS)
        tol = slack
        assert tol <= slack < 2.0 * tol + 2.0 * effects._CLAMP_SLACK
        lo, hi = effects.effect_range_on(f, parse("(0, 1/4)"), tail_eps=tol / 8.0)
        assert hi == 0.5 and hi - lo < tol
        expected = _squeeze_every_round(base, f, 2, tol)
        assert expected == 0.5 * (lo + hi)
        got = filter_effect_value(base, f, 2, tol)
        assert got == expected and type(got) is type(expected)


class TestStateLaws:
    def _states(self):
        yield "point", lambda f: float(eval_point(Fraction(1, 5), f))
        yield "density", lambda f: eval_density(uniform(-1, 2), f, 1e-11)

    def test_additivity_where_defined(self):
        f = scale(HALF, smear(parse("(0,1)"), box(1)))
        g = scale(HALF, smear(parse("(3,4)"), triangle(1)))
        total = oplus(f, g)
        for name, value in self._states():
            assert abs(value(total) - (value(f) + value(g))) <= 1e-10, name

    def test_complement_law(self):
        f = smear(parse("(0,1) | (2,3)"), gaussian(Fraction(1, 4)))
        for name, value in self._states():
            assert abs(value(neg(f)) - (1 - value(f))) <= 1e-10, name

    def test_difference_law_through_leq_witness(self):
        e = box(HALF)
        f = smear(parse("(0,1)"), e)
        g = smear(parse("(-1,2)"), e)
        witness = leq(f, g).witness_effect
        for name, value in self._states():
            assert abs((value(g) - value(f)) - value(witness)) <= 1e-10, name

    def test_scaling_law(self):
        f = smear(parse("(0,2)"), triangle(Fraction(3, 4)))
        for a in (HALF, Fraction(3, 8), Fraction("0.731")):
            scaled = scale(a, f)
            for name, value in self._states():
                assert abs(value(scaled) - float(a) * value(f)) <= 1e-10, (name, a)


class TestStateEvaluators:
    """Each state kind's evaluator, called as ``unsharp state`` calls it."""

    def test_point_is_total(self):
        assert eval_point(HALF, smear(parse("(0,1)"), box(1))) == 1
        assert point_membership_state(HALF, project(parse("(0,1)")).rep) == 1

    def test_density(self):
        d = uniform(0, 1)
        assert abs(eval_density(d, constant(HALF), 1e-10) - 0.5) < 1e-10
        assert sharp_probability(d, project(parse("(0,1/2)")).rep) == HALF

    def test_sharp_is_partial(self):
        base = neighborhood_base(0, 2**20)
        x = project(parse("(0,inf)"))
        assert eval_sharp(adjoin(base, x, 64), x, 64) == 1
        assert eval_sharp(base, x, 64) is UNDETERMINED

    def test_escaping_both_directions(self):
        # the CLI escapes to +inf only; -1 is reached through the API alone
        f = smear(parse("(0,1)"), box(1))
        for direction in (1, -1):
            base = escaping_base(2**40, direction)
            assert abs(float(filter_effect_value(base, f, 2**40, 1e-6))) <= 1e-6
            assert filter_effect_value(base, constant(Fraction(1, 3)), 2**40, 1e-6) == Fraction(1, 3)

    def test_left_escape_diverges_left(self):
        from unsharp.common import DIVERGENT
        from unsharp.filters import converges_to, escaping_base

        assert converges_to(escaping_base(20, -1), 20, Fraction(1, 8)) is DIVERGENT


def _bisection_ppf(d, u):
    """The mixture ppf before the cached table: bisection from the parts'
    +- 10 sigma bracket down to 1e-12, returning the midpoint."""
    lo, hi = math.inf, -math.inf
    for _, comp in d.parts:
        if isinstance(comp, BoxDensity):
            lo, hi = min(lo, float(comp.lo)), max(hi, float(comp.hi))
        else:
            lo = min(lo, float(comp.mean) - 10.0 * float(comp.sigma))
            hi = max(hi, float(comp.mean) + 10.0 * float(comp.sigma))
    while float(cdf(d, lo)) >= u:
        lo -= max(1.0, hi - lo)
    while float(cdf(d, hi)) <= u:
        hi += max(1.0, hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            return mid
        if float(cdf(d, mid)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _count_cdf(monkeypatch):
    calls = []
    real = states.cdf
    monkeypatch.setattr(states, "cdf", lambda d, x: calls.append(x) or real(d, x))
    return calls


_BOARD = mixture((Fraction(3, 4), normal(0, HALF)), (Fraction(1, 4), uniform(1, 2)))


def _exact_start_cdf(d, low, start=0):
    """The mixture CDF loop with the running total started at ``start``: at
    the exact 0 it is the loop as it was before the 0.0 start."""
    terms = [(w, low.num(w), *c._cdf_term(low)) for w, c in d.parts]

    def value(x):
        total = start
        for w, fw, below, above, shift, spread in terms:
            if below is None:
                total = total + fw * (0.5 * (1.0 + math.erf((x - shift) / spread / math.sqrt(2.0))))
            elif x <= below:
                total = total + 0.0 if total.__class__ is float else total + Fraction(0)
            elif x >= above:
                total = total + fw if total.__class__ is float else total + w
            else:
                total = total + fw * ((x - shift) / spread)
        return total

    return value


_CDF_MODELS = {
    "no-gaussian": "mix(1/3*uniform(-1/3, 1/10); 2/3*uniform(1/2, 3))",
    "gaussian-first": "mix(1/2*gaussian(0, 1); 1/4*uniform(0, 1); 1/4*uniform(2, 5/2))",
    "one-box-first": "mix(1/3*uniform(-1/3, 1/10); 2/3*gaussian(1/7, 1/3))",
    "two-boxes-first": "mix(1/10*uniform(0, 1); 1/5*uniform(2, 3); 7/10*gaussian(0, 1))",
    "box-between": "mix(1/5*uniform(0, 1/3); 3/5*gaussian(1, 1/2); 1/5*uniform(1/10, 7))",
}


def _probes(d):
    """Points below, inside, at the ends of and above each box part, as
    Fractions and as the floats nearest them on either side."""
    exact = set()
    for _, c in d.parts:
        if isinstance(c, BoxDensity):
            exact.update((c.lo - 1, c.lo, (c.lo + c.hi) / 2, c.hi, c.hi + 1))
    exact.update((Fraction(5), Fraction(-3, 7)))
    floats = {g(q) for q in exact for g in (float, float_below, float_above)}
    return sorted(exact), sorted(floats)


class TestMixtureCdfStart:
    """The float start of the mixture CDF's running total moves no bit and no
    type of any answer, under either lowering."""

    @pytest.mark.parametrize("name", sorted(_CDF_MODELS))
    def test_same_bits_and_types_as_the_exact_start(self, name):
        d = parse_model_spec(_CDF_MODELS[name])
        exact, floats = _probes(d)
        cases = [(EXACT, x) for x in exact + floats] + [(FLOAT, x) for x in floats]
        for low, x in cases:
            got = d._closure(low)(x)
            want = _exact_start_cdf(d, low)(x)
            assert (type(got), repr(got)) == (type(want), repr(want)), (low, x)
        if name != "no-gaussian":  # a Gaussian part makes every answer float
            assert all(cdf(d, x).__class__ is float for x in exact + floats)

    def test_two_boxes_before_the_gaussian_keep_the_exact_start(self):
        # float(1/10 + 1/5) != 0.1 + 0.2, so a 0.0 start would move the last bit
        d = parse_model_spec(_CDF_MODELS["two-boxes-first"])
        assert cdf(d, 5.0) == _exact_start_cdf(d, FLOAT)(5.0)
        assert cdf(d, 5.0) != _exact_start_cdf(d, FLOAT, start=0.0)(5.0)


class TestPpf:
    def test_uniform_is_affine(self):
        assert ppf(uniform(0, 1), 0.25) == 0.25

    def test_gaussian_median(self):
        assert ppf(normal(2, 3), 0.5) == 2.0

    def test_mixture_table_and_chandrupatla_invert_cdf(self, monkeypatch):
        d = mixture((HALF, uniform(0, 1)), (HALF, normal(4, 1)))
        ppf(d, 0.5)  # builds the table
        calls = _count_cdf(monkeypatch)
        for u in (0.1, 0.5, 0.9):
            del calls[:]
            x = ppf(d, u)
            assert abs(float(cdf(d, x)) - u) < 1e-9
            assert len(calls) <= 8

    def test_plateau_returns_generalized_inverse(self):
        # cdf is 1/2 on all of [1, 2]; the least x with cdf(x) >= 1/2 is 1
        d = mixture((HALF, uniform(0, 1)), (HALF, uniform(2, 3)))
        assert abs(ppf(d, 0.5) - 1.0) <= 1e-12

    def test_u_equal_to_a_table_value(self):
        # the uniform knot 1 is a table point, so its CDF value is a table value
        u = float(cdf(_BOARD, 1.0))
        x = ppf(_BOARD, u)
        assert abs(x - 1.0) <= 1e-12 and abs(float(cdf(_BOARD, x)) - u) < 1e-9
        assert abs(x - _bisection_ppf(_BOARD, u)) <= 1e-12

    def test_extreme_u_inside_the_table(self, monkeypatch):
        # the float CDF is exactly 0.0 at the bracket's lower end and 1.0 at
        # its upper end, so both extremes are answered from the table
        ppf(_BOARD, 0.5)
        fallback = []
        real = states._bracket
        monkeypatch.setattr(states, "_bracket", lambda d, u: fallback.append(u) or real(d, u))
        for u in (2.0**-54, 1.0 - 2.0**-53):
            assert abs(ppf(_BOARD, u) - _bisection_ppf(_BOARD, u)) <= 1e-12
        assert fallback == []

    def test_u_above_the_table_solves_the_upper_tail(self, monkeypatch):
        # seven float weights 1/7 sum to 1 - 2**-52, so the float CDF never
        # reaches u, the largest draw of unit_uniform
        seventh = Fraction(1, 7)
        gaussian_tails = [
            mixture(*[(seventh, normal(i, 1)) for i in range(7)]),
            mixture(*[(seventh, uniform(i, i + 1) if i % 2 else normal(i, 1)) for i in range(7)]),
        ]
        flat = mixture(*[(seventh, uniform(i, i + 2)) for i in range(7)])

        def erfc_tail(d, x):
            return sum(
                float(w) * 0.5 * math.erfc((x - float(c.mean)) / float(c.sigma) / math.sqrt(2))
                for w, c in d.parts
                if isinstance(c, GaussianDensity)
            )

        for d in gaussian_tails + [flat]:
            ppf(d, 0.5)  # builds the table
        fallback = []
        real = states._bracket
        monkeypatch.setattr(states, "_bracket", lambda d, u: fallback.append(u) or real(d, u))
        u = 1.0 - 2.0**-53
        for d in gaussian_tails:
            x = ppf(d, u)
            assert math.isfinite(x)
            assert abs(erfc_tail(d, x) - (1.0 - u)) <= 1e-6 * (1.0 - u)
        # only uniform(6, 8) reaches past 7, where its tail is (8 - x) / 14
        assert abs(ppf(flat, u) - (8.0 - 14.0 * (1.0 - u))) <= 1e-12
        assert fallback == []

    @pytest.mark.parametrize("loc", [10**4, 10**6])
    def test_terminates_far_from_the_origin(self, monkeypatch, loc):
        # one ulp exceeds 1e-12 here, so the bracket stops at adjacent floats
        d = mixture((HALF, uniform(loc, loc + 1)), (HALF, normal(loc, 1)))
        ppf(d, 0.5)
        calls = _count_cdf(monkeypatch)
        for i in range(1, 40):
            u = i / 40
            del calls[:]
            x = ppf(d, u)
            assert len(calls) <= 40
            assert abs(float(cdf(d, x)) - u) < 1e-9

    def test_bracket_widens_where_a_unit_step_rounds_away(self):
        # at 2**58 one ulp is 64: mean + 10 sigma rounds to the mean, where the
        # CDF is exactly 1/2, and hi + 1.0 == hi
        d = mixture((HALF, normal(2**58, 1)), (HALF, normal(2**58, 2)))
        for u in (0.25, 0.5, 0.75):
            assert abs(ppf(d, u) - 2.0**58) <= 64

    def test_pickle_drops_the_table(self):
        d = mixture((Fraction(1, 3), normal(-2, 1)), (Fraction(2, 3), uniform(0, 5)))
        us = [i / 17 for i in range(1, 17)]
        draws = [ppf(d, u) for u in us]
        assert "_float_ppf" in vars(d)
        copy = pickle.loads(pickle.dumps(d))
        assert not any(k.startswith("_float") for k in vars(copy))
        assert [ppf(copy, u) for u in us] == draws

    @settings(max_examples=150, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(
                st.integers(1, 6),
                st.booleans(),
                st.fractions(-20, 20, max_denominator=8),
                st.fractions(Fraction(1, 10), 5, max_denominator=10),
            ),
            min_size=2,
            max_size=3,
        ),
        u=st.floats(1e-9, 1 - 1e-9),
    )
    def test_agrees_with_bisection(self, parts, u):
        total = sum(w for w, *_ in parts)
        d = mixture(
            *[
                (Fraction(w, total), uniform(at, at + size) if flat else normal(at, size))
                for w, flat, at, size in parts
            ]
        )
        want = _bisection_ppf(d, u)
        if pdf(d, want) >= 1e-3:
            assert abs(ppf(d, u) - want) <= 1e-11

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            ppf(uniform(0, 1), 0.0)
