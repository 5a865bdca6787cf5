"""Panel enclosures and the branch-and-bound certificates built on them.

An enclosure must hold every value of its node on the panel; a certificate
must never certify what a fine grid refutes, and every witness it returns
must refute."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unsharp.common import NEG_INF, POS_INF
from unsharp.effects import (
    _CDF_ERR,
    _add_down,
    _add_up,
    _split,
    box,
    constant,
    gaussian,
    leq,
    neg,
    oplus,
    orthogonality,
    scale,
    smear,
    triangle,
    vanishes_at_infinity,
)
from unsharp.errors import CannotCertify, NotOrthogonal
from unsharp.rng import substream_seed
from unsharp.setexpr import parse_set_expr as parse
from unsharp.verify import Draw, _random_effect

from strategies import interval_sets, rationals

# a float evaluation rounds too: where an enclosure is clamped at 0 or 1 or
# holds the exact value, the float value may sit a few units of 2**-53 outside
# (an enclosure's own widening is 2**-48 per CDF value)
FLOAT_NOISE = 2.0**-50

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite, finite)
@example(1.0, 1e-17)  # rounds down to 1.0
@example(1.0, -1e-17)  # rounds up to 1.0
def test_directed_sums_bound_the_exact_sum(a, b):
    """Every enclosure adds through these: each result lies on its side of
    the exact sum, at most one step outward from the rounded sum."""
    exact = Fraction(a) + Fraction(b)
    s = a + b
    down, up = _add_down(a, b), _add_up(a, b)
    assert Fraction(down) <= exact <= Fraction(up)
    assert down in (s, math.nextafter(s, NEG_INF))
    assert up in (s, math.nextafter(s, POS_INF))

quarters = st.integers(min_value=1, max_value=8).map(lambda k: Fraction(k, 4))
densities = st.one_of(
    st.builds(box, quarters),
    st.builds(triangle, quarters),
    st.builds(gaussian, st.integers(min_value=2, max_value=10).map(lambda k: Fraction(k, 20))),
)
eighths = st.integers(min_value=1, max_value=8).map(lambda k: Fraction(k, 8))
leaves = st.one_of(
    st.builds(constant, st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 8))),
    st.builds(smear, interval_sets(max_components=3), densities),
)


def trees(depth=2):
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    half = Fraction(1, 2)
    return st.one_of(
        leaves,
        st.builds(neg, sub),
        st.builds(scale, eighths, sub),
        st.builds(lambda f, g: oplus(scale(half, f), scale(half, g)), sub, sub),
    )


widths = st.builds(
    Fraction, st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=9)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(box, widths), st.builds(triangle, widths)), st.floats(-20, 20))
def test_cdf_bounds_hold_the_exact_cdf(d, t):
    # box and triangle CDFs are exact at a rational point, so they check the
    # stated float error bound and the widening by it
    exact = d._exact(Fraction(t))
    assert abs(d._float(t) - exact) <= _CDF_ERR / 4
    lo, hi = d.enclose(t, t)
    assert lo <= exact <= hi


ends = st.one_of(rationals.map(float), st.sampled_from([NEG_INF, POS_INF]))


def _points(x0, x1):
    """The finite ends, the finite midpoint and 8 rational interior points."""
    pts = [Fraction(x) for x in (x0, x1) if math.isfinite(x)]
    if math.isfinite(x0) and math.isfinite(x1):
        a, b = Fraction(x0), Fraction(x1)
        pts.append(Fraction(0.5 * x0 + 0.5 * x1))
        pts += [a + (b - a) * k / 9 for k in range(1, 9)]
    elif math.isfinite(x0):
        pts += [Fraction(x0) + Fraction(k**3, 3) for k in range(1, 9)]
    elif math.isfinite(x1):
        pts += [Fraction(x1) - Fraction(k**3, 3) for k in range(1, 9)]
    elif x0 < x1:
        pts += [Fraction((-1) ** k * k**3, 3) for k in range(1, 9)]
    return pts


@settings(max_examples=300, deadline=None)
@given(trees(), ends, ends)
def test_enclosure_holds_every_value_on_the_panel(f, x0, x1):
    if x0 > x1:
        x0, x1 = x1, x0
    lo, hi = f.enclose(x0, x1)
    assert 0 <= lo <= hi <= 1
    for q in _points(x0, x1):
        assert lo <= f.value_at(q) <= hi, (q, f.describe())
        v = float(f.value_at(float(q)))
        assert lo - FLOAT_NOISE <= v <= hi + FLOAT_NOISE, (float(q), f.describe())


def test_enclosure_is_exact_where_the_smear_is_flat():
    f = smear(parse("(0, 5)"), box(1))
    assert f.enclose(-10.0, -5.0) == (0, 0)
    assert f.enclose(2.0, 3.0) == (1, 1)
    assert neg(f).enclose(4.0, POS_INF) == (0, 1)
    assert neg(f).enclose(6.0, POS_INF) == (1, 1)


def test_single_point_components_add_nothing():
    # a smear of a null set is 0 everywhere, so its enclosure is exactly 0 and
    # an ordering against a function that is 0 on the same panels certifies
    assert smear(parse("[-2/3, -2/3]"), box(Fraction(3, 2))).enclose(NEG_INF, POS_INF) == (0, 0)
    f = smear(parse("[-3, -3] | [5, 5]"), triangle(Fraction(5, 4)))
    assert leq(f, smear(parse("(-2, 4]"), triangle(Fraction(1, 4))))


# ---------------------------------------------------------------------------
# the whole-line search

any_float = st.floats(allow_nan=False, allow_infinity=False)
HALF_MAX = sys.float_info.max / 2


@settings(max_examples=500, deadline=None)
@given(any_float, any_float)
@example(-1e308, 1e308)
@example(1.7e308, sys.float_info.max)
@example(-5e-324, 5e-324)
def test_split_is_strictly_inside_a_finite_panel(a, b):
    x0, x1 = min(a, b), max(a, b)
    assume(math.nextafter(x0, POS_INF) < x1)
    assert x0 < _split(x0, x1) < x1


@settings(max_examples=500, deadline=None)
@given(any_float)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1.0)
@example(-1.0)
@example(8e307)
@example(-8e307)
@example(1e308)
@example(-1e308)
def test_split_moves_a_tail_panel_out_by_doubling(x):
    """Inside the panel, at least twice as far out as its finite end and 1
    past 0; infinite only where doubling overflows."""
    left, right = _split(NEG_INF, x), _split(x, POS_INF)
    assert left < x and left <= min(2.0 * x, -1.0)
    assert right > x and right >= max(2.0 * x, 1.0)
    assert math.isinf(left) == (x < -HALF_MAX)
    assert math.isinf(right) == (x > HALF_MAX)
    assert _split(NEG_INF, POS_INF) == 0.0


def test_a_far_tail_refutes_with_a_finite_witness():
    # each sum exceeds 1 only beyond 10**9, which only a tail panel reaches
    f, half = smear(parse("(1000000000, inf)"), gaussian(1)), constant(Fraction(1, 2))
    with pytest.raises(NotOrthogonal) as info:
        orthogonality(f, half)
    x = info.value.witness_point
    assert math.isfinite(x) and x > 1e9
    assert float(f.value_at(x)) + float(half.value_at(x)) > 1
    g = smear(parse("(-inf, -1000000000)"), box(1))
    res = leq(g, half)
    x = res.witness_point
    assert not res and math.isfinite(x) and x < -1e9
    assert float(g.value_at(x)) > 1 / 2


# ---------------------------------------------------------------------------
# certificates against a fine grid

GRID = [-12.0 + 24.0 * k / 4096 for k in range(4097)]
HORIZONS = (1, 2)
VANISH_TOL = Fraction(1, 16)


@pytest.fixture(scope="module")
def pairs():
    """300 seeded pairs of random trees, with their values on the grid."""
    draw = Draw(substream_seed(1, 19))
    out = []
    for _ in range(300):
        f, g = _random_effect(draw), _random_effect(draw)
        fv = [float(f.value_at(x)) for x in GRID]
        gv = [float(g.value_at(x)) for x in GRID]
        out.append((f, g, fv, gv))
    return out


def _check(verdict, witness_excess, worst, c):
    """A certified verdict leaves no grid point above c + 1e-12; a grid point
    above c + 1e-9 is found by the search too, so the verdict is a
    refutation; every witness exceeds c."""
    if verdict == "certified":
        assert worst <= c + 1e-12
    if worst > c + 1e-9:
        assert verdict == "refuted"
    if witness_excess is not None:
        assert witness_excess > c


def test_orthogonality_against_the_grid(pairs):
    seen = set()
    for f, g, fv, gv in pairs:
        witness = None
        try:
            oplus(f, g)
            verdict = "certified"
        except NotOrthogonal as exc:
            verdict, x = "refuted", exc.witness_point
            assert exc.witness_value > 1
            witness = float(f.value_at(x)) + float(g.value_at(x))
        except CannotCertify:
            verdict = "cannot"
        seen.add(verdict)
        _check(verdict, witness, max(a + b for a, b in zip(fv, gv)), 1.0)
    assert {"certified", "refuted"} <= seen


def test_ordering_against_the_grid(pairs):
    seen = set()
    for f, g, fv, gv in pairs:
        witness = None
        try:
            res = leq(f, g)
            verdict = "certified" if res else "refuted"
        except CannotCertify:
            verdict = "cannot"
        if verdict == "refuted":
            x = res.witness_point
            witness = float(f.value_at(x)) - float(g.value_at(x))
        seen.add(verdict)
        _check(verdict, witness, max(a - b for a, b in zip(fv, gv)), 0.0)
    assert {"certified", "refuted"} <= seen


@pytest.mark.parametrize("horizon", HORIZONS)
def test_vanishing_against_the_grid(pairs, horizon):
    seen = set()
    outside = [i for i, x in enumerate(GRID) if abs(x) > horizon]
    for f, g, fv, gv in pairs:
        for h, hv in ((f, fv), (g, gv)):
            try:
                verdict = "certified" if vanishes_at_infinity(h, VANISH_TOL, horizon) else "refuted"
            except CannotCertify:
                verdict = "cannot"
            seen.add(verdict)
            _check(verdict, None, max(hv[i] for i in outside), float(VANISH_TOL))
    assert {"certified", "refuted"} <= seen
