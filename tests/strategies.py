"""Hypothesis strategies shared by the property suites."""

from fractions import Fraction

from hypothesis import strategies as st

from unsharp.common import NEG_INF, POS_INF
from unsharp.intervals import Interval, IntervalSet

rationals = st.builds(
    Fraction,
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=1, max_value=8),
)

# Distinct rationals that share a float, or overflow it: a base point moved
# by an offset far below its float spacing.
COLLIDING_BASES = (
    0, Fraction(1, 3), 10**20, 10**400, -(10**400), Fraction(1, 10**400), Fraction(1, 2**1074)
)
COLLIDING_OFFSETS = (
    0, Fraction(1, 10**40), -Fraction(1, 10**40), Fraction(1, 2**80), -Fraction(1, 2**80),
    Fraction(1, 10**500),
)
colliding_rationals = st.builds(
    lambda base, offset: Fraction(base) + offset,
    st.sampled_from(COLLIDING_BASES),
    st.sampled_from(COLLIDING_OFFSETS),
)


@st.composite
def intervals(draw, values=rationals):
    a = draw(values)
    b = draw(values)
    if a > b:
        a, b = b, a
    if a == b:
        return Interval(a, a, True, True)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def interval_sets(draw, max_components=5):
    k = draw(st.integers(min_value=0, max_value=max_components))
    return IntervalSet.from_intervals(draw(intervals()) for _ in range(k))


@st.composite
def colliding_interval_sets(draw, max_components=5):
    """Sets whose endpoints collide in float, with half-lines now and then."""
    k = draw(st.integers(min_value=0, max_value=max_components))
    ivs = [draw(intervals(colliding_rationals)) for _ in range(k)]
    if draw(st.booleans()):
        ivs.append(Interval(NEG_INF, draw(colliding_rationals), False, draw(st.booleans())))
    if draw(st.booleans()):
        ivs.append(Interval(draw(colliding_rationals), POS_INF, draw(st.booleans()), False))
    return IntervalSet.from_intervals(ivs)
