"""Set-expression grammar: denotations, disambiguation, error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp.errors import SetExprError
from unsharp.intervals import EMPTY, REALS, combine, measure, membership
from unsharp.setexpr import parse_effect_spec, parse_model_spec, parse_set_expr

from strategies import interval_sets


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(0,1) | [2,3)", "(0, 1) | [2, 3)"),
        ("(0,1) & (1/2,2)", "(1/2, 1)"),
        ("(0,2) ^ (1,3)", "(0, 1] | [2, 3)"),
        ("R \\ (0,1)", "(-inf, 0] | [1, inf)"),
        ("~((0,1))", "(-inf, 0] | [1, inf)"),
        ("~(0,1) | (0,1)", "(-inf, inf)"),
        ("{1,2,3}", "{1} | {2} | {3}"),
        ("empty", "empty"),
        ("R", "(-inf, inf)"),
        ("(-inf, 0) | (0, inf)", "(-inf, 0) | (0, inf)"),
        ("[1,1]", "{1}"),
        ("(1,1)", "empty"),
        ("(0.25, 1/2)", "(1/4, 1/2)"),
        ("((0,1) | [2,3)) & (1/2, 5/2)", "(1/2, 1) | [2, 5/2)"),
        ("(0,1)|[1,2]", "(0, 2]"),
        ("(0,1) & (2,3) | (4,5)", "(4, 5)"),
        ("(0,1) | (2,3) ^ (0,3)", "[1, 2]"),
        ("(0,3) \\ [1,2] | [1,2]", "(0, 3)"),
        ("(4,5) | (0,1) | (2,3) & (1/2,5/2)", "(1/2, 1) | (2, 5/2)"),
        ("{3} | ~(0,5) | (1,2) | (2,4)", "(-inf, 0] | (1, 2) | (2, 4) | [5, inf)"),
    ],
)
def test_denotations(text, expected):
    assert str(parse_set_expr(text)) == expected


def test_symmdiff_against_pointwise_oracle():
    got = parse_set_expr("(0,2) ^ (1,3)")
    for k in range(-10_000, 10_001, 7):
        q = Fraction(k, 2857)
        in_a = 0 < q < 2
        in_b = 1 < q < 3
        assert membership(q, got) == (in_a != in_b)


def test_left_associative_chain():
    # ((A | B) \ C), not (A | (B \ C))
    got = parse_set_expr("(0,1) | (2,3) \\ (0,5)")
    assert got == EMPTY


def test_decimal_read_exactly():
    s = parse_set_expr("(0.1, 0.3)")
    assert s.components[0].lo == Fraction(1, 10)
    assert s.components[0].hi == Fraction(3, 10)
    assert measure(s) == Fraction(1, 5)


class TestErrors:
    def test_reversed_interval(self):
        with pytest.raises(SetExprError):
            parse_set_expr("(5, 3)")

    def test_closed_infinity(self):
        with pytest.raises(SetExprError):
            parse_set_expr("[-inf, 0)")
        with pytest.raises(SetExprError):
            parse_set_expr("(0, inf]")

    def test_position_reported(self):
        with pytest.raises(SetExprError) as err:
            parse_set_expr("(0,1) | $")
        assert err.value.pos == 8

    def test_position_reported_late_in_a_union_run(self):
        with pytest.raises(SetExprError) as err:
            parse_set_expr("(0,1) | (2,3) | {4} | (5,6")
        assert err.value.pos == 26
        assert str(err.value) == "expected ')' or ']' to close interval (at position 26)"

    def test_trailing_garbage(self):
        with pytest.raises(SetExprError):
            parse_set_expr("(0,1) (2,3)")

    def test_bare_number_is_not_a_set(self):
        with pytest.raises(SetExprError):
            parse_set_expr("(3)")

    def test_unknown_name(self):
        with pytest.raises(SetExprError):
            parse_set_expr("Q")

    def test_empty_input(self):
        with pytest.raises(SetExprError):
            parse_set_expr("")

    @pytest.mark.parametrize(
        "text,pos",
        [("(1/0, 2)", 1), ("{1/0}", 1), ("{1, 2/0}", 4), ("(1.5/2, 3)", 1), ("(0, 1/0]", 4)],
    )
    def test_bad_number_reported_at_its_position(self, text, pos):
        with pytest.raises(SetExprError) as err:
            parse_set_expr(text)
        assert err.value.pos == pos

    @pytest.mark.parametrize("text", ["(-inf,-inf)", "(inf,inf)", "(inf,0)", "(0,-inf)", "[inf,inf]"])
    def test_interval_the_constructor_refuses(self, text):
        with pytest.raises(SetExprError) as err:
            parse_set_expr("{2} | " + text)
        assert err.value.pos == 6

    def test_unknown_character_outranks_an_earlier_error(self):
        for text in ("(5,3) | $", "(5,3) | *", "(5,3);"):
            with pytest.raises(SetExprError) as err:
                parse_set_expr(text)
            assert err.value.pos == len(text) - 1
            assert str(err.value).startswith("unexpected character")


class TestSpecs:
    """Specs share the set grammar's tokenizer and its positioned errors."""

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("const(1/0)", 6),
            ("scale(1/2, const(1))", 9),
            ("neg(const(1)", 12),
            ("wat(1)", 0),
            ("smear((0,1); box(1)) x", 21),
            ("const(2)", 0),
            ("smear((0,1) | $; box(1))", 14),
        ],
    )
    def test_effect_errors_carry_positions(self, text, pos):
        with pytest.raises(SetExprError) as err:
            parse_effect_spec(text)
        assert err.value.pos == pos

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("mix(1/2*uniform(0,1); 1/2*gaussian(0, 1e400))", 38),
            ("mix(1*mix(1*uniform(0,1)))", 6),
            ("mix(1/2*uniform(0,1) 1/2*uniform(1,2))", 21),
        ],
    )
    def test_model_errors_carry_positions(self, text, pos):
        with pytest.raises(SetExprError) as err:
            parse_model_spec(text)
        assert err.value.pos == pos


@settings(max_examples=200)
@given(interval_sets())
def test_round_trip(s):
    assert parse_set_expr(str(s)) == s


def test_round_trip_full_line_and_empty():
    assert parse_set_expr(str(REALS)) == REALS
    assert parse_set_expr(str(EMPTY)) == EMPTY


_OP_SYMBOLS = {"union": "|", "intersect": "&", "diff": "\\", "symmdiff": "^"}


@settings(max_examples=100)
@given(
    interval_sets(),
    st.lists(st.tuples(st.sampled_from(sorted(_OP_SYMBOLS)), interval_sets()), max_size=6),
)
def test_chain_equals_left_fold(first, rest):
    """Operators of equal precedence fold left, whatever runs of unions they
    contain."""
    text = f"({first})" if not first.is_empty else "empty"
    expected = first
    for op, s in rest:
        text += f" {_OP_SYMBOLS[op]} " + (f"({s})" if not s.is_empty else "empty")
        expected = combine(op, expected, s)
    assert parse_set_expr(text) == expected
