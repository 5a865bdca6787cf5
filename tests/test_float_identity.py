"""Float and exact reads of effect trees and density models, pinned by repr
and type.

A float query must give, bit for bit, what the mixed Fraction/float
arithmetic gives, down to the int 0 or 1 and the exact Fraction some branches
return; a rational query must give the exact value.  ``float_identity.json``
holds the float results at points on every knot, at the knots' float
neighbours, between the knots and far outside, and the exact results (the
``*_exact`` sections) at every knot, between the knots and far outside.
Record it again with ``PYTHONPATH=src python tests/test_float_identity.py``
only when a change is meant to move a result.
"""

import json
import math
import pickle
from pathlib import Path

from fractions import Fraction

import pytest

from unsharp.cli import parse_effect_spec, parse_model_spec
from unsharp.effects import evaluate
from unsharp.states import cdf, model_knots, pdf

TABLE = Path(__file__).with_name("float_identity.json")

EFFECTS = [
    "const(1/3)",
    "smear([0, 1]; box(1))",
    "smear((1/3, 7/10); box(1/3))",
    "smear([-1, 1/2) | (3/4, 2]; box(1/2))",
    "smear((1/3, 7/10); triangle(1/10))",
    "smear((-inf, 1/3]; triangle(1/4))",
    "smear([7/10, inf); gaussian(1/3))",
    "smear((-1/2, 1/2) | (1, 3/2); gaussian(1/10))",
    "smear((-inf, inf); box(1))",
    "scale(1/3; smear((0, 1); box(1/2)))",
    "scale(2/7; smear((1/3, 7/10); gaussian(1/4)))",
    "neg(smear((1/3, 7/10); triangle(1/10)))",
    "neg(scale(1/3; smear((-1, 1); box(1/3))))",
    "oplus(smear((-2, -1) | (1, 7/5); triangle(1/10)); smear((1/3, 7/10); triangle(1/10)))",
    "oplus(const(1/4); scale(1/2; smear((0, 1); gaussian(1/10))))",
    "oplus(scale(1/3; smear((-inf, 0); box(1/3))); scale(3/5; smear((1/3, 7/10); triangle(1/10))))",
]

MODELS = [
    "uniform(1/3, 7/10)",
    "uniform(-1, 1)",
    "gaussian(1/3, 3/10)",
    "mix(1/3*uniform(-1/3, 1/10); 2/3*gaussian(1/7, 1/3))",
    "mix(1/4*uniform(0, 1); 3/4*uniform(1/3, 5/2))",
    "mix(1/2*gaussian(-1, 1/3); 1/2*gaussian(1, 1/10))",
]

_FAR = (math.inf, -math.inf, 1e6, -1e6, 0.0, -0.0)


def _points(knots):
    """Each knot as a float with both float neighbours, seven points spread
    across the knots, and points far outside."""
    floats = sorted(float(k) for k in knots)
    pts = list(_FAR)
    for x in floats:
        pts += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    lo, hi = (floats[0] - 1.0, floats[-1] + 1.0) if floats else (-1.0, 1.0)
    pts += [lo + (hi - lo) * i / 6 for i in range(7)]
    unique = {repr(x): x for x in pts}
    return [unique[r] for r in sorted(unique, key=lambda r: (float(r), r))]


def _exact_points(knots):
    """Each knot as a Fraction, the midpoints between knots, and the ints
    -10**6 and 10**6."""
    ks = sorted({Fraction(k) for k in knots})
    mids = [(a + b) / 2 for a, b in zip(ks, ks[1:])]
    return [-(10**6)] + sorted(ks + mids) + [10**6]


def _pin(x, v):
    return [repr(x), repr(v), type(v).__name__]


def _record():
    table = {"value_at": {}, "evaluate": {}, "cdf": {}, "pdf": {}}
    table.update(value_at_exact={}, evaluate_exact={}, cdf_exact={})
    for spec in EFFECTS:
        f = parse_effect_spec(spec)
        pts = _points(f.knots())
        table["value_at"][spec] = [_pin(x, f.value_at(x)) for x in pts]
        table["evaluate"][spec] = [_pin(x, evaluate(f, x)) for x in pts]
        pts = _exact_points(f.knots())
        table["value_at_exact"][spec] = [_pin(x, f.value_at(x)) for x in pts]
        table["evaluate_exact"][spec] = [_pin(x, evaluate(f, x)) for x in pts]
    for spec in MODELS:
        d = parse_model_spec(spec)
        pts = _points(model_knots(d))
        table["cdf"][spec] = [_pin(x, cdf(d, x)) for x in pts]
        table["pdf"][spec] = [_pin(x, pdf(d, x)) for x in pts]
        pts = [-math.inf] + _exact_points(model_knots(d)) + [math.inf]
        table["cdf_exact"][spec] = [_pin(x, cdf(d, x)) for x in pts]
    return table


def _dump(table):
    lines = ["{"]
    for i, (kind, entries) in enumerate(table.items()):
        lines.append(f" {json.dumps(kind)}: {{")
        for j, (spec, rows) in enumerate(entries.items()):
            lines.append(f"  {json.dumps(spec)}: [")
            lines += [f"   {json.dumps(row)}," for row in rows]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("  ]" + ("," if j < len(entries) - 1 else ""))
        lines.append(" }" + ("," if i < len(table) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert list(table["value_at"]) == EFFECTS and list(table["evaluate"]) == EFFECTS
    assert list(table["cdf"]) == MODELS and list(table["pdf"]) == MODELS
    assert list(table["value_at_exact"]) == EFFECTS and list(table["evaluate_exact"]) == EFFECTS
    assert list(table["cdf_exact"]) == MODELS


@pytest.mark.parametrize("spec", EFFECTS)
def test_value_at_and_evaluate(table, spec):
    f = parse_effect_spec(spec)
    for name, fn in (("value_at", f.value_at), ("evaluate", lambda x: evaluate(f, x))):
        rows = table[name][spec]
        assert [_pin(float(x), fn(float(x))) for x, _, _ in rows] == rows


@pytest.mark.parametrize("spec", MODELS)
def test_cdf_and_pdf(table, spec):
    d = parse_model_spec(spec)
    for name, fn in (("cdf", cdf), ("pdf", pdf)):
        rows = table[name][spec]
        assert [_pin(float(x), fn(d, float(x))) for x, _, _ in rows] == rows


@pytest.mark.parametrize("spec", EFFECTS)
def test_exact_value_at_and_evaluate(table, spec):
    f = parse_effect_spec(spec)
    pts = _exact_points(f.knots())
    assert [_pin(x, f.value_at(x)) for x in pts] == table["value_at_exact"][spec]
    assert [_pin(x, evaluate(f, x)) for x in pts] == table["evaluate_exact"][spec]


@pytest.mark.parametrize("spec", MODELS)
def test_exact_cdf(table, spec):
    d = parse_model_spec(spec)
    pts = [-math.inf] + _exact_points(model_knots(d)) + [math.inf]
    assert [_pin(x, cdf(d, x)) for x in pts] == table["cdf_exact"][spec]


def test_parameters_beyond_float_range():
    # the exact comparisons still decide; the float conversions still raise
    d = parse_model_spec("mix(1/2*uniform(0, 1e400); 1/2*uniform(-1, 1))")
    assert _pin(-1.0, cdf(d, -1.0)) == ["-1.0", "Fraction(0, 1)", "Fraction"]
    with pytest.raises(OverflowError):
        cdf(d, 0.5)
    f = parse_effect_spec("smear((0, 1); box(1e400))")
    g = parse_effect_spec("neg(smear((0, 1); triangle(1e400)))")
    assert [_pin(x, h.value_at(x)) for h in (f, g) for x in (-math.inf, math.inf)] == [
        ["-inf", "0", "int"],
        ["inf", "0", "int"],
        ["-inf", "1", "int"],
        ["inf", "1", "int"],
    ]
    for h in (f, g):
        with pytest.raises(OverflowError):
            h.value_at(0.5)


def test_pickles_after_float_queries():
    f = parse_effect_spec(EFFECTS[-1])
    d = parse_model_spec(MODELS[3])
    half = Fraction(1, 2)
    before = [f.value_at(0.5), evaluate(f, 0.5), cdf(d, 0.5), f.value_at(half), cdf(d, half)]
    f2, d2 = pickle.loads(pickle.dumps((f, d)))
    assert (f2, d2) == (f, d)
    after = [f2.value_at(0.5), evaluate(f2, 0.5), cdf(d2, 0.5), f2.value_at(half), cdf(d2, half)]
    assert after == before


if __name__ == "__main__":
    TABLE.write_text(_dump(_record()))
