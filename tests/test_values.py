"""Value semantics of the package's immutable classes, one table for all:
equality, hash, repr, frozenness and round trips through pickle and copy."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from unsharp.common import DIVERGENT, POS_INF, UNDETERMINED, FloatClosures
from unsharp.effects import (
    BoxDensity,
    Complemented,
    Constant,
    GaussianDensity,
    LeqResult,
    OrthoSum,
    Scaled,
    SmearedIndicator,
    TriangleDensity,
)
from unsharp.filters import (
    DisjointFamily,
    FilterBase,
    FiniteFamily,
    FmpCertificate,
    NeighborhoodFamily,
    TailFamily,
)
from unsharp.intervals import Interval, interval
from unsharp.measurement import (
    EffectRow,
    IndistinguishabilityReport,
    MeasurementRecord,
    PrecisionScheme,
    ScoreSheet,
)
from unsharp.quotient import QuotientClass, project
from unsharp.states import Mixture, cdf, normal, uniform

_UNIT = "IntervalSet(components=(Interval(lo=Fraction(0, 1), hi=Fraction(1, 1), lo_closed=False, hi_closed=False),))"
_ROW = "EffectRow(label='box', value_right=Fraction(1, 2), value_left=Fraction(1, 2), point_value=0.5, max_deviation=0.0)"


def _row():
    return EffectRow("box", Fraction(1, 2), Fraction(1, 2), 0.5, 0.0)


# (make, fields, repr, float query or None); make() builds a fresh instance
# each call, and the query caches a float closure on it
VALUES = {
    "Interval": (
        lambda: Interval(Fraction(-1, 2), POS_INF, True),
        ("lo", "hi", "lo_closed", "hi_closed"),
        "Interval(lo=Fraction(-1, 2), hi=inf, lo_closed=True, hi_closed=False)",
        None,
    ),
    "BoxDensity": (
        lambda: BoxDensity(0, "1/2"),
        ("lo", "hi"),
        "BoxDensity(lo=Fraction(0, 1), hi=Fraction(1, 2))",
        lambda d: d.enclose(0.1, 0.3),
    ),
    "TriangleDensity": (
        lambda: TriangleDensity("1/2"),
        ("half_width",),
        "TriangleDensity(half_width=Fraction(1, 2))",
        lambda d: d.enclose(-0.1, 0.3),
    ),
    "GaussianDensity": (
        lambda: GaussianDensity(1, "1/3"),
        ("sigma", "mean"),
        "GaussianDensity(sigma=Fraction(1, 1), mean=Fraction(1, 3))",
        lambda d: d.enclose(0.1, 0.3),
    ),
    "Constant": (
        lambda: Constant("1/4"),
        ("value",),
        "Constant(value=Fraction(1, 4))",
        lambda f: f.value_at(0.5),
    ),
    "SmearedIndicator": (
        lambda: SmearedIndicator(interval(0, 1), BoxDensity("-1/2", "1/2")),
        ("region", "density"),
        f"SmearedIndicator(region={_UNIT}, density=BoxDensity(lo=Fraction(-1, 2), hi=Fraction(1, 2)))",
        lambda f: f.value_at(0.75),
    ),
    "OrthoSum": (
        lambda: OrthoSum(Constant("1/4"), Constant("1/2")),
        ("left", "right"),
        "OrthoSum(left=Constant(value=Fraction(1, 4)), right=Constant(value=Fraction(1, 2)))",
        lambda f: f.value_at(0.5),
    ),
    "Scaled": (
        lambda: Scaled("1/2", SmearedIndicator(interval(0, 1), GaussianDensity(1))),
        ("factor", "inner"),
        f"Scaled(factor=Fraction(1, 2), inner=SmearedIndicator(region={_UNIT}, "
        "density=GaussianDensity(sigma=Fraction(1, 1), mean=Fraction(0, 1))))",
        lambda f: f.value_at(0.25),
    ),
    "Complemented": (
        lambda: Complemented(Constant("1/4")),
        ("inner",),
        "Complemented(inner=Constant(value=Fraction(1, 4)))",
        lambda f: f.value_at(0.5),
    ),
    "LeqResult": (
        lambda: LeqResult(False, witness_point=0.5),
        ("holds", "witness_effect", "witness_point"),
        "LeqResult(holds=False, witness_effect=None, witness_point=0.5)",
        None,
    ),
    "FiniteFamily": (
        lambda: FiniteFamily((project(interval(0, 1)),)),
        ("classes",),
        f"FiniteFamily(classes=(QuotientClass(rep={_UNIT}),))",
        None,
    ),
    "NeighborhoodFamily": (
        lambda: NeighborhoodFamily("1/3", 4),
        ("center", "size"),
        "NeighborhoodFamily(center=Fraction(1, 3), size=4)",
        None,
    ),
    "TailFamily": (
        lambda: TailFamily(3, -1),
        ("size", "direction"),
        "TailFamily(size=3, direction=-1)",
        None,
    ),
    "FilterBase": (
        lambda: FilterBase(NeighborhoodFamily("1/3", 4), certified_depth=4, tag=Fraction(1, 3)),
        ("family", "adjoined", "certified_depth", "tag"),
        "FilterBase(family=NeighborhoodFamily(center=Fraction(1, 3), size=4), adjoined=(), "
        "certified_depth=4, tag=Fraction(1, 3))",
        None,
    ),
    "FmpCertificate": (
        lambda: FmpCertificate(True, 2, witnesses=((1, Interval(0, 1)),)),
        ("ok", "depth", "witnesses", "offender"),
        "FmpCertificate(ok=True, depth=2, witnesses=((1, Interval(lo=Fraction(0, 1), "
        "hi=Fraction(1, 1), lo_closed=False, hi_closed=False)),), offender=None)",
        None,
    ),
    "DisjointFamily": (
        lambda: DisjointFamily(0, 2),
        ("center", "m"),
        "DisjointFamily(center=Fraction(0, 1), m=2)",
        None,
    ),
    "PrecisionScheme": (
        lambda: PrecisionScheme(3),
        ("level",),
        "PrecisionScheme(level=3)",
        None,
    ),
    "MeasurementRecord": (
        lambda: MeasurementRecord(seed=1, level=2, counts=((0, 3), (1, 1)), total=4),
        ("seed", "level", "counts", "total"),
        "MeasurementRecord(seed=1, level=2, counts=((0, 3), (1, 1)), total=4)",
        None,
    ),
    "ScoreSheet": (
        lambda: ScoreSheet(1, 1, ((0.5, "y"), (2.0, "n"))),
        ("y_count", "n_count", "log"),
        "ScoreSheet(y_count=1, n_count=1, log=((0.5, 'y'), (2.0, 'n')))",
        None,
    ),
    "EffectRow": (
        _row,
        ("label", "value_right", "value_left", "point_value", "max_deviation"),
        _ROW,
        None,
    ),
    "IndistinguishabilityReport": (
        lambda: IndistinguishabilityReport(Fraction(0), "(0, inf)", 1, 0, (_row(),), 1e-6),
        ("center", "sharp_question", "sharp_right", "sharp_left", "rows", "tol"),
        "IndistinguishabilityReport(center=Fraction(0, 1), sharp_question='(0, inf)', "
        f"sharp_right=1, sharp_left=0, rows=({_ROW},), tol=1e-06)",
        None,
    ),
    "QuotientClass": (
        lambda: QuotientClass(interval(0, 1)),
        ("rep",),
        f"QuotientClass(rep={_UNIT})",
        None,
    ),
    "Mixture": (
        lambda: Mixture(((Fraction(1, 2), uniform(0, 1)), (Fraction(1, 2), normal(0, 1)))),
        ("parts",),
        "Mixture(parts=((Fraction(1, 2), BoxDensity(lo=Fraction(0, 1), hi=Fraction(1, 1))), "
        "(Fraction(1, 2), GaussianDensity(sigma=Fraction(1, 1), mean=Fraction(0, 1)))))",
        lambda m: cdf(m, 0.3),
    ),
}

_CASES = pytest.mark.parametrize("name", sorted(VALUES))


def _fields(x, names):
    return tuple(getattr(x, n) for n in names)


@_CASES
def test_equality_and_hash(name):
    make, names, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, names))
    # another class never compares equal, not even the tuple of the fields
    assert a.__eq__(_fields(a, names)) is NotImplemented
    assert a != _fields(a, names)
    other = VALUES["PrecisionScheme" if name != "PrecisionScheme" else "TailFamily"][0]()
    assert a.__eq__(other) is NotImplemented and a != other


@_CASES
def test_repr(name):
    make, _, text, _ = VALUES[name]
    assert repr(make()) == text


@_CASES
def test_frozen(name):
    make, names, _, _ = VALUES[name]
    a = make()
    for n in names + ("extra",):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{n}'$"):
            setattr(a, n, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{n}'$"):
            delattr(a, n)
    assert a == make()


@_CASES
def test_pickle_and_copy(name):
    make, names, _, query = VALUES[name]
    a = make()
    answer = None if query is None else query(a)
    assert (query is not None) == isinstance(a, FloatClosures)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a
        assert hash(twin) == hash(a) and repr(twin) == repr(a)
        assert [type(v) for v in _fields(twin, names)] == [type(v) for v in _fields(a, names)]
        if query is not None:
            assert repr(query(twin)) == repr(answer)


@pytest.mark.parametrize("sentinel", [UNDETERMINED, DIVERGENT], ids=repr)
def test_sentinels_survive_pickle_and_copy(sentinel):
    for twin in (pickle.loads(pickle.dumps(sentinel)), copy.copy(sentinel), copy.deepcopy(sentinel)):
        assert twin is sentinel


def test_an_undetermined_row_stays_undetermined_through_pickle():
    row = EffectRow("box", UNDETERMINED, Fraction(1, 2), 0.5, None)
    report = IndistinguishabilityReport(Fraction(0), "(0, inf)", 1, 0, (row,), 1e-6)
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert twin.rows[0].undetermined and twin.rows[0].value_right is UNDETERMINED
        assert twin.undetermined_count == 1 and twin.unsharp_agreement is True


def test_frozen_filter_base_replace_builds_a_fresh_base():
    base = VALUES["FilterBase"][0]()
    base.adjoined_meet()
    moved = base.replace(tag=Fraction(0))
    assert moved == FilterBase(base.family, (), 4, Fraction(0)) and moved is not base
    assert "_adjoined_meet" in vars(base) and "_adjoined_meet" not in vars(moved)
    with pytest.raises(TypeError):
        base.replace(size=3)


def test_importing_the_cli_leaves_verify_and_dataclasses_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    names = ("unsharp.verify", "dataclasses", "inspect")
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, unsharp.cli; print([m in sys.modules for m in {names!r}])"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[False, False, False]\n", "")
