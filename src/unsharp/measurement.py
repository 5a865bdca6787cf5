"""Simulation harness: finite-precision measurements, ensemble sampling, the
noisy score-keeper, and the sharp-vs-unsharp distinguishability experiment.

Finite precision is modeled by dyadic cells [i*2^-n, (i+1)*2^-n): any
partition with vanishing maximum diameter would do, and this one is fixed
because level n+1 refines level n exactly and cell indices are computable
without rounding.  All randomness flows through the SplitMix64 counter stream
(:mod:`unsharp.rng`), so runs are reproducible bit for bit and can be
partitioned across workers by index range.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .common import NEG_INF, POS_INF, UNDETERMINED, Frozen, as_fraction, set_field
from .effects import evaluate, smear
from .errors import UnsharpError
from .filters import adjoin, neighborhood_base
from .intervals import IntervalSet, interval, membership
from .quotient import project
from .rng import uniforms, unit_uniform
from .states import eval_point, eval_sharp, filter_effect_value, ppf

# depth to which the half-line extensions are checked for the finite meet
# property and their sharp question is answered
_FMP_DEPTH = 64


class PrecisionScheme(Frozen):
    """Dyadic partition of the line at level n; cell diameter 2^-n."""

    _fields = ("level",)

    def __init__(self, level: int):
        if level < 0:
            raise ValueError("level must be nonnegative")
        set_field(self, "level", level)

    @property
    def diameter(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def cell_bounds(self, i: int) -> tuple:
        d = self.diameter
        return (i * d, (i + 1) * d)


def dyadic_cell(q, n: int) -> int:
    """The unique i with i*2^-n <= q < (i+1)*2^-n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if isinstance(q, float):
        return _float_cell(q, n, 1 << n)
    return math.floor(as_fraction(q) * (1 << n))


def _float_cell(q: float, n: int, unit: int) -> int:
    """:func:`dyadic_cell` of a float q, given ``unit == 1 << n``."""
    try:
        return math.floor(q * unit)  # binary scaling is exact for floats
    except OverflowError:  # 2^n or q*2^n is beyond the float range
        a, b = q.as_integer_ratio()
        return (a << n) // b


def sample(d, count: int, seed: int) -> list:
    """Draw ``count`` values by inverse-CDF transform of the seeded uniform
    stream: draw i is ``ppf(d, unit_uniform(seed, i))``, with the uniforms
    read a block at a time by :func:`unsharp.rng.uniforms` and ``ppf``
    called once per draw.  Identical arguments give identical output."""
    if count < 1:
        raise ValueError("need at least one draw")
    return [ppf(d, u) for u in uniforms(seed, count)]


class MeasurementRecord(Frozen):
    """Histogram of one finite-precision measurement run; ``counts`` holds
    the sorted (cell_index, count) pairs."""

    _fields = ("seed", "level", "counts", "total")

    def __init__(self, seed: int, level: int, counts: tuple, total: int):
        set_field(self, "seed", seed)
        set_field(self, "level", level)
        set_field(self, "counts", counts)
        set_field(self, "total", total)

    def as_dict(self) -> dict:
        return dict(self.counts)


def run_protocol(d, n: int, count: int, seed: int) -> MeasurementRecord:
    """Measure ``count`` draws from ``d`` at precision level ``n``: record
    which dyadic cell each value falls in."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    draws = sample(d, count, seed)
    floor = math.floor
    unit = 1 << n
    try:
        scale = float(unit)  # q * scale is exact, as in dyadic_cell
        counts = Counter([floor(q * scale) for q in draws])
    except OverflowError:  # 2^n or some q*2^n is beyond the float range
        counts = Counter([_float_cell(q, n, unit) for q in draws])
    return MeasurementRecord(
        seed=seed, level=n, counts=tuple(sorted(counts.items())), total=count
    )


class ScoreSheet(Frozen):
    """Per-throw record of a score-keeping device: y/n symbols and totals;
    ``log`` holds (value, "y" | "n") per throw."""

    _fields = ("y_count", "n_count", "log")

    def __init__(self, y_count: int, n_count: int, log: tuple):
        set_field(self, "y_count", y_count)
        set_field(self, "n_count", n_count)
        set_field(self, "log", log)

    @property
    def throws(self) -> int:
        return self.y_count + self.n_count

    def printout(self) -> str:
        return "".join(symbol for _, symbol in self.log)


def scorekeeper(s: IntervalSet, e, throws, seed: int) -> ScoreSheet:
    """Score a list of throws against the question "landed in s?".

    A perfect device (``e is None``) records y exactly when the throw lies in
    the set.  An imperfect device with confidence density ``e`` records y with
    probability equal to the smeared response at the throw, decided by the
    seeded stream; same seed, same sheet."""
    detector = None if e is None else smear(s, e)
    log = []
    y = 0
    for i, q in enumerate(throws):
        if detector is None:
            hit = membership(Fraction(q) if isinstance(q, float) else q, s)
        else:
            hit = unit_uniform(seed, i) < float(evaluate(detector, q))
        log.append((q, "y" if hit else "n"))
        y += hit
    return ScoreSheet(y_count=y, n_count=len(log) - y, log=tuple(log))


class EffectRow(Frozen):
    """One effect of a report: its value along the base adjoined with the
    right half-line (``value_right``), with the left one, and at the point,
    and the larger distance of the two base values from the point value
    (None when either is undetermined)."""

    _fields = ("label", "value_right", "value_left", "point_value", "max_deviation")

    def __init__(
        self, label: str, value_right, value_left, point_value: float, max_deviation: float | None
    ):
        set_field(self, "label", label)
        set_field(self, "value_right", value_right)
        set_field(self, "value_left", value_left)
        set_field(self, "point_value", point_value)
        set_field(self, "max_deviation", max_deviation)

    @property
    def undetermined(self) -> bool:
        return self.value_right is UNDETERMINED or self.value_left is UNDETERMINED


class IndistinguishabilityReport(Frozen):
    """Two bases converging to the same point disagree on a sharp half-line
    question yet agree with the point state on every unsharp question."""

    _fields = ("center", "sharp_question", "sharp_right", "sharp_left", "rows", "tol")

    def __init__(
        self, center: Fraction, sharp_question: str, sharp_right, sharp_left, rows: tuple, tol: float
    ):
        set_field(self, "center", center)
        set_field(self, "sharp_question", sharp_question)
        set_field(self, "sharp_right", sharp_right)
        set_field(self, "sharp_left", sharp_left)
        set_field(self, "rows", rows)
        set_field(self, "tol", tol)

    @property
    def sharp_split(self) -> bool:
        return self.sharp_right == 1 and self.sharp_left == 0

    @property
    def unsharp_agreement(self) -> bool:
        return all(
            row.max_deviation is not None and row.max_deviation <= self.tol
            for row in self.rows
            if not row.undetermined
        )

    @property
    def undetermined_count(self) -> int:
        return sum(1 for row in self.rows if row.undetermined)

    def as_dict(self) -> dict:
        return {
            "center": str(self.center),
            "sharp_question": self.sharp_question,
            "sharp_right": str(self.sharp_right),
            "sharp_left": str(self.sharp_left),
            "sharp_split": self.sharp_split,
            "unsharp_agreement": self.unsharp_agreement,
            "undetermined": self.undetermined_count,
            "effects": [
                {
                    "label": row.label,
                    "value_right": repr(row.value_right),
                    "value_left": repr(row.value_left),
                    "point_value": row.point_value,
                    "max_deviation": row.max_deviation,
                }
                for row in self.rows
            ],
        }


def indistinguishability_experiment(
    lam, effects, depth: int, tol
) -> IndistinguishabilityReport:
    """Build the two half-line extensions of the neighborhood base at ``lam``
    and report (a) the sharp question they answer oppositely and (b) the
    agreement of every effect value with the point state."""
    if not effects:
        raise UnsharpError("need at least one effect")
    lam = as_fraction(lam)
    right = project(interval(lam, POS_INF))
    left = project(interval(NEG_INF, lam))
    base = neighborhood_base(lam, depth)
    s_right = adjoin(base, right, _FMP_DEPTH)
    s_left = adjoin(base, left, _FMP_DEPTH)

    sharp_r = eval_sharp(s_right, right, _FMP_DEPTH)
    sharp_l = eval_sharp(s_left, right, _FMP_DEPTH)

    rows = []
    for f in effects:
        vr = filter_effect_value(s_right, f, depth, tol)
        vl = filter_effect_value(s_left, f, depth, tol)
        pv = float(eval_point(lam, f))
        if vr is UNDETERMINED or vl is UNDETERMINED:
            dev = None
        else:
            dev = max(abs(float(vr) - pv), abs(float(vl) - pv))
        rows.append(
            EffectRow(
                label=f.describe(),
                value_right=vr,
                value_left=vl,
                point_value=pv,
                max_deviation=dev,
            )
        )
    return IndistinguishabilityReport(
        center=lam,
        sharp_question=f"class of ({lam}, inf)",
        sharp_right=sharp_r,
        sharp_left=sharp_l,
        rows=tuple(rows),
        tol=float(tol),
    )
