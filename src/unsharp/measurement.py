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
from dataclasses import dataclass
from fractions import Fraction

from .common import NEG_INF, POS_INF, UNDETERMINED, as_fraction
from .effects import evaluate, smear
from .errors import UnsharpError
from .filters import adjoin, neighborhood_base
from .intervals import IntervalSet, interval, membership
from .quotient import project
from .rng import unit_uniform
from .states import eval_point, eval_sharp, filter_effect_value, ppf


@dataclass(frozen=True)
class PrecisionScheme:
    """Dyadic partition of the line at level n; cell diameter 2^-n."""

    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    @property
    def diameter(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def cell_bounds(self, i: int) -> tuple:
        d = self.diameter
        return (i * d, (i + 1) * d)

    def parent_cell(self, i: int) -> int:
        """Index at level-1 of the cell containing this one."""
        return i >> 1


def dyadic_cell(q, n: int) -> int:
    """The unique i with i*2^-n <= q < (i+1)*2^-n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if isinstance(q, float):
        return math.floor(q * (1 << n))  # binary scaling is exact for floats
    return math.floor(as_fraction(q) * (1 << n))


def sample(d, count: int, seed: int) -> list:
    """Draw ``count`` values by inverse-CDF transform of the seeded uniform
    stream; identical arguments give identical output."""
    if count < 1:
        raise ValueError("need at least one draw")
    return [ppf(d, unit_uniform(seed, i)) for i in range(count)]


@dataclass(frozen=True)
class MeasurementRecord:
    """Histogram of one finite-precision measurement run."""

    seed: int
    level: int
    counts: tuple  # sorted (cell_index, count) pairs
    total: int

    def count_of(self, i: int) -> int:
        return dict(self.counts).get(i, 0)

    def as_dict(self) -> dict:
        return dict(self.counts)


def run_protocol(d, n: int, count: int, seed: int) -> MeasurementRecord:
    """Measure ``count`` draws from ``d`` at precision level ``n``: record
    which dyadic cell each value falls in."""
    draws = sample(d, count, seed)
    counts: dict = {}
    for q in draws:
        i = dyadic_cell(q, n)
        counts[i] = counts.get(i, 0) + 1
    return MeasurementRecord(
        seed=seed, level=n, counts=tuple(sorted(counts.items())), total=count
    )


@dataclass(frozen=True)
class ScoreSheet:
    """Per-throw record of a score-keeping device: y/n symbols and totals."""

    y_count: int
    n_count: int
    log: tuple  # (value, "y" | "n") per throw

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


@dataclass(frozen=True)
class EffectRow:
    label: str
    value_right: object  # value along the base with the right half-line
    value_left: object
    point_value: float
    max_deviation: float | None

    @property
    def undetermined(self) -> bool:
        return self.value_right is UNDETERMINED or self.value_left is UNDETERMINED


@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Two bases converging to the same point disagree on a sharp half-line
    question yet agree with the point state on every unsharp question."""

    center: Fraction
    sharp_question: str
    sharp_right: object
    sharp_left: object
    rows: tuple
    tol: float

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
    lam, effects, depth: int, tol, fmp_depth: int = 64
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
    s_right = adjoin(base, right, fmp_depth)
    s_left = adjoin(base, left, fmp_depth)

    sharp_r = eval_sharp(s_right, right, fmp_depth)
    sharp_l = eval_sharp(s_left, right, fmp_depth)

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
