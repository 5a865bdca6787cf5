"""Executable verification suites.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify`` subcommand and the acceptance tests both run these, so there is a
single source of truth for what "passing" means.  Every suite draws its
randomness from the package's counter stream and is reproducible from its
seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .common import DEFAULT_SEED, NEG_INF, POS_INF, UNDETERMINED
from .effects import (
    box,
    constant,
    evaluate,
    gaussian,
    neg,
    oplus,
    scale,
    smear,
    triangle,
)
from .filters import NeighborhoodFamily, adjoin, disjoint_family, escaping_base, has_fmp, neighborhood_base
from .intervals import (
    Interval,
    IntervalSet,
    complement,
    difference,
    intersect,
    interval,
    measure,
    membership,
    points,
    union,
)
from .measurement import PrecisionScheme, indistinguishability_experiment, run_protocol, scorekeeper
from .quotient import project
from .rng import stream_word, substream_seed
from .states import (
    Mixture,
    eval_density,
    eval_point,
    filter_effect_value,
    mixture_expectation,
    normal,
    sharp_probability,
    uniform,
)


@dataclass
class CriterionResult:
    key: str
    title: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.key:24s} {self.detail}  [{self.seconds:.2f}s]"


class Draw:
    """Deterministic draw helper over the SplitMix64 counter stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.index = 0

    def word(self) -> int:
        w = stream_word(self.seed, self.index)
        self.index += 1
        return w

    def below(self, n: int) -> int:
        return self.word() % n

    def rational(self, bound: int = 8, den_max: int = 8) -> Fraction:
        den = 1 + self.below(den_max)
        num = self.below(2 * bound * den + 1) - bound * den
        return Fraction(num, den)

    def interval_set(
        self, max_components: int = 6, bound: int = 8, den_max: int = 8
    ) -> IntervalSet:
        k = self.below(max_components + 1)
        pieces = []
        for _ in range(k):
            a = self.rational(bound, den_max)
            b = self.rational(bound, den_max)
            if a > b:
                a, b = b, a
            if a == b:
                pieces.append(Interval(a, a, True, True))
            else:
                pieces.append(Interval(a, b, bool(self.below(2)), bool(self.below(2))))
        return IntervalSet.from_intervals(pieces)


def _random_density(draw: Draw, gaussian_share: int = 1):
    kind = draw.below(2 + gaussian_share)
    if kind == 0:
        return box(Fraction(1 + draw.below(8), 4))
    if kind == 1:
        return triangle(Fraction(1 + draw.below(8), 4))
    return gaussian(Fraction(2 + draw.below(9), 20))


def _random_effect(draw: Draw, depth: int = 2, gaussian_share: int = 1):
    roll = draw.below(6) if depth > 0 else draw.below(2)
    if roll == 0:
        return constant(Fraction(draw.below(9), 8))
    if roll in (1, 2) or depth == 0:
        region = draw.interval_set(max_components=3, bound=4, den_max=4)
        return smear(region, _random_density(draw, gaussian_share))
    if roll == 3:
        return neg(_random_effect(draw, depth - 1, gaussian_share))
    if roll == 4:
        return scale(Fraction(1 + draw.below(7), 8), _random_effect(draw, depth - 1, gaussian_share))
    left = scale(Fraction(1, 2), _random_effect(draw, depth - 1, gaussian_share))
    right = scale(Fraction(1, 2), _random_effect(draw, depth - 1, gaussian_share))
    return oplus(left, right)


def _timed(key, title, body) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:  # a crash is a failure with the exception as detail
        return CriterionResult(key, title, False, f"error: {exc!r}", time.perf_counter() - start)
    return CriterionResult(key, title, ok, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# criteria


def boolean_laws(cases: int = 10_000, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Associativity, distributivity, De Morgan, and absorption hold exactly
    on random triples of canonical interval sets."""

    def body():
        draw = Draw(substream_seed(seed, 1))
        for i in range(cases):
            a = draw.interval_set()
            b = draw.interval_set()
            c = draw.interval_set()
            bc = union(b, c)
            ab = union(a, b)
            if union(ab, c) != union(a, bc):
                return False, f"case {i}: union associativity fails"
            if intersect(intersect(a, b), c) != intersect(a, intersect(b, c)):
                return False, f"case {i}: intersection associativity fails"
            if intersect(a, bc) != union(intersect(a, b), intersect(a, c)):
                return False, f"case {i}: distributivity (meet over join) fails"
            if union(a, intersect(b, c)) != intersect(ab, union(a, c)):
                return False, f"case {i}: distributivity (join over meet) fails"
            if complement(ab) != intersect(complement(a), complement(b)):
                return False, f"case {i}: De Morgan (union) fails"
            if complement(intersect(a, b)) != union(complement(a), complement(b)):
                return False, f"case {i}: De Morgan (intersection) fails"
            if union(a, intersect(a, b)) != a or intersect(a, ab) != a:
                return False, f"case {i}: absorption fails"
        return True, f"{cases} random triples, all laws exact"

    return _timed("boolean-laws", "Boolean-algebra laws on canonical interval sets", body)


def quotient_soundness(cases: int = 1_000, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Finite point perturbations never change a set's class."""

    def body():
        draw = Draw(substream_seed(seed, 2))
        for i in range(cases):
            s = draw.interval_set()
            pts = points(*(draw.rational() for _ in range(1 + draw.below(5))))
            base = project(s)
            if project(union(s, pts)) != base or project(difference(s, pts)) != base:
                return False, f"case {i}: class changed under point perturbation"
        return True, f"{cases} random (set, point-set) pairs, classes identical"

    return _timed("quotient-soundness", "Projection ignores null perturbations", body)


def countable_meet_witness(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Nested neighborhood classes stay nonzero with running-meet measure 2/n
    while their countable meet is the zero class."""

    def body():
        depth = 2**20
        family = NeighborhoodFamily(0, depth)
        spots = sorted({2**j for j in range(21)} | {3, 5, 7, 11, 997, depth - 1})
        for n in spots:
            cls = family.meet_first(n)
            if cls.is_zero:
                return False, f"element {n} is zero"
            if measure(cls.rep) != Fraction(2, n):
                return False, f"running meet measure at {n} is not 2/{n}"
        if not project(points(0)).is_zero:
            return False, "limit class is not zero"
        return True, f"spot-checked {len(spots)} indices up to 2^20; limit class zero"

    return _timed("countable-meet-witness", "No two-valued state survives countable meets", body)


def disjoint_family_construction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The countable disjoint family: exact components, disjointness across
    members, anchor in every closure, and the finite meet property of each
    extension of the neighborhood base."""

    def body():
        lam = Fraction(0)
        members = [disjoint_family(lam, m) for m in range(1, 11)]
        for fam in members:
            # n-independent envelope proof: the component multipliers lie in (1, 2)
            lo_mult = 1 + Fraction(1, 2 ** (fam.m + 1))
            hi_mult = 1 + Fraction(1, 2**fam.m)
            if not (1 < lo_mult < hi_mult <= 2):
                return False, f"envelope inequality fails for m={fam.m}"
            for n in range(1, 65):
                comp = fam.component(n)
                scale_n = Fraction(1, 2**n)
                if comp.lo != lam + scale_n * lo_mult or comp.hi != lam + scale_n * hi_mult:
                    return False, f"component (m={fam.m}, n={n}) not the closed form"
                if not comp.lo < comp.hi:
                    return False, f"component (m={fam.m}, n={n}) empty"
                if comp.lo_closed or comp.hi_closed:
                    return False, f"component (m={fam.m}, n={n}) not open"
                env = fam.envelope(n)
                if not (env.lo < comp.lo and comp.hi < env.hi):
                    return False, f"component (m={fam.m}, n={n}) escapes its dyadic band"
        truncs = [fam.truncate(64) for fam in members]
        for i in range(10):
            for j in range(i + 1, 10):
                if not intersect(truncs[i], truncs[j]).is_empty:
                    return False, f"members m={i+1}, m={j+1} overlap"
        for fam in members:
            left = fam.component(64).lo
            if not left - lam <= Fraction(1, 2**63):
                return False, f"left endpoint at n=64 too far from anchor (m={fam.m})"
        for fam in members:
            base = adjoin(neighborhood_base(lam, 40), fam.truncated_class(64), 40)
            cert = has_fmp(base, 40)
            if not cert.ok or len(cert.witnesses) < 40:
                return False, f"extension by m={fam.m} lacks finite-meet witnesses"
        return True, "m=1..10, n=1..64 exact; pairwise disjoint; FMP to depth 40"

    return _timed("disjoint-family", "Countably many disjoint approaches to one point", body)


def effect_identities(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Orthosum and complement identities at 1e-12, plus the witness that
    smearing is not multiplicative over intersections."""

    def body():
        draw = Draw(substream_seed(seed, 5))
        qs = [draw.rational(bound=10, den_max=16) for _ in range(1000)]
        worst = 0.0
        for trial in range(8):
            f = _random_effect(draw)
            total = oplus(f, neg(f))
            for q in qs[:125]:
                worst = max(worst, abs(float(evaluate(total, q)) - 1.0))
        if worst > 1e-12:
            return False, f"f + (1-f) deviates from 1 by {worst:.3e}"

        dev_c = 0.0
        dev_add = 0.0
        for trial in range(6):
            s = draw.interval_set(max_components=3, bound=4, den_max=4)
            e = _random_density(draw)
            lhs = neg(smear(s, e))
            rhs = smear(complement(s), e)
            for q in qs[:170]:
                dev_c = max(dev_c, abs(float(evaluate(lhs, q)) - float(evaluate(rhs, q))))
            s2 = draw.interval_set(max_components=3, bound=4, den_max=4)
            part = difference(s2, s)
            joint = smear(union(s, part), e)
            if part.is_empty:
                summed = smear(s, e)
            else:
                summed = oplus(smear(s, e), smear(part, e))
            for q in qs[:170]:
                dev_add = max(dev_add, abs(float(evaluate(joint, q)) - float(evaluate(summed, q))))
        if dev_c > 1e-12:
            return False, f"complement identity deviates by {dev_c:.3e}"
        if dev_add > 1e-12:
            return False, f"disjoint additivity deviates by {dev_add:.3e}"

        # non-multiplicativity witness: touching half-lines through a box detector
        s1 = interval(NEG_INF, 0)
        s2 = interval(0, POS_INF)
        e = box(1)
        q = Fraction(0)
        joint_v = evaluate(smear(intersect(s1, s2), e), q)
        prod_v = evaluate(smear(s1, e), q) * evaluate(smear(s2, e), q)
        if joint_v == prod_v:
            return False, "no non-multiplicativity witness found"
        detail = (
            "identities within 1e-12; witness: smear(S1&S2)(0)="
            f"{joint_v} vs product {prod_v}"
        )
        return True, detail

    return _timed("effect-identities", "Orthosum/complement identities and the product failure", body)


def delta_limit(seed: int = DEFAULT_SEED) -> CriterionResult:
    """As the Gaussian detector sharpens, the smeared response approaches the
    indicator away from the boundary."""

    def body():
        sets = [
            interval(-20, 20),
            union(interval(0, 1), interval(2, 3)),
            interval(NEG_INF, Fraction(-1, 2)),
        ]
        worst = 0.0
        checked = 0
        for sigma in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            margin = 5 * sigma
            for s in sets:
                f = smear(s, gaussian(sigma))
                boundary = [c.lo for c in s.components if not isinstance(c.lo, float)] + [
                    c.hi for c in s.components if not isinstance(c.hi, float)
                ]
                for k in range(-120, 121):
                    q = Fraction(k, 4)
                    if any(abs(q - p) < margin for p in boundary):
                        continue
                    chi = 1 if membership(q, s) else 0
                    dev = abs(float(evaluate(f, q)) - chi)
                    worst = max(worst, dev)
                    checked += 1
                    if dev > 1e-6:
                        return False, f"deviation {dev:.3e} at q={q}, sigma={sigma}"
        return True, f"{checked} point checks, worst deviation {worst:.2e}"

    return _timed("delta-limit", "Sharpening detectors recover the indicator", body)


def point_agreement(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Two filter bases converging to the same point split a sharp half-line
    question while agreeing with the point state on every effect to 1e-9."""

    def body():
        draw = Draw(substream_seed(seed, 7))
        effect_pool = [_random_effect(draw) for _ in range(20)]
        for lam in (Fraction(0), Fraction(1, 3), Fraction("1.41421356")):
            report = indistinguishability_experiment(lam, effect_pool, 2**40, 1e-9)
            if not report.sharp_split:
                return False, f"sharp half-line question not split at {lam}"
            if report.undetermined_count:
                return False, f"{report.undetermined_count} squeezes failed at {lam}"
            if not report.unsharp_agreement:
                return False, f"effects deviate from the point state by more than 1e-9 at {lam}"
        return True, "3 anchors x 20 effects agree to 1e-9; sharp question splits 1 vs 0"

    return _timed("point-agreement", "Unsharp indistinguishability of convergent bases", body)


def mixture_decomposition(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Direct expectation and the decomposed (point-state) integral agree on
    independent quadrature meshes."""

    def body():
        draw = Draw(substream_seed(seed, 8))
        densities = [
            uniform(0, 1),
            normal(0, 1),
            Mixture(((Fraction(1, 2), uniform(0, 1)), (Fraction(1, 2), uniform(2, 3)))),
            Mixture(((Fraction(1, 4), uniform(-2, -1)), (Fraction(3, 4), normal(0, 1)))),
            normal(Fraction(-1, 2), 2),
        ]
        effect_pool = [_random_effect(draw) for _ in range(10)]
        tol = 1e-8
        worst = 0.0
        for d in densities:
            for f in effect_pool:
                direct = eval_density(d, f, tol)
                decomposed = mixture_expectation(d, f, tol)
                dev = abs(direct - decomposed)
                worst = max(worst, dev)
                if dev > 2 * tol:
                    return False, f"routes disagree by {dev:.3e} on {d.model_text()}"
        return True, f"5 densities x 10 effects, worst gap {worst:.2e} <= 2e-8"

    return _timed("mixture-decomposition", "Ignorance decomposition matches direct expectation", body)


def scaling_law(seed: int = DEFAULT_SEED) -> CriterionResult:
    """States are homogeneous under rational scaling of effects."""

    def body():
        draw = Draw(substream_seed(seed, 9))
        factors = [Fraction(1, 2), Fraction(3, 8), Fraction("0.731")]
        tol_q = 4e-11
        worst = 0.0
        for idx in range(100):
            f = _random_effect(draw, gaussian_share=0)
            lam = draw.rational(bound=4, den_max=8)
            d = uniform(0, 1) if idx % 2 == 0 else normal(0, 1)
            base_point = float(eval_point(lam, f))
            base_density = eval_density(d, f, tol_q)
            for a in factors:
                scaled = scale(a, f)
                dev_p = abs(float(eval_point(lam, scaled)) - float(a) * base_point)
                dev_d = abs(eval_density(d, scaled, tol_q) - float(a) * base_density)
                worst = max(worst, dev_p, dev_d)
                if dev_p > 1e-10 or dev_d > 1e-10:
                    return False, f"effect {idx}, a={a}: point {dev_p:.2e}, density {dev_d:.2e}"
        return True, f"100 effects x 3 factors, worst deviation {worst:.2e} <= 1e-10"

    return _timed("scaling-law", "Homogeneity of point and density states", body)


def measurement_frequencies(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Seeded finite-precision frequencies track the sharp probabilities, and
    coarse histograms aggregate fine ones exactly."""

    def body():
        d = normal(0, 1)
        n_level = 4
        count = 100_000
        rec = run_protocol(d, n_level, count, seed)
        scheme = PrecisionScheme(n_level)
        for i, c in rec.counts:
            lo, hi = scheme.cell_bounds(i)
            p = float(sharp_probability(d, interval(lo, hi, True, False)))
            band = 5.0 * math.sqrt(p * (1.0 - p) / count)
            if abs(c / count - p) > band:
                return False, f"cell {i}: freq {c/count:.6f} vs p {p:.6f} outside 5-sigma band"
        fine = run_protocol(d, n_level + 1, count, seed)
        agg: dict = {}
        for i, c in fine.counts:
            agg[i >> 1] = agg.get(i >> 1, 0) + c
        if agg != rec.as_dict():
            return False, "fine-level histogram does not aggregate to the coarse one"
        return True, f"{len(rec.counts)} occupied cells in band; refinement exact (seed {seed})"

    return _timed("measurement-frequencies", "Frequencies converge cellwise; refinement exact", body)


def _tuned_sigma(region, throws, target: float) -> Fraction:
    lo, hi = 0.05, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = smear(region, gaussian(Fraction(mid).limit_denominator(10**9)))
        mean = sum(float(evaluate(f, q)) for q in throws) / len(throws)
        if mean > target:
            lo = mid
        else:
            hi = mid
    return Fraction(0.5 * (lo + hi)).limit_denominator(10**9)


def scorekeeper_printout(seed: int = DEFAULT_SEED) -> CriterionResult:
    """A detector tuned to mean response 0.98 over a fixed 100-throw list
    reproduces the 98-yes printout within a 5-sigma band across 1000 runs."""

    def body():
        region = interval(-1, 1)
        throws = [-0.495 + 0.01 * i for i in range(100)]
        sigma = _tuned_sigma(region, throws, 0.98)
        detector = gaussian(sigma)
        f = smear(region, detector)
        responses = [float(evaluate(f, q)) for q in throws]
        mu = sum(responses)
        sd = math.sqrt(sum(p * (1 - p) for p in responses))
        reps = 1000
        ys = []
        for r in range(reps):
            sheet = scorekeeper(region, detector, throws, substream_seed(seed, r))
            ys.append(sheet.y_count)
        lo_band, hi_band = mu - 5 * sd, mu + 5 * sd
        outside = [y for y in ys if not lo_band <= y <= hi_band]
        if outside:
            return False, f"{len(outside)} of {reps} runs left the 5-sigma band {outside[:5]}"
        mean = sum(ys) / reps
        if abs(mean - mu) > 5 * sd / math.sqrt(reps):
            return False, f"mean y-count {mean:.3f} drifted from {mu:.3f}"
        return True, (
            f"mean response {mu/100:.4f}; {reps} runs in [{lo_band:.1f}, {hi_band:.1f}], "
            f"mean y-count {mean:.2f}"
        )

    return _timed("scorekeeper", "The 98-of-100 printout is statistically reproduced", body)


def escaping_state(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Along the base of right tails, compactly supported questions get value
    0 and constants keep their value."""

    def body():
        base = escaping_base(2**40)
        compact = [
            smear(interval(0, 1), box(1)),
            smear(union(interval(-2, -1), interval(1, 2)), triangle(Fraction(1, 2))),
            smear(interval(0, 1), gaussian(Fraction(1, 10))),
            scale(Fraction(1, 2), smear(interval(-3, 3), box(2))),
        ]
        for i, f in enumerate(compact):
            v = filter_effect_value(base, f, 2**40, 1e-6)
            if v is UNDETERMINED:
                return False, f"squeeze failed for compact effect {i}"
            if abs(float(v)) > 1e-6:
                return False, f"compact effect {i} got value {float(v):.3e}"
        for c in (Fraction(0), Fraction(2, 5), Fraction(1)):
            v = filter_effect_value(base, constant(c), 2**40, 1e-6)
            if v != c:
                return False, f"constant {c} came back as {v!r}"
        return True, "4 compact-support effects -> 0 (+-1e-6); constants unchanged"

    return _timed("escaping-state", "Escaping bases kill compactly supported questions", body)


# ---------------------------------------------------------------------------
# registry and runner

CRITERIA = (
    ("boolean-laws", boolean_laws),
    ("quotient-soundness", quotient_soundness),
    ("countable-meet-witness", countable_meet_witness),
    ("disjoint-family", disjoint_family_construction),
    ("effect-identities", effect_identities),
    ("delta-limit", delta_limit),
    ("point-agreement", point_agreement),
    ("mixture-decomposition", mixture_decomposition),
    ("scaling-law", scaling_law),
    ("measurement-frequencies", measurement_frequencies),
    ("scorekeeper", scorekeeper_printout),
    ("escaping-state", escaping_state),
)

RUNTIME_LIMITS = {
    "boolean-laws": 30.0,
    "disjoint-family": 10.0,
    "measurement-frequencies": 10.0,
}


def run_suite(keys=None, cases: int | None = None, seed: int = DEFAULT_SEED) -> int:
    """Run the named suites (all by default); one line per criterion; returns
    a process exit code (0 iff everything passed, runtime limits included)."""
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be positive, not {cases}")
    selected = dict(CRITERIA)
    if keys:
        unknown = [k for k in keys if k not in selected]
        if unknown:
            raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
        items = [(k, selected[k]) for k in keys]
    else:
        items = list(CRITERIA)
    failures = 0
    for key, func in items:
        kwargs = {"seed": seed}
        if cases is not None and key in ("boolean-laws", "quotient-soundness"):
            kwargs["cases"] = cases
        result = func(**kwargs)
        limit = RUNTIME_LIMITS.get(key)
        if result.ok and limit is not None and result.seconds > limit:
            result.ok = False
            result.detail += f"; exceeded {limit:.0f}s runtime limit"
        print(result.line())
        failures += 0 if result.ok else 1
    return 0 if failures == 0 else 1
