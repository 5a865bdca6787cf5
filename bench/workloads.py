"""The benchmark's three workloads as seeded task lists.

A task is one call (or a short fixed sequence of calls) into the public API of
`unsharp`, plus a check of its output that runs after timing.  Every task list
is built from ``random.Random`` seeded by the workload name and the seed, never
from the package's own random stream, so the inputs do not move when the
package changes.  Task counts per kind are fixed and the parameters inside a
kind are stratified (component counts, density kinds, margins), so the cost of
a pass varies little from seed to seed.

CLI tasks and `run_protocol` tasks draw their arguments from pools recorded in
``reference/`` together with the digest of their output at the commit that
defined the benchmark; the seed picks which pool entries a pass runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NEG_INF = float("-inf")
POS_INF = float("inf")
TOL = 1e-9  # squeeze tolerance, as in the point-agreement criterion
QUAD_TOL = 1e-8  # quadrature tolerance
SLACK = 1e-12  # float noise allowed when an invariant is checked pointwise


@dataclass
class Task:
    """``run()`` is timed; ``check(output, outputs_by_key)`` returns an error
    message or None.  ``key`` lets a check read another task's output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]
    key: object = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict:
    refs = {}
    for path in sorted(REFERENCE_DIR.glob("*.json")):
        refs[path.stem] = json.loads(path.read_text())
    return refs


def build(name: str, us, seed: int, refs: dict) -> list:
    """The task list of workload ``name`` for ``seed``, in execution order."""
    rnd = random.Random(f"{name}:{seed}")
    tasks = WORKLOADS[name](us, rnd, refs)
    rnd.shuffle(tasks)
    return tasks


def stratified(rnd, n: int, lo: float, hi: float) -> list:
    """n values spread over [lo, hi): one uniform draw per equal stratum."""
    return [lo + (hi - lo) * (i + rnd.random()) / n for i in range(n)]


# ---------------------------------------------------------------------------
# CLI tasks (all workloads)


def run_cli(us, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = us.cli.run(list(argv))
    return code, out.getvalue()


def pick(rnd, items, key, per_key):
    """``per_key`` random items from each group of equal ``key(item)``, so
    every pass draws the same mix from a pool."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return [item for k in sorted(groups) for item in rnd.sample(groups[k], per_key)]


def flag_value(flag):
    return lambda case: case["argv"][case["argv"].index(flag) + 1]


def cli_tasks(us, cases):
    tasks = []
    for case in cases:

        def check(result, _, case=case):
            code, text = result
            if code != case["code"]:
                return f"exit code {code}, reference {case['code']}"
            if digest(text) != case["sha256"]:
                return "stdout differs from the reference"
            return None

        kind = "cli." + case["argv"][0]
        tasks.append(Task(kind, lambda argv=case["argv"]: run_cli(us, argv), check))
    return tasks


# ---------------------------------------------------------------------------
# exact: canonical interval sets, classes, filter bases, rational smears


def interval_set(us, rnd, k: int, den: int = 16, bound: int = 64):
    """A canonical set of about k components with endpoints in
    [-bound, bound] on the grid 1/den, sometimes with singletons and
    unbounded ends."""
    ticks = sorted(rnd.sample(range(-bound * den, bound * den), 2 * k))
    comps = []
    for i in range(k):
        lo, hi = F(ticks[2 * i], den), F(ticks[2 * i + 1], den)
        if rnd.random() < 0.1:
            comps.append(us.Interval(lo, lo, True, True))
        else:
            comps.append(us.Interval(lo, hi, rnd.random() < 0.5, rnd.random() < 0.5))
    if rnd.random() < 0.1:
        comps.append(us.Interval(NEG_INF, F(-bound - 1), False, rnd.random() < 0.5))
    if rnd.random() < 0.1:
        comps.append(us.Interval(F(bound + 1), POS_INF, rnd.random() < 0.5, False))
    return us.IntervalSet.from_intervals(comps)


def component_counts(rnd, n: int) -> list:
    """n component counts in 1..64, log-uniform, so small sets dominate."""
    return [min(64, int(64**u)) for u in stratified(rnd, n, 0.0, 1.0)]


def all_true(result, _):
    return None if all(result) else f"law {result.index(False)} fails"


def laws_task(us, a, b, c):
    def run():
        U, I, C, D = us.union, us.intersect, us.complement, us.difference
        ab, bc = U(a, b), U(b, c)
        return (
            U(ab, c) == U(a, bc),
            I(I(a, b), c) == I(a, I(b, c)),
            I(a, bc) == U(I(a, b), I(a, c)),
            U(a, I(b, c)) == I(ab, U(a, c)),
            C(ab) == I(C(a), C(b)),
            C(I(a, b)) == U(C(a), C(b)),
            U(a, I(a, b)) == a and I(a, ab) == a,
            C(C(a)) == a,
            D(a, b) == I(a, C(b)),
            us.symmetric_difference(a, b) == U(D(a, b), D(b, a)),
        )

    return Task("laws", run, all_true)


def project_task(us, s, pts):
    def run():
        cls = us.project(s)
        return (
            us.project(us.union(s, pts)) == cls,
            us.project(us.difference(s, pts)) == cls,
            cls.measure == us.measure(s),
        )

    return Task("project", run, all_true)


def qops_task(us, a, b):
    def run():
        x, y = us.project(a), us.project(b)
        m, j = us.q_meet(x, y), us.q_join(x, y)
        return (
            us.q_leq(m, x),
            us.q_leq(m, y),
            us.q_leq(x, j),
            us.q_leq(y, j),
            us.q_meet(x, us.q_not(x)).is_zero,
            us.q_symmdiff(x, y) == us.q_diff(j, m),
        )

    return Task("qops", run, all_true)


def roundtrip_task(us, s):
    text = str(s)
    return Task("roundtrip", lambda: (us.parse_set_expr(text) == s,), all_true)


def fmp_task(us, lam, m, depth):
    def run():
        fam = us.disjoint_family(lam, m)
        trunc = max(8, depth.bit_length() + 2)
        base = us.adjoin(us.neighborhood_base(lam, depth), fam.truncated_class(trunc), depth)
        cert = us.has_fmp(base, depth)
        return cert.ok, len(cert.witnesses), str(cert.witnesses[-1][1])

    def check(result, _):
        ok, witnesses, _last = result
        if not ok or witnesses != depth:
            return f"finite meet property not certified to depth {depth}"
        return None

    return Task("fmp", run, check)


def exact(us, rnd, refs):
    tasks = []
    for k in component_counts(rnd, 200):
        a, b, c = (interval_set(us, rnd, max(1, k - rnd.randrange(3))) for _ in range(3))
        tasks.append(laws_task(us, a, b, c))
    for k in component_counts(rnd, 150):
        pts = us.points(*(F(rnd.randrange(-1024, 1024), 16) for _ in range(1 + rnd.randrange(5))))
        tasks.append(project_task(us, interval_set(us, rnd, k), pts))
    for k in component_counts(rnd, 150):
        tasks.append(qops_task(us, interval_set(us, rnd, k), interval_set(us, rnd, k)))
    for k in component_counts(rnd, 100):
        tasks.append(roundtrip_task(us, interval_set(us, rnd, k)))
    for u in stratified(rnd, 12, 4.0, 8.0):  # depths 16..256, log-uniform
        lam = F(rnd.randrange(-64, 64), 1 + rnd.randrange(16))
        tasks.append(fmp_task(us, lam, 1 + rnd.randrange(8), int(2**u)))
    cases = refs["cli"]["exact"]
    command = lambda name: [c for c in cases if c["argv"][0] == name]
    tasks += cli_tasks(us, pick(rnd, command("sets"), lambda c: 0, 30))
    tasks += cli_tasks(us, pick(rnd, command("construct"), flag_value("--depth"), 1))
    tasks += cli_tasks(us, pick(rnd, command("smear"), flag_value("--step"), 5))
    return tasks


# ---------------------------------------------------------------------------
# numeric: effect trees, certification, squeezes, quadrature

KINDS = ("box", "triangle", "gaussian")
# three sizes per detector kind; mass radius <= 1, sigma <= 1/2
PARAMS = {
    "box": (F(1, 2), F(1), F(2)),
    "triangle": (F(1, 4), F(1, 2), F(1)),
    "gaussian": (F(1, 10), F(1, 4), F(1, 2)),
}


def density(us, i):
    """The i-th detector of a cycle through every kind and size."""
    kind = KINDS[i % 3]
    return getattr(us, kind)(PARAMS[kind][i // 3 % 3])


def region(us, rnd, k, lo=-4, hi=4, den=4, left_open=False, right_open=False):
    """k disjoint open intervals with endpoints on the grid 1/den in
    [lo, hi]; the first may reach -inf and the last +inf."""
    ticks = sorted(rnd.sample(range(int(lo * den), int(hi * den) + 1), 2 * k))
    ends = [F(t, den) for t in ticks]
    if left_open:
        ends[0] = NEG_INF
    if right_open:
        ends[-1] = POS_INF
    return us.IntervalSet.from_intervals(us.Interval(ends[2 * j], ends[2 * j + 1]) for j in range(k))


def tree(us, rnd, i, unbounded=False):
    """The i-th effect tree of a fixed cycle of shapes of depth <= 2, with
    random regions; orthosums mix two detector kinds.  Only regions and
    factors depend on the seed, so the work of a task list barely does."""
    half = F(1, 2)
    factor = F(rnd.randint(1, 7), 8)

    def leaf(j):
        k = 1 + (i + j) % 3
        return us.smear(region(us, rnd, k, right_open=unbounded and j == 0), density(us, i + j))

    shape = i // 3 % 6
    if shape == 0:
        return leaf(0)
    if shape == 1:
        return us.neg(leaf(0))
    if shape == 2:
        return us.scale(factor, leaf(0))
    pair = us.oplus(us.scale(half, leaf(0)), us.scale(half, leaf(1)))
    if shape == 3:
        return pair
    if shape == 4:
        return us.neg(pair)
    return us.oplus(us.scale(half, us.neg(leaf(0))), us.scale(half, us.scale(factor, leaf(1))))


def value(f, q) -> float:
    return float(f.value_at(q))


def grid(lo, hi, n=200):
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def orthosum_task(us, f, g, kind):
    def run():
        try:
            h = us.oplus(f, g)
        except us.NotOrthogonal as exc:
            return "refuted", exc.witness_point, exc.witness_value
        return "certified", h.describe()

    def check(result, _):
        if result[0] == "refuted":
            if value(f, result[1]) + value(g, result[1]) <= 1.0:
                return "refutation witness does not exceed 1"
            return None
        worst = max(value(f, q) + value(g, q) for q in grid(-12.0, 12.0, 240))
        return None if worst <= 1.0 + SLACK else f"certified sum reaches {worst!r}"

    return Task(kind, run, check)


def leq_task(us, f, g, kind):
    def run():
        res = us.leq(f, g)
        if res.holds:
            return True, res.witness_effect.describe(), res.witness_effect
        return False, res.witness_point

    def check(result, _):
        if not result[0]:
            if value(f, result[1]) <= value(g, result[1]):
                return "ordering witness does not refute"
            return None
        gap = result[2]
        for q in grid(-12.0, 12.0, 240):
            if value(g, q) < value(f, q) - SLACK:
                return f"certified ordering fails at {q}"
            if abs(value(f, q) + value(gap, q) - value(g, q)) > SLACK:
                return f"gap effect wrong at {q}"
        return None

    return Task(kind, run, check)


def vanish_task(us, f, tol, horizon):
    def run():
        return (us.vanishes_at_infinity(f, tol, horizon),)

    def check(result, _):
        h = float(horizon)
        outside = [s * (h + j / 32) for j in range(513) for s in (1.0, -1.0)]
        outside += [1e9, -1e9]
        worst = max(value(f, q) for q in outside)
        if result[0] and worst > tol + SLACK:
            return f"certified vanishing but f reaches {worst!r} outside the horizon"
        if not result[0] and worst <= tol:
            return "refuted vanishing but f stays below tol outside the horizon"
        return None

    return Task("vanish", run, check)


def range_task(us, f, r):
    def run():
        return us.effects.effect_range_on(f, r)

    def check(result, _):
        lo, hi = result
        for c in r.components:
            a = -30.0 if c.lo == NEG_INF else float(c.lo)
            b = 30.0 if c.hi == POS_INF else float(c.hi)
            for q in grid(a, b, 40):
                v = value(f, q)
                if not lo - SLACK <= v <= hi + SLACK:
                    return f"value {v!r} at {q} outside certified [{lo!r}, {hi!r}]"
        return None

    return Task("range_on", run, check)


def squeeze_task(us, base, f, target, kind):
    def run():
        v = us.filter_effect_value(base, f, 2**40, TOL)
        return ("undetermined",) if v is us.UNDETERMINED else (float(v),)

    def check(result, _):
        if result == ("undetermined",):
            return "squeeze left the value undetermined"
        if abs(result[0] - float(target)) > TOL:
            return f"squeeze {result[0]!r} is not within tol of {float(target)!r}"
        return None

    return Task(kind, run, check)


def expectation_task(us, d, f, a, route, key):
    def run():
        g = f if a == 1 else us.scale(a, f)
        fn = us.eval_density if route == "direct" else us.mixture_expectation
        return fn(d, g, QUAD_TOL)

    def check(result, outputs):
        model, tree_idx, _, _ = key
        other = outputs[(model, tree_idx, a, "decomposed" if route == "direct" else "direct")]
        if abs(result - other) > 2 * QUAD_TOL:
            return f"quadrature routes differ by {abs(result - other):.3e}"
        if a != 1:
            unscaled = outputs[(model, tree_idx, 1, route)]
            if abs(result - float(a) * unscaled) > 2 * QUAD_TOL:
                return f"scaled copy off by {abs(result - float(a) * unscaled):.3e}"
        return None

    return Task("expect." + route, run, check, key)


def numeric(us, rnd, refs):
    tasks = []
    half = F(1, 2)

    # orthosums: range shortcut, grid certificate, refutation witness
    for i in range(24):
        f, g = tree(us, rnd, i), tree(us, rnd, i + 7)
        tasks.append(orthosum_task(us, us.scale(half, f), us.scale(half, g), "oplus.shortcut"))
    for i in range(6):
        # regions 2 apart spanning [-4, 4], each with a fixed wide component,
        # so the grid needed depends only on the margin by which the sum
        # stays below one: about 1/4, 1/8 or 1/16
        a = 1 - F(1, 4 << (i % 3))
        r1 = us.union(us.interval(-4, -2), region(us, rnd, 1 + i % 2, F(-7, 4), -1))
        r2 = us.union(region(us, rnd, 1 + i % 2, 1, F(7, 4)), us.interval(2, 4))
        f = us.smear(r1, density(us, i))
        g = us.smear(r2, density(us, i + 4))
        tasks.append(orthosum_task(us, us.scale(a, f), us.scale(F(3, 4), g), "oplus.grid"))
    for i in range(9):
        lo, w = F(rnd.randrange(-12, 4), 4), F(rnd.randrange(4, 12), 4)
        f = us.smear(us.interval(lo, lo + w), density(us, i))
        g = us.smear(us.interval(lo + w / 4, lo + w + 1), density(us, i + 4))
        tasks.append(orthosum_task(us, f, g, "oplus.refute"))

    # orderings: shortcuts (scaled copy, subset, ranges), grid, refutation
    for i in range(24):
        r = region(us, rnd, 1 + i % 3)
        f = us.smear(r, density(us, i))
        if i % 3 == 0:
            f, g = us.scale(F(rnd.randint(1, 7), 8), f), f
        elif i % 3 == 1:
            g = us.smear(us.union(r, region(us, rnd, 2)), f.density)
        else:
            f = us.scale(F(1, 4), tree(us, rnd, i))
            g = us.neg(us.scale(half, tree(us, rnd, i + 1)))
        tasks.append(leq_task(us, f, g, "leq.shortcut"))
    for i in range(6):
        c, w = F(rnd.randrange(-8, 8), 4), F(rnd.randrange(2, 8), 4)
        f = us.scale(1 - F(1, 2 + i % 4), us.smear(us.interval(c - w, c + w), density(us, i)))
        wide = us.smear(us.interval(c - w - 2, c + w + 2), density(us, i + 4))
        g = us.oplus(us.constant(half), us.scale(half, wide))
        tasks.append(leq_task(us, f, g, "leq.grid"))
    for i in range(6):
        r = region(us, rnd, 1 + i % 3)
        f = us.smear(r, density(us, i))
        g = us.scale(half, us.smear(r, density(us, i + 4)))
        tasks.append(leq_task(us, f, g, "leq.refute"))

    # vanishing at infinity: certified beyond the support, refuted by the
    # grid where a component crosses the horizon, refuted exactly by a
    # nonzero limit (a nonzero limit the horizon cuts into is left out: its
    # 2^16-point ring search takes about 2 s, see README.md)
    def bounded_pair(i, crossing=()):
        r1 = region(us, rnd, 1 + i % 2)
        if crossing:
            r1 = us.union(r1, us.interval(*crossing))
        left = us.scale(half, us.smear(r1, density(us, i)))
        right = us.scale(half, us.smear(region(us, rnd, 1 + i % 3), density(us, i + 4)))
        return us.oplus(left, right)

    for i in range(12):
        tasks.append(vanish_task(us, bounded_pair(i), (1e-6, 1e-3)[i % 2], F(8)))
    for i in range(12):
        side = (-1, 1)[i % 2]
        crossing = sorted((side * F(rnd.randint(4, 7), 4), side * F(rnd.randint(9, 16), 4)))
        tasks.append(vanish_task(us, bounded_pair(i, crossing), (1e-6, 1e-3)[i % 2], F(2)))
    for i in range(6):
        f = us.neg(us.smear(region(us, rnd, 1 + i % 3), density(us, i)))
        tasks.append(vanish_task(us, f, (1e-6, 1e-3)[i % 2], F(8)))

    # certified ranges on regions, some unbounded
    for i in range(60):
        r = region(us, rnd, 1 + i % 2, -5, 5, left_open=i % 5 == 0, right_open=i % 5 == 1)
        tasks.append(range_task(us, tree(us, rnd, i), r))

    # squeezes along the two half-line extensions at 3 anchors, and escaping
    for a in range(3):
        lam = F(rnd.randrange(-24, 24), 1 + rnd.randrange(9))
        base = us.neighborhood_base(lam, 2**40)
        right = us.project(us.interval(lam, POS_INF))
        left = us.project(us.interval(NEG_INF, lam))
        for s, side in enumerate((right, left)):
            f = tree(us, rnd, 3 * (2 * a + s) + a)
            tasks.append(squeeze_task(us, us.adjoin(base, side, 64), f, us.evaluate(f, lam), "squeeze.point"))
    escaping = us.escaping_base(2**40)
    for i in range(12):
        f = tree(us, rnd, 4 * i, unbounded=i % 2 == 1)
        tasks.append(squeeze_task(us, escaping, f, f.limits[1], "squeeze.escape"))

    # expectations by both quadrature routes, on the tree and a scaled copy
    def uniform():
        lo = F(rnd.randrange(-8, 0), 4)
        return us.uniform(lo, lo + 2)

    def normal():
        return us.normal(F(rnd.randrange(-4, 5), 4), F(rnd.randrange(2, 5), 4))

    models = [uniform(), normal(), us.mixture((half, uniform()), (half, normal()))]
    for m, d in enumerate(models):
        for t in range(4):
            f = tree(us, rnd, 3 * (4 * m + t) + m)
            a = F(rnd.randint(1, 7), 8)
            for factor in (1, a):
                for route in ("direct", "decomposed"):
                    tasks.append(expectation_task(us, d, f, factor, route, (m, t, factor, route)))

    state_kind = lambda case: flag_value("--state")(case).split(":")[0]
    tasks += cli_tasks(us, pick(rnd, refs["cli"]["numeric"], state_kind, 10))
    return tasks


# ---------------------------------------------------------------------------
# sample: inverse-CDF draws, measurement protocols, score-keeping


def model_spec(rnd, kind):
    """A density model spec: uniform, normal, or a 2- or 3-part mixture."""
    if kind == "uniform":
        lo = F(rnd.randrange(-8, 4), 4)
        return f"uniform({lo}, {lo + F(rnd.randrange(1, 9), 4)})"
    if kind == "gaussian":
        return f"gaussian({F(rnd.randrange(-4, 5), 4)}, {F(rnd.randrange(1, 9), 4)})"
    parts = 2 if kind == "mix2" else 3
    weights = [F(1, 2), F(1, 2)] if parts == 2 else [F(1, 4), F(1, 4), F(1, 2)]
    comps = [model_spec(rnd, "uniform" if i == 0 else "gaussian") for i in range(parts)]
    return "mix(" + "; ".join(f"{w}*{c}" for w, c in zip(weights, comps)) + ")"


def protocol_task(us, case):
    model = us.cli.parse_model_spec(case["model"])

    def run():
        return us.run_protocol(model, case["level"], case["count"], case["seed"]).counts

    def check(counts, _):
        if digest(repr(counts)) != case["sha256"]:
            return "histogram differs from the reference"
        return None

    kind = "protocol.mixture" if case["model"].startswith("mix") else "protocol.closed"
    return Task(kind, run, check)


def sample_task(us, spec, count, seed):
    model = us.cli.parse_model_spec(spec)

    def run():
        return us.sample(model, count, seed)

    def check(draws, _):
        for i, x in enumerate(draws):
            u = us.rng.unit_uniform(seed, i)
            if abs(float(us.states.cdf(model, x)) - u) > 1e-9:
                return f"draw {i}: cdf({x!r}) is not {u!r}"
        return None

    kind = "sample.mixture" if spec.startswith("mix") else "sample.closed"
    return Task(kind, run, check)


def scorekeeper_task(us, s, e, throws, seed):
    def run():
        sheet = us.scorekeeper(s, e, throws, seed)
        return sheet.printout(), sheet.y_count, sheet.n_count

    def check(result, _):
        printout, y, n = result
        response = us.smear(s, e)
        expected = "".join(
            "y" if us.rng.unit_uniform(seed, i) < float(us.evaluate(response, q)) else "n"
            for i, q in enumerate(throws)
        )
        if printout != expected or y != expected.count("y") or y + n != len(throws):
            return "score sheet does not follow the smeared response"
        return None

    return Task("scorekeeper", run, check)


def sample(us, rnd, refs):
    model_kind = lambda spec: spec.split("(")[0] + str(spec.count("*"))
    protocols = pick(rnd, refs["protocol"], lambda c: model_kind(c["model"]), 10)
    tasks = [protocol_task(us, c) for c in protocols]
    for i in range(40):
        spec = model_spec(rnd, ("uniform", "gaussian")[i % 2])
        tasks.append(sample_task(us, spec, 2000, rnd.getrandbits(32)))
    for i in range(16):
        spec = model_spec(rnd, ("mix2", "mix3")[i % 2])
        tasks.append(sample_task(us, spec, 40, rnd.getrandbits(32)))
    for i in range(24):
        s = region(us, rnd, 1 + i % 2, -2, 2)
        e = us.gaussian(PARAMS["gaussian"][i % 3])
        throws = [rnd.gauss(0.0, 1.5) for _ in range(200)]
        tasks.append(scorekeeper_task(us, s, e, throws, rnd.getrandbits(32)))
    simulations = refs["cli"]["sample"]
    tasks += cli_tasks(us, pick(rnd, simulations, lambda c: model_kind(flag_value("--density")(c)), 2))
    return tasks


WORKLOADS = {"exact": exact, "numeric": numeric, "sample": sample}
