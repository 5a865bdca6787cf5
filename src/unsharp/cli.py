"""Command-line entry point.

Subcommands: sets, construct, smear, state, simulate, verify.  Every run is
deterministic: the seed comes from --seed, else the config file, else the
UNSHARP_SEED environment variable, else the documented default, and identical
argv + config produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .common import DEFAULT_SEED, as_fraction, float_str, fraction_str
from .effects import (
    Effect,
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
from .errors import UnsharpError
from .filters import adjoin, disjoint_family, filter_base, has_fmp, neighborhood_base
from .intervals import intersect, interval, complement, measure, membership
from .measurement import PrecisionScheme, run_protocol
from .quotient import project
from .setexpr import parse_set_expr
from .states import (
    Mixture,
    density_state,
    escaping_state,
    normal,
    point_state,
    sharp_probability,
    sharp_state,
    uniform,
)
from .common import UNDETERMINED
from .verify import CRITERIA, run_suite

SEED_ENV_VAR = "UNSHARP_SEED"


# ---------------------------------------------------------------------------
# spec mini-grammars


def _split_args(text: str, sep: str):
    """Split at top level only; brackets of any kind protect separators."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


def _call_shape(text: str):
    text = text.strip()
    if not text.endswith(")"):
        return None
    head, _, rest = text.partition("(")
    if not rest:
        return None
    return head.strip(), rest[:-1]


def parse_density_spec(text: str):
    """box(W) | triangle(H) | gaussian(S) for confidence densities."""
    shape = _call_shape(text)
    if shape is None:
        raise UnsharpError(f"bad density spec: {text!r}")
    head, body = shape
    if head == "box":
        return box(as_fraction(body))
    if head == "triangle":
        return triangle(as_fraction(body))
    if head == "gaussian":
        return gaussian(as_fraction(body))
    raise UnsharpError(f"unknown density {head!r} (want box/triangle/gaussian)")


def parse_effect_spec(text: str) -> Effect:
    """const(C) | smear(SET; DENSITY) | neg(E) | scale(A; E) | oplus(E; E)."""
    shape = _call_shape(text)
    if shape is None:
        raise UnsharpError(f"bad effect spec: {text!r}")
    head, body = shape
    if head == "const":
        return constant(as_fraction(body))
    if head == "smear":
        args = _split_args(body, ";")
        if len(args) != 2:
            raise UnsharpError("smear wants smear(SET; DENSITY)")
        return smear(parse_set_expr(args[0]), parse_density_spec(args[1]))
    if head == "neg":
        return neg(parse_effect_spec(body))
    if head == "scale":
        args = _split_args(body, ";")
        if len(args) != 2:
            raise UnsharpError("scale wants scale(FACTOR; EFFECT)")
        return scale(as_fraction(args[0]), parse_effect_spec(args[1]))
    if head == "oplus":
        args = _split_args(body, ";")
        if len(args) != 2:
            raise UnsharpError("oplus wants oplus(EFFECT; EFFECT)")
        return oplus(parse_effect_spec(args[0]), parse_effect_spec(args[1]))
    raise UnsharpError(f"unknown effect {head!r}")


def parse_model_spec(text: str):
    """uniform(A,B) | gaussian(MU,SIGMA) | mix(W*PART; ...) for densities."""
    shape = _call_shape(text)
    if shape is None:
        raise UnsharpError(f"bad density model spec: {text!r}")
    head, body = shape
    if head == "uniform":
        args = _split_args(body, ",")
        if len(args) != 2:
            raise UnsharpError("uniform wants uniform(LO, HI)")
        return uniform(as_fraction(args[0]), as_fraction(args[1]))
    if head == "gaussian":
        args = _split_args(body, ",")
        if len(args) != 2:
            raise UnsharpError("gaussian wants gaussian(MEAN, SIGMA)")
        return normal(as_fraction(args[0]), as_fraction(args[1]))
    if head == "mix":
        parts = []
        for chunk in _split_args(body, ";"):
            weight_text, _, part_text = chunk.partition("*")
            if not part_text:
                raise UnsharpError("mix wants mix(W*PART; W*PART; ...)")
            part = parse_model_spec(part_text.strip())
            if isinstance(part, Mixture):
                raise UnsharpError("mix parts must be uniform(LO, HI) or gaussian(MEAN, SIGMA)")
            parts.append((as_fraction(weight_text.strip()), part))
        return Mixture(tuple(parts))
    raise UnsharpError(f"unknown density model {head!r}")


def load_base_file(path: str):
    """Filter-base description: JSON with either a neighborhood chain
    ("lambda", "depth", optional "adjoin" set expressions) or an explicit
    finite family ("classes")."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    depth = int(data.get("depth", 64))
    if "classes" in data:
        base = filter_base(
            [project(parse_set_expr(t)) for t in data["classes"]],
            tag=data.get("lambda"),
        )
    elif "lambda" in data:
        base = neighborhood_base(as_fraction(data["lambda"]), max(depth, 2**40))
    else:
        raise UnsharpError("base file needs either 'lambda' or 'classes'")
    for text in data.get("adjoin", ()):
        base = adjoin(base, project(parse_set_expr(text)), depth)
    return base, depth


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str | None) -> dict:
    """One key=value per line; '#' starts a comment; flags override these."""
    if not path:
        return {}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UnsharpError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve(args, config: dict, key: str, default=None):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def resolve_seed(args, config: dict) -> int:
    value = resolve(args, config, "seed")
    if value is None:
        value = os.environ.get(SEED_ENV_VAR)
    return DEFAULT_SEED if value is None else int(value)


def _json_value(v):
    if v is UNDETERMINED:
        return "undetermined"
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, int):
        return v
    return float(v)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sets(args, config) -> int:
    expr = resolve(args, config, "expr")
    if expr is None:
        raise UnsharpError("sets needs --expr")
    s = parse_set_expr(expr)
    lines = []
    if args.measure:
        lines.append(fraction_str(measure(s)))
    if args.complement:
        lines.append(str(complement(s)))
    if args.project:
        lines.append(str(project(s)))
    if args.contains is not None:
        lines.append("true" if membership(as_fraction(args.contains), s) else "false")
    if not lines:
        lines.append(str(s))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_construct(args, config) -> int:
    lam = as_fraction(resolve(args, config, "lambda", "0"))
    m_max = int(resolve(args, config, "m", 3))
    depth = int(resolve(args, config, "depth", 16))
    n_components = int(resolve(args, config, "components", 16))
    members = [disjoint_family(lam, m) for m in range(1, m_max + 1)]

    tables = []
    for fam in members:
        tables.append(
            {
                "m": fam.m,
                "components": [
                    {
                        "n": n,
                        "lo": fraction_str(fam.component(n).lo),
                        "hi": fraction_str(fam.component(n).hi),
                    }
                    for n in range(1, n_components + 1)
                ],
            }
        )
    disjoint = []
    for i, fi in enumerate(members):
        row = []
        for j, fj in enumerate(members):
            if i == j:
                row.append(None)
            else:
                row.append(
                    intersect(fi.truncate(n_components), fj.truncate(n_components)).is_empty
                )
        disjoint.append(row)
    # a truncation must reach indices ~log2(depth) before its components fall
    # inside the deepest neighborhood checked
    trunc_count = max(n_components, depth.bit_length() + 2)
    fmp_reports = []
    for fam in members:
        base = adjoin(neighborhood_base(lam, depth), fam.truncated_class(trunc_count), depth)
        cert = has_fmp(base, depth)
        fmp_reports.append(
            {
                "m": fam.m,
                "ok": cert.ok,
                "certified_depth": cert.depth,
                "witnesses": [
                    {"depth": d, "lo": fraction_str(w.lo), "hi": fraction_str(w.hi)}
                    for d, w in cert.witnesses
                ],
            }
        )
    report = {
        "lambda": fraction_str(lam),
        "members": tables,
        "disjoint": disjoint,
        "fmp": fmp_reports,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_smear(args, config) -> int:
    set_text = resolve(args, config, "set")
    density_name = resolve(args, config, "density")
    param = resolve(args, config, "param")
    if set_text is None or density_name is None or param is None:
        raise UnsharpError("smear needs --set, --density, and --param")
    density = parse_density_spec(f"{density_name}({param})")
    f = smear(parse_set_expr(set_text), density)
    q = as_fraction(resolve(args, config, "from", "-2"))
    stop = as_fraction(resolve(args, config, "to", "2"))
    step = as_fraction(resolve(args, config, "step", "1/10"))
    if step <= 0:
        raise UnsharpError("step must be positive")
    rows = ["q,value"]
    while q <= stop:
        v = evaluate(f, q)
        v_text = fraction_str(v) if isinstance(v, (Fraction, int)) else float_str(v)
        rows.append(f"{fraction_str(q)},{v_text}")
        q += step
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_state(args, config) -> int:
    state_spec = resolve(args, config, "state")
    effect_spec = resolve(args, config, "effect")
    if state_spec is None or effect_spec is None:
        raise UnsharpError("state needs --state and --effect")
    f = parse_effect_spec(effect_spec)
    depth = int(resolve(args, config, "depth", 2**40))
    tol = float(resolve(args, config, "tol", 1e-9))

    kind, _, detail = state_spec.partition(":")
    if kind == "point":
        state = point_state(detail)
    elif kind == "density":
        state = density_state(parse_model_spec(detail))
    elif kind == "sharp":
        state = sharp_state(load_base_file(detail)[0])
    elif kind == "escaping":
        state = escaping_state()
    else:
        raise UnsharpError(f"unknown state kind {kind!r} (want point/density/sharp/escaping)")
    value = state.value_of(f, depth, tol)
    payload = {"state": state_spec, "effect": effect_spec, "value": _json_value(value)}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_simulate(args, config) -> int:
    model = parse_model_spec(resolve(args, config, "density", "gaussian(0,1)"))
    level = int(resolve(args, config, "level", 4))
    count = int(resolve(args, config, "n", 100000))
    seed = resolve_seed(args, config)
    record = run_protocol(model, level, count, seed)
    scheme = PrecisionScheme(level)

    import math

    rows = ["cell_lo,cell_hi,count,freq,p,deviation"]
    max_sigma = 0.0
    for i, c in record.counts:
        lo, hi = scheme.cell_bounds(i)
        p = float(sharp_probability(model, interval(lo, hi, True, False)))
        freq = c / count
        rows.append(
            f"{fraction_str(lo)},{fraction_str(hi)},{c},{float_str(freq)},"
            f"{float_str(p)},{float_str(freq - p)}"
        )
        if 0.0 < p < 1.0:
            max_sigma = max(max_sigma, abs(freq - p) / math.sqrt(p * (1 - p) / count))
    summary = {
        "density": model.describe(),
        "level": level,
        "n": count,
        "seed": seed,
        "occupied_cells": len(record.counts),
        "max_sigma_deviation": max_sigma,
    }
    csv_text = "\n".join(rows) + "\n"
    if args.out:
        _emit(csv_text, args.out)
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    elif getattr(args, "format", None) == "json":
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_verify(args, config) -> int:
    suite = resolve(args, config, "suite", "all")
    if suite == "all":
        keys = None
    else:
        known = [k for k, _ in CRITERIA]
        if suite in known:
            keys = [suite]
        else:
            matches = [k for k in known if k.startswith(suite)]
            if len(matches) != 1:
                raise UnsharpError(
                    f"unknown suite {suite!r}; choose one of: all, " + ", ".join(known)
                )
            keys = matches
    cases = resolve(args, config, "cases")
    return run_suite(
        keys,
        cases=None if cases is None else int(cases),
        seed=resolve_seed(args, config),
    )


# ---------------------------------------------------------------------------
# argument wiring


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was, so every run starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="unsharp",
        description="Exact interval-set logic, filter-base states, smeared "
        "position questions, and finite-precision measurement simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", type=int, help="RNG seed (default: UNSHARP_SEED or built-in)")
        p.add_argument("--out", help="write primary output to this file")
        p.add_argument("--format", choices=("csv", "json"), help="output format where applicable")

    p = sub.add_parser("sets", help="evaluate a set expression")
    common(p)
    p.add_argument("--expr", help="set expression, e.g. '(0,1) | [2,3)'")
    p.add_argument("--measure", action="store_true", help="print the Lebesgue measure")
    p.add_argument("--complement", action="store_true", help="print the complement")
    p.add_argument("--project", action="store_true", help="print the class modulo null sets")
    p.add_argument("--contains", help="test membership of a rational point")

    p = sub.add_parser("construct", help="tabulate the disjoint approach family")
    common(p)
    p.add_argument("--lambda", dest="lambda", help="anchor point (rational)")
    p.add_argument("--m", type=int, help="number of family members")
    p.add_argument("--depth", type=int, help="finite-meet certification depth")
    p.add_argument("--components", type=int, help="components tabulated per member")

    p = sub.add_parser("smear", help="tabulate a smeared indicator to CSV")
    common(p)
    p.add_argument("--set", help="set expression to smear")
    p.add_argument("--density", choices=("box", "triangle", "gaussian"))
    p.add_argument("--param", help="density parameter (rational)")
    p.add_argument("--from", dest="from", help="first tabulation point")
    p.add_argument("--to", dest="to", help="last tabulation point")
    p.add_argument("--step", help="tabulation step (rational)")

    p = sub.add_parser("state", help="evaluate a state on an effect")
    common(p)
    p.add_argument("--state", help="point:L | density:SPEC | sharp:BASEFILE | escaping")
    p.add_argument("--effect", help="effect spec, e.g. 'smear((0,1); box(1))'")
    p.add_argument("--depth", type=int, help="truncation depth for sharp/escaping states")
    p.add_argument("--tol", type=float, help="tolerance for squeezes and quadrature")

    p = sub.add_parser("simulate", help="run a finite-precision measurement")
    common(p)
    p.add_argument("--density", help="density model, e.g. 'gaussian(0,1)'")
    p.add_argument("--level", type=int, help="dyadic precision level n")
    p.add_argument("--n", type=int, help="number of draws")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument(
        "--suite",
        help="suite key or 'all'; keys: " + ", ".join(k for k, _ in CRITERIA),
    )
    p.add_argument("--cases", type=int, help="override case count for randomized suites")

    return parser


_DISPATCH = {
    "sets": cmd_sets,
    "construct": cmd_construct,
    "smear": cmd_smear,
    "state": cmd_state,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def run(argv) -> int:
    """Parse argv and dispatch; exit code 0 on success, 1 on domain errors,
    2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        return _DISPATCH[args.command](args, config)
    except UnsharpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
