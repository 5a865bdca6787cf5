#!/usr/bin/env python3
"""Record the pools of CLI runs and measurement protocols with the digests of
their outputs, into ``bench/reference/``.

Usage, from the root of a checkout:  python3 bench/record.py

The references pin the outputs of the commit that defined the benchmark;
re-recording them on a later commit would hide a changed answer, so do so
only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F

import run
import workloads as w

POOL_SEED = "reference-pool"


def exact_cli(us, rnd):
    cases = []
    for _ in range(90):
        a = w.interval_set(us, rnd, 1 + rnd.randrange(6), den=4, bound=8)
        b = w.interval_set(us, rnd, 1 + rnd.randrange(6), den=4, bound=8)
        argv = ["sets", "--expr", f"({a}) {rnd.choice('|&^')} ~({b})"]
        argv += [flag for flag in ("--measure", "--complement", "--project") if rnd.random() < 0.4]
        if rnd.random() < 0.3:
            argv.append(f"--contains={F(rnd.randrange(-32, 32), 4)}")
        cases.append(argv)
    for i in range(12):
        cases.append([
            "construct", f"--lambda={F(rnd.randrange(-16, 16), 1 + rnd.randrange(8))}",
            "--m", str(1 + rnd.randrange(4)), "--depth", str((8, 16, 32, 64)[i % 4]),
            "--components", str(4 + rnd.randrange(9)),
        ])
    for i in range(60):
        s = w.interval_set(us, rnd, 1 + rnd.randrange(4), den=4, bound=4)
        lo = F(rnd.randrange(-24, 0), 4)
        cases.append([
            "smear", "--set", str(s), "--density", rnd.choice(("box", "triangle")),
            "--param", str(F(rnd.randint(1, 8), 4)), f"--from={lo}",
            f"--to={lo + 6}", "--step", str(F(1, (4, 8, 16, 32)[i % 4])),
        ])
    return cases


def numeric_cli(us, rnd):
    cases = []
    for i in range(45):
        f = w.tree(us, rnd, i)
        if i % 3 == 0:
            state = f"point:{F(rnd.randrange(-16, 16), 1 + rnd.randrange(8))}"
            cases.append(["state", "--state", state, "--effect", f.describe()])
        elif i % 3 == 1:
            model = w.model_spec(rnd, rnd.choice(("uniform", "gaussian", "mix2")))
            tol = rnd.choice(("1e-8", "1e-6"))
            cases.append(["state", "--state", f"density:{model}", "--effect", f.describe(), "--tol", tol])
        else:
            cases.append(["state", "--state", "escaping", "--effect", f.describe(), "--tol", "1e-6"])
    return cases


def sample_cli(rnd):
    cases = []
    for i in range(24):
        kind = ("uniform", "gaussian", "mix2", "mix3")[i % 4]
        n = 100 if kind.startswith("mix") else 4000
        cases.append([
            "simulate", "--density", w.model_spec(rnd, kind), "--level", str(1 + i // 4 % 8),
            "--n", str(n), "--seed", str(rnd.getrandbits(32)),
        ])
    return cases


def protocol_pool(us, rnd):
    cases = []
    for i in range(168):
        mixed = i >= 120
        kind = ("mix2", "mix3")[i % 2] if mixed else ("uniform", "gaussian")[i % 2]
        case = {
            "model": w.model_spec(rnd, kind),
            "level": 1 + i // 2 % 8,
            "count": 40 if mixed else 2000,
            "seed": rnd.getrandbits(32),
        }
        model = us.cli.parse_model_spec(case["model"])
        counts = us.run_protocol(model, case["level"], case["count"], case["seed"]).counts
        case["sha256"] = w.digest(repr(counts))
        cases.append(case)
    return cases


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    us = run.import_package()
    rnd = random.Random(POOL_SEED)
    pools = {"exact": exact_cli(us, rnd), "numeric": numeric_cli(us, rnd), "sample": sample_cli(rnd)}
    cli = {}
    for name, argvs in pools.items():
        cli[name] = []
        for argv in argvs:
            code, text = w.run_cli(us, argv)
            cli[name].append({"argv": argv, "code": code, "sha256": w.digest(text)})
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    (w.REFERENCE_DIR / "cli.json").write_text(json.dumps(cli, indent=1) + "\n")
    protocol = protocol_pool(us, rnd)
    (w.REFERENCE_DIR / "protocol.json").write_text(json.dumps(protocol, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
