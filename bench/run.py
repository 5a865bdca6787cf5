#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact|numeric|sample --seed N \
        --seconds S --trace 0|1

The run imports `unsharp` from ``src/`` of the checkout, builds the seeded
task list, then runs the whole list again and again for about ``--seconds``
seconds in this one process, timing each task in reference seconds (see
PROBE_REF_S).  Outputs are checked after timing.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it first runs half the time untraced,
then half traced, and reports the per-layer metrics, the tracing overhead, and
whether the traced answers equal the untraced ones.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object.  The exit code is 0 when every check passed, 1 when
any failed, 2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
# The machines this runs on change speed by up to 2x within seconds (shared
# cores, frequency scaling).  Task time is therefore reported in reference
# seconds: after every PROBE_EVERY_S of task time a fixed probe runs, and
# that stretch of task time is scaled by PROBE_REF_S / (probe time).
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.002


def probe() -> float:
    """Time a fixed piece of pure-Python work: rationals, floats, a dict."""
    start = perf_counter()
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(1, i % 13 + 1)
        x = 0.0
        for i in range(2000):
            x += (i * 0.5) ** 0.5
        counts = {}
        for i in range(1500):
            counts[i & 255] = counts.get(i & 255, 0) + 1
    return perf_counter() - start


def import_package():
    """Import `unsharp` (and its CLI) afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "unsharp" or m.startswith("unsharp.")]:
        del sys.modules[name]
    package = importlib.import_module("unsharp")
    importlib.import_module("unsharp.cli")
    return package


def setup(workload, seed, refs):
    """Import the package and build the task list SETUP_REPEATS times; the
    last import and task list are the ones timed.  Returns the set-up times
    measured and in reference seconds."""
    import workloads

    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = probe()
        start = perf_counter()
        package = import_package()
        tasks = workloads.build(workload, package, seed, refs)
        raw.append(perf_counter() - start)
        ref.append(raw[-1] * 2 * PROBE_REF_S / (before + probe()))
    return package, tasks, raw, ref


class Pass:
    """One run of the whole task list.  ``wall`` and ``latencies`` are in
    reference seconds, ``raw_wall`` is measured."""

    def __init__(self):
        self.wall = self.raw_wall = 0.0
        self.latencies = []
        self.outputs = []
        self.differs = []  # indices whose output differs from the reference
        self.layers = None
        self._pending = []

    def add(self, seconds, output):
        self.outputs.append(output)
        self._pending.append(seconds)
        if sum(self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        scale = PROBE_REF_S / probe()
        self.latencies += [x * scale for x in self._pending]
        self.raw_wall += sum(self._pending)
        self.wall += sum(self._pending) * scale
        self._pending = []


def run_pass(tasks, tracer=None) -> Pass:
    p = Pass()
    if tracer:
        tracer.reset()
    for task in tasks:
        start = perf_counter()
        try:
            if tracer:
                with tracer.task(task.kind):
                    out = task.run()
            else:
                out = task.run()
        except Exception as exc:  # a failing task is counted, not fatal
            out = ("error", type(exc).__name__, str(exc))
        p.add(perf_counter() - start, out)
    p.flush()
    if tracer:
        scale = p.wall / p.raw_wall
        p.layers = {k: v * scale if k.endswith("_s") else v for k, v in tracer.layer_metrics().items()}
    return p


def run_for(tasks, seconds, min_passes, reference=None, tracer=None):
    """Run passes for about ``seconds``.  The outputs of the first pass
    become the reference unless one is given; later outputs are compared
    with it and dropped."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        gc.collect()
        p = run_pass(tasks, tracer)
        if reference is None:
            reference = p.outputs
        else:
            p.differs = [i for i, (a, b) in enumerate(zip(p.outputs, reference)) if a != b]
        p.outputs = None
        passes.append(p)
    return passes, reference


def check_outputs(tasks, reference, passes, errors) -> int:
    """Check the reference outputs, count every task run whose output fails
    its check or differs from the reference, and return that count."""
    by_key = {t.key: out for t, out in zip(tasks, reference) if t.key is not None}
    verdicts = []
    for task, out in zip(tasks, reference):
        if isinstance(out, tuple) and out[:1] == ("error",):
            verdicts.append(f"raised {out[1]}: {out[2]}")
            continue
        try:
            verdicts.append(task.check(out, by_key))
        except Exception as exc:  # a check that cannot run is a failed check
            verdicts.append(f"check raised {exc!r}")
    failed = 0
    for p in passes:
        differs = set(p.differs)
        for i, (task, verdict) in enumerate(zip(tasks, verdicts)):
            if i in differs:
                verdict = "output differs from the first untraced pass"
            if verdict:
                failed += 1
                errors.append(f"{task.kind}: {verdict}")
    return failed


# Layers each workload must exercise, and layers it must leave idle.
COVERAGE = {
    "exact": {
        "busy": ["intervals.ops", "setexpr.parses", "quotient.projects", "quotient.qops",
                 "filters.fmp_checks", "filters.meets", "effects.evals_exact", "cli.runs"],
        "idle": ["effects.certify_calls", "quadrature.integrand_evals", "states.ppf_calls"],
    },
    "numeric": {
        "busy": ["effects.evals_float", "effects.certify_calls", "effects.certify_evals",
                 "quadrature.integrand_evals", "states.squeezes", "states.squeeze_rounds",
                 "cli.runs"],
        "idle": ["states.ppf_calls"],
    },
    "sample": {
        "busy": ["states.ppf_calls", "measurement.draws", "rng.words", "effects.evals_float",
                 "measurement.scorekeeper_s", "cli.runs"],
        "idle": ["effects.certify_calls", "quadrature.integrand_evals"],
    },
}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COVERAGE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "unsharp" / "__init__.py").is_file():
        print(f"error: no package at {src / 'unsharp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = workloads.load_references()
    package, tasks, setup_raw, setup_ref = setup(args.workload, args.seed, refs)
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported unsharp from {package.__file__}, not {src}", file=sys.stderr)
        return 2

    errors = []
    values = {}
    if args.trace == 0:
        passes, reference = run_for(tasks, args.seconds, MIN_PASSES)
        latencies = [x for p in passes for x in p.latencies]
        values["setup_s"] = statistics.median(setup_ref)
        values["wall_s"] = statistics.median(p.wall for p in passes)
        values["task_p50_ms"] = 1e3 * quantile(latencies, 50)
        values["task_p90_ms"] = 1e3 * quantile(latencies, 90)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metric_specs = spec["end_to_end"]
    else:
        plain, reference = run_for(tasks, args.seconds / 2, 1)
        tracer = tracing.Tracer(package).install()
        try:
            traced, _ = run_for(tasks, args.seconds / 2, 1, reference, tracer)
        finally:
            tracer.uninstall()
        for name in traced[0].layers:
            values[name] = statistics.median(p.layers[name] for p in traced)
        traced_wall = statistics.median(p.wall for p in traced)
        plain_wall = statistics.median(p.wall for p in plain)
        values["trace.overhead_s"] = traced_wall - plain_wall
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1
        metric_specs = spec["per_layer"]
        cov = COVERAGE[args.workload]
        for name in cov["busy"]:
            if not values[name]:
                errors.append(f"coverage: {name} is zero on {args.workload}")
        for name in cov["idle"]:
            if values[name]:
                errors.append(f"coverage: {name} is {values[name]} on {args.workload}, expected 0")
        passes = plain + traced
        print(f"spans recorded: {len(tracer.spans)}")
    failed = check_outputs(tasks, reference, passes, errors)

    attempted = len(tasks) * len(passes)
    values["failed_frac"] = failed / attempted
    correct = not errors
    print(f"workload {args.workload}  seed {args.seed}  tasks per pass {len(tasks)}  "
          f"passes {len(passes)}  attempted {attempted}  failed {failed}  "
          f"failed_frac {values['failed_frac']:.6g}")
    print(f"measured wall-clock: setup {statistics.median(setup_raw):.6g} s, pass "
          f"{statistics.median(p.raw_wall for p in passes):.6g} s (reference seconds scale "
          f"it by {PROBE_REF_S:g} s / probe time)")
    for message in errors[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
