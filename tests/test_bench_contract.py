"""The benchmark's contract with the package, at tier-1 speed.

`bench/tracing.py` wraps package functions by name, and `bench/run.py` exits
non-zero when any task output fails its check or differs between passes.
These tests only read `bench/`: they install and remove the tracer, and run
two passes of every workload's seed-1 task list through the benchmark's own
pass and check functions.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unsharp
import unsharp.cli  # noqa: F401  (the tracer wraps cli.run)
from unsharp.intervals import Interval, IntervalSet, interval, points
from unsharp.setexpr import parse_set_expr

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_run = _load("run")
tracing = _load("tracing")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


def test_tracer_targets_resolve_and_uninstall():
    originals = {}
    for table in (tracing.SPANS, tracing.LEAVES, tracing.COUNTS):
        for module_name, attr, _ in table:
            owner = getattr(unsharp, module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            originals[module_name, attr] = (owner, meth, vars(owner)[meth])
    tracer = tracing.Tracer(unsharp).install()
    try:
        for owner, key, original in originals.values():
            assert vars(owner)[key] is not original, f"{key} is not wrapped"
    finally:
        tracer.uninstall()
    for owner, key, original in originals.values():
        assert vars(owner)[key] is original, f"{key} is not restored"


def test_intervals_built_counts_each_checked_construction():
    made = {
        "Interval": lambda: Interval(0, Fraction(1, 2)),
        "interval": lambda: interval(0, 1, True),
        "points": lambda: points(3, 1, 2),
        "literal": lambda: parse_set_expr("[0, 1) | {5, 7} | (2, inf)"),
        "views": lambda: IntervalSet.from_intervals((Interval(2, 3), Interval(0, 1))).components,
    }
    expected = {"Interval": 1, "interval": 1, "points": 3, "literal": 4, "views": 2}
    tracer = tracing.Tracer(unsharp).install()
    try:
        for key, make in made.items():
            tracer.reset()
            make()
            assert tracer.calls["intervals.built"] == expected[key], key
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(bench_run.COVERAGE))
def test_workload_checks_pass(name, refs):
    tasks = workloads.build(name, unsharp, 1, refs)
    passes, reference = bench_run.run_for(tasks, 0.0, 2)
    errors = []
    failed = bench_run.check_outputs(tasks, reference, passes, errors)
    assert failed == 0, errors[:5]
