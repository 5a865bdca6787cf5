"""The benchmark's contract with the package, at tier-1 speed.

`bench/tracing.py` wraps package functions by name, and `bench/run.py` exits
non-zero when any task output fails its check or differs between passes.
These tests only read `bench/`: they install and remove the tracer, and run
two passes of every workload's seed-1 task list through the benchmark's own
pass and check functions.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import unsharp
import unsharp.cli  # noqa: F401  (the tracer wraps cli.run)

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


@pytest.mark.parametrize("name", sorted(bench_run.COVERAGE))
def test_workload_checks_pass(name, refs):
    tasks = workloads.build(name, unsharp, 1, refs)
    passes, reference = bench_run.run_for(tasks, 0.0, 2)
    errors = []
    failed = bench_run.check_outputs(tasks, reference, passes, errors)
    assert failed == 0, errors[:5]
