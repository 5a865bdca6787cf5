"""Acceptance gate: every verification criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (or ``unsharp verify --suite all`` for the same suites outside
pytest).  Criteria with stated runtime budgets are timed and fail when over.
Each detail string is pinned byte for byte: a change that moves one must say
why and update it here.
"""

import pytest

from unsharp.verify import CRITERIA, RUNTIME_LIMITS

_RESULTS = {}

DETAILS = {
    "boolean-laws": "10000 random triples, all laws exact",
    "quotient-soundness": "1000 random (set, point-set) pairs, classes identical",
    "countable-meet-witness": "spot-checked 27 indices up to 2^20; limit class zero",
    "disjoint-family": "m=1..10, n=1..64 exact; pairwise disjoint; FMP to depth 40",
    "effect-identities": "identities within 1e-12; witness: smear(S1&S2)(0)=0 vs product 1/4",
    "delta-limit": "1973 point checks, worst deviation 5.73e-07",
    "point-agreement": "3 anchors x 20 effects agree to 1e-9; sharp question splits 1 vs 0",
    "mixture-decomposition": "5 densities x 10 effects, worst gap 2.92e-09 <= 2e-8",
    "scaling-law": "100 effects x 3 factors, worst deviation 2.45e-12 <= 1e-10",
    "measurement-frequencies": "128 occupied cells in band; refinement exact (seed 4711)",
    "scorekeeper": "mean response 0.9800; 1000 runs in [91.1, 104.9], mean y-count 98.01",
    "escaping-state": "4 compact-support effects -> 0 (+-1e-6); constants unchanged",
}


def _run(key):
    if key not in _RESULTS:
        _RESULTS[key] = dict(CRITERIA)[key]()
    return _RESULTS[key]


@pytest.mark.parametrize("key", [k for k, _ in CRITERIA])
def test_criterion(key):
    result = _run(key)
    print(result.line())
    assert result.ok, f"{key}: {result.detail}"
    assert result.detail == DETAILS[key]
    limit = RUNTIME_LIMITS.get(key)
    if limit is not None:
        assert result.seconds < limit, f"{key} took {result.seconds:.1f}s (limit {limit:.0f}s)"
