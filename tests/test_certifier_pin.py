"""The certifier's verdicts on seeded random effect pairs, pinned.

For each of 200 pairs of ``verify._random_effect`` trees at each Gaussian
share (0: box and triangle detectors only; 1: Gaussians too), six calls are
made: ``orthogonality(f, g)``, ``orthogonality(f, neg(g))``, ``leq(f, g)``
and ``vanishes_at_infinity(f, tol, horizon)`` at three (tol, horizon) pairs.
``certifier_verdicts.json`` holds one letter per call: ``C`` certified, ``R``
refuted, or the letter of the :class:`CannotCertify` message in
``MESSAGES``.  Witness points are not pinned, since a change to the search
may move them; every witness must be finite and must really refute.  Record
the table again with ``PYTHONPATH=src python tests/test_certifier_pin.py
--record`` only when a change is meant to move a verdict or a message.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from unsharp.effects import leq, neg, orthogonality, vanishes_at_infinity
from unsharp.errors import CannotCertify, NotOrthogonal
from unsharp.rng import substream_seed
from unsharp.verify import Draw, _random_effect

TABLE = Path(__file__).with_name("certifier_verdicts.json")
PAIRS = 200
VANISHING = ((Fraction(1, 16), 1), (Fraction(1, 4), 2), (Fraction(1, 2), 5))
MESSAGES = {
    "o": "orthogonality certification exhausted its grid budget",
    "l": "ordering certification exhausted its grid budget",
    "v": "vanishing certification exhausted its grid budget",
}
_LETTER = {message: letter for letter, message in MESSAGES.items()}


def _refutes_sum(f, g, x):
    return math.isfinite(x) and float(f.value_at(x)) + float(g.value_at(x)) > 1


def _orthogonality(f, g):
    try:
        orthogonality(f, g)
    except NotOrthogonal as exc:
        assert _refutes_sum(f, g, exc.witness_point), (f.describe(), g.describe(), exc)
        return "R"
    return "C"


def _leq(f, g):
    res = leq(f, g)
    if res:
        return "C"
    x = res.witness_point
    assert math.isfinite(x) and float(f.value_at(x)) > float(g.value_at(x)), (f.describe(), g.describe(), x)
    return "R"


def _verdicts(f, g):
    calls = [lambda: _orthogonality(f, g), lambda: _orthogonality(f, neg(g)), lambda: _leq(f, g)]
    calls += [
        lambda tol=tol, horizon=horizon: "C" if vanishes_at_infinity(f, tol, horizon) else "R"
        for tol, horizon in VANISHING
    ]
    out = ""
    for call in calls:
        try:
            out += call()
        except CannotCertify as exc:
            out += _LETTER[str(exc)]
    return out


def _pairs(share):
    draw = Draw(substream_seed(40, share))
    for _ in range(PAIRS):
        f = _random_effect(draw, gaussian_share=share)
        yield f, _random_effect(draw, gaussian_share=share)


def _record():
    return {f"gaussian_share={share}": [_verdicts(f, g) for f, g in _pairs(share)] for share in (0, 1)}


def test_certifier_verdicts_are_pinned():
    table = json.loads(TABLE.read_text())
    for share in (0, 1):
        pinned = table[f"gaussian_share={share}"]
        assert len(pinned) == PAIRS
        for k, (f, g) in enumerate(_pairs(share)):
            assert _verdicts(f, g) == pinned[k], (share, k, f.describe(), g.describe())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record  (rewrites {TABLE.name})")
    TABLE.write_text(json.dumps(_record(), indent=1) + "\n")
