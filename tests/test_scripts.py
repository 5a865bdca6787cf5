"""The two experiment scripts, pinned by the SHA-256 of their stdout.

The digests were recorded before mixture ``ppf`` moved from bisection to a
cached CDF table with Chandrupatla steps.  A draw moves in its last bits under
such a change; a histogram moves only if a draw lies within about 1e-12 of a
dyadic cell boundary.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    ("dartboard.py", "1"): "7bc0cc34c593511dfc0300b5b99d980579e0261ef2975aa4401aa706874608e2",
    ("halfline_ambiguity.py",): "1367b56563e6dc8a7354751a520bdfc02af1c0eb51750fab2acf6869474c8183",
}


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_stdout_digest(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[argv]
