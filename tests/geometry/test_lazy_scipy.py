"""A 1-d run never loads scipy's Qhull or HiGHS modules.

``geometry/hull.py``, ``halfspaces.py``, ``tverberg.py`` and ``volume.py``
import ``scipy.spatial`` and ``scipy.optimize`` inside the functions that
call Qhull or HiGHS.  A 1-d run needs neither, so ``import repro``, one
1-d run and its sweep row must leave both out of ``sys.modules``.  The
check runs in a fresh interpreter: this test process has long since
loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import sys

import numpy as np

import repro
from repro.analysis.sweeps import row_from_result

inputs = np.random.default_rng(0).uniform(-1, 1, (5, 1))
result = repro.run_convex_hull_consensus(inputs, 1, 0.1, seed=0)
assert row_from_result(0, result).status == "ok"
print(sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules))
"""


def test_1d_run_loads_neither_scipy_module():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
