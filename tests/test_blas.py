"""Archives do not depend on the BLAS kernel.

The scalarizer sums its linear term elementwise in a fixed order instead of
calling BLAS.  This test reruns the golden cases in a subprocess that forces
OpenBLAS onto its Sandybridge kernel, which has no fused multiply-add, and
expects the pinned digests.  In the same subprocess it checks that `z @ w`
equals the fixed-order sum, up to the sign of a zero sum, on the shapes that
the frozen oracles of `tests/test_tspwp.py` score, for two and three
objectives, which is why those oracles may use that sum.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CHILD = r"""
import tempfile
from pathlib import Path

import numpy as np

from test_golden import CASES, GOLDEN, run_case
from test_tspwp import fixed_order_dot

rng = np.random.default_rng(41)
checked = 0
for case in range(300):
    j = 2 + case % 2
    m, k = (int(v) for v in rng.integers(1, 41, size=2))
    w = rng.dirichlet(np.ones(j))
    scale = 10.0 ** int(rng.integers(0, 7))
    for shape in ((m, m), (k,), (m, k), (m,), (), (m * m + k + m * k + m,)):
        z = rng.uniform(-1, 1, size=shape + (j,)) * scale
        if case % 2:
            z = np.round(z)
        for layout in (z, np.asfortranarray(z)):
            # BLAS starts its sum from +0.0, so a sum of -0.0 terms reads
            # +0.0 there; adding 0.0 clears that sign and no other bit
            assert (layout @ w + 0.0).tobytes() == (fixed_order_dot(layout, w) + 0.0).tobytes(), (case, shape)
            checked += 1
print("dot", checked)

with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(CASES):
        assert run_case(name, Path(tmp) / name) == GOLDEN[name], name
        print("golden", name)
"""


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"]).lower()
    except Exception:  # noqa: BLE001 - numpy too old to report its build
        return "unknown"


def test_golden_digests_and_linear_term_under_non_fma_openblas_kernel():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE selects x86 kernels; this CPU is {platform.machine()}")
    if "openblas" not in _blas_name():
        pytest.skip(f"numpy's BLAS is {_blas_name()!r}, not OpenBLAS")
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("golden ") == 9, proc.stdout
