"""The test session reports every failure: a failing `@given` test is listed
as failed, and the tests after it still run."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_given_test_is_reported_and_the_next_test_runs(tmp_path):
    # the same ini (pyproject.toml, whose filterwarnings turn a
    # DeprecationWarning into an error) and the same conftest as this suite
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    command += ["--rootdir", str(tmp_path), "test_two.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_two.py::test_fails" in out, out
    assert "1 failed, 1 passed" in out, out
