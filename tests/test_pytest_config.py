import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
'''


def test_failing_property_fails_one_test_not_the_session(tmp_path):
    # With every warning an error, hypothesis' report of a failing example
    # once raised a DeprecationWarning that ended the session there.
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout
