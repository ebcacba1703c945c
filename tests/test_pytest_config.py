"""The suite's pytest settings report every failure.

`pyproject.toml` turns warnings into errors.  When a `@given` test fails,
hypothesis's pytest plugin imports libcst, which warns on import; left as
an error, that warning ended the run with INTERNALERROR, exit code 3 and
no list of failures.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_generated.py").write_text(_FAILING_PROPERTY)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            "test_generated.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_generated.py::test_always_fails" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
