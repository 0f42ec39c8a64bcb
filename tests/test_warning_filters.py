"""The pytest configuration turns every warning into an error but one.

Hypothesis's failure reporter imports libcst, which warns that
mypy_extensions.TypedDict is deprecated.  As an error, that warning escapes
a pytest hook, pytest stops with INTERNALERROR, and no later test runs, so
pyproject.toml exempts exactly that message.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_other_deprecation_is_an_error():
    warnings.warn("some other deprecation", DeprecationWarning)


def test_after():
    pass
'''


def test_a_falsified_property_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "FAILED test_sample.py::test_other_deprecation_is_an_error" in out
    assert "2 failed, 1 passed" in out
