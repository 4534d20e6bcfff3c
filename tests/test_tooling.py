"""The test configuration in pyproject.toml."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_example_fails(x):
    assert x < 5


def test_deprecation_fails():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_a_failing_hypothesis_example_is_reported(tmp_path):
    # on a failure hypothesis's plugin imports libcst, whose import warns
    # that mypy_extensions.TypedDict is deprecated: the filters let that one
    # through, and every other DeprecationWarning still fails its test
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run([sys.executable, *argv, "test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "2 failed" in run.stdout and run.returncode == 1
