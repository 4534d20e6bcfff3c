"""The test configuration in pyproject.toml, and the package's import graph."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rauzy"

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


def _deferred_imports():
    """(module file, function, imported module) for every import statement
    inside a function body of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found += [(path.name, fn.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((path.name, fn.name, "." * node.level + (node.module or "")))
    return found


def test_no_function_level_import_of_a_package_module():
    # a deferred import of a sibling module hides an import cycle; the one
    # deferred import is scipy.spatial, which the k-d tree builder loads at
    # its first build
    found = _deferred_imports()
    assert ("fractal.py", "_kdtree", "scipy.spatial") in found
    assert [f for f in found if f[2].startswith(".") or f[2].split(".")[0] == "rauzy"] == []


def test_importing_adic_does_not_load_fractal():
    code = "import sys, rauzy.adic; print(sorted(m for m in sys.modules if m.startswith('rauzy')))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert run.returncode == 0, run.stderr
    assert "rauzy.adic" in run.stdout and "rauzy.fractal" not in run.stdout
