"""The project's pytest settings: a falsified property test is reported
normally, and the package imports from src with no install."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_sibling():
    assert True
'''


def test_falsified_hypothesis_test_fails_without_aborting_the_run(tmp_path):
    """Under warnings-as-errors, a falsified @given test is one failure:
    its falsifying example is printed and the tests after it still run."""
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output


IMPORT_PROBE = f'''
import sys
from pathlib import Path

import caccsim


def test_imports_from_src():
    assert {str(SRC)!r} in sys.path
    assert Path(caccsim.__file__).resolve().parent == Path({str(SRC)!r}) / "caccsim"
'''


def test_package_imports_from_src_without_install_or_pythonpath(tmp_path):
    """The settings put src on sys.path, so python -m pytest runs from a bare
    checkout: no PYTHONPATH, no installed package, any working directory."""
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_probe.py").write_text(IMPORT_PROBE, encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert "1 passed" in output
