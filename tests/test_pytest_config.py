"""The project's pytest settings report a falsified property test normally."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
