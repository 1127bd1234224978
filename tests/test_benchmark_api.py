"""The benchmark still runs on the library: perfbench/run.py imports the
library's modules and calls their functions by name, so a deleted or renamed
name breaks it.  A tiny pass of each workload must finish with every
operation correct."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from caccsim import gaintable

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["grid", "closing"])
def test_tiny_benchmark_pass_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seconds", "1", "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result


def test_gaintable_binds_no_evaluate_run():
    """The build's comfort tie-break calls metrics.evaluate_run by module
    attribute.  perfbench's --trace 1 wraps a gaintable.evaluate_run, if one
    exists, with its DecisionSteps hook, which reads evaluate_run arguments
    and run fields that no longer exist, and raises."""
    assert not hasattr(gaintable, "evaluate_run")
