"""The five demos run in order and reproduce their tracked outputs."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_run_and_reproduce_their_outputs(tmp_path):
    """Each demo exits 0 on a copy of demos/, and the table and comparison
    they write equal the tracked copies byte for byte."""
    work = tmp_path / "demos"
    shutil.copytree(DEMOS, work)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in sorted(work.glob("[0-9][0-9]_*.py")):
        done = subprocess.run(
            [sys.executable, script.name], cwd=work, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"{script.name} failed:\n{done.stderr}"
    for name in ("small_table.txt", "out/comparison.csv"):
        assert (work / name).read_bytes() == (DEMOS / name).read_bytes(), name
