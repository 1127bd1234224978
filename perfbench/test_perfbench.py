"""Tests of the benchmark itself: the reference table, smoke runs, mutations.

Run from the repository root:

    python3 -m pytest perfbench

The smoke runs start perfbench/run.py as a fresh process at tiny scale and
take about half a minute together.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()
MANIFEST = json.loads(bench.MANIFEST.read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = bench.SCALES["tiny"]


def test_reference_table_digest_and_counts():
    data = bench.REFERENCE.read_bytes()
    want = MANIFEST["table"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
    assert len(data) == want["bytes"]
    table = bench.gaintable.load_table(bench.REFERENCE)
    valid = int(table.valid_mask().sum())
    assert table.k_cells.size == want["cells"]
    assert valid == want["valid_cells"]
    assert table.k_cells.size - valid == want["marker_cells"]


def test_reference_markers_are_close_gaps_with_a_faster_follower():
    table = bench.gaintable.load_table(bench.REFERENCE)
    for i1, i2, i3 in np.argwhere(~table.valid_mask()):
        assert table.axes.dr[i1] in (10.0, 20.0, 30.0)
        assert table.axes.vi[i2] > table.axes.vj[i3]


def test_reference_round_trip_is_byte_exact(tmp_path):
    out = tmp_path / "again.txt"
    bench.gaintable.save_table(bench.gaintable.load_table(bench.REFERENCE), out)
    assert out.read_bytes() == bench.REFERENCE.read_bytes()


def test_declared_names_match_the_benchmark():
    assert {w["name"] for w in DECLARED["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == bench.PER_LAYER_UNITS


def _run(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corrupted_reference_cell_is_a_failed_op():
    s = bench.set_up("grid", 5, TINY)
    cell = tuple(int(idx[0]) for idx in s.axes_idx)
    gammas = s.reference.candidates.gammas
    stored = s.reference.gamma_cells[cell]
    s.reference.gamma_cells[cell] = gammas[0] if stored != gammas[0] else gammas[1]
    s.reference.k_cells[cell] = s.reference.candidates.ks[0]
    tally = bench.Tally()
    oracle = bench.make_oracle(s)
    bench.build_phase(s, oracle, tally, bench.PassResult(), contextlib.nullcontext)
    assert tally.attempted == 4
    assert tally.failed == 4  # serial and 2-worker cells, and both saved files


def test_wrong_lookup_is_a_failed_op(monkeypatch):
    s = bench.set_up("grid", 5, TINY)
    oracle = bench.make_oracle(s)
    real = bench.gaintable.lookup
    calls = []

    def wrong_first_answer(table, dr, vi, vj):
        calls.append(None)
        if len(calls) > 1:
            return real(table, dr, vi, vj)
        if oracle.lookups[0] is None:
            return bench.GainPair(k=0.1, gamma=1.0)
        return None

    monkeypatch.setattr(bench.gaintable, "lookup", wrong_first_answer)
    tally = bench.Tally()
    bench.lookup_slice(s, oracle, 0, len(s.queries), tally, bench.PassResult())
    assert tally.attempted == TINY.lookups
    assert tally.failed == 1
