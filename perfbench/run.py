"""Seeded benchmark of caccsim: the offline table build, then online scheduling.

Run it from the root of a caccsim checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0

A run loads the shipped configs and the reference production table kept in
perfbench/reference/, generates its inputs from --seed, and measures one
pass of the pipeline on them:

1. build the workload's sub-grid of the production axes serially, one vj
   value at a time, then whole with two worker processes, and save both
   tables;
2. four rounds follow.  Every round sets up again (configs, reference
   table, inputs) twice, for setup_s; the last one also runs ``caccsim
   suite`` in-process through cli.main; then the round schedules runs
   (lookup, run_scenario, write_trajectory_csv) from seeded operating
   points, each followed by a slice of timed lookups, until its share of
   --seconds has passed and its share of 100 runs is done;
3. string_stability_margin runs on every distinct stored gain pair.

Every timed sample sits between two readings of a calibration kernel, and
the end-to-end times are scaled to one reference machine speed (see
KERNELS).  Every output is checked against an oracle outside the timed
regions, and each mismatch or exception counts as one failed operation.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones.  With --trace 1 a shorter pass (24 runs) runs twice,
untraced and then with every layer boundary wrapped by perfbench/tracer.py,
and the metrics are the per-layer ones.  The library is called through its
public modules and never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = BENCH / "reference" / "table.txt"
MANIFEST = BENCH / "reference" / "manifest.json"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))
try:
    import numpy as np
    from caccsim import cli, config, gaintable, harness, stability
    from caccsim.controllers import GainPair
    from caccsim.metrics import SafetyMode
except ImportError as exc:
    sys.exit(f"perfbench: cannot import caccsim from {SRC}: {exc}")
from tracer import Tracer  # noqa: E402

# The builds come first, before other work has fragmented the heap, so that
# peak RSS is the build's own.  The online work follows in four rounds.
ROUNDS = 4
SETUPS_PER_ROUND = 2
TRACE_OPS = 24
MAX_OPS = 10_000
MAX_REPORTED_FAILURES = 20
# A timed sample is scaled by the calibration readings taken within this
# many seconds of it: the two on either side.
SPEED_WINDOW_S = 0.05


@dataclass(frozen=True)
class Scale:
    axis_cap: int | None  # most values kept per axis; None keeps the workload's
    lookups: int
    min_ops: int


SCALES = {
    "full": Scale(axis_cap=None, lookups=20_000, min_ops=100),
    # For the benchmark's own smoke tests: every phase, in a few seconds.
    "tiny": Scale(axis_cap=2, lookups=200, min_ops=4),
}


@dataclass(frozen=True)
class Plan:
    """How much work one pass does."""

    seconds: float  # scheduled runs fill the pass up to this long ...
    min_ops: int  # ... and number at least this many


INF = math.inf


@dataclass(frozen=True)
class Workload:
    """Where a workload's inputs lie; BENCHMARK.json says why each exists."""

    # Per axis (dr, vi, vj): the production values kept, as (lo, hi) ...
    axis_ranges: tuple
    # ... and how many of those the seed picks; None keeps them all.
    axis_picks: tuple
    # Per axis: the box that lookup queries and run operating points are
    # drawn from.  It is a little wider than the axes, so some queries miss.
    box: tuple


WORKLOADS = {
    # 384 cells, a handful of markers: nearly every cell converges early.
    # 6 x 8 cells per vj value make each serial piece exactly one chunk.
    "grid": Workload(
        axis_ranges=((-INF, INF), (-INF, INF), (-INF, INF)),
        axis_picks=(6, 8, 8),
        box=((-105.0, 105.0), (1.0, 35.0), (1.0, 35.0)),
    ),
    # 320 cells, about a third markers: the follower closes on a slower leader.
    "closing": Workload(
        axis_ranges=((0.0, 40.0), (18.0, INF), (-INF, 16.0)),
        axis_picks=(None, 8, None),
        box=((-5.0, 45.0), (17.0, 35.0), (1.0, 17.0)),
    ),
}


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_cells_per_s": "cells/s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "lookup_p50_us": "us",
}

PER_LAYER_UNITS = {
    "gaintable.build_table.serial_s": "s",
    "gaintable.build_table.w2_s": "s",
    "gaintable.build_table.w2_speedup": "ratio",
    "gaintable.build_table.self_s": "s",
    "gaintable.column_steps": "count",
    "gaintable.kernel_ns_per_column_step": "ns",
    "gaintable.useful_step_ratio": "ratio",
    "gaintable.valid_cells": "count",
    "gaintable.marker_cells": "count",
    "gaintable.save_table.ms": "ms",
    "gaintable.load_table.ms": "ms",
    "gaintable.lookup.calls": "count",
    "gaintable.lookup.fallback_share": "ratio",
    "gaintable.lookup.p99_us": "us",
    "metrics.evaluate_run.calls": "count",
    "metrics.evaluate_run.self_s": "s",
    "metrics.evaluate_run.us_per_call": "us",
    "controllers.consensus_command.calls": "count",
    "controllers.consensus_command.self_s": "s",
    "controllers.consensus_accel.calls": "count",
    "controllers.consensus_accel.self_s": "s",
    "controllers.linear_feedback_accel.calls": "count",
    "controllers.linear_feedback_accel.self_s": "s",
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.delayed_state.calls": "count",
    "dynamics.delayed_state.self_s": "s",
    "harness.simulate_pair.self_s": "s",
    "harness.run_scenario.s": "s",
    "harness.write_trajectory_csv.ms_per_call": "ms",
    "harness.run_suite.s": "s",
    "stability.string_stability_margin.calls": "count",
    "stability.string_stability_margin.us_per_call": "us",
    "config.load_s": "s",
    "cli.suite.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "bench.calibration_ms": "ms",
}


# --------------------------------------------------------------- calibration


@dataclass(frozen=True)
class _Particle:
    x: float
    v: float


def calibrate_python() -> float:
    """Seconds an interpreter-bound workload like a scheduled run takes now.

    Small frozen dataclasses, numpy calls on short arrays, float formatting.
    """
    grid = np.arange(21.0)
    column = np.ones(480)
    particle = _Particle(0.0, 1.0)
    parts = []
    t0 = time.perf_counter()
    for i in range(2000):
        particle = _Particle(particle.x + 0.01 * particle.v, particle.v * 0.9999)
        column = column * 0.999 + 0.001
        k = int(np.searchsorted(grid, i % 21 + 0.5))
        if i % 8 == 0:
            parts.append(repr(particle.x) + "," + str(k))
    ",".join(parts)
    return time.perf_counter() - t0


def calibrate_numpy() -> float:
    """Seconds an array-bound workload like a table build takes now.

    Steps of 480-column vectors, then band tests, a cumsum and running
    maxima down strided columns of a 12 001-row block.
    """
    t0 = time.perf_counter()
    block = np.empty((12001, 64))
    block[:] = np.linspace(-1.0, 1.0, 64)
    x = np.zeros(480)
    v = np.ones(480)
    for _ in range(100):
        a = -(0.1 * (x - 1.0) + 2.0 * (v - 1.0))
        x = x + v * 0.01
        v = v + a * 0.01
    for c in range(0, 64, 8):
        col = block[:, c]
        jerk = np.empty_like(col)
        jerk[0] = 0.0
        jerk[1:] = (col[1:] - col[:-1]) / 0.01
        ok = (np.abs(col - 0.1) <= 0.5) & (np.abs(jerk) <= 50.0)
        np.cumsum(ok, dtype=np.int64)
        np.maximum.accumulate(col > 0.5)
        float(np.max(col)), float(np.min(jerk))
    return time.perf_counter() - t0


# On a shared host this machine's speed drifts by up to 1.7x, in spells from
# under a second to minutes, which no repetition inside a one-minute run
# averages out.  So every timed sample is taken between two readings of the
# calibration kernel most like it, and scaled by the kernel's reference
# time over the median of those readings: the end-to-end times are times
# at one fixed machine speed.  The kernels call no caccsim code, so no
# change to the library can move them.  Raw times are recorded as well.
KERNELS = {
    # name: (kernel, reference seconds)
    "python": (calibrate_python, 0.008),
    "numpy": (calibrate_numpy, 0.005),
}


class Speed:
    """Timestamped calibration readings, taken on either side of each sample."""

    def __init__(self):
        # kernel name -> [(perf_counter at the reading's middle, seconds)]
        self.readings: dict = {name: [] for name in KERNELS}

    def read(self, kernel: str = "python") -> None:
        t0 = time.perf_counter()
        took = KERNELS[kernel][0]()
        self.readings[kernel].append((t0 + took / 2, took))

    def factor(self, start: float, seconds: float, window: float, kernel: str = "python") -> float:
        """Reference over the median reading within `window` s of the sample."""
        near = [
            took
            for t, took in self.readings[kernel]
            if start - window <= t <= start + seconds + window
        ]
        return KERNELS[kernel][1] / statistics.median(near)


# --------------------------------------------------------------------- setup


@dataclass
class Setup:
    cfg: object
    axes: object
    candidates: object
    sweep: object
    reference: object
    axes_idx: tuple  # per axis, indices of the sub-grid into the production axes
    sub_axes: object
    queries: list  # (dr, vi, vj) tuples of floats
    points: list


def set_up(workload: str, seed: int, scale: Scale) -> Setup:
    """Load configs and the reference table, and generate the seeded inputs."""
    spec = WORKLOADS[workload]
    cfg = config.load_build_config(CONFIGS / "build_default.ini")
    axes = config.load_axes(CONFIGS / "axes_default.ini")
    candidates = config.load_candidates(CONFIGS / "candidates_default.ini")
    sweep = config.load_sweep(CONFIGS / "sweep_default.ini")
    reference = gaintable.load_table(REFERENCE)

    rng = np.random.default_rng(seed)
    axes_idx = []
    for values, (lo, hi), pick in zip(
        (axes.dr, axes.vi, axes.vj), spec.axis_ranges, spec.axis_picks
    ):
        kept = np.flatnonzero((values >= lo) & (values <= hi))
        n = len(kept) if pick is None else pick
        if scale.axis_cap is not None:
            n = min(n, scale.axis_cap)
        axes_idx.append(np.sort(rng.choice(kept, size=n, replace=False)))
    sub_axes = gaintable.AxisGrid(
        dr=axes.dr[axes_idx[0]], vi=axes.vi[axes_idx[1]], vj=axes.vj[axes_idx[2]]
    )
    lo = [b[0] for b in spec.box]
    hi = [b[1] for b in spec.box]
    queries = [tuple(q) for q in rng.uniform(lo, hi, size=(scale.lookups, 3)).tolist()]
    points = [tuple(p) for p in rng.uniform(lo, hi, size=(MAX_OPS, 3)).tolist()]
    return Setup(
        cfg=cfg,
        axes=axes,
        candidates=candidates,
        sweep=sweep,
        reference=reference,
        axes_idx=tuple(axes_idx),
        sub_axes=sub_axes,
        queries=queries,
        points=points,
    )


# ------------------------------------------------------------------- oracles


def nearest_scan(grid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Nearest grid index per query by a full scan; -1 outside the grid.

    argmin keeps the first of equal distances, which is the smaller value.
    """
    idx = np.argmin(np.abs(q[:, None] - grid[None, :]), axis=1)
    inside = (q >= grid[0]) & (q <= grid[-1])
    return np.where(inside, idx, -1)


def expected_gains(reference, queries) -> list:
    """Per query: None on a miss, else the stored (k, gamma), NaN on markers."""
    q = np.asarray(queries, dtype=float).reshape(-1, 3)
    axes = reference.axes
    cols = [nearest_scan(g, q[:, i]) for i, g in enumerate((axes.dr, axes.vi, axes.vj))]
    out = []
    for i1, i2, i3 in zip(*cols):
        if min(i1, i2, i3) < 0:
            out.append(None)
        else:
            out.append(
                (float(reference.k_cells[i1, i2, i3]), float(reference.gamma_cells[i1, i2, i3]))
            )
    return out


def same_gains(pair, expected) -> bool:
    if expected is None or pair is None:
        return expected is None and pair is None
    if math.isnan(expected[0]):
        return not pair.valid
    return pair.valid and pair.k == expected[0] and pair.gamma == expected[1]


def is_fallback(expected) -> bool:
    return expected is None or math.isnan(expected[0])


@dataclass
class Oracle:
    k_block: np.ndarray
    gamma_block: np.ndarray
    block_bytes: bytes  # the reference sub-block saved as a table
    lookups: list
    points: list


def make_oracle(s: Setup) -> Oracle:
    """Reference answers for the pass, from the reference table alone."""
    cells = np.ix_(*s.axes_idx)
    block = gaintable.GainTable(
        axes=s.sub_axes,
        candidates=s.reference.candidates,
        config=s.reference.config,
        k_cells=s.reference.k_cells[cells],
        gamma_cells=s.reference.gamma_cells[cells],
    )
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "expected.txt"
    gaintable.save_table(block, path)
    return Oracle(
        k_block=block.k_cells,
        gamma_block=block.gamma_cells,
        block_bytes=path.read_bytes(),
        lookups=expected_gains(s.reference, s.queries),
        points=expected_gains(s.reference, s.points),
    )


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------------------------------------------ counting


@dataclass
class Tally:
    """Operations attempted and failed; a mismatch or exception is a failure."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def error(self, what: str) -> None:
        """Count an operation that raised; call from an except block."""
        self.attempted += 1
        self._fail(f"{what}: {traceback.format_exc()}")

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"perfbench: failed op: {what}", file=sys.stderr)


def check_reference(s: Setup, tally: Tally, manifest: dict) -> None:
    """The reference table is the shipped one and matches the shipped configs."""
    ref = manifest["table"]
    tally.check(sha256_file(REFERENCE) == ref["sha256"], "reference table digest")
    tally.check(
        s.reference.axes == s.axes
        and s.reference.candidates == s.candidates
        and s.reference.config == s.cfg,
        "reference table axes, candidates and settings match configs/",
    )


# -------------------------------------------------------------------- a pass


@dataclass
class PassResult:
    """What a pass measured.  Timed samples are (start, raw seconds)."""

    speed: Speed = field(default_factory=Speed)
    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)
    n_cells: int = 0
    valid_cells: int = 0
    serial_s: list = field(default_factory=list)  # one sample per piece
    w2_s: tuple = (math.nan, math.nan)
    lookup_slices: list = field(default_factory=list)  # (start, seconds, [ns per call])
    lookup_fallbacks: int = 0
    suite_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    round_ops: list = field(default_factory=list)  # runs done by the end of each round


def build_phase(s: Setup, oracle: Oracle, tally: Tally, res: PassResult, untraced) -> None:
    """Build the sub-grid serially, then with two workers; save both tables.

    The serial build goes one vj value at a time: each piece is one chunk
    and under a second long, short enough to be scaled by the calibration
    readings on either side of it, which a single build of several seconds
    is not.  The pieces are assembled into one table.  The 2-worker build
    is of the whole sub-grid.
    """
    axes = s.sub_axes
    res.n_cells = int(np.prod(axes.shape))
    k_cells = np.full(axes.shape, math.nan)
    gamma_cells = np.full(axes.shape, math.nan)
    tables = {}
    serial_ok = True
    for j, vj in enumerate(axes.vj):
        piece = gaintable.AxisGrid(dr=axes.dr, vi=axes.vi, vj=[vj])
        res.speed.read("numpy")
        try:
            t0 = time.perf_counter()
            table = gaintable.build_table(piece, s.candidates, s.cfg)
            res.serial_s.append((t0, time.perf_counter() - t0))
        except Exception:
            tally.error(f"serial build of vj={vj}")
            serial_ok = False
            continue
        finally:
            res.speed.read("numpy")
        k_cells[:, :, j] = table.k_cells[:, :, 0]
        gamma_cells[:, :, j] = table.gamma_cells[:, :, 0]
    if serial_ok:
        tables["serial"] = gaintable.GainTable(
            axes=axes, candidates=s.candidates, config=s.cfg,
            k_cells=k_cells, gamma_cells=gamma_cells,
        )
    # Spans recorded in forked workers would be lost, so the 2-worker build
    # runs with the library's own functions.
    try:
        with untraced():
            t0 = time.perf_counter()
            tables["w2"] = gaintable.build_table(axes, s.candidates, s.cfg, workers=2)
            res.w2_s = (t0, time.perf_counter() - t0)
    except Exception:
        tally.error("2-worker build")
    for label, table in tables.items():
        tally.check(
            np.array_equal(table.k_cells, oracle.k_block, equal_nan=True)
            and np.array_equal(table.gamma_cells, oracle.gamma_block, equal_nan=True),
            f"{label} build equals the reference sub-block",
        )
    if "serial" in tables:
        res.valid_cells = int(tables["serial"].valid_mask().sum())
    for label, table in tables.items():
        path = WORK / f"{label}.txt"
        try:
            gaintable.save_table(table, path)
        except Exception:
            tally.error(f"save {label} table")
            continue
        tally.check(
            path.read_bytes() == oracle.block_bytes,
            f"saved {label} table equals the saved reference sub-block byte for byte",
        )


def lookup_slice(s: Setup, oracle: Oracle, lo: int, hi: int, tally: Tally, res: PassResult) -> None:
    """Time lookups of queries[lo:hi], one call at a time, then check them."""
    lookup = gaintable.lookup
    ref = s.reference
    clock = time.perf_counter_ns
    results = []
    times = []
    started = time.perf_counter()
    for i in range(lo, min(hi, len(s.queries))):
        dr, vi, vj = s.queries[i]
        try:
            t0 = clock()
            pair = lookup(ref, dr, vi, vj)
            times.append(clock() - t0)
        except Exception:
            tally.error(f"lookup {s.queries[i]}")
            continue
        results.append((i, pair))
    if times:
        res.lookup_slices.append((started, time.perf_counter() - started, times))
    for i, pair in results:
        tally.check(
            same_gains(pair, oracle.lookups[i]), f"lookup {s.queries[i]} against a full scan"
        )
        res.lookup_fallbacks += pair is None or not pair.valid


def suite_run(tally: Tally, res: PassResult, manifest: dict, span) -> None:
    out_dir = WORK / "suite"
    for name in ("summary.txt", "comparison.csv"):
        (out_dir / name).unlink(missing_ok=True)
    argv = [
        "suite",
        "--table", str(REFERENCE),
        "--config", str(CONFIGS / "build_default.ini"),
        "--baselines", str(CONFIGS / "baselines_default.ini"),
        "--out-dir", str(out_dir),
    ]
    buf = io.StringIO()
    try:
        res.speed.read()
        with span("cli.suite"), contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli.main(argv)
            res.suite_s.append((t0, time.perf_counter() - t0))
        res.speed.read()
    except Exception:
        tally.error("caccsim suite")
        return
    want = manifest["suite"]
    tally.check(
        code == 0
        and want["verdict_line"] in buf.getvalue().splitlines()
        and sha256_file(out_dir / "summary.txt") == want["summary_sha256"]
        and sha256_file(out_dir / "comparison.csv") == want["comparison_sha256"],
        "caccsim suite output matches the kept digests and verdict",
    )


def scheduled_run(s: Setup, oracle: Oracle, i: int, tally: Tally, res: PassResult) -> None:
    """One op: lookup, run_scenario, write_trajectory_csv; then its checks."""
    dr, vi, vj = s.points[i]
    ref, cfg = s.reference, s.cfg
    csv_path = WORK / "op.csv"
    scenario = harness.ScenarioConfig(scenario_id=f"op{i}", dr0=dr, vi0=vi, vj0=vj)
    res.speed.read()
    try:
        t0 = time.perf_counter()
        pair = gaintable.lookup(ref, dr, vi, vj)
        report, trajectory = harness.run_scenario(scenario, cfg, ref)
        harness.write_trajectory_csv(csv_path, trajectory, cfg.thresholds)
        res.op_s.append((t0, time.perf_counter() - t0))
    except Exception:
        tally.error(f"scheduled run from {s.points[i]}")
        return
    finally:
        res.speed.read()
    expected = oracle.points[i]
    gains_ok = (
        report.gains is None if report.fallback_engaged else same_gains(report.gains, expected)
    )
    tally.check(
        same_gains(pair, expected)
        and report.fallback_engaged == is_fallback(expected)
        and gains_ok
        and csv_path.read_bytes().count(b"\n") == len(trajectory) + 1,
        f"scheduled run from {s.points[i]}: lookup, fallback flag and CSV",
    )


def margin_sweep(s: Setup, tally: Tally) -> None:
    for gamma, k in s.reference.distinct_valid_pairs():
        try:
            margin = stability.string_stability_margin(
                GainPair(k=k, gamma=gamma),
                time_gap=s.cfg.time_gap,
                comm_delay=s.cfg.comm_delay,
                sweep=s.sweep,
            )
        except Exception:
            tally.error(f"stability margin gamma={gamma} k={k}")
            continue
        tally.check(math.isfinite(margin.max_magnitude), f"margin of gamma={gamma} k={k}")


def run_pass(s, oracle, tally, manifest, plan, set_up_again, tracer=None, round_ops=None):
    """One pass; round_ops replays the run counts of an earlier pass."""
    res = PassResult()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    untraced = tracer.paused if tracer else contextlib.nullcontext
    rounds = ROUNDS
    lookups_per_op = -(-len(s.queries) // plan.min_ops)
    op = 0
    started = time.perf_counter()
    build_phase(s, oracle, tally, res, untraced)
    for r in range(rounds):
        for _ in range(SETUPS_PER_ROUND):
            res.speed.read()
            t0 = time.perf_counter()
            set_up_again()
            res.setup_s.append((t0, time.perf_counter() - t0))
            res.speed.read()
        if r == rounds - 1:
            suite_run(tally, res, manifest, span)
        target = -(-plan.min_ops * (r + 1) // rounds)
        deadline = plan.seconds * (r + 1) / rounds
        while op < len(s.points):
            if round_ops is not None:
                if op >= round_ops[r]:
                    break
            elif op >= target and time.perf_counter() - started >= deadline:
                break
            scheduled_run(s, oracle, op, tally, res)
            lo = op * lookups_per_op
            lookup_slice(s, oracle, lo, lo + lookups_per_op, tally, res)
            op += 1
        res.round_ops.append(op)
    margin_sweep(s, tally)
    res.wall_s = time.perf_counter() - started
    return res


# ------------------------------------------------------------------ metrics


def _value(x) -> float:
    return float(x) if x is not None and math.isfinite(x) else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values) -> float:
    return statistics.median(values) if len(values) else math.nan


def end_to_end_values(res: PassResult, window: float | None = SPEED_WINDOW_S) -> dict:
    """End-to-end values at the reference speed; raw when window is None."""

    def factor(start, raw, kernel="python") -> float:
        return 1.0 if window is None else res.speed.factor(start, raw, window, kernel)

    def seconds(sample, kernel="python") -> float:
        return sample[1] * factor(*sample, kernel)

    op_ms = np.array([seconds(x) for x in res.op_s]) * 1e3
    lookup_us = []
    for start, took, calls in res.lookup_slices:
        scale = factor(start, took) / 1e3
        lookup_us.extend(ns * scale for ns in calls)
    return {
        "setup_s": _median([seconds(x) for x in res.setup_s]),
        "peak_rss_mb": peak_rss_mb(),
        "build_cells_per_s": res.n_cells / sum(seconds(x, "numpy") for x in res.serial_s),
        "run_p50_ms": float(np.percentile(op_ms, 50)) if len(op_ms) else math.nan,
        "run_p90_ms": float(np.percentile(op_ms, 90)) if len(op_ms) else math.nan,
        "lookup_p50_us": _median(lookup_us),
    }


class DecisionSteps:
    """Step at which each built cell's stored value became final.

    Fed every (RunMetrics, evaluate_run arguments) the build makes; columns
    arrive in cell order, one per candidate.  A column is decided at its
    first armed gap-floor violation when unsafe, at its consensus index plus
    the hold window when it converged, and at the last step otherwise.  A
    cell is decided at the earliest confirmation among its safe converged
    columns, since no column still undecided then can beat it; without one,
    at the last of its columns' decisions.
    """

    def __init__(self, n_candidates: int):
        self.n_candidates = n_candidates
        self.pending: list = []
        self.useful_column_steps = 0

    def __call__(self, metrics, args, kwargs) -> None:
        trajectory = args[0]
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        hold = args[4] if len(args) > 4 else kwargs["hold_window"]
        last = len(trajectory) - 1
        winner = None
        if metrics.safety_violated:
            gap = np.asarray(trajectory.gap)
            below = gap <= trajectory.leader_length
            if mode is not SafetyMode.SAME_LANE:
                below &= np.maximum.accumulate(gap > trajectory.leader_length)
            step = int(np.argmax(below))
        elif metrics.consensus_reached:
            window = round(hold / trajectory.dt)
            step = min(round(metrics.t_consensus / trajectory.dt) + window, last)
            winner = step
        else:
            step = last
        self.pending.append((step, winner))
        if len(self.pending) == self.n_candidates:
            wins = [w for _, w in self.pending if w is not None]
            decided = min(wins) if wins else max(step for step, _ in self.pending)
            self.useful_column_steps += self.n_candidates * decided
            self.pending.clear()


class ColumnSteps:
    """Column-steps the build's kernel advances: columns per consensus_command call."""

    def __init__(self):
        self.total = 0

    def __call__(self, result, args, kwargs) -> None:
        self.total += int(np.size(args[0]))


def make_tracer(decisions: DecisionSteps, steps: ColumnSteps) -> Tracer:
    tr = Tracer()
    targets = [
        (gaintable, "build_table", "gaintable.build_table", True, None),
        (gaintable, "evaluate_run", "metrics.evaluate_run", False, decisions),
        (gaintable, "consensus_command", "controllers.consensus_command", False, steps),
        (gaintable, "save_table", "gaintable.save_table", True, None),
        (gaintable, "load_table", "gaintable.load_table", True, None),
        (gaintable, "lookup", "gaintable.lookup", False, None),
        (cli, "load_table", "gaintable.load_table", True, None),
        (cli, "load_build_config", "config.load", True, None),
        (cli, "load_baselines", "config.load", True, None),
        (cli, "run_suite", "harness.run_suite", True, None),
        (cli, "write_trajectory_csv", "harness.write_trajectory_csv", True, None),
        (harness, "lookup", "gaintable.lookup", False, None),
        (harness, "run_suite", "harness.run_suite", True, None),
        (harness, "run_scenario", "harness.run_scenario", True, None),
        (harness, "simulate_pair", "harness.simulate_pair", True, None),
        (harness, "evaluate_run", "metrics.evaluate_run", False, None),
        (harness, "step", "dynamics.step", False, None),
        (harness, "delayed_state", "dynamics.delayed_state", False, None),
        (harness, "consensus_accel", "controllers.consensus_accel", False, None),
        (harness, "linear_feedback_accel", "controllers.linear_feedback_accel", False, None),
        (harness, "write_trajectory_csv", "harness.write_trajectory_csv", True, None),
        (stability, "string_stability_margin", "stability.string_stability_margin", False, None),
    ]
    for module, attr, name, keep, hook in targets:
        tr.add(module, attr, name, keep_spans=keep, on_return=hook)
    return tr


def _per_call(tr: Tracer, name: str, scale: float) -> float:
    calls = tr.calls(name)
    return tr.total_s(name) * scale / calls if calls else 0.0


def per_layer_metrics(plain: PassResult, traced: PassResult, tr, decisions, steps) -> dict:
    build = "gaintable.build_table"
    build_s = tr.total_s(build)
    kernel_s = (
        build_s
        - tr.child_s(build, "metrics.evaluate_run")
        - tr.child_s(build, "trace.analysis")
    )
    column_steps = steps.total
    lookups = sum(len(ns) for _, _, ns in traced.lookup_slices)
    serial_s = sum(raw for _, raw in plain.serial_s)
    plain_lookup_ns = [x for _, _, ns in plain.lookup_slices for x in ns] or [0]
    values = {
        "gaintable.build_table.serial_s": serial_s,
        "gaintable.build_table.w2_s": plain.w2_s[1],
        "gaintable.build_table.w2_speedup": serial_s / plain.w2_s[1],
        "gaintable.build_table.self_s": tr.self_s(build),
        "gaintable.column_steps": column_steps,
        "gaintable.kernel_ns_per_column_step": (
            kernel_s * 1e9 / column_steps if column_steps else 0.0
        ),
        "gaintable.useful_step_ratio": (
            decisions.useful_column_steps / column_steps if column_steps else 0.0
        ),
        "gaintable.valid_cells": traced.valid_cells,
        "gaintable.marker_cells": traced.n_cells - traced.valid_cells,
        "gaintable.save_table.ms": _per_call(tr, "gaintable.save_table", 1e3),
        "gaintable.load_table.ms": _per_call(tr, "gaintable.load_table", 1e3),
        "gaintable.lookup.calls": tr.calls("gaintable.lookup"),
        "gaintable.lookup.fallback_share": traced.lookup_fallbacks / lookups if lookups else 0.0,
        "gaintable.lookup.p99_us": float(np.percentile(plain_lookup_ns, 99)) / 1e3,
        "metrics.evaluate_run.calls": tr.calls("metrics.evaluate_run"),
        "metrics.evaluate_run.self_s": tr.self_s("metrics.evaluate_run"),
        "metrics.evaluate_run.us_per_call": _per_call(tr, "metrics.evaluate_run", 1e6),
        "harness.simulate_pair.self_s": tr.self_s("harness.simulate_pair"),
        "harness.run_scenario.s": tr.total_s("harness.run_scenario"),
        "harness.write_trajectory_csv.ms_per_call": _per_call(
            tr, "harness.write_trajectory_csv", 1e3
        ),
        "harness.run_suite.s": tr.total_s("harness.run_suite"),
        "stability.string_stability_margin.calls": tr.calls("stability.string_stability_margin"),
        "stability.string_stability_margin.us_per_call": _per_call(
            tr, "stability.string_stability_margin", 1e6
        ),
        "config.load_s": tr.total_s("config.load"),
        "cli.suite.self_s": tr.self_s("cli.suite"),
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "bench.calibration_ms": _median([took for _, took in plain.speed.readings["python"]]) * 1e3,
    }
    for name in (
        "controllers.consensus_command",
        "controllers.consensus_accel",
        "controllers.linear_feedback_accel",
        "dynamics.step",
        "dynamics.delayed_state",
    ):
        values[f"{name}.calls"] = tr.calls(name)
        values[f"{name}.self_s"] = tr.self_s(name)
    return {k: {"value": _value(values[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------- main


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: caccsim imported from {cli.__file__}, not from {SRC}")
    if not (REFERENCE.is_file() and MANIFEST.is_file() and CONFIGS.is_dir()):
        sys.exit("perfbench: run from a caccsim checkout with configs/ and perfbench/reference/")
    scale = SCALES[args.scale]
    manifest = json.loads(MANIFEST.read_text())
    meta = run_metadata(args)
    print("perfbench meta " + json.dumps(meta), flush=True)

    def set_up_again():
        return set_up(args.workload, args.seed, scale)

    s = set_up_again()
    oracle = make_oracle(s)
    tally = Tally()
    check_reference(s, tally, manifest)

    if args.trace:
        plan = Plan(seconds=0.0, min_ops=min(TRACE_OPS, scale.min_ops))
    else:
        plan = Plan(seconds=args.seconds, min_ops=scale.min_ops)
    plain = run_pass(s, oracle, tally, manifest, plan, set_up_again)
    raw = end_to_end_values(plain, window=None)
    # Single samples of several seconds, which the calibration cannot scale;
    # recorded raw, and per layer in traced runs.
    raw["build_w2_cells_per_s"] = plain.n_cells / plain.w2_s[1]
    raw["suite_s"] = _median([took for _, took in plain.suite_s])
    print("perfbench raw " + json.dumps(raw), flush=True)
    record = {
        "meta": meta,
        "raw": raw,
        "samples": {
            "calibration": plain.speed.readings,
            "setup": plain.setup_s,
            "serial": plain.serial_s,
            "w2": plain.w2_s,
            "suite": plain.suite_s,
            "op": plain.op_s,
            "lookup": plain.lookup_slices,
            "n_cells": plain.n_cells,
        },
    }
    if args.trace:
        decisions = DecisionSteps(len(s.candidates.pairs()))
        steps = ColumnSteps()
        tracer = make_tracer(decisions, steps)
        with tracer.active():
            traced = run_pass(
                s, oracle, tally, manifest, plan, set_up_again, tracer, plain.round_ops
            )
        metrics = per_layer_metrics(plain, traced, tracer, decisions, steps)
        record["trace"] = tracer.dump()
        if tracer.absent:
            print("perfbench absent " + " ".join(sorted(tracer.absent)))
    else:
        values = end_to_end_values(plain)
        metrics = {k: {"value": _value(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["metrics"] = metrics
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
