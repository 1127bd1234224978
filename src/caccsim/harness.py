"""Scenario runner and benchmark suite.

A scenario is one follower tracking one constant-speed leader from a given
initial gap and speed pair.  The follower's control law is chosen once at
the start: scheduled gains from a table lookup (with a linear feedback
fallback on a miss), a static consensus GainPair, or linear feedback with
its own LinearFeedbackGains.  The suite runs four benchmark operating
points against all three controllers, writes each run's trajectory CSV
when the run ends and returns none, and reports the runs side by side.

A scenario runs on the table build's simulation kernel as a batch of one
column through dynamics.simulate_pair, which the build's comfort tie
re-run calls too, so a re-run of any table cell's operating point
reproduces the builder's trajectory bit for bit.

A trajectory CSV is formatted column by column, _CSV_CHUNK rows at a time,
each float as its repr; a chunk of one repeated value is formatted once.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .controllers import (
    ConsensusLaw,
    GainPair,
    LinearFeedbackGains,
    LinearFeedbackLaw,
    require,
)
from .dynamics import simulate_pair
from .gaintable import BuildConfig, GainTable, lookup
from .metrics import RunMetrics, Trajectory, _bands_ok, evaluate_run, jerk_series

__all__ = [
    "ScenarioConfig",
    "BaselineConfig",
    "RunReport",
    "SuiteResult",
    "CONTROLLER_KINDS",
    "BENCHMARK_POINTS",
    "run_scenario",
    "run_suite",
    "write_trajectory_csv",
    "write_comparison_csv",
    "format_suite_summary",
]

CONTROLLER_KINDS = ("lookup", "fixed_consensus", "linear_feedback")

# Benchmark operating points: (id, initial gap m, follower m/s, leader m/s).
BENCHMARK_POINTS = (
    ("scenario1", 50.0, 28.0, 14.0),
    ("scenario2", 20.0, 16.0, 22.0),
    ("scenario3", -30.0, 18.0, 10.0),
    ("scenario4", -80.0, 4.0, 21.0),
)


@dataclass
class ScenarioConfig:
    """One car-following run: initial condition plus controller choice.

    The run lasts the t_max of the BuildConfig it is run with.
    fixed_consensus runs a valid GainPair, linear_feedback its
    LinearFeedbackGains or, when gains is None, the run's fallback gains.
    scenario_id names the run's CSV file, so it holds no path separator.
    """

    scenario_id: str
    dr0: float
    vi0: float
    vj0: float
    controller: str = "lookup"
    gains: GainPair | LinearFeedbackGains | None = None

    def __post_init__(self) -> None:
        if "/" in self.scenario_id or os.sep in self.scenario_id:
            raise ValueError(f"scenario_id {self.scenario_id!r} holds a path separator")
        require(self, "finite", math.isfinite, "dr0", "vi0", "vj0")
        require(self, "non-negative", lambda v: v >= 0, "vi0", "vj0")
        # Stored as floats, so lookup sees the point the kernel integrates.
        for name in ("dr0", "vi0", "vj0"):
            setattr(self, name, float(getattr(self, name)))
        require(self, f"one of {CONTROLLER_KINDS}", CONTROLLER_KINDS.__contains__,
                "controller")
        if self.controller == "fixed_consensus":
            fits = isinstance(self.gains, GainPair) and self.gains.valid
        elif self.controller == "linear_feedback":
            fits = self.gains is None or isinstance(self.gains, LinearFeedbackGains)
        else:
            fits = self.gains is None
        if not fits:
            raise ValueError(f"{self.controller} controller cannot take gains {self.gains!r}")


@dataclass(frozen=True)
class BaselineConfig:
    """Reference controllers the suite compares against.

    These gains are illustrative stand-ins, not tuned values; ship defaults
    live in the repository config files.
    """

    fixed: GainPair = field(default_factory=lambda: GainPair(k=0.1, gamma=1.0))
    linear: LinearFeedbackGains = field(default_factory=LinearFeedbackGains)


@dataclass
class RunReport:
    """Outcome of one scenario run."""

    scenario_id: str
    controller: str
    gains: GainPair | None
    fallback_engaged: bool
    metrics: RunMetrics


@dataclass
class SuiteResult:
    """All suite run reports plus the convergence-time ordering verdicts;
    no trajectory (run_suite writes each one when its run ends)."""

    reports: list[RunReport]
    lookup_beats_fixed: dict
    all_scenarios_beat_fixed: bool


def _resolve_controller(
    scenario: ScenarioConfig,
    table: GainTable | None,
    fallback_gains: LinearFeedbackGains,
):
    """Pick the control law once, at the start of the run.

    Returns (law, gains or None, fallback_engaged).
    """
    kind = scenario.controller
    if kind == "lookup":
        if table is None:
            raise ValueError("lookup controller needs a gain table")
        gains = lookup(table, scenario.dr0, scenario.vi0, scenario.vj0)
        if gains is None or not gains.valid:
            return LinearFeedbackLaw(fallback_gains), None, True
        return ConsensusLaw.of(gains), gains, False
    if kind == "fixed_consensus":
        return ConsensusLaw.of(scenario.gains), scenario.gains, False
    return LinearFeedbackLaw(scenario.gains or fallback_gains), None, False


def run_scenario(
    scenario: ScenarioConfig,
    cfg: BuildConfig,
    table: GainTable | None = None,
    fallback_gains: LinearFeedbackGains = LinearFeedbackGains(),
) -> tuple[RunReport, Trajectory]:
    """Run one scenario for cfg.t_max and evaluate it."""
    control, gains, fallback_engaged = _resolve_controller(
        scenario, table, fallback_gains
    )
    trajectory = simulate_pair(scenario.dr0, scenario.vi0, scenario.vj0, control, cfg)
    metrics = evaluate_run(trajectory)
    report = RunReport(
        scenario_id=scenario.scenario_id,
        controller=scenario.controller,
        gains=gains,
        fallback_engaged=fallback_engaged,
        metrics=metrics,
    )
    return report, trajectory


def run_suite(
    table: GainTable,
    cfg: BuildConfig,
    baselines: BaselineConfig | None = None,
    out_dir=None,
) -> SuiteResult:
    """Benchmark all three controllers on the four benchmark points, each
    run lasting cfg.t_max.  Each run's trajectory is written to out_dir (if
    given) as {sid}_{kind}.csv when the run ends and then dropped, so one is
    held at a time; none is returned."""
    baselines = baselines or BaselineConfig()
    gains = {"fixed_consensus": baselines.fixed, "linear_feedback": baselines.linear}
    reports: list[RunReport] = []
    times: dict = {}

    for sid, dr0, vi0, vj0 in BENCHMARK_POINTS:
        for kind in CONTROLLER_KINDS:
            scenario = ScenarioConfig(
                sid, dr0, vi0, vj0, controller=kind, gains=gains.get(kind)
            )
            report, trajectory = run_scenario(
                scenario, cfg, table=table, fallback_gains=baselines.linear
            )
            if out_dir is not None:
                csv_path = Path(out_dir, f"{sid}_{kind}.csv")
                write_trajectory_csv(csv_path, trajectory, cfg.thresholds)
            del trajectory
            reports.append(report)
            times[(sid, kind)] = report.metrics.t_consensus

    lookup_beats_fixed = {
        sid: times[(sid, "lookup")] < times[(sid, "fixed_consensus")]
        for sid, _, _, _ in BENCHMARK_POINTS
    }
    return SuiteResult(
        reports=reports,
        lookup_beats_fixed=lookup_beats_fixed,
        all_scenarios_beat_fixed=all(lookup_beats_fixed.values()),
    )


def _csv_num(value: float) -> str:
    return repr(float(value))


# Rows the trajectory CSV writer formats at a time; it bounds the strings
# held at once.
_CSV_CHUNK = 2048
_CSV_FLAG = ("0\n", "1\n")


def _csv_floats(chunk: np.ndarray):
    """repr of each value; a chunk of one bit pattern is formatted once."""
    bits = chunk.view(np.int64)
    if (bits == bits[0]).all():
        return itertools.repeat(_csv_num(chunk[0]), len(chunk))
    return map(repr, chunk.tolist())


def write_trajectory_csv(path, trajectory: Trajectory, thresholds) -> None:
    """Per-step run record as CSV with LF endings, one row per sample.

    Columns: t, r_i, v_i, a_i, jerk_i, r_j, v_j, gap, gap_error,
    consensus_flag.  gap is the delayed-leader gap; gap_error subtracts the
    target spacing; consensus_flag is the per-sample band flag.  thresholds
    must be the bands the run is judged with, trajectory.cfg.thresholds;
    other bands are refused with a ValueError.  The jerk and the target
    spacing are computed once per run; the band flags of a chunk overwrite
    that chunk of both once it is formatted.
    """
    if thresholds != trajectory.cfg.thresholds:
        raise ValueError(
            f"thresholds {thresholds!r} are not the bands the run is judged "
            f"with, {trajectory.cfg.thresholds!r}"
        )
    jerk, target = jerk_series(trajectory), trajectory.desired_gaps()
    gap = trajectory.gap
    columns = (
        trajectory.t,
        trajectory.r_follower,
        trajectory.v_follower,
        trajectory.a_follower,
        jerk,
        trajectory.r_leader,
        trajectory.v_leader,
        gap,
    )
    flags, spare = np.empty(_CSV_CHUNK, dtype=bool), np.empty(_CSV_CHUNK, dtype=bool)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,r_i,v_i,a_i,jerk_i,r_j,v_j,gap,gap_error,consensus_flag\n")
        n = len(trajectory)
        for start in range(0, n, _CSV_CHUNK):
            rows, size = slice(start, start + _CSV_CHUNK), min(_CSV_CHUNK, n - start)
            fields = [_csv_floats(column[rows]) for column in columns]
            fields.append(_csv_floats(gap[rows] - target[rows]))
            # _csv_floats reads its chunk when called, so the bands may now
            # overwrite this chunk of jerk and target.
            ok = _bands_ok(
                gap[rows], target[rows], trajectory.v_leader_delayed[rows],
                trajectory.v_follower[rows], trajectory.a_follower[rows],
                jerk[rows], thresholds, out=flags[:size], spare=spare[:size],
            )
            fields.append(map(_CSV_FLAG.__getitem__, ok.tolist()))
            fh.write("".join(map(",".join, zip(*fields))))


def write_comparison_csv(path, reports: list[RunReport]) -> None:
    """One row per (scenario, controller) with every run metric: a flag as 0
    or 1, the gains empty when the run had none."""
    names = [f.name for f in fields(RunMetrics)]
    columns = ("scenario", "controller", "gamma", "k", "fallback_engaged", *names)
    lines = [",".join(columns)]
    for report in reports:
        gains = report.gains
        values = (report.fallback_engaged, *attrgetter(*names)(report.metrics))
        lines.append(",".join((
            report.scenario_id,
            report.controller,
            *(("", "") if gains is None else map(_csv_num, (gains.gamma, gains.k))),
            *(str(int(v)) if isinstance(v, bool) else _csv_num(v) for v in values),
        )))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def format_suite_summary(result: SuiteResult) -> str:
    """Deterministic text summary: time and jerk matrices plus verdicts."""
    by_key = {(r.scenario_id, r.controller): r.metrics for r in result.reports}

    def _matrix(title: str, cell) -> list[str]:
        """title, a controller header and a row of cell(metrics) per scenario."""
        rows = [("scenario", CONTROLLER_KINDS)] + [
            (sid, [cell(by_key[sid, kind]) for kind in CONTROLLER_KINDS])
            for sid, _, _, _ in BENCHMARK_POINTS
        ]
        text = (f"{name:<13}" + "".join(f"{c:>18}" for c in cells) for name, cells in rows)
        return [title, *text, ""]

    lines = [
        "benchmark suite summary",
        "gap band: relative error against the target spacing; consensus "
        "requires the bands to persist for the hold window",
        "",
        *_matrix(
            "convergence time (s):",
            lambda m: "n/r" if math.isinf(m.t_consensus) else f"{m.t_consensus:.2f}",
        ),
        *_matrix(
            "peak |jerk| (m/s^3):",
            lambda m: f"{max(abs(m.max_jerk), abs(m.min_jerk)):.3f}",
        ),
    ]
    for sid, faster in result.lookup_beats_fixed.items():
        verdict = "yes" if faster else "no"
        lines.append(f"lookup faster than fixed_consensus on {sid}: {verdict}")
    overall = "yes" if result.all_scenarios_beat_fixed else "no"
    lines.append(f"lookup faster than fixed_consensus on every scenario: {overall}")
    return "\n".join(lines) + "\n"
