"""Scenario runner and benchmark suite.

A scenario is one follower tracking one constant-speed leader from a given
initial gap and speed pair.  The follower's control law is chosen once at
the start: scheduled gains from a table lookup (with a linear feedback
fallback on a miss), a static consensus gain pair, or linear feedback.  The
suite runs four benchmark operating points against all three controllers
and reports convergence, comfort, and safety side by side.

A scenario runs on the table build's simulation kernel
(dynamics.FollowerRuns) as a batch of one column, so a re-run of any table
cell's operating point reproduces the builder's trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .controllers import (
    DEFAULT_FALLBACK_GAINS,
    ConsensusLaw,
    GainPair,
    LinearFeedbackGains,
    LinearFeedbackLaw,
)
from .dynamics import FollowerRuns
from .gaintable import BuildConfig, GainTable, lookup
from .metrics import (
    RunMetrics,
    Trajectory,
    consensus_flags,
    evaluate_run,
    jerk_series,
)

__all__ = [
    "ScenarioConfig",
    "BaselineConfig",
    "RunReport",
    "SuiteResult",
    "CONTROLLER_KINDS",
    "BENCHMARK_POINTS",
    "benchmark_scenarios",
    "simulate_pair",
    "run_scenario",
    "run_suite",
    "write_trajectory_csv",
    "write_comparison_csv",
    "format_suite_summary",
]

CONTROLLER_KINDS = ("lookup", "fixed_consensus", "linear_feedback")

# The keys a linear_feedback scenario may set.
_LINEAR_PARAMS = tuple(f.name for f in fields(LinearFeedbackGains))

# Benchmark operating points: (id, initial gap m, follower m/s, leader m/s).
BENCHMARK_POINTS = (
    ("scenario1", 50.0, 28.0, 14.0),
    ("scenario2", 20.0, 16.0, 22.0),
    ("scenario3", -30.0, 18.0, 10.0),
    ("scenario4", -80.0, 4.0, 21.0),
)


@dataclass
class ScenarioConfig:
    """One car-following run: initial condition plus controller choice."""

    scenario_id: str
    dr0: float
    vi0: float
    vj0: float
    duration: float = 120.0
    leader_profile: str = "constant"
    controller: str = "lookup"
    controller_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("dr0", "vi0", "vj0", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if self.vi0 < 0 or self.vj0 < 0:
            raise ValueError("initial speeds must be non-negative")
        if self.leader_profile != "constant":
            raise ValueError(
                f"unsupported leader profile {self.leader_profile!r}"
            )
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(
                f"unknown controller {self.controller!r}; expected one of "
                f"{CONTROLLER_KINDS}"
            )
        params = self.controller_params
        if self.controller == "fixed_consensus":
            for key in ("k", "gamma"):
                if key not in params:
                    raise ValueError(f"fixed_consensus needs controller param {key!r}")
        elif self.controller == "linear_feedback":
            unknown = sorted(set(params) - set(_LINEAR_PARAMS))
            if unknown:
                raise ValueError(
                    f"unknown linear_feedback controller param {unknown[0]!r}; "
                    f"expected one of {_LINEAR_PARAMS}"
                )
        elif params:
            raise ValueError(
                f"lookup controller takes no params, got {sorted(params)[0]!r}"
            )
        for key, value in params.items():
            try:
                float(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"controller param {key!r} must be a number, got {value!r}"
                ) from exc


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
    trajectory_path: str | None = None


@dataclass
class SuiteResult:
    """All suite runs plus the convergence-time ordering verdicts."""

    reports: list[RunReport]
    trajectories: dict
    lookup_beats_fixed: dict
    all_scenarios_beat_fixed: bool


def benchmark_scenarios(
    duration: float = 120.0, controller: str = "lookup"
) -> list[ScenarioConfig]:
    """The four benchmark operating points as scenario configs."""
    return [
        ScenarioConfig(
            scenario_id=sid,
            dr0=dr0,
            vi0=vi0,
            vj0=vj0,
            duration=duration,
            controller=controller,
        )
        for sid, dr0, vi0, vj0 in BENCHMARK_POINTS
    ]


def simulate_pair(
    dr0: float,
    vi0: float,
    vj0: float,
    control,
    cfg: BuildConfig,
    duration: float,
) -> Trajectory:
    """One leader-follower run: a one-column batch of the kernel.

    control is a control law (controllers.ConsensusLaw or LinearFeedbackLaw).
    The leader starts at dr0 with constant speed vj0, the follower at the
    origin at vi0 with zero acceleration.  The leader is observed through
    the communication delay, with the initial sample held before any
    delayed data exists.  Commands computed at step t land on the sample at
    t + dt.  A non-finite command anywhere in the run raises ValueError.
    """
    dt = cfg.dt
    n_steps = round(duration / dt)
    if n_steps < 1:
        raise ValueError(
            f"duration {duration!r} must span at least one step of dt {dt!r}"
        )
    n = n_steps + 1
    runs = FollowerRuns([dr0], [vi0], [vj0], control, cfg)
    # An overflowing command is reported once, by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        r_follower, v_follower, a_follower, gap = (
            series[:, 0] for series in runs.advance(n)
        )
    if not np.isfinite(a_follower).all():
        raise ValueError("non-finite value for accel_cmd in the run")
    # The kernel's running sum for the leader, undelayed.
    leader = np.full(n, vj0 * dt)
    leader[0] = dr0
    return Trajectory(
        dt=dt,
        leader_length=cfg.leader_length,
        time_gap=cfg.time_gap,
        comm_delay=cfg.comm_delay,
        v_follower=v_follower,
        a_follower=a_follower,
        gap=gap,
        v_leader_delayed=np.full(n, float(vj0)),
        t=np.arange(n) * dt,
        r_follower=r_follower,
        r_leader=np.add.accumulate(leader),
        v_leader=np.full(n, float(vj0)),
    )


def _resolve_controller(
    scenario: ScenarioConfig,
    table: GainTable | None,
    fallback_gains: LinearFeedbackGains,
):
    """Pick the control law once, at the start of the run.

    Returns (law, gains or None, fallback_engaged).
    """
    kind = scenario.controller
    params = scenario.controller_params

    if kind == "lookup":
        if table is None:
            raise ValueError("lookup controller needs a gain table")
        gains = lookup(table, scenario.dr0, scenario.vi0, scenario.vj0)
        if gains is None or not gains.valid:
            return LinearFeedbackLaw(fallback_gains), None, True
        return ConsensusLaw.of(gains), gains, False

    if kind == "fixed_consensus":
        gains = GainPair(k=float(params["k"]), gamma=float(params["gamma"]))
        return ConsensusLaw.of(gains), gains, False

    lf = LinearFeedbackGains(**{
        key: float(params.get(key, getattr(fallback_gains, key)))
        for key in _LINEAR_PARAMS
    })
    return LinearFeedbackLaw(lf), None, False


def run_scenario(
    scenario: ScenarioConfig,
    cfg: BuildConfig,
    table: GainTable | None = None,
    fallback_gains: LinearFeedbackGains = DEFAULT_FALLBACK_GAINS,
) -> tuple[RunReport, Trajectory]:
    """Run one scenario and evaluate it."""
    control, gains, fallback_engaged = _resolve_controller(
        scenario, table, fallback_gains
    )
    trajectory = simulate_pair(
        scenario.dr0, scenario.vi0, scenario.vj0, control, cfg, scenario.duration
    )
    metrics = evaluate_run(
        trajectory,
        cfg.thresholds,
        cfg.weights,
        cfg.safety_mode,
        cfg.hold_window,
    )
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
    duration: float | None = None,
) -> SuiteResult:
    """Benchmark all three controllers on the four benchmark points."""
    baselines = baselines or BaselineConfig()
    duration = duration if duration is not None else cfg.t_max
    reports: list[RunReport] = []
    trajectories: dict = {}
    times: dict = {}

    for sid, dr0, vi0, vj0 in BENCHMARK_POINTS:
        for kind in CONTROLLER_KINDS:
            params: dict = {}
            if kind == "fixed_consensus":
                params = {"gamma": baselines.fixed.gamma, "k": baselines.fixed.k}
            elif kind == "linear_feedback":
                params = {
                    key: getattr(baselines.linear, key) for key in _LINEAR_PARAMS
                }
            scenario = ScenarioConfig(
                scenario_id=sid,
                dr0=dr0,
                vi0=vi0,
                vj0=vj0,
                duration=duration,
                controller=kind,
                controller_params=params,
            )
            report, trajectory = run_scenario(
                scenario, cfg, table=table, fallback_gains=baselines.linear
            )
            reports.append(report)
            trajectories[(sid, kind)] = trajectory
            times[(sid, kind)] = report.metrics.t_consensus

    lookup_beats_fixed = {
        sid: times[(sid, "lookup")] < times[(sid, "fixed_consensus")]
        for sid, _, _, _ in BENCHMARK_POINTS
    }
    return SuiteResult(
        reports=reports,
        trajectories=trajectories,
        lookup_beats_fixed=lookup_beats_fixed,
        all_scenarios_beat_fixed=all(lookup_beats_fixed.values()),
    )


def _csv_num(value: float) -> str:
    return repr(float(value))


# One trajectory CSV row: nine floats in repr form, then the band flag.
_CSV_ROW = "%r,%r,%r,%r,%r,%r,%r,%r,%r,%d\n"


def write_trajectory_csv(path, trajectory: Trajectory, thresholds) -> None:
    """Per-step run record as CSV with LF endings.

    Columns: t, r_i, v_i, a_i, jerk_i, r_j, v_j, gap, gap_error,
    consensus_flag.  gap is the delayed-leader gap; gap_error subtracts the
    target spacing; consensus_flag is the per-sample band flag.
    """
    if trajectory.t is None or trajectory.r_follower is None:
        raise ValueError("trajectory lacks the reporting series")
    series = (
        trajectory.t,
        trajectory.r_follower,
        trajectory.v_follower,
        trajectory.a_follower,
        jerk_series(trajectory),
        trajectory.r_leader,
        trajectory.v_leader,
        trajectory.gap,
        trajectory.gap - trajectory.desired_gaps(),
    )
    columns = [np.asarray(s, dtype=float) for s in series]
    columns.append(consensus_flags(trajectory, thresholds))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,r_i,v_i,a_i,jerk_i,r_j,v_j,gap,gap_error,consensus_flag\n")
        rows = zip(*(column.tolist() for column in columns))
        fh.write("".join([_CSV_ROW % row for row in rows]))


def write_comparison_csv(path, reports: list[RunReport]) -> None:
    """One row per (scenario, controller) with every run metric."""
    header = (
        "scenario,controller,gamma,k,fallback_engaged,t_consensus,max_accel,"
        "max_decel,max_jerk,min_jerk,omega,min_gap,safety_violated"
    )
    lines = [header]
    for report in reports:
        m = report.metrics
        gamma = "" if report.gains is None else _csv_num(report.gains.gamma)
        k = "" if report.gains is None else _csv_num(report.gains.k)
        lines.append(
            ",".join(
                (
                    report.scenario_id,
                    report.controller,
                    gamma,
                    k,
                    str(int(report.fallback_engaged)),
                    _csv_num(m.t_consensus),
                    _csv_num(m.max_accel),
                    _csv_num(m.max_decel),
                    _csv_num(m.max_jerk),
                    _csv_num(m.min_jerk),
                    _csv_num(m.omega),
                    _csv_num(m.min_gap),
                    str(int(m.safety_violated)),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _cell_time(value: float) -> str:
    return "n/r" if math.isinf(value) else f"{value:.2f}"


def format_suite_summary(result: SuiteResult) -> str:
    """Deterministic text summary: time and jerk matrices plus verdicts."""
    by_key = {(r.scenario_id, r.controller): r for r in result.reports}
    scenario_ids = [sid for sid, _, _, _ in BENCHMARK_POINTS]
    lines = [
        "benchmark suite summary",
        "gap band: relative error against the target spacing; consensus "
        "requires the bands to persist for the hold window",
        "",
        "convergence time (s):",
        "scenario     " + "".join(f"{kind:>18}" for kind in CONTROLLER_KINDS),
    ]
    for sid in scenario_ids:
        row = f"{sid:<13}"
        for kind in CONTROLLER_KINDS:
            row += f"{_cell_time(by_key[(sid, kind)].metrics.t_consensus):>18}"
        lines.append(row)
    lines.append("")
    lines.append("peak |jerk| (m/s^3):")
    lines.append(
        "scenario     " + "".join(f"{kind:>18}" for kind in CONTROLLER_KINDS)
    )
    for sid in scenario_ids:
        row = f"{sid:<13}"
        for kind in CONTROLLER_KINDS:
            m = by_key[(sid, kind)].metrics
            peak = max(abs(m.max_jerk), abs(m.min_jerk))
            row += f"{peak:>18.3f}"
        lines.append(row)
    lines.append("")
    for sid in scenario_ids:
        verdict = "yes" if result.lookup_beats_fixed[sid] else "no"
        lines.append(f"lookup faster than fixed_consensus on {sid}: {verdict}")
    overall = "yes" if result.all_scenarios_beat_fixed else "no"
    lines.append(f"lookup faster than fixed_consensus on every scenario: {overall}")
    return "\n".join(lines) + "\n"
