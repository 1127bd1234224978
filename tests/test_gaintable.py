"""Tests of the gain table: build, selection, lookup, persistence."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle
import sys
from bisect import bisect_left
from dataclasses import FrozenInstanceError, astuple, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caccsim.config import load_axes
from caccsim.controllers import ConsensusLaw, GainPair, consensus_command, desired_gap
from caccsim import gaintable
from caccsim.dynamics import FollowerRuns
from caccsim.gaintable import (
    FORMAT_VERSION,
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
    TableFormatError,
    _CellScorer,
    build_table,
    load_table,
    lookup,
    save_table,
)
from caccsim.harness import ScenarioConfig, run_scenario
from caccsim.metrics import (
    ComfortWeights,
    ConsensusThresholds,
    RunMetrics,
    SafetyMode,
    _first_rows,
    _hold_scan,
    evaluate_run,
)
from run_oracle import make_trajectory, oracle_run
from table_oracle import _select_cell, oracle_cells

ROOT = Path(__file__).resolve().parents[1]


def select(metrics, pairs):
    """_select_cell fed from per-candidate RunMetrics."""
    return _select_cell(
        [m.t_consensus for m in metrics],
        [m.safety_violated for m in metrics],
        lambda i: metrics[i].omega,
        pairs,
    )


def metrics_stub(t_consensus, omega=1.0, violated=False):
    return RunMetrics(
        t_consensus=t_consensus,
        max_accel=0.0,
        max_decel=0.0,
        max_jerk=0.0,
        min_jerk=0.0,
        omega=omega,
        min_gap=20.0,
        safety_violated=violated,
    )


def test_axis_grid_validation():
    with pytest.raises(ValueError, match="ascending"):
        AxisGrid(dr=[0.0, 0.0], vi=[1.0], vj=[1.0])
    with pytest.raises(ValueError, match="ascending"):
        AxisGrid(dr=[10.0, 0.0], vi=[1.0], vj=[1.0])
    with pytest.raises(ValueError, match="empty"):
        AxisGrid(dr=[], vi=[1.0], vj=[1.0])
    assert AxisGrid(dr=[0.0], vi=[1.0, 2.0], vj=[3.0]).shape == (1, 2, 1)


def test_candidate_sets_validation_and_pair_order():
    with pytest.raises(ValueError, match="positive"):
        CandidateSets(gammas=[0.0, 1.0], ks=[0.1])
    with pytest.raises(ValueError, match="ascending"):
        CandidateSets(gammas=[2.0, 1.0], ks=[0.1])
    cands = CandidateSets(gammas=[1.0, 2.0], ks=[0.1, 0.2])
    assert cands.pairs() == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]


def test_build_config_delay_steps():
    assert BuildConfig().steps("comm_delay") == 6
    assert BuildConfig(comm_delay=0.0).steps("comm_delay") == 0
    assert BuildConfig().headway_time == 0.76
    with pytest.raises(ValueError, match="multiple"):
        BuildConfig(comm_delay=0.005)
    with pytest.raises(ValueError, match="t_max"):
        BuildConfig(t_max=0.5, hold_window=1.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("dt", {"dt": math.inf}),
        ("dt", {"dt": -math.inf}),
        ("dt", {"dt": math.nan}),
        ("t_max", {"t_max": math.inf}),
        ("comm_delay", {"comm_delay": math.inf}),
        ("comm_delay", {"comm_delay": -math.inf}),
        ("comm_delay", {"comm_delay": math.nan}),
        ("hold_window", {"hold_window": math.nan}),
        ("t_max", {"t_max": 0.005, "hold_window": 0.0}),
        ("t_max", {"t_max": 120.005}),
        ("hold_window", {"dt": 0.03, "hold_window": 1.0}),
        ("hold_window", {"hold_window": -0.5}),
        # The step ratio overflows to inf: refused, not rounded.
        ("hold_window", {"dt": 1e-320}),
        ("hold_window", {"dt": 5e-324}),
        ("leader_length", {"leader_length": math.nan}),
        ("leader_length", {"leader_length": math.inf}),
        ("leader_length", {"leader_length": -math.inf}),
        ("time_gap", {"time_gap": math.nan}),
        ("time_gap", {"time_gap": math.inf}),
        ("time_gap", {"time_gap": -math.inf}),
    ],
    ids=["dt-inf", "dt-neg-inf", "dt-nan", "t_max-inf", "comm_delay-inf",
         "comm_delay-neg-inf", "comm_delay-nan",
         "hold_window-nan", "t_max-under-one-step", "t_max-not-whole-steps",
         "hold_window-not-whole-steps", "hold_window-negative",
         "dt-tiny", "dt-smallest", "leader_length-nan", "leader_length-inf",
         "leader_length-neg-inf", "time_gap-nan", "time_gap-inf",
         "time_gap-neg-inf"],
)
def test_build_config_rejects_bad_value_naming_the_field(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} "):
        BuildConfig(**kwargs)


def test_select_cell_no_safe_candidate_is_marker():
    pairs = [(1.0, 0.1), (2.0, 0.1)]
    metrics = [metrics_stub(10.0, violated=True), metrics_stub(5.0, violated=True)]
    k, gamma = select(metrics, pairs)
    assert math.isnan(k) and math.isnan(gamma)


def test_select_cell_no_converged_candidate_is_marker():
    pairs = [(1.0, 0.1), (2.0, 0.1)]
    metrics = [metrics_stub(math.inf), metrics_stub(math.inf)]
    k, gamma = select(metrics, pairs)
    assert math.isnan(k) and math.isnan(gamma)


def test_select_cell_unique_fastest_wins_despite_worse_comfort():
    pairs = [(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)]
    metrics = [
        metrics_stub(30.0, omega=0.1),
        metrics_stub(20.0, omega=99.0),
        metrics_stub(25.0, omega=0.1),
    ]
    assert select(metrics, pairs) == (0.1, 2.0)


def test_select_cell_violating_candidate_is_excluded():
    """The fastest run loses if it crossed the gap floor."""
    pairs = [(1.0, 0.1), (2.0, 0.1)]
    metrics = [metrics_stub(10.0, violated=True), metrics_stub(40.0)]
    assert select(metrics, pairs) == (0.1, 2.0)


def test_select_cell_time_tie_broken_by_comfort():
    pairs = [(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)]
    metrics = [
        metrics_stub(20.0, omega=5.0),
        metrics_stub(20.0, omega=2.0),
        metrics_stub(20.0, omega=3.0),
    ]
    assert select(metrics, pairs) == (0.1, 2.0)


def test_select_cell_full_tie_takes_smallest_gains():
    pairs = [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1)]
    metrics = [metrics_stub(20.0), metrics_stub(20.0), metrics_stub(20.0)]
    assert select(metrics, pairs) == (0.1, 1.0)


def synthetic_column(n, vj, cfg, hold=None, violated=False, spike=0.0):
    """(v, a, gap) of a run whose bands first hold at row hold (never when
    None), that breaks the armed gap floor at row 1 when violated, and
    whose comfort score grows with the acceleration spike at row 3."""
    v = np.full(n, vj)
    a = np.zeros(n)
    a[3] = spike
    gap = desired_gap(v, cfg.leader_length, cfg.time_gap, cfg.comm_delay)
    gap[: n if hold is None else hold] += 3.0
    if violated:
        gap[1] = cfg.leader_length - 1.0
    return v, a, gap


# The six staged-selection cases above as synthetic runs, each column given
# as (hold row, violated, spike), with the pairs out of (gamma, k) order.
SCORER_CASES = {
    "no-safe-candidate": (
        [(8, True, 0.0), (5, True, 0.0)], [(2.0, 0.1), (1.0, 0.1)], None
    ),
    "no-converged-candidate": (
        [(None, False, 0.0), (None, False, 0.0)], [(2.0, 0.1), (1.0, 0.1)], None
    ),
    "unique-fastest-despite-comfort": (
        [(9, False, 0.1), (6, False, 99.0), (7, False, 0.1)],
        [(3.0, 0.1), (2.0, 0.1), (1.0, 0.1)],
        (0.1, 2.0),
    ),
    "violating-excluded": (
        [(5, True, 0.0), (10, False, 0.0)], [(2.0, 0.1), (1.0, 0.1)], (0.1, 1.0)
    ),
    "time-tie-comfort": (
        [(7, False, 5.0), (7, False, 2.0), (7, False, 3.0)],
        [(3.0, 0.1), (1.0, 0.1), (2.0, 0.1)],
        (0.1, 1.0),
    ),
    "full-tie-smallest-gains": (
        [(7, False, 1.0), (7, False, 1.0), (7, False, 1.0)],
        [(2.0, 0.1), (1.0, 0.2), (1.0, 0.1)],
        (0.1, 1.0),
    ),
}


@pytest.mark.parametrize("case", list(SCORER_CASES))
def test_cell_scorer_selects_as_the_staged_rule(case):
    """Each staged-selection case, run through the build's own scorer in two
    blocks: the stored gains match, and after each decide every open column
    can still win: it has not converged, and its first armed violation, if
    any, is after the start of its current band run."""
    specs, pairs, want = SCORER_CASES[case]
    cfg = BuildConfig(dt=0.5, t_max=100.0, comm_delay=0.5, hold_window=0.0)
    n, vj = 12, 10.0
    columns = [synthetic_column(n, vj, cfg, *spec) for spec in specs]
    v, a, gap = (np.stack(series, axis=1) for series in zip(*columns))
    runs = [
        make_trajectory(*column, np.full(n, vj), dt=cfg.dt, comm_delay=cfg.comm_delay,
                        hold_window=cfg.hold_window)
        for column in columns
    ]
    scorer = _CellScorer(np.full(len(specs), vj), pairs, n, cfg, runs.__getitem__)
    for lo, hi in ((0, 6), (6, n)):
        cols = scorer.cols
        scorer.runs.score(v[lo:hi, cols], a[lo:hi, cols], gap[lo:hi, cols])
        scorer.decide()
        assert (scorer.runs.first_hold < 0).all()
        assert (scorer.runs.first_violation > scorer.runs.last_break + 1).all()
    assert len(scorer.cols) == 0
    got = (scorer.k[0], scorer.gamma[0])
    want = (math.nan, math.nan) if want is None else want
    assert np.array_equal(got, want, equal_nan=True)
    metrics = [evaluate_run(run) for run in runs]
    assert [(m.t_consensus, m.safety_violated) for m in metrics] == [
        (math.inf if hold is None else hold * cfg.dt, violated)
        for hold, violated, _ in specs
    ]
    assert np.array_equal(got, select(metrics, pairs), equal_nan=True)


def test_batch_simulation_matches_manual_scalar_loop():
    """One batched column, advanced in uneven blocks, equals a hand-written
    scalar loop bit for bit: alone (the kernel's float loop) and as the
    middle column of three (its array loop)."""
    cfg = BuildConfig(t_max=10.0)
    dr0, vi0, vj0, gamma, k = 30.0, 24.0, 18.0, 3.0, 0.1
    delay = cfg.steps("comm_delay")
    n = round(cfg.t_max / cfg.dt)
    alone = FollowerRuns([dr0], [vi0], [vj0], ConsensusLaw([gamma], [k]), cfg)
    law = ConsensusLaw([7.0, gamma, 1.0], [0.4, k, 0.05])
    batch = FollowerRuns([12.0, dr0, 45.0], [20.0, vi0, 9.0], [22.0, vj0, 15.0], law, cfg)
    ri, vi, accel, rj = 0.0, vi0, 0.0, dr0
    leader = [rj]
    rs, vs, accels, gaps = [], [], [], []
    for idx in range(n + 1):
        delayed_rj = leader[idx - delay] if idx >= delay else leader[0]
        rs.append(ri)
        vs.append(vi)
        accels.append(accel)
        gaps.append(delayed_rj - ri)
        if idx == n:
            break
        cmd = consensus_command(
            ri, delayed_rj, vi, vj0, cfg.leader_length, cfg.headway_time, k, gamma
        )
        ri, vi = ri + vi * cfg.dt, vi + cmd * cfg.dt
        accel = cmd
        rj = rj + vj0 * cfg.dt
        leader.append(rj)
    for runs, col in ((alone, 0), (batch, 1)):
        blocks = [
            [s.copy() for s in runs.advance(rows)]
            for rows in (1, delay, 2, 256, n + 1 - delay - 259)
        ]
        r_b, v_b, a_b, gap_b = (np.concatenate(series) for series in zip(*blocks))
        assert r_b[:, col].tolist() == rs
        assert v_b[:, col].tolist() == vs
        assert a_b[:, col].tolist() == accels
        assert gap_b[:, col].tolist() == gaps


# Follower accelerations of the random runs: two inside the acceleration
# band, two outside it on either side.  Swapping the two outside values
# changes no band flag (the jerk band breaks next to either), only comfort.
PROPERTY_ACCELS = np.array([0.0, 0.0004, 0.5, -0.7])


def draw_column(data, n, vj, cfg):
    """Random (v, a, gap) series: noise until a settling row, in band after,
    plus one glitch row anywhere."""
    codes = data.draw(arrays(np.int8, (n, 3), elements=st.integers(0, 3)))
    settle = data.draw(st.integers(0, n))
    codes[settle:] = 0
    glitch = data.draw(st.integers(0, n - 1))
    codes[glitch] = data.draw(arrays(np.int8, 3, elements=st.integers(0, 3)))
    v = np.where(codes[:, 0] == 1, 1.5 * vj + 1.0, vj)
    desired = desired_gap(v, cfg.leader_length, cfg.time_gap, cfg.comm_delay)
    floor = np.full(n, cfg.leader_length)
    gap = np.choose(codes[:, 1], [desired, desired + 3.0, floor - 1.0, floor + 0.5])
    return v, PROPERTY_ACCELS[codes[:, 2]], gap


def same_metrics(got, want):
    """RunMetrics equal field by field, NaN equal to NaN."""
    return np.array_equal(astuple(got), astuple(want), equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_streaming_decision_matches_per_column_evaluation(data):
    """Random runs: evaluate_run of each whole run equals the whole-array
    oracle in every field; scored in random blocks, each column's carried
    outcome matches the oracle's, and each cell, whichever block settles it,
    gets the gains _select_cell picks from the oracle's evaluations."""
    n = data.draw(st.integers(2, 40), label="samples")
    window = data.draw(st.integers(0, 4), label="hold window rows")
    mode = data.draw(st.sampled_from(list(SafetyMode)))
    n_cells = data.draw(st.integers(1, 3))
    n_cand = data.draw(st.integers(1, 4))
    pairs = data.draw(st.permutations([(float(g), 0.1) for g in range(1, n_cand + 1)]))
    cfg = BuildConfig(dt=0.5, t_max=100.0, comm_delay=0.5, hold_window=0.5 * window,
                      safety_mode=mode)

    columns, vj = [], []
    for _ in range(n_cells):
        cell_vj = data.draw(st.sampled_from([0.0, 10.0, 20.0]))
        first = len(columns)
        for cand in range(n_cand):
            source = data.draw(st.sampled_from([None, *range(first, first + cand)]))
            if source is None:
                columns.append(draw_column(data, n, cell_vj, cfg))
            else:  # a time tie, broken by comfort or by pair order
                v, a, gap = columns[source]
                if data.draw(st.booleans()):
                    a = np.where(a == 0.5, -0.7, np.where(a == -0.7, 0.5, a))
                columns.append((v, a, gap))
            vj.append(cell_vj)
    v, a, gap = (np.stack(series, axis=1) for series in zip(*columns))

    runs = [
        make_trajectory(
            v[:, col], a[:, col], gap[:, col], np.full(n, vj[col]), dt=cfg.dt,
            leader_length=cfg.leader_length, time_gap=cfg.time_gap,
            comm_delay=cfg.comm_delay, hold_window=cfg.hold_window,
            safety_mode=cfg.safety_mode,
        )
        for col in range(len(vj))
    ]
    args = (cfg.thresholds, cfg.weights, cfg.safety_mode, cfg.hold_window)
    metrics = [oracle_run(run, *args) for run in runs]
    for run, want in zip(runs, metrics):
        assert same_metrics(evaluate_run(run), want)
    expected = [
        select(metrics[cell * n_cand : (cell + 1) * n_cand], pairs)
        for cell in range(n_cells)
    ]
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="block cuts"))
    blocks = list(zip([0, *cuts], [*cuts, n]))

    # Scored to the end without settling, every column's carried outcome
    # matches the oracle's evaluation of its run.
    whole = _CellScorer(np.array(vj), pairs, n, cfg, runs.__getitem__)
    for lo, hi in blocks:
        whole.runs.score(v[lo:hi], a[lo:hi], gap[lo:hi])
    for col, m in enumerate(metrics):
        hold = int(whole.runs.first_hold[col])
        assert (hold >= 0) == m.consensus_reached
        end = hold if hold >= 0 else n - 1
        if hold >= 0:
            assert hold * cfg.dt == m.t_consensus
        assert (whole.runs.first_violation[col] <= end) == m.safety_violated
        above = gap[:, col] > cfg.leader_length
        if mode is SafetyMode.SAME_LANE:
            assert whole.runs.arm_row[col] == 0
        else:
            assert whole.runs.arm_row[col] == (above.argmax() if above.any() else n)
        assert whole._comfort(col) == m.omega

    scorer = _CellScorer(np.array(vj), pairs, n, cfg, runs.__getitem__)
    for lo, hi in blocks:
        cols = scorer.cols
        scorer.runs.score(v[lo:hi, cols], a[lo:hi, cols], gap[lo:hi, cols])
        open_cells = np.unique(cols // n_cand)
        scorer.decide()
        for cell in np.setdiff1d(open_cells, scorer.cols // n_cand):
            got = (scorer.k[cell], scorer.gamma[cell])
            assert np.array_equal(got, expected[cell], equal_nan=True), (cell, hi)
    assert len(scorer.cols) == 0


def unsafe_at_consensus_cell():
    """One cell of two columns, scored over its first two rows and decided:
    column 0 arms at row 0 and converges on the gap floor at row 1; column 1
    never arms and converges at row 2.  Returns the scorer and the gaps."""
    cfg = BuildConfig(dt=0.5, t_max=100.0, comm_delay=0.5, hold_window=0.0)
    floor = cfg.leader_length  # the desired gap at standstill
    gap = np.array([[floor + 0.5, floor - 1.0], [floor, floor - 1.0], [floor, floor]])
    gap = np.vstack([gap, np.full((3, 2), floor)])
    scorer = _CellScorer(np.zeros(2), [(1.0, 0.1), (2.0, 0.1)], len(gap), cfg, None)
    scorer.runs.score(np.zeros((2, 2)), np.zeros((2, 2)), gap[:2])
    scorer.decide()
    return scorer, gap


def test_scorer_keeps_a_cell_open_past_a_run_unsafe_at_its_consensus_row():
    """A run whose first violation is its consensus row is unsafe, so a
    slower safe run can still win the cell."""
    scorer, gap = unsafe_at_consensus_cell()
    assert np.unique(scorer.cols // 2).tolist() == [0]
    scorer.runs.score(np.zeros((4, 1)), np.zeros((4, 1)), gap[2:, scorer.cols])
    scorer.decide()
    assert len(scorer.cols) == 0
    assert (scorer.k[0], scorer.gamma[0]) == (0.1, 2.0)


def test_scorer_drops_a_run_unsafe_at_its_consensus_row_while_its_cell_is_open():
    """The unsafe run leaves the batch at the first decide, before its cell
    settles, and the cell's other run steps on alone."""
    scorer, _ = unsafe_at_consensus_cell()
    assert scorer.cols.tolist() == [1]
    assert scorer.runs.first_hold.tolist() == [-1]
    assert math.isnan(scorer.k[0]) and math.isnan(scorer.gamma[0])


@pytest.mark.parametrize("cut", [6, 7, None])
def test_scorer_jerk_across_a_block_boundary_is_in_units_of_dt(cut):
    """An acceleration step of 0.0004 m/s^2 in one row of dt 0.01 s is a jerk
    of 0.04 m/s^3, out of band, whether or not a block starts at that row:
    the first sustained index is the row after it, as evaluate_run finds."""
    cfg = BuildConfig(dt=0.01, t_max=1.0, hold_window=0.02)
    n, vj = 12, 10.0
    v = np.full(n, vj)
    gap = desired_gap(v, cfg.leader_length, cfg.time_gap, cfg.comm_delay)
    gap[:5] += 3.0  # out of the gap band before row 5
    a = np.where(np.arange(n) >= 6, 0.0004, 0.0)
    metrics = evaluate_run(
        make_trajectory(
            v, a, gap, np.full(n, vj), dt=cfg.dt, leader_length=cfg.leader_length,
            time_gap=cfg.time_gap, comm_delay=cfg.comm_delay,
            hold_window=cfg.hold_window,
        )
    )
    assert metrics.t_consensus == 7 * cfg.dt
    scorer = _CellScorer(np.array([vj]), [(1.0, 0.1)], n, cfg, None)
    for lo, hi in ((0, cut), (cut, n)) if cut else ((0, n),):
        scorer.runs.score(v[lo:hi, None], a[lo:hi, None], gap[lo:hi, None])
    assert scorer.runs.first_hold.tolist() == [7]


@pytest.fixture(scope="module")
def mixed_grid():
    """A short-horizon grid with every kind of cell: valid ones, markers
    where every candidate breaks the gap floor within 50 steps, and markers
    where no candidate converges before t_max."""
    axes = AxisGrid(dr=[6.0, 13.0], vi=[10.0, 30.0], vj=[5.0, 10.0, 11.0])
    candidates = CandidateSets(gammas=[2.0, 5.0], ks=[0.1, 0.2])
    return axes, candidates, BuildConfig(t_max=20.0)


def per_cell_oracle(axes, candidates, cfg):
    """Per-cell gains from single scenario runs, evaluate_run and
    _select_cell, and the set of cell kinds seen."""
    k_cells = np.full(axes.shape, math.nan)
    gamma_cells = np.full(axes.shape, math.nan)
    kinds = set()
    for i1, i2, i3 in np.ndindex(axes.shape):
        metrics, early_floor = [], []
        for gamma, k in candidates.pairs():
            scenario = ScenarioConfig(
                "cell", float(axes.dr[i1]), float(axes.vi[i2]), float(axes.vj[i3]),
                controller="fixed_consensus",
                gains=GainPair(k=k, gamma=gamma),
            )
            report, traj = run_scenario(scenario, cfg)
            metrics.append(report.metrics)
            early_floor.append(bool((traj.gap[:50] <= cfg.leader_length).any()))
        pair = select(metrics, candidates.pairs())
        k_cells[i1, i2, i3], gamma_cells[i1, i2, i3] = pair
        if not math.isnan(pair[0]):
            kinds.add("valid")
        elif all(m.safety_violated for m in metrics) and all(early_floor):
            kinds.add("early-floor marker")
        elif not any(m.consensus_reached for m in metrics):
            kinds.add("unconverged marker")
    return k_cells, gamma_cells, kinds


@pytest.fixture(scope="module")
def mixed_grid_oracle(mixed_grid):
    return per_cell_oracle(*mixed_grid)


@pytest.fixture(scope="module")
def mixed_grid_oracles(mixed_grid, mixed_grid_oracle):
    """Build settings and per-cell oracle of the mixed grid per safety mode."""
    axes, candidates, cfg = mixed_grid
    same_lane = replace(cfg, safety_mode=SafetyMode.SAME_LANE)
    return {
        cfg.safety_mode: (cfg, mixed_grid_oracle),
        SafetyMode.SAME_LANE: (same_lane, per_cell_oracle(axes, candidates, same_lane)),
    }


def test_mixed_grid_has_every_kind_of_cell(mixed_grid_oracle):
    _, _, kinds = mixed_grid_oracle
    assert kinds == {"valid", "early-floor marker", "unconverged marker"}


@pytest.mark.parametrize(
    "cell_chunk, workers",
    [(1, 1), (3, 1), (gaintable._CELL_CHUNK, 1), (3, 2)],
    ids=["chunk-1", "chunk-3", "default", "workers-2"],
)
def test_build_with_markers_matches_per_cell_oracle(
    mixed_grid, mixed_grid_oracle, monkeypatch, cell_chunk, workers
):
    k_cells, gamma_cells, _ = mixed_grid_oracle
    monkeypatch.setattr(gaintable, "_CELL_CHUNK", cell_chunk)
    table = build_table(*mixed_grid, workers=workers)
    assert np.array_equal(table.k_cells, k_cells, equal_nan=True)
    assert np.array_equal(table.gamma_cells, gamma_cells, equal_nan=True)


@pytest.mark.parametrize("mode", list(SafetyMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("block_steps", [1, 7, 100, 101, 256])
def test_build_matches_per_cell_oracle_at_any_block_length(
    mixed_grid, mixed_grid_oracles, monkeypatch, block_steps, mode
):
    """Blocks shorter than, equal to and longer than the hold window (100
    rows) settle every cell as the per-cell oracle does, in both modes."""
    axes, candidates, _ = mixed_grid
    cfg, (k_cells, gamma_cells, _) = mixed_grid_oracles[mode]
    monkeypatch.setattr(gaintable, "_BLOCK_STEPS", block_steps)
    table = build_table(axes, candidates, cfg)
    assert np.array_equal(table.k_cells, k_cells, equal_nan=True)
    assert np.array_equal(table.gamma_cells, gamma_cells, equal_nan=True)


def sliding_hold(ok, w, lo, last_break):
    """The hold test by a row-by-row scan: held[r] when the in-band run
    ending at row lo + r is at least w + 1 rows long, a row before lo being
    in band iff it follows last_break; and each column's last break."""
    n, m = ok.shape
    held = np.zeros((n, m), dtype=bool)
    breaks = last_break.copy()
    for c in range(m):
        run = 0
        for row in range(lo - w, lo + n):
            in_band = ok[row - lo, c] if row >= lo else row > last_break[c]
            run = run + 1 if in_band else 0
            if row >= lo:
                held[row - lo, c] = run >= w + 1
                if not in_band:
                    breaks[c] = row
    return held, breaks


@st.composite
def band_blocks(draw, max_columns=3):
    """Bool columns made of alternating runs of 1 to 130 rows."""
    n = draw(st.integers(1, 400), label="rows")
    m = draw(st.integers(1, max_columns), label="columns")
    columns = []
    for _ in range(m):
        value, flags = draw(st.booleans()), []
        while len(flags) < n:
            flags += [value] * draw(st.integers(1, 130))
            value = not value
        columns.append(flags[:n])
    return np.array(columns, dtype=bool).T.copy()


@settings(max_examples=200, deadline=None)
@given(ok=band_blocks(), w=st.integers(0, 130), data=st.data())
def test_hold_scan_matches_a_sliding_scan(ok, w, data):
    """The running-maximum hold test, its last break and the first held row
    equal a row-by-row scan, for hold windows of 1 to 131 rows and any
    carried last break."""
    lo = 0
    n, m = ok.shape
    last_break = np.array(
        data.draw(st.lists(st.integers(lo - w - 2, lo - 1), min_size=m, max_size=m))
    )
    want_held, want_breaks = sliding_hold(ok, w, lo, last_break)

    broke = np.empty((n, m), dtype=np.int64)
    held, breaks = _hold_scan(ok.copy(), w, lo, last_break, broke)
    assert np.array_equal(held, want_held)
    assert np.array_equal(breaks, want_breaks)

    first_hold = np.full(m, -1)
    _first_rows(held, first_hold < 0, first_hold, lo - w)
    want_first = np.where(
        want_held.any(axis=0), lo + want_held.argmax(axis=0) - w, -1
    )
    assert np.array_equal(first_hold, want_first)


@settings(max_examples=200, deadline=None)
@given(ok=band_blocks(max_columns=6), w=st.integers(0, 130), data=st.data())
def test_hold_scan_of_a_column_subset_matches_the_whole_window(ok, w, data):
    """The hold test run on a subset of the columns, as the scorer runs it
    on the columns in their jerk and acceleration bands somewhere in the
    block, gives those columns' held rows and last breaks of the scan over
    every column and of the row-by-row scan."""
    n, m = ok.shape
    lo = data.draw(st.integers(0, 300), label="lo")
    last_break = np.array(
        data.draw(st.lists(st.integers(lo - w - 2, lo - 1), min_size=m, max_size=m))
    )
    cols = np.flatnonzero(data.draw(
        st.lists(st.booleans(), min_size=m, max_size=m).filter(any), label="subset"
    ))
    want_held, want_breaks = sliding_hold(ok, w, lo, last_break)

    broke = np.empty((n, m), dtype=np.int64)
    whole_held, whole_breaks = _hold_scan(ok.copy(), w, lo, last_break, broke)
    broke = np.empty((n, len(cols)), dtype=np.int64)
    held, breaks = _hold_scan(ok[:, cols], w, lo, last_break[cols], broke)
    assert np.array_equal(held, whole_held[:, cols])
    assert np.array_equal(held, want_held[:, cols])
    assert np.array_equal(breaks, whole_breaks[cols])
    assert np.array_equal(breaks, want_breaks[cols])


def test_time_tie_comfort_comes_from_re_simulated_runs(monkeypatch):
    """The shipped grid's one time tie (dr 80, vi 34, vj 6; gamma 5 and 6
    converge together): the comfort scores the build compares, taken from
    re-simulated runs, equal evaluate_run's over single scenario runs."""
    axes = AxisGrid(dr=[80.0], vi=[34.0], vj=[6.0])
    candidates = CandidateSets(gammas=[5.0, 6.0], ks=[0.1])
    cfg = BuildConfig()
    asked = {}
    real_comfort = _CellScorer._comfort

    def recording_comfort(scorer, column):
        pair = scorer.pairs[column % len(scorer.pairs)]
        asked[pair] = real_comfort(scorer, column)
        return asked[pair]

    monkeypatch.setattr(_CellScorer, "_comfort", recording_comfort)
    table = build_table(axes, candidates, cfg)
    expected = {}
    for gamma, k in candidates.pairs():
        scenario = ScenarioConfig(
            "tie", 80.0, 34.0, 6.0, controller="fixed_consensus",
            gains=GainPair(k=k, gamma=gamma),
        )
        expected[(gamma, k)] = run_scenario(scenario, cfg)[0].metrics.omega
    assert asked == expected
    assert expected[(5.0, 0.1)] != expected[(6.0, 0.1)]
    assert table.cell(0, 0, 0) == GainPair(k=0.1, gamma=5.0)


def test_build_tiny_table_shape_and_membership(tiny_table, tiny_candidates):
    assert tiny_table.shape == (2, 2, 2)
    assert int(tiny_table.valid_mask().sum()) == 8
    allowed = set(tiny_candidates.pairs())
    assert set(tiny_table.distinct_valid_pairs()) <= allowed


def test_build_is_deterministic_across_chunking(
    tiny_table, tiny_axes, tiny_candidates, tiny_cfg, monkeypatch
):
    monkeypatch.setattr(gaintable, "_CELL_CHUNK", 3)
    rebuilt = build_table(tiny_axes, tiny_candidates, tiny_cfg)
    assert rebuilt == tiny_table


def test_build_is_deterministic_across_workers(
    tiny_table, tiny_axes, tiny_candidates, tiny_cfg, monkeypatch
):
    monkeypatch.setattr(gaintable, "_CELL_CHUNK", 3)  # three tasks for the pool
    rebuilt = build_table(tiny_axes, tiny_candidates, tiny_cfg, workers=2)
    assert rebuilt == tiny_table


def test_build_pool_has_no_more_workers_than_tasks(
    tiny_table, tiny_axes, tiny_candidates, tiny_cfg, monkeypatch
):
    """A fork pool starts every worker at its first task, so 300 workers
    asked for three chunks start three, and one chunk runs in this
    process; the table is the same.  The pool is a stand-in that records
    its size and maps in this process, starting no worker."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(gaintable, "ProcessPoolExecutor", RecordingPool)
    for chunk in (3, 8):  # three chunks of the 8 cells, then one
        monkeypatch.setattr(gaintable, "_CELL_CHUNK", chunk)
        assert build_table(tiny_axes, tiny_candidates, tiny_cfg, workers=300) == tiny_table
    assert sizes == [3]


def test_build_rejects_bad_worker_count(tiny_axes, tiny_candidates, tiny_cfg):
    with pytest.raises(ValueError, match="workers"):
        build_table(tiny_axes, tiny_candidates, tiny_cfg, workers=0)


def test_gain_table_rejects_mismatched_markers(tiny_candidates, tiny_cfg):
    k_cells = np.full((1, 1, 1), math.nan)
    gamma_cells = np.full((1, 1, 1), 2.0)
    with pytest.raises(ValueError, match="markers disagree"):
        GainTable(
            axes=AxisGrid(dr=[0.0], vi=[1.0], vj=[1.0]),
            candidates=tiny_candidates,
            config=tiny_cfg,
            k_cells=k_cells,
            gamma_cells=gamma_cells,
        )


@pytest.mark.parametrize("name", ["k_cells", "gamma_cells"])
def test_gain_table_rejects_cells_of_the_wrong_size(tiny_candidates, tiny_cfg, name):
    cells = {"k_cells": np.ones(2), "gamma_cells": np.ones(2), name: np.ones(3)}
    with pytest.raises(ValueError, match=f"{name} has 3 values, but the axes have 2 cells"):
        GainTable(
            axes=AxisGrid(dr=[0.0, 1.0], vi=[1.0], vj=[1.0]),
            candidates=tiny_candidates,
            config=tiny_cfg,
            **cells,
        )


@pytest.mark.parametrize(
    "k, gamma",
    [(-0.1, 2.0), (0.1, 0.0), (math.inf, 2.0), (0.1, -math.inf), (0.0, -1.0)],
)
def test_gain_table_refuses_an_invalid_cell_naming_it(
    tiny_candidates, tiny_cfg, k, gamma
):
    """A cell that is not a marker must hold candidate gains, which are all
    valid; the first bad cell in row-major order is named by its indices
    when the table is built, not at its first lookup."""
    k_cells, gamma_cells = np.full((2, 1, 3), 0.1), np.full((2, 1, 3), 2.0)
    k_cells[0, 0, 1] = gamma_cells[0, 0, 1] = math.nan
    k_cells[1, 0, 1], gamma_cells[1, 0, 1] = k, gamma
    k_cells[1, 0, 2] = -5.0  # a later bad cell is not the one named
    with pytest.raises(ValueError) as caught:
        GainTable(
            axes=AxisGrid(dr=[0.0, 1.0], vi=[1.0], vj=[1.0, 2.0, 3.0]),
            candidates=tiny_candidates,
            config=tiny_cfg,
            k_cells=k_cells,
            gamma_cells=gamma_cells,
        )
    assert type(caught.value) is TableFormatError
    assert str(caught.value) == (
        f"cell (1, 0, 1): stored gains (gamma={gamma!r}, k={k!r}) "
        "are not candidate members"
    )


def test_snap_takes_the_nearer_value_with_ties_to_the_smaller():
    grid = [10.0, 20.0, 40.0]
    assert AxisGrid(dr=grid, vi=[0.0], vj=[0.0])._dr_cuts == (
        math.nextafter(10.0, -math.inf), 15.0, 30.0, 40.0
    )
    assert snap(grid, 10.0) == 0
    assert snap(grid, 40.0) == 2
    assert snap(grid, 14.9) == 0
    assert snap(grid, 15.1) == 1
    assert snap(grid, 15.0) == 0  # tie toward the smaller value
    assert snap(grid, 30.0) == 1  # tie toward the smaller value
    assert snap(grid, 9.999) is None
    assert snap(grid, 40.001) is None
    assert snap(grid, math.nan) is None


def test_axis_grid_arrays_are_read_only():
    """lookup bisects tuples made from the arrays, so they must not change."""
    dr = np.array([0.0, 1.0])
    axes = AxisGrid(dr=dr, vi=[2.0], vj=[3.0])
    for arr in (axes.dr, axes.vi, axes.vj):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 9.0
    assert dr.flags.writeable  # the caller's array is copied, not frozen


def index_table(axes, markers=()):
    """A table whose cell at flat index i holds k = i + 1, so a hit names its
    cell, except the flat indices in markers, which hold the NaN marker.  Its
    candidates are gamma 1 and k 1 .. n, so it holds only members."""
    n = int(np.prod(axes.shape))
    k_cells = np.arange(1.0, n + 1.0)
    gamma_cells = np.ones(n)
    at = np.asarray(sorted(markers), dtype=int)
    k_cells[at] = gamma_cells[at] = math.nan
    return GainTable(
        axes=axes,
        candidates=CandidateSets(gammas=[1.0], ks=np.arange(1.0, n + 1.0)),
        config=BuildConfig(),
        k_cells=k_cells,
        gamma_cells=gamma_cells,
    )


def snap(grid, query):
    """The index lookup snaps query to on the dr axis grid, or None on a miss."""
    table = index_table(AxisGrid(dr=grid, vi=[0.0], vj=[0.0]))
    pair = lookup(table, query, 0.0, 0.0)
    return None if pair is None else int(pair.k) - 1


def axis_snap(cuts, query):
    """One axis of lookup: None when the query bisects the axis's cut tuple
    to either end (outside [first, last], or NaN), else the grid index, one
    less than the place it bisects to."""
    i = bisect_left(cuts, query)
    return i - 1 if 0 < i < len(cuts) else None


def scan(grid, query):
    """The nearest-index rule by a linear scan: None when the query is NaN or
    outside the grid, else the first grid value at or above the query or the
    one below it, whichever the two subtractions put nearer; ties go to the
    smaller value.  (An argmin over rounded distances is no oracle: on
    [-1, 0, 5e-324, 1] all three distances from 0.5 round to 0.5, and the
    nearest, 5e-324, is not the first.)"""
    if not (math.isfinite(query) and grid[0] <= query <= grid[-1]):
        return None
    i = next(i for i, value in enumerate(grid) if value >= query)
    if i == 0:
        return 0
    return i - 1 if query - grid[i - 1] <= grid[i] - query else i


ascending_grids = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=12, unique=True
).map(sorted)


def axis_queries(grid):
    lo, hi = grid[0], grid[-1]
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])] or grid
    # Lookup takes floats: past 2**53 an int is drawn as the float it rounds
    # to, since the scan's subtractions would round it and the bisection not.
    ints = st.integers(math.floor(lo) - 2, math.ceil(hi) + 2)
    if not -(2**53) <= lo <= hi <= 2**53:
        ints = ints.map(float)
    return st.one_of(
        st.sampled_from(grid),
        st.sampled_from(mids),
        st.sampled_from([
            0.0, -0.0, math.inf, -math.inf, math.nan,
            math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
        ]),
        ints,
        st.floats(lo - 10, hi + 10),
    )


# Floats of every scale: subnormals, the largest finite values, both signs.
any_scale = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([
        -sys.float_info.max, -1.7e308, -5e-324, -0.0, 0.0, 5e-324, 1.7e308,
        sys.float_info.max,
    ]),
)
any_scale_grids = st.lists(any_scale, min_size=1, max_size=8, unique=True).map(sorted)
symmetric_grids = any_scale_grids.map(
    lambda grid: sorted({abs(x) for x in grid} | {-abs(x) for x in grid})
)


def float_run(start, length):
    """length neighbouring floats upward from start."""
    run = [start]
    for _ in range(length - 1):
        run.append(math.nextafter(run[-1], math.inf))
    return run


# Neighbouring floats, whose cuts stop the bisection at once: through 0 and
# among the subnormals, or from a start of any scale.
neighbour_runs = st.builds(
    float_run,
    st.one_of(st.integers(-8, 2).map(lambda i: i * 5e-324), any_scale),
    st.integers(2, 8),
).filter(lambda run: math.isfinite(run[-1]))
# The widest grid: b - a overflows, so the start band is clamped to [a, b].
widest_grid = st.just([-sys.float_info.max, sys.float_info.max])


SHIPPED_AXES = load_axes(ROOT / "configs" / "axes_default.ini")
SHIPPED_TABLE = index_table(
    SHIPPED_AXES, markers=range(0, int(np.prod(SHIPPED_AXES.shape)), 5)
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lookup_matches_a_full_scan(data):
    """On the shipped axes and on random ones, of moderate values or of
    every scale (where the float below -max is -inf): grid values,
    midpoints, signed zeros, infinities, NaN, ints and one ulp outside
    either end.  Both kinds of table hold marker cells.  The expected gains
    are a GainPair built here from the two floats in the nearest cell, so
    the oracle shares nothing with GainTable.cell."""
    if data.draw(st.booleans(), label="shipped axes"):
        table = SHIPPED_TABLE
    else:
        grids = st.one_of(ascending_grids, any_scale_grids, symmetric_grids)
        axes = AxisGrid(*(data.draw(grids) for _ in range(3)))
        n = int(np.prod(axes.shape))
        markers = data.draw(st.sets(st.integers(0, n - 1)), label="marker cells")
        table = index_table(axes, markers)
    axes = table.axes
    grids = (axes.dr.tolist(), axes.vi.tolist(), axes.vj.tolist())
    query = [data.draw(axis_queries(grid)) for grid in grids]
    expected = [scan(grid, q) for grid, q in zip(grids, query)]
    cut_tuples = (axes._dr_cuts, axes._vi_cuts, axes._vj_cuts)
    for cuts, q, want in zip(cut_tuples, query, expected):
        assert axis_snap(cuts, q) == want
    got = lookup(table, *query)
    if None in expected:
        assert got is None
    else:
        k = table.k_cells.item(*expected)
        gamma = table.gamma_cells.item(*expected)
        if math.isnan(k):
            assert got is not None and not got.valid
            assert math.isnan(got.k) and math.isnan(got.gamma)
        else:
            assert got == GainPair(k=k, gamma=gamma)


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_scale_grids, symmetric_grids, neighbour_runs, widest_grid))
def test_cuts_snap_down_and_the_next_float_snaps_up(grid):
    """The tuple runs from the float below the first value to the last
    value.  Each cut between lies in [grid[j], grid[j+1]); the scan oracle
    snaps it to grid[j] and the next float up to grid[j+1], and so does
    lookup."""
    below, *cuts, last = AxisGrid(dr=grid, vi=[0.0], vj=[0.0])._dr_cuts
    assert (below, last) == (math.nextafter(grid[0], -math.inf), grid[-1])
    assert len(cuts) == len(grid) - 1
    for j, cut in enumerate(cuts):
        above = math.nextafter(cut, math.inf)
        assert grid[j] <= cut < grid[j + 1]
        assert scan(grid, cut) == snap(grid, cut) == j
        assert scan(grid, above) == snap(grid, above) == j + 1


def test_cut_far_from_the_midpoint():
    """Around a midpoint near 0 the cut can lie nearly 2^62 floats away from it."""
    assert AxisGrid(dr=[-1.0, 1.0], vi=[0.0], vj=[0.0])._dr_cuts[1:-1] == (2.0**-54,)
    assert snap([-1.0, 1.0], 2.0**-54) == 0
    assert snap([-1.0, 1.0], math.nextafter(2.0**-54, 1.0)) == 1


def test_pickled_axis_grid_answers_lookups_the_same():
    """Build tasks send the grid to worker processes by pickle."""
    axes = AxisGrid(dr=[-1.0, 1.0, 2.5], vi=[0.0, 3.0], vj=[1e-310, 7.0, 9.0])
    copy = pickle.loads(pickle.dumps(axes))
    assert copy == axes
    assert (copy._dr_cuts, copy._vi_cuts, copy._vj_cuts) == (
        axes._dr_cuts, axes._vi_cuts, axes._vj_cuts
    )
    assert not copy.dr.flags.writeable
    table, copied = index_table(axes, markers={1}), index_table(copy, markers={1})
    rng = np.random.default_rng(3)
    for query in rng.uniform([-1.5, -0.5, -1.0], [3.0, 3.5, 10.0], size=(500, 3)).tolist():
        assert lookup(copied, *query) == lookup(table, *query)


@pytest.mark.parametrize(
    "index",
    [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-3, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 3)],
)
def test_cell_outside_the_shape_raises_index_error(index):
    """The cell index lookup reads is padded with None all round; cell reads
    only the cells inside the shape and wraps no negative index."""
    table = index_table(AxisGrid(dr=[0.0, 1.0], vi=[2.0], vj=[3.0, 4.0, 5.0]))
    for flat, inside in enumerate(np.ndindex(table.shape)):
        assert table.cell(*inside) == GainPair(k=flat + 1.0, gamma=1.0)
    with pytest.raises(IndexError, match=r"outside 2x1x3$"):
        table.cell(*index)


def test_lookup_exact_and_nearest(tiny_table):
    exact = lookup(tiny_table, 10.0, 10.0, 10.0)
    assert exact == tiny_table.cell(0, 0, 0)
    snapped = lookup(tiny_table, 13.0, 11.0, 12.0)
    assert snapped == tiny_table.cell(0, 0, 0)  # 12.0 ties toward vj=10
    assert lookup(tiny_table, 25.0, 10.0, 10.0) is None
    assert lookup(tiny_table, 10.0, 9.0, 10.0) is None


def test_lookup_marker_cell_returns_invalid_pair():
    axes = AxisGrid(dr=[0.0, 10.0], vi=[14.0], vj=[14.0])
    table = GainTable(
        axes=axes,
        candidates=CandidateSets(gammas=[1.0, 2.0], ks=[0.1]),
        config=BuildConfig(),
        k_cells=np.array([0.1, math.nan]).reshape(2, 1, 1),
        gamma_cells=np.array([2.0, math.nan]).reshape(2, 1, 1),
    )
    hit = lookup(table, 0.0, 14.0, 14.0)
    assert hit == GainPair(k=0.1, gamma=2.0)
    miss = lookup(table, 10.0, 14.0, 14.0)
    assert miss is not None
    assert not miss.valid


def written(table, k, gamma):
    """A table built from copies of table's cells with (k, gamma) written to
    cell (0, 0, 0)."""
    k_cells, gamma_cells = table.k_cells.copy(), table.gamma_cells.copy()
    k_cells[0, 0, 0], gamma_cells[0, 0, 0] = k, gamma
    return replace(table, k_cells=k_cells, gamma_cells=gamma_cells)


def test_lookup_shares_pairs_and_rebuilt_tables_see_writes():
    """One pair object per stored (k, gamma), one marker object, all frozen.
    A table's cells are fixed when it is built: a table built from written
    copies of its cells sees the writes."""
    table = index_table(AxisGrid(dr=[0.0, 10.0], vi=[14.0], vj=[14.0]))
    first = lookup(table, 0.0, 14.0, 14.0)
    assert first == GainPair(k=1.0, gamma=1.0)
    assert lookup(table, 1.0, 14.0, 14.0) is first

    moved_table = written(table, 2.0, 1.0)  # now equal to the cell at dr=10
    moved = lookup(moved_table, 0.0, 14.0, 14.0)
    assert moved == GainPair(k=2.0, gamma=1.0)
    assert lookup(moved_table, 10.0, 14.0, 14.0) is moved
    assert lookup(table, 0.0, 14.0, 14.0) is first

    marker = lookup(written(table, math.nan, math.nan), 0.0, 14.0, 14.0)
    assert not marker.valid and math.isnan(marker.k) and math.isnan(marker.gamma)
    other = index_table(AxisGrid(dr=[0.0], vi=[14.0], vj=[14.0]), markers={0})
    assert lookup(other, 0.0, 14.0, 14.0) is marker

    assert lookup(written(table, 1.0, 1.0), 0.0, 14.0, 14.0) == first
    for shared in (first, moved, marker):
        with pytest.raises(FrozenInstanceError):
            shared.k = 3.0


def test_lookups_build_at_most_one_pair_per_stored_pair(monkeypatch):
    """Loading the production table, then every cell of it and 2000 seeded
    in-grid queries: GainPair is constructed at most once per distinct
    stored pair (plus once for the marker)."""
    built = []
    post_init = GainPair.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GainPair, "__post_init__", counted)
    table = load_table(ROOT / "perfbench" / "reference" / "table.txt")
    axes = table.axes
    queries = list(itertools.product(axes.dr.tolist(), axes.vi.tolist(), axes.vj.tolist()))
    lo = [grid[0] for grid in (axes.dr, axes.vi, axes.vj)]
    hi = [grid[-1] for grid in (axes.dr, axes.vi, axes.vj)]
    queries += np.random.default_rng(11).uniform(lo, hi, size=(2000, 3)).tolist()
    got = [lookup(table, *query) for query in queries]
    assert all(pair is not None for pair in got)
    assert any(not pair.valid for pair in got)
    assert built  # the counter sees constructions
    assert len(built) <= len(table.distinct_valid_pairs()) + 1


def test_save_load_round_trip(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)
    loaded = load_table(path)
    assert loaded == tiny_table
    assert loaded.config == tiny_table.config
    again = tmp_path / "again.txt"
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def leaf_settings(settings, defaults, prefix=""):
    """(name, value, default) of every leaf field of a settings dataclass,
    nested settings such as the thresholds included."""
    leaves = []
    for f in fields(settings):
        value, default = getattr(settings, f.name), getattr(defaults, f.name)
        if is_dataclass(value):
            leaves += leaf_settings(value, default, f"{prefix}{f.name}.")
        else:
            leaves.append((prefix + f.name, value, default))
    return leaves


def test_round_trip_keeps_every_build_setting(tiny_table, tmp_path):
    """Each setting differs from its default and from every other one, so a
    setting the table does not store, or two swapped keys, fail the test."""
    cfg = BuildConfig(
        dt=0.02,
        t_max=30.0,
        comm_delay=0.08,
        leader_length=4.5,
        time_gap=0.9,
        thresholds=ConsensusThresholds(
            eta_r=0.03, eta_v=0.04, delta_a=0.002, delta_jerk=0.006
        ),
        weights=ComfortWeights(omega_1=0.5, omega_2=2.0),
        safety_mode=SafetyMode.SAME_LANE,
        hold_window=1.5,
    )
    leaves = leaf_settings(cfg, BuildConfig())
    assert [name for name, value, default in leaves if value == default] == []
    values = [value for name, value, default in leaves]
    assert len(set(values)) == len(values)
    table = replace(tiny_table, config=cfg)
    path = tmp_path / "table.txt"
    save_table(table, path)
    assert path.read_text(encoding="utf-8").splitlines()[3] == (
        "meta dt=0.02 tmax=30.0 tau=0.08 lj=4.5 tg=0.9 eta_r=0.03 eta_v=0.04 "
        "delta_a=0.002 delta_jerk=0.006 w1=0.5 w2=2.0 mode=same_lane hold=1.5"
    )
    loaded = load_table(path)
    assert leaf_settings(loaded.config, BuildConfig()) == leaves
    assert loaded == table
    again = tmp_path / "again.txt"
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("source", ["tiny", "reference"])
@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_copy_of_a_saved_table_loads_equal(tiny_table, tmp_path, line_end, source):
    """A copy with other line ends loads through the one cell reader."""
    if source == "tiny":
        path = tmp_path / "table.txt"
        save_table(tiny_table, path)
    else:
        path = ROOT / "perfbench" / "reference" / "table.txt"
    want = load_table(path)
    copy = tmp_path / "copy.txt"
    copy.write_bytes(path.read_bytes().replace(b"\n", line_end))
    assert load_table(copy) == want


def test_saved_file_layout(tiny_table, tmp_path):
    """Version line, axes, candidates, meta, then one line per cell."""
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == FORMAT_VERSION
    assert lines[1].startswith("axes dr=10.0,20.0 vi=")
    assert lines[2].startswith("candidates gamma=2.0,5.0 k=0.1")
    assert lines[3].startswith("meta dt=0.01 tmax=60.0 tau=0.06 ")
    assert "mode=projected" in lines[3]
    assert len(lines) == 4 + 8
    assert lines[4].startswith("cell 0 0 0 ")
    assert lines[-1].startswith("cell 1 1 1 ")


def test_save_writes_nan_markers(tmp_path):
    axes = AxisGrid(dr=[0.0, 10.0], vi=[14.0], vj=[14.0])
    table = GainTable(
        axes=axes,
        candidates=CandidateSets(gammas=[1.0, 2.0], ks=[0.1]),
        config=BuildConfig(),
        k_cells=np.array([0.1, math.nan]).reshape(2, 1, 1),
        gamma_cells=np.array([2.0, math.nan]).reshape(2, 1, 1),
    )
    path = tmp_path / "table.txt"
    save_table(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[5] == "cell 1 0 0 NaN NaN"
    loaded = load_table(path)
    assert not loaded.cell(1, 0, 0).valid


def corrupt(path, tmp_path, mutate):
    lines = path.read_text(encoding="utf-8").splitlines()
    mutate(lines)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def test_load_rejects_wrong_version(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        lines[0] = "gaintable-v2"

    with pytest.raises(TableFormatError, match="version"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_missing_cells(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        lines.pop()

    with pytest.raises(TableFormatError, match="cell lines"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_out_of_order_cells(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        lines[4], lines[5] = lines[5], lines[4]

    with pytest.raises(TableFormatError, match="row-major"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_half_marker_cell(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        parts = lines[4].split()
        parts[4] = "NaN"
        lines[4] = " ".join(parts)

    with pytest.raises(TableFormatError, match="NaN for both"):
        load_table(corrupt(path, tmp_path, mutate))


@pytest.mark.parametrize(
    "k, gamma", [("inf", "2"), ("0.1", "-inf"), ("inf", "-inf")],
    ids=["k-inf", "gamma-minus-inf", "both"],
)
def test_load_rejects_infinite_gains(tiny_table, tmp_path, k, gamma):
    """An infinite gain fails the load, not a later lookup of its cell."""
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        lines[5] = f"cell 0 0 1 {k} {gamma}"

    with pytest.raises(TableFormatError, match="line 6: gains must be finite or NaN"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_nonmember_gains(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        parts = lines[4].split()
        parts[5] = "7.0"
        lines[4] = " ".join(parts)

    with pytest.raises(TableFormatError, match="candidate members"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_mangled_header(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)

    def mutate(lines):
        lines[1] = lines[1].replace("axes dr=", "axes dx=")

    with pytest.raises(TableFormatError, match="dr"):
        load_table(corrupt(path, tmp_path, mutate))


def test_load_rejects_empty_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(TableFormatError, match="version"):
        load_table(empty)


def test_production_table_round_trip_reproduces_the_manifest_digest(tmp_path):
    reference = ROOT / "perfbench" / "reference"
    manifest = json.loads((reference / "manifest.json").read_text(encoding="utf-8"))
    again = tmp_path / "again.txt"
    save_table(load_table(reference / "table.txt"), again)
    assert hashlib.sha256(again.read_bytes()).hexdigest() == manifest["table"]["sha256"]


def set_lines(**by_lineno):
    """A mutation replacing whole lines, keyed like line7="..." (1-based)."""

    def mutate(lines):
        for key, text in by_lineno.items():
            lines[int(key[4:]) - 1] = text

    return mutate


def edit_line(lineno, old, new):
    """A mutation replacing old by new in one line (1-based)."""

    def mutate(lines):
        assert old in lines[lineno - 1]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)

    return mutate


def shift_token(lines):
    """Move the second cell line's "cell" marker to the end of the first."""
    lines[4] += " cell"
    lines[5] = lines[5].removeprefix("cell ")


def blank_first_cell(lines):
    """Move the first cell onto the second cell line, leaving a blank line."""
    lines[5] = f"{lines[4]} {lines[5]}"
    lines[4] = ""


def append_lines(*texts):
    def mutate(lines):
        lines.extend(texts)

    return mutate


def drop_lines(n):
    def mutate(lines):
        del lines[-n:]

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (set_lines(line7="cell 0 x 0 0.1 5.0"), "line 7: bad cell indices"),
        (set_lines(line6="cell 0 0 1 fast 5.0"), "line 6 k: bad number 'fast'"),
        (set_lines(line6="cell 0 0 1 0.1 slow"), "line 6 gamma: bad number 'slow'"),
        (
            set_lines(line5="cell 0 0 0 0.1"),
            "line 5: malformed cell line 'cell 0 0 0 0.1'",
        ),
        (
            set_lines(line5="cell 0 0 0 0.1 5.0 5.0"),
            "line 5: malformed cell line 'cell 0 0 0 0.1 5.0 5.0'",
        ),
        (shift_token, "line 5: malformed cell line 'cell 0 0 0 0.1 5.0 cell'"),
        (blank_first_cell, "line 5: malformed cell line ''"),
        # Only save_table's layout loads: tokens joined by single spaces,
        # indices as str(i) writes them.
        (
            edit_line(6, "cell 0 0 1 ", "cell 0\t0 1 "),
            "line 6: malformed cell line 'cell 0\\t0 1 0.1 5.0'",
        ),
        (
            edit_line(7, "cell 0 1 0 ", "cell 0 1  0 "),
            "line 7: malformed cell line 'cell 0 1  0 0.1 5.0'",
        ),
        (
            edit_line(8, " 5.0", " 5.0 "),
            "line 8: malformed cell line 'cell 0 1 1 0.1 5.0 '",
        ),
        (edit_line(9, "cell 1 0 0 ", "cell +1 0 0 "), "line 9: bad cell indices"),
        (edit_line(10, "cell 1 0 1 ", "cell 1 0 01 "), "line 10: bad cell indices"),
        # A stray carriage return ends a line, as any CR does.
        (
            edit_line(11, "cell 1 1 0 ", "cell 1 1\r0 "),
            "line 13: expected 8 cell lines, found 9",
        ),
        # Gains outside the candidate sets, checked once every line reads,
        # before the table refuses a pair that is not valid.
        (
            set_lines(line6="cell 0 0 1 0.1 5.5"),
            "line 6: stored gains (gamma=5.5, k=0.1) are not candidate members",
        ),
        (
            set_lines(line5="cell 0 0 0 -0.1 4"),
            "line 5: stored gains (gamma=4.0, k=-0.1) are not candidate members",
        ),
        (
            set_lines(line7="cell 0 1 0 0.2 2.0", line9="cell 1 0 0 0.1 x"),
            "line 9 gamma: bad number 'x'",
        ),
        # A wrong number of cell lines names the first line past the block,
        # or the end of the file.
        (append_lines(""), "line 13: expected 8 cell lines, found 9"),
        (
            append_lines("cell 1 1 2 0.1 5.0", "cell 1 1 3 0.1 5.0"),
            "line 13: expected 8 cell lines, found 10",
        ),
        (drop_lines(1), "line 12: end of file, expected 8 cell lines, found 7"),
        (drop_lines(8), "line 5: end of file, expected 8 cell lines, found 0"),
        # Two faulty lines: the earlier one is reported, whichever check
        # catches the later one.
        (
            set_lines(line6="cell 0 0 1 NaN 5.0", line9="cell 1 0 0 0.1"),
            "line 6: marker cell must have NaN for both gains",
        ),
        (
            set_lines(line8="cell 0 1 1 0.1 x", line10="cell 1 0 x 0.1 5.0"),
            "line 8 gamma: bad number 'x'",
        ),
        # Two faults on one line: indices, then order, then k, then gamma,
        # then the marker rule.
        (set_lines(line5="cell 0 0 x fast 5.0"), "line 5: bad cell indices"),
        (set_lines(line5="cell 0 0 0 fast slow"), "line 5 k: bad number 'fast'"),
        (set_lines(line5="cell 0 0 0 NaN slow"), "line 5 gamma: bad number 'slow'"),
        (
            set_lines(line5="cell 0 0 1 fast 5.0"),
            "line 5: cell indices (0, 0, 1) out of row-major order, "
            "expected (0, 0, 0)",
        ),
        # Header faults name their line too, whichever check catches them.
        (
            set_lines(line2="axes dr=20.0,10.0 vi=10.0,14.0 vj=10.0,14.0"),
            "line 2: dr axis must be strictly ascending",
        ),
        (
            set_lines(line2="axes dr=10.0,20.0 vi= vj=10.0,14.0"),
            "line 2: vi axis must be a non-empty 1-D sequence",
        ),
        (
            set_lines(line2="axes dr=10.0,,20.0 vi=10.0,14.0 vj=10.0,14.0"),
            "line 2: bad value '10.0,,20.0' for key 'dr'",
        ),
        (
            set_lines(line2="axes dr=10.0,x vi=10.0,14.0 vj=10.0,14.0"),
            "line 2: bad value '10.0,x' for key 'dr'",
        ),
        (
            set_lines(line3="candidates gamma=2.0,5.0 k=-1,0.1"),
            "line 3: k candidates must be positive",
        ),
        (
            set_lines(line3="candidates gamma=inf,5.0 k=0.1"),
            "line 3: gamma candidates must be finite",
        ),
        (edit_line(4, " dt=0.01 ", " dt=x "), "line 4: bad value 'x' for key 'dt'"),
        (
            edit_line(4, " mode=projected ", " mode=sideways "),
            "line 4: bad value 'sideways' for key 'mode'",
        ),
        (edit_line(4, " dt=0.01 ", "  dt=0.01 "), "line 4: expected 13 'meta' entries"),
        (edit_line(2, "axes dr=", "axes\tdr="), "line 2: expected a 'axes' line"),
        (
            edit_line(4, " hold=1.0", " hold=1.0\t"),
            "line 4: expected token hold=..., got 'hold=1.0\\t'",
        ),
    ],
)
def test_load_reports_the_first_fault_by_line(tiny_table, tmp_path, mutate, message):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)
    with pytest.raises(TableFormatError) as caught:
        load_table(corrupt(path, tmp_path, mutate))
    assert str(caught.value) == message


def test_build_reports_nonmember_gains_as_plain_floats(tiny_table):
    shape = tiny_table.shape
    with pytest.raises(TableFormatError) as caught:
        gaintable._validate_members(
            np.full(shape, 0.1), np.full(shape, 5.5), tiny_table.candidates
        )
    assert str(caught.value) == (
        "cell (0, 0, 0): stored gains (gamma=5.5, k=0.1) are not candidate members"
    )


def test_gain_table_refuses_gains_outside_its_candidates():
    """A table built directly holds only candidate gains, so every table
    saves a file that load_table takes back."""
    with pytest.raises(TableFormatError) as caught:
        GainTable(
            AxisGrid(dr=[0.0], vi=[1.0], vj=[1.0]),
            CandidateSets(gammas=[2.0], ks=[0.1]),
            BuildConfig(),
            k_cells=[0.3],
            gamma_cells=[7.0],
        )
    assert str(caught.value) == (
        "cell (0, 0, 0): stored gains (gamma=7.0, k=0.3) are not candidate members"
    )


def test_load_refuses_a_file_that_is_not_utf8(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)
    path.write_bytes(path.read_bytes().replace(b"cell 0 0 0 ", b"cell 0 0 0 \xff", 1))
    with pytest.raises(TableFormatError, match="^not UTF-8 text: .* byte 0xff"):
        load_table(path)


@st.composite
def random_tables(draw):
    """A table of random cells, markers included, from random candidates."""
    shape = draw(st.tuples(st.integers(2, 3), st.integers(1, 3), st.integers(1, 12)))
    gains = st.floats(1e-6, 1e3, allow_subnormal=False)
    gammas = sorted(draw(st.lists(gains, min_size=1, max_size=3, unique=True)))
    ks = sorted(draw(st.lists(gains, min_size=1, max_size=3, unique=True)))
    n = shape[0] * shape[1] * shape[2]
    cell = st.tuples(st.integers(-1, len(gammas) - 1), st.integers(0, len(ks) - 1))
    picks = draw(st.lists(cell, min_size=n, max_size=n))
    return GainTable(
        axes=AxisGrid(*(np.arange(float(m)) for m in shape)),
        candidates=CandidateSets(gammas=gammas, ks=ks),
        config=BuildConfig(),
        k_cells=np.array([math.nan if g < 0 else ks[k] for g, k in picks]),
        gamma_cells=np.array([math.nan if g < 0 else gammas[g] for g, k in picks]),
    )


@settings(max_examples=200, deadline=None)
@given(table=random_tables())
def test_cell_index_matches_the_cell_arrays(table):
    """Every cell, read by cell() and by lookup at its grid values, is the
    pair built here from the two floats the arrays hold, or the invalid pair
    on a marker; the table holds one object per distinct stored pair and
    _MARKER on every marker cell."""
    axes = table.axes
    shared = {}
    for index in np.ndindex(table.shape):
        k = table.k_cells.item(*index)
        gamma = table.gamma_cells.item(*index)
        got = table.cell(*index)
        query = (axes.dr.item(index[0]), axes.vi.item(index[1]), axes.vj.item(index[2]))
        assert lookup(table, *query) is got
        if math.isnan(k):
            assert got is gaintable._MARKER
            assert not got.valid and math.isnan(got.k) and math.isnan(got.gamma)
        else:
            assert got == GainPair(k=k, gamma=gamma)
            assert shared.setdefault((k, gamma), got) is got
    assert len(shared) == len(table.distinct_valid_pairs())


# Faults and line ends other than save_table's.  Each edits cell line `row`
# (0-based, at least 4) of a table file, drawing any choice it makes.


def set_token(lines, row, position, text):
    parts = lines[row].split()
    if position < len(parts):
        parts[position] = text.format(parts[position])
        lines[row] = " ".join(parts)


def set_separator(text):
    def mutate(lines, row, draw):
        parts = lines[row].split(" ")
        if len(parts) > 1:
            at = draw(st.integers(1, len(parts) - 1))
            lines[row] = " ".join(parts[:at]) + text + " ".join(parts[at:])

    return mutate


def append_text(text):
    def mutate(lines, row, draw):
        lines[row] += text

    return mutate


def signed_or_padded_index(lines, row, draw):
    set_token(
        lines, row, draw(st.integers(1, 3)), draw(st.sampled_from(["+{}", "0{}", "-{}"]))
    )


def lowercase_nan(lines, row, draw):
    set_token(lines, row, draw(st.integers(4, 5)), "nan")


def infinite_gain(lines, row, draw):
    set_token(lines, row, draw(st.integers(4, 5)), draw(st.sampled_from(["inf", "-inf"])))


def nonmember_gains(lines, row, draw):
    set_token(lines, row, 4, "1e9")
    set_token(lines, row, 5, "1e9")


def swapped_lines(lines, row, draw):
    other = draw(st.integers(4, len(lines) - 1))
    lines[row], lines[other] = lines[other], lines[row]


def shifted_cell_token(lines, row, draw):
    if row + 1 < len(lines):
        lines[row] += " cell"
        lines[row + 1] = lines[row + 1].removeprefix("cell ")


LINE_MUTATIONS = {
    "double space": set_separator("  "),
    "tab": set_separator("\t"),
    "trailing space": append_text(" "),
    "trailing tab": append_text("\t"),
    "crlf": append_text("\r"),
    "cr inside a line": set_separator("\r"),
    "index +1, 01 or -1": signed_or_padded_index,
    "shifted cell token": shifted_cell_token,
    "blank first cell line": lambda lines, row, draw: blank_first_cell(lines),
    "nan": lowercase_nan,
    "inf": infinite_gain,
    "non-member": nonmember_gains,
    "swapped lines": swapped_lines,
}


def read_outcome(read, *args):
    """The flat cell arrays that read returns, as bytes, or its fault's
    text."""
    try:
        k_cells, gamma_cells = read(*args)
    except TableFormatError as exc:
        return str(exc)
    return k_cells.tobytes(), gamma_cells.tobytes()


def load_cells(path):
    table = load_table(path)
    return table.k_cells, table.gamma_cells


@settings(max_examples=300, deadline=None)
@given(table=random_tables(), data=st.data())
def test_load_matches_the_per_line_oracle(table, data, tmp_path_factory):
    """load_table gives the arrays, or the exact fault text, of the
    line-by-line reference reader in table_oracle."""
    path = tmp_path_factory.mktemp("oracle") / "table.txt"
    save_table(table, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    names = data.draw(st.lists(st.sampled_from(sorted(LINE_MUTATIONS)), max_size=3))
    for name in names:
        row = data.draw(st.integers(4, len(lines) - 1))
        LINE_MUTATIONS[name](lines, row, data.draw)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert read_outcome(load_cells, path) == read_outcome(oracle_cells, path, table)
