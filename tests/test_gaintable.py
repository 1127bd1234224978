"""Tests of the gain table: build, selection, lookup, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    _nearest_index,
    _select_cell,
    build_table,
    load_table,
    lookup,
    save_table,
)
from caccsim.harness import ScenarioConfig, run_scenario
from caccsim.metrics import RunMetrics, SafetyMode, Trajectory, evaluate_run


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
    assert BuildConfig().delay_steps() == 6
    assert BuildConfig(comm_delay=0.0).delay_steps() == 0
    assert BuildConfig().headway_time == 0.76
    with pytest.raises(ValueError, match="multiple"):
        BuildConfig(comm_delay=0.005)
    with pytest.raises(ValueError, match="t_max"):
        BuildConfig(t_max=0.5, hold_window=1.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("dt", {"dt": math.inf}),
        ("t_max", {"t_max": math.inf}),
        ("comm_delay", {"comm_delay": math.inf}),
        ("comm_delay", {"comm_delay": math.nan}),
        ("hold_window", {"hold_window": math.nan}),
        ("t_max", {"t_max": 0.005, "hold_window": 0.0}),
    ],
    ids=["dt-inf", "t_max-inf", "comm_delay-inf", "comm_delay-nan",
         "hold_window-nan", "t_max-under-one-step"],
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


def test_batch_simulation_matches_manual_scalar_loop():
    """One batched column, advanced in uneven blocks, equals a hand-written
    scalar loop bit for bit."""
    cfg = BuildConfig(t_max=10.0)
    dr0, vi0, vj0, gamma, k = 30.0, 24.0, 18.0, 3.0, 0.1
    delay = cfg.delay_steps()
    n = round(cfg.t_max / cfg.dt)
    runs = FollowerRuns([dr0], [vi0], [vj0], ConsensusLaw([gamma], [k]), cfg)
    blocks = [runs.advance(rows) for rows in (1, delay, 2, 256, n + 1 - delay - 259)]
    r_b, v_b, a_b, gap_b = (np.concatenate(series) for series in zip(*blocks))
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
    assert r_b[:, 0].tolist() == rs
    assert v_b[:, 0].tolist() == vs
    assert a_b[:, 0].tolist() == accels
    assert gap_b[:, 0].tolist() == gaps


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_streaming_decision_matches_per_column_evaluation(data):
    """Random runs scored in random blocks: each column's carried outcome
    matches evaluate_run of the whole run, and each cell, whichever block
    settles it, gets the gains _select_cell picks from those evaluations."""
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

    metrics = [
        evaluate_run(
            Trajectory(
                dt=cfg.dt, leader_length=cfg.leader_length, time_gap=cfg.time_gap,
                comm_delay=cfg.comm_delay, v_follower=v[:, col], a_follower=a[:, col],
                gap=gap[:, col], v_leader_delayed=np.full(n, vj[col]),
            ),
            cfg.thresholds, cfg.weights, cfg.safety_mode, cfg.hold_window,
        )
        for col in range(len(vj))
    ]
    expected = [
        select(metrics[cell * n_cand : (cell + 1) * n_cand], pairs)
        for cell in range(n_cells)
    ]
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="block cuts"))
    blocks = list(zip([0, *cuts], [*cuts, n]))

    # Scored to the end without settling, every column's carried outcome
    # matches its own evaluate_run.
    def accel_of(col, n_rows):
        return a[:n_rows, col]

    whole = _CellScorer(np.array(vj), pairs, n, cfg, accel_of)
    for lo, hi in blocks:
        whole.score(v[lo:hi], a[lo:hi], gap[lo:hi])
    for col, m in enumerate(metrics):
        hold = int(whole.first_hold[col])
        assert (hold >= 0) == m.consensus_reached
        end = hold if hold >= 0 else n - 1
        if hold >= 0:
            assert hold * cfg.dt == m.t_consensus
        assert (whole.first_violation[col] <= end) == m.safety_violated
        assert whole._comfort(col, end) == m.omega

    scorer = _CellScorer(np.array(vj), pairs, n, cfg, accel_of)
    for lo, hi in blocks:
        cols = scorer.cols
        scorer.score(v[lo:hi, cols], a[lo:hi, cols], gap[lo:hi, cols])
        open_cells = scorer.cells
        scorer.decide()
        for cell in np.setdiff1d(open_cells, scorer.cells):
            got = (scorer.k[cell], scorer.gamma[cell])
            assert np.array_equal(got, expected[cell], equal_nan=True), (cell, hi)
    assert len(scorer.cells) == 0
    assert len(scorer.cols) == 0


def test_scorer_keeps_a_cell_open_past_a_run_unsafe_at_its_consensus_row():
    """A run whose first violation is its consensus row is unsafe, so a
    slower safe run can still win the cell."""
    cfg = BuildConfig(dt=0.5, t_max=100.0, comm_delay=0.5, hold_window=0.0)
    floor = cfg.leader_length  # the desired gap at standstill
    # Column 0 arms at row 0 and converges on the floor at row 1; column 1
    # never arms and converges at row 2.
    gap = np.array([[floor + 0.5, floor - 1.0], [floor, floor - 1.0], [floor, floor]])
    gap = np.vstack([gap, np.full((3, 2), floor)])
    scorer = _CellScorer(np.zeros(2), [(1.0, 0.1), (2.0, 0.1)], len(gap), cfg, None)
    scorer.score(np.zeros((2, 2)), np.zeros((2, 2)), gap[:2])
    scorer.decide()
    assert list(scorer.cells) == [0]
    scorer.score(np.zeros((4, 2)), np.zeros((4, 2)), gap[2:])
    scorer.decide()
    assert len(scorer.cells) == 0
    assert (scorer.k[0], scorer.gamma[0]) == (0.1, 2.0)


@pytest.fixture(scope="module")
def mixed_grid():
    """A short-horizon grid with every kind of cell: valid ones, markers
    where every candidate breaks the gap floor within 50 steps, and markers
    where no candidate converges before t_max."""
    axes = AxisGrid(dr=[6.0, 13.0], vi=[10.0, 30.0], vj=[5.0, 10.0, 11.0])
    candidates = CandidateSets(gammas=[2.0, 5.0], ks=[0.1, 0.2])
    return axes, candidates, BuildConfig(t_max=20.0)


@pytest.fixture(scope="module")
def mixed_grid_oracle(mixed_grid):
    """Per-cell gains from single scenario runs, evaluate_run and
    _select_cell, and the set of cell kinds seen."""
    axes, candidates, cfg = mixed_grid
    k_cells = np.full(axes.shape, math.nan)
    gamma_cells = np.full(axes.shape, math.nan)
    kinds = set()
    for i1, i2, i3 in np.ndindex(axes.shape):
        metrics, early_floor = [], []
        for gamma, k in candidates.pairs():
            scenario = ScenarioConfig(
                "cell", float(axes.dr[i1]), float(axes.vi[i2]), float(axes.vj[i3]),
                duration=cfg.t_max, controller="fixed_consensus",
                controller_params={"gamma": gamma, "k": k},
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


def test_mixed_grid_has_every_kind_of_cell(mixed_grid_oracle):
    _, _, kinds = mixed_grid_oracle
    assert kinds == {"valid", "early-floor marker", "unconverged marker"}


@pytest.mark.parametrize(
    "build_kwargs",
    [{"cell_chunk": 1}, {"cell_chunk": 3}, {}, {"workers": 2}],
    ids=["chunk-1", "chunk-3", "default", "workers-2"],
)
def test_build_with_markers_matches_per_cell_oracle(
    mixed_grid, mixed_grid_oracle, build_kwargs
):
    k_cells, gamma_cells, _ = mixed_grid_oracle
    table = build_table(*mixed_grid, **build_kwargs)
    assert np.array_equal(table.k_cells, k_cells, equal_nan=True)
    assert np.array_equal(table.gamma_cells, gamma_cells, equal_nan=True)


def test_time_tie_comfort_comes_from_re_simulated_runs(monkeypatch):
    """The shipped grid's one time tie (dr 80, vi 34, vj 6; gamma 5 and 6
    converge together): the comfort scores the build compares, taken from
    re-simulated runs, equal evaluate_run's over single scenario runs."""
    axes = AxisGrid(dr=[80.0], vi=[34.0], vj=[6.0])
    candidates = CandidateSets(gammas=[5.0, 6.0], ks=[0.1])
    cfg = BuildConfig()
    asked = {}
    real_select = gaintable._select_cell

    def recording_select(t_consensus, violated, comfort, pairs):
        def recorded(i):
            asked[pairs[i]] = comfort(i)
            return asked[pairs[i]]

        return real_select(t_consensus, violated, recorded, pairs)

    monkeypatch.setattr(gaintable, "_select_cell", recording_select)
    table = build_table(axes, candidates, cfg)
    expected = {}
    for gamma, k in candidates.pairs():
        scenario = ScenarioConfig(
            "tie", 80.0, 34.0, 6.0, duration=cfg.t_max, controller="fixed_consensus",
            controller_params={"gamma": gamma, "k": k},
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
    tiny_table, tiny_axes, tiny_candidates, tiny_cfg
):
    rebuilt = build_table(tiny_axes, tiny_candidates, tiny_cfg, cell_chunk=3)
    assert rebuilt == tiny_table


def test_build_is_deterministic_across_workers(
    tiny_table, tiny_axes, tiny_candidates, tiny_cfg
):
    rebuilt = build_table(tiny_axes, tiny_candidates, tiny_cfg, workers=2)
    assert rebuilt == tiny_table


def test_build_rejects_bad_worker_and_chunk_counts(
    tiny_axes, tiny_candidates, tiny_cfg
):
    with pytest.raises(ValueError, match="workers"):
        build_table(tiny_axes, tiny_candidates, tiny_cfg, workers=0)
    with pytest.raises(ValueError, match="cell_chunk"):
        build_table(tiny_axes, tiny_candidates, tiny_cfg, cell_chunk=0)


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


def test_nearest_index_rules():
    grid = np.array([10.0, 20.0, 40.0])
    assert _nearest_index(grid, 10.0) == 0
    assert _nearest_index(grid, 40.0) == 2
    assert _nearest_index(grid, 14.9) == 0
    assert _nearest_index(grid, 15.1) == 1
    assert _nearest_index(grid, 15.0) == 0  # tie toward the smaller value
    assert _nearest_index(grid, 30.0) == 1  # tie toward the smaller value
    assert _nearest_index(grid, 9.999) is None
    assert _nearest_index(grid, 40.001) is None
    assert _nearest_index(grid, math.nan) is None


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


def test_save_load_round_trip(tiny_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(tiny_table, path)
    loaded = load_table(path)
    assert loaded == tiny_table
    assert loaded.config == tiny_table.config
    again = tmp_path / "again.txt"
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()


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
