"""Release gate: every shipping criterion exercised at its stated tolerance.

The module builds the full production-size gain table (once serially, once
with two workers), so it runs for a few minutes.  Each criterion is one
test; a verdict line per criterion is echoed in the terminal summary.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from caccsim.config import (
    load_axes,
    load_baselines,
    load_build_config,
    load_candidates,
)
from caccsim.controllers import GainPair, consensus_command, desired_gap
from caccsim.gaintable import GainTable, build_table, load_table, lookup, save_table
from caccsim.harness import (
    BENCHMARK_POINTS,
    ScenarioConfig,
    run_scenario,
    run_suite,
)
from caccsim.metrics import (
    ComfortWeights,
    ConsensusThresholds,
    RunMetrics,
    SafetyMode,
    _bands_ok,
    evaluate_run,
    omega_score,
)
from caccsim.stability import string_stability_margin, transfer_magnitude
from run_oracle import make_trajectory

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
REFERENCE_MANIFEST = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "manifest.json"
)

BUILD_TIME_BUDGET_S = 600.0


@pytest.fixture(scope="module")
def shipped():
    axes = load_axes(CONFIG_DIR / "axes_default.ini")
    candidates = load_candidates(CONFIG_DIR / "candidates_default.ini")
    cfg = load_build_config(CONFIG_DIR / "build_default.ini")
    return axes, candidates, cfg


@pytest.fixture(scope="module")
def serial_build(shipped):
    """Timed serial build of the full shipped grid, shared by the module."""
    axes, candidates, cfg = shipped
    start = time.perf_counter()
    table = build_table(axes, candidates, cfg)
    elapsed = time.perf_counter() - start
    return table, elapsed


def _same_pair(a: GainPair | None, b: GainPair | None) -> bool:
    # Equality that treats two invalid markers as equal despite NaN fields.
    if a is None or b is None:
        return a is b
    if not (a.valid and b.valid):
        return a.valid == b.valid
    return a.k == b.k and a.gamma == b.gamma


def test_criterion_01_full_grid_build_within_budget(
    shipped, serial_build, tmp_path_factory, acceptance_log
):
    axes, candidates, cfg = shipped
    table, serial_s = serial_build
    assert table.shape == (len(axes.dr), len(axes.vi), len(axes.vj))
    assert serial_s < BUILD_TIME_BUDGET_S

    start = time.perf_counter()
    parallel = build_table(axes, candidates, cfg, workers=2)
    parallel_s = time.perf_counter() - start
    assert parallel_s < BUILD_TIME_BUDGET_S
    assert parallel == table

    out = tmp_path_factory.mktemp("builds")
    save_table(table, out / "serial.txt")
    save_table(parallel, out / "parallel.txt")
    serial_bytes = (out / "serial.txt").read_bytes()
    assert serial_bytes == (out / "parallel.txt").read_bytes()
    manifest = json.loads(REFERENCE_MANIFEST.read_text(encoding="utf-8"))
    assert hashlib.sha256(serial_bytes).hexdigest() == manifest["table"]["sha256"]

    cells = table.k_cells.size
    valid = int(table.valid_mask().sum())
    acceptance_log(
        f"ACCEPTANCE 1 PASS: {cells}-cell grid built serial in {serial_s:.1f} s "
        f"and with 2 workers in {parallel_s:.1f} s (budget {BUILD_TIME_BUDGET_S:.0f} s), "
        f"{valid} valid cells, files byte-identical and equal to the reference digest"
    )


def test_criterion_02_benchmark_lookup_runs_clean(serial_build, acceptance_log):
    table, _ = serial_build
    cfg = table.config
    times = []
    for sid, dr0, vi0, vj0 in BENCHMARK_POINTS:
        scenario = ScenarioConfig(sid, dr0, vi0, vj0)
        report, _ = run_scenario(scenario, cfg, table)
        m = report.metrics
        assert not report.fallback_engaged, scenario.scenario_id
        assert m.t_consensus <= 60.0, scenario.scenario_id
        assert not m.safety_violated, scenario.scenario_id
        assert m.min_jerk >= -10.0 and m.max_jerk <= 10.0, scenario.scenario_id
        times.append(f"{scenario.scenario_id}={m.t_consensus:.2f}s")
    acceptance_log(
        "ACCEPTANCE 2 PASS: all four benchmark points converge under 60 s with "
        "no gap-floor violation and jerk within [-10, 10] ("
        + ", ".join(times)
        + ")"
    )


def test_criterion_03_lookup_beats_fixed_everywhere(serial_build, acceptance_log):
    table, _ = serial_build
    cfg = table.config
    baselines = load_baselines(CONFIG_DIR / "baselines_default.ini")
    result = run_suite(table, cfg, baselines)
    by_key = {(r.scenario_id, r.controller): r.metrics for r in result.reports}
    margins = []
    for sid, _, _, _ in BENCHMARK_POINTS:
        t_lookup = by_key[(sid, "lookup")].t_consensus
        t_fixed = by_key[(sid, "fixed_consensus")].t_consensus
        assert math.isfinite(t_lookup), sid
        assert t_lookup < t_fixed, sid
        margins.append(f"{sid} {t_lookup:.2f}<{t_fixed:.2f}")
    assert result.all_scenarios_beat_fixed
    acceptance_log(
        "ACCEPTANCE 3 PASS: scheduled gains converge strictly faster than the "
        "fixed baseline on every benchmark (" + ", ".join(margins) + ")"
    )


def test_criterion_04_equilibrium_command_is_null(acceptance_log):
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(1000):
        k = rng.uniform(0.01, 10.0)
        gamma = rng.uniform(0.1, 10.0)
        v = rng.uniform(0.0, 40.0)
        lj = rng.uniform(2.0, 10.0)
        tg = rng.uniform(0.1, 2.0)
        tau = rng.uniform(0.0, 0.2)
        scale = rng.uniform(0.1, 1.0)
        gap = desired_gap(v, lj, tg, tau)
        cmd = consensus_command(0.0, gap, v, v, lj, tg + tau, k * scale, gamma)
        worst = max(worst, abs(cmd))
        assert abs(cmd) <= 1e-12
    acceptance_log(
        f"ACCEPTANCE 4 PASS: 1000 randomized equilibria command at most "
        f"{worst:.3e} m/s^2 (tolerance 1e-12)"
    )


def test_criterion_05_lookup_matches_bruteforce_scan(serial_build, acceptance_log):
    table, _ = serial_build
    grids = (table.axes.dr, table.axes.vi, table.axes.vj)

    def brute_nearest(grid: np.ndarray, q: float) -> int:
        # Independent rule, by a linear scan: the first grid value at or
        # above the query or the one below it, whichever lookup's two
        # subtractions put nearer; a tie goes to the smaller value.  (An
        # argmin over rounded distances is not the rule on grids spaced
        # near the float resolution.)
        values = grid.tolist()
        i = next(i for i, value in enumerate(values) if value >= q)
        if i == 0:
            return 0
        return i - 1 if q - values[i - 1] <= values[i] - q else i

    rng = np.random.default_rng(7)
    for _ in range(1000):
        query = [rng.uniform(g[0], g[-1]) for g in grids]
        expected = table.cell(*(brute_nearest(g, q) for g, q in zip(grids, query)))
        assert _same_pair(lookup(table, *query), expected)

    for _ in range(100):
        query = [rng.uniform(g[0], g[-1]) for g in grids]
        axis = rng.integers(0, 3)
        offset = rng.uniform(1e-6, 50.0)
        low_side = rng.random() < 0.5
        query[axis] = grids[axis][0] - offset if low_side else grids[axis][-1] + offset
        assert lookup(table, *query) is None

    acceptance_log(
        "ACCEPTANCE 5 PASS: 1000 in-range queries match the brute-force "
        "nearest scan exactly; 100 out-of-range queries return no cell"
    )


def test_criterion_06_stored_cells_match_reselection(serial_build, acceptance_log):
    table, _ = serial_build
    cfg = table.config
    pairs = table.candidates.pairs()

    valid_flat = np.flatnonzero(table.valid_mask().ravel())
    rng = np.random.default_rng(11)
    chosen = rng.choice(valid_flat, size=20, replace=False)

    for flat in chosen:
        i1, i2, i3 = np.unravel_index(int(flat), table.shape)
        dr0 = float(table.axes.dr[i1])
        vi0 = float(table.axes.vi[i2])
        vj0 = float(table.axes.vj[i3])

        outcomes = []
        for gamma, k in pairs:
            scenario = ScenarioConfig(
                scenario_id=f"cell-{i1}-{i2}-{i3}",
                dr0=dr0,
                vi0=vi0,
                vj0=vj0,
                controller="fixed_consensus",
                gains=GainPair(k=k, gamma=gamma),
            )
            report, _ = run_scenario(scenario, cfg)
            outcomes.append((gamma, k, report.metrics))

        # Re-derive the staged choice from scratch: drop unsafe runs, then
        # unconverged ones, then take fastest, most comfortable, smallest pair.
        safe = [o for o in outcomes if not o[2].safety_violated]
        converged = [o for o in safe if math.isfinite(o[2].t_consensus)]
        assert converged, (i1, i2, i3)
        t_best = min(o[2].t_consensus for o in converged)
        tied = [o for o in converged if o[2].t_consensus == t_best]
        if len(tied) > 1:
            omega_best = min(o[2].omega for o in tied)
            tied = [o for o in tied if o[2].omega == omega_best]
        gamma_pick, k_pick, _ = min(tied, key=lambda o: (o[0], o[1]))

        stored = table.cell(int(i1), int(i2), int(i3))
        assert stored.valid
        assert stored.gamma == gamma_pick and stored.k == k_pick, (i1, i2, i3)

    acceptance_log(
        f"ACCEPTANCE 6 PASS: 20 sampled cells re-simulated over all "
        f"{len(pairs)} candidates reproduce the stored gains exactly"
    )


def test_criterion_07_stored_pairs_string_stable(serial_build, acceptance_log):
    table, _ = serial_build
    cfg = table.config
    pairs = table.distinct_valid_pairs()
    assert pairs
    worst = 0.0
    for gamma, k in pairs:
        margin = string_stability_margin(
            GainPair(k=k, gamma=gamma),
            time_gap=cfg.time_gap,
            comm_delay=cfg.comm_delay,
        )
        assert margin.stable, (gamma, k)
        worst = max(worst, margin.max_magnitude)

    reference = GainPair(k=0.1, gamma=1.0)
    assert transfer_magnitude(1e-3, reference) == pytest.approx(0.1, abs=1e-4)
    assert transfer_magnitude(1.0, reference) == pytest.approx(
        0.1 * math.hypot(1.0, 1.76), abs=1e-4
    )

    acceptance_log(
        f"ACCEPTANCE 7 PASS: all {len(pairs)} stored gain pairs keep the "
        f"transfer magnitude at or under one (worst {worst:.4f}); point values "
        f"match to 1e-4"
    )


def test_criterion_09_table_round_trip_is_byte_exact(
    serial_build, tmp_path_factory, acceptance_log
):
    table, _ = serial_build
    out = tmp_path_factory.mktemp("roundtrip")

    save_table(table, out / "first.txt")
    loaded = load_table(out / "first.txt")
    assert loaded == table
    save_table(loaded, out / "second.txt")
    assert (out / "first.txt").read_bytes() == (out / "second.txt").read_bytes()

    # Force one marker cell so the sentinel spelling is covered even when
    # the production build leaves no cell empty.
    k_cells = table.k_cells.copy()
    gamma_cells = table.gamma_cells.copy()
    k_cells[0, 0, 0] = math.nan
    gamma_cells[0, 0, 0] = math.nan
    marked = GainTable(table.axes, table.candidates, table.config, k_cells, gamma_cells)
    save_table(marked, out / "marked.txt")
    reloaded = load_table(out / "marked.txt")
    assert reloaded == marked
    assert not reloaded.cell(0, 0, 0).valid
    save_table(reloaded, out / "marked_again.txt")
    assert (out / "marked.txt").read_bytes() == (out / "marked_again.txt").read_bytes()

    native_markers = int((~table.valid_mask()).sum())
    acceptance_log(
        f"ACCEPTANCE 9 PASS: save/load/save is byte-identical for the full "
        f"table ({native_markers} native marker cells) and for a forced-marker "
        f"variant"
    )


def in_bands(s, thresholds):
    """Whether one sample sits inside all four consensus bands.  desired and
    jerk go in as the one-element float buffers _bands_ok overwrites."""
    gap, desired, v_leader, v_follower, accel, jerk = s
    out = _bands_ok(
        gap, np.array([desired], dtype=float), v_leader, v_follower, accel,
        np.array([jerk], dtype=float), thresholds,
        out=np.empty(1, dtype=bool), spare=np.empty(1, dtype=bool),
    )
    return bool(out[0])


def test_criterion_10_metric_property_sweeps(acceptance_log):
    rng = np.random.default_rng(99)

    # Loosening every band never turns a passing sample into a failing one.
    for _ in range(1000):
        v_leader = rng.uniform(0.0, 35.0)
        desired = rng.uniform(5.0, 40.0)
        near = rng.random() < 0.5
        gap = (
            desired * (1 + rng.uniform(-0.04, 0.04)) if near else rng.uniform(0.0, 80.0)
        )
        v_follower = v_leader + rng.uniform(-0.5, 0.5)
        accel = rng.uniform(-0.002, 0.002)
        jerk = rng.uniform(-0.01, 0.01)
        sample = (gap, desired, v_leader, v_follower, accel, jerk)
        tight = ConsensusThresholds(
            eta_r=rng.uniform(0.01, 0.1),
            eta_v=rng.uniform(0.01, 0.1),
            delta_a=rng.uniform(5e-4, 5e-3),
            delta_jerk=rng.uniform(1e-3, 1e-2),
        )
        loose = ConsensusThresholds(
            eta_r=tight.eta_r * rng.uniform(1.0, 3.0),
            eta_v=tight.eta_v * rng.uniform(1.0, 3.0),
            delta_a=tight.delta_a * rng.uniform(1.0, 3.0),
            delta_jerk=tight.delta_jerk * rng.uniform(1.0, 3.0),
        )
        if in_bands(sample, tight):
            assert in_bands(sample, loose)

    # The comfort score is linear in each weight.
    for _ in range(1000):
        metrics = RunMetrics(
            t_consensus=rng.uniform(0.0, 100.0),
            max_accel=rng.uniform(0.0, 5.0),
            max_decel=rng.uniform(0.0, 5.0),
            max_jerk=rng.uniform(-20.0, 20.0),
            min_jerk=rng.uniform(-20.0, 20.0),
            omega=0.0,
            min_gap=rng.uniform(0.0, 30.0),
            safety_violated=False,
        )
        w1 = rng.uniform(0.0, 4.0)
        w2 = rng.uniform(0.0, 4.0)
        base = omega_score(metrics, ComfortWeights(omega_1=w1, omega_2=w2))
        split = omega_score(metrics, ComfortWeights(omega_1=w1, omega_2=0.0)) + (
            omega_score(metrics, ComfortWeights(omega_1=0.0, omega_2=w2))
        )
        assert split == pytest.approx(base, rel=1e-12, abs=1e-12)
        bump = rng.uniform(0.1, 2.0)
        bumped = omega_score(metrics, ComfortWeights(omega_1=w1 + bump, omega_2=w2))
        accel_peak = max(metrics.max_accel, metrics.max_decel)
        assert bumped - base == pytest.approx(bump * accel_peak, rel=1e-9, abs=1e-12)

    # Projected arming never flags a gap series that stays above the floor
    # once it first rises past it.  The acceleration is held out of its
    # band, so the bands never hold and evaluate_run judges the whole run.
    for _ in range(1000):
        lj = rng.uniform(3.0, 8.0)
        n_pre = int(rng.integers(0, 80))
        n_post = int(rng.integers(2, 200))
        pre = lj - rng.uniform(0.0, 3.0, size=n_pre)
        post = lj + 0.01 + np.cumsum(rng.uniform(0.0, 0.3, size=n_post))
        gap = np.concatenate([pre, post])
        n = len(gap)
        run = make_trajectory(
            np.zeros(n), np.ones(n), gap, np.zeros(n), leader_length=lj,
            thresholds=ConsensusThresholds(), weights=ComfortWeights(),
            safety_mode=SafetyMode.PROJECTED, hold_window=1.0,
        )
        m = evaluate_run(run)
        assert not math.isfinite(m.t_consensus)
        assert not m.safety_violated
        assert m.min_gap > lj

    acceptance_log(
        "ACCEPTANCE 10 PASS: 1000-case sweeps hold for band monotonicity, "
        "comfort-score weight linearity, and projected-mode arming"
    )
