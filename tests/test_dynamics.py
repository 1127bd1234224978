"""Tests of the simulation kernel: stepping, delayed observation, the laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from caccsim.controllers import (
    ConsensusLaw,
    LinearFeedbackGains,
    LinearFeedbackLaw,
    consensus_command,
    linear_feedback_accel,
)
from caccsim.dynamics import FollowerRuns
from caccsim.gaintable import BuildConfig
from caccsim.harness import ScenarioConfig, simulate_pair

CFG = BuildConfig(t_max=10.0)

# A law that commands exactly 0 (zero gains times finite errors, summed).
ZERO = LinearFeedbackLaw(LinearFeedbackGains(k_a=0.0, k_v=0.0, k_d=0.0))

# k_v * (vj - vi) with vj = vi - 1 and nothing else: a command of exactly -1.
BRAKE = LinearFeedbackLaw(LinearFeedbackGains(k_a=0.0, k_v=1.0, k_d=0.0))


def run(dr0, vi0, vj0, law, n, cfg=CFG):
    """Rows 0 .. n - 1 of one column: position, speed, accel, delayed gap."""
    series = FollowerRuns([dr0], [vi0], [vj0], law, cfg).advance(n)
    return tuple(s[:, 0] for s in series)


def leader_positions(dr0, vj0, n, dt):
    """The leader's positions as a step-by-step scalar update gives them."""
    positions = [dr0]
    for _ in range(n - 1):
        positions.append(positions[-1] + vj0 * dt)
    return np.array(positions)


def test_step_cruise_from_standstill_command():
    """Position moves by v*dt, speed and accel keep the zero command."""
    r, v, a, _ = run(50.0, 10.0, 10.0, ZERO, 2)
    assert r[1] == 0.1
    assert v[1] == 10.0
    assert a[1] == 0.0


def test_step_braking_uses_pre_step_speed():
    """The position update uses the speed before the command acts."""
    r, v, a, _ = run(50.0, 20.0, 19.0, BRAKE, 3)
    assert a[1] == -1.0
    assert r[1] == 0.2
    assert v[1] == 19.99
    assert r[2] == 0.2 + 19.99 * 0.01


def test_step_records_command_as_new_accel():
    """The command computed at row 0 is the acceleration of row 1."""
    _, _, a, _ = run(30.0, 24.0, 18.0, ConsensusLaw([3.0], [0.1]), 2)
    assert a[0] == 0.0
    assert a[1] == consensus_command(
        0.0, 30.0, 24.0, 18.0, CFG.leader_length, CFG.headway_time, 0.1, 3.0
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_rejects_nonfinite_command():
    """A gain that overflows the command fails the run, not the numbers."""
    with pytest.raises(ValueError, match="accel_cmd"):
        simulate_pair(30.0, 24.0, 18.0, ConsensusLaw([3.0], [1e308]), CFG, 1.0)


def test_state_rejects_nonfinite_fields():
    """A run's initial state must be finite; the scenario refuses it."""
    with pytest.raises(ValueError, match="dr0"):
        ScenarioConfig("x", math.inf, 10.0, 10.0)
    with pytest.raises(ValueError, match="vj0"):
        ScenarioConfig("x", 10.0, 10.0, math.nan)


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError, match="dt"):
        BuildConfig(dt=0.0)


def test_step_is_deterministic():
    """Identical inputs give bit-identical outputs."""
    law = ConsensusLaw([4.0], [0.1])
    a = run(12.34, 5.67, 8.9, law, 500)
    b = run(12.34, 5.67, 8.9, law, 500)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_position_strictly_increases_while_speed_positive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dr0 = float(rng.uniform(-100.0, 100.0))
        vi0, vj0 = (float(x) for x in rng.uniform(2.0, 34.0, size=2))
        gamma = float(rng.uniform(1.0, 10.0))
        r, v, _, _ = run(dr0, vi0, vj0, ConsensusLaw([gamma], [0.1]), 1000)
        moving = v[:-1] > 0
        assert np.all(r[1:][moving] > r[:-1][moving])


def test_simclock_time_is_step_times_dt():
    """Sample times are index * dt, never a running sum of dt."""
    traj = simulate_pair(30.0, 24.0, 18.0, ZERO, CFG, 2.5)
    assert len(traj) == 251
    assert traj.t[250] == 250 * 0.01
    assert np.array_equal(traj.t, np.arange(251) * 0.01)


def test_simclock_delay_steps():
    assert BuildConfig(comm_delay=0.06).delay_steps() == 6
    assert BuildConfig(comm_delay=0.0).delay_steps() == 0
    with pytest.raises(ValueError, match="multiple"):
        BuildConfig(comm_delay=0.005)
    with pytest.raises(ValueError, match="non-negative"):
        BuildConfig(comm_delay=-0.01)


def test_delayed_state_returns_exact_stored_sample():
    """A delay of d steps observes the leader position from d rows back.

    A follower at standstill stays at the origin, so its gap is the
    observed leader position itself."""
    n, delay = 300, CFG.delay_steps()
    _, _, _, gap = run(40.0, 0.0, 14.0, ZERO, n)
    leader = leader_positions(40.0, 14.0, n, CFG.dt)
    assert np.array_equal(gap[delay:], leader[: n - delay])


def test_delayed_state_zero_delay_is_current_sample():
    cfg = BuildConfig(t_max=10.0, comm_delay=0.0)
    _, _, _, gap = run(40.0, 0.0, 14.0, ZERO, 300, cfg)
    assert np.array_equal(gap, leader_positions(40.0, 14.0, 300, cfg.dt))


def test_delayed_state_holds_initial_sample_before_start():
    """Rows before any delayed sample exists see the initial leader."""
    delay = CFG.delay_steps()
    _, _, _, gap = run(50.0, 0.0, 14.0, ZERO, 20)
    assert np.all(gap[: delay + 1] == 50.0)
    assert gap[delay + 1] == 50.0 + 14.0 * CFG.dt


def test_delayed_state_rejects_non_multiple_delay():
    with pytest.raises(ValueError, match="multiple"):
        BuildConfig(dt=0.01, comm_delay=0.005)


def test_bit_identical_resimulation():
    """Advancing in blocks of any length reproduces every float exactly."""
    law = ConsensusLaw([2.0, 7.0], [0.1, 0.1])
    whole = FollowerRuns([30.0, -40.0], [24.0, 8.0], [18.0, 20.0], law, CFG)
    expected = whole.advance(700)
    law = ConsensusLaw([2.0, 7.0], [0.1, 0.1])
    pieces = FollowerRuns([30.0, -40.0], [24.0, 8.0], [18.0, 20.0], law, CFG)
    blocks = [pieces.advance(rows) for rows in (3, 5, 1, 256, 435)]
    for want, got in zip(expected, zip(*blocks)):
        assert np.array_equal(want, np.concatenate(got))


def linear_scalar_loop(dr0, vi0, vj0, gains, n, cfg):
    """Rows 0 .. n of a hand-written scalar run over linear_feedback_accel."""
    delay = cfg.delay_steps()
    ri, vi, accel, rj = 0.0, vi0, 0.0, dr0
    leader = [rj]
    rows = []
    for idx in range(n + 1):
        delayed_rj = leader[max(idx - delay, 0)]
        rows.append((ri, vi, accel, delayed_rj - ri))
        if idx == n:
            break
        cmd = linear_feedback_accel(
            ri, delayed_rj, vi, vj0, 0.0, cfg.leader_length, cfg.time_gap, gains
        )
        ri, vi = ri + vi * cfg.dt, vi + cmd * cfg.dt
        accel = cmd
        rj = rj + vj0 * cfg.dt
        leader.append(rj)
    return [np.array(series) for series in zip(*rows)]


@pytest.mark.parametrize(
    "dr0, vi0, vj0, gains",
    [
        (25.0, 14.0, 17.0, LinearFeedbackGains()),
        (-30.0, 18.0, 10.0, LinearFeedbackGains(k_a=0.5, k_v=0.73, k_d=0.21,
                                                standstill_gap=2.5)),
        # Exact equilibrium with negative feedback gains: both feedback
        # terms are -0.0, so only the feedforward k_a * 0 makes the sum +0.0.
        (13.0, 10.0, 10.0, LinearFeedbackGains(k_a=1.0, k_v=-0.5, k_d=-0.2)),
    ],
    ids=["defaults", "behind", "signed-zero"],
)
def test_linear_law_matches_manual_scalar_loop(dr0, vi0, vj0, gains):
    """The kernel's linear feedback law, advanced in uneven blocks, equals a
    hand-written scalar loop over linear_feedback_accel bit for bit."""
    cfg = BuildConfig(t_max=10.0)
    delay = cfg.delay_steps()
    n = round(cfg.t_max / cfg.dt)
    runs = FollowerRuns([dr0], [vi0], [vj0], LinearFeedbackLaw(gains), cfg)
    blocks = [runs.advance(rows) for rows in (2, delay, 300, n + 1 - delay - 302)]
    kernel = [np.concatenate(series)[:, 0] for series in zip(*blocks)]
    scalar = linear_scalar_loop(dr0, vi0, vj0, gains, n, cfg)
    for want, got in zip(scalar, kernel):
        assert want.tobytes() == got.tobytes()
    if gains.k_v < 0:
        assert scalar[2][1] == 0.0 and not np.signbit(scalar[2][1])
