"""Tests of the control laws: spacing policy, consensus law, fallback."""

from __future__ import annotations

import math

import numpy as np
import pytest

from caccsim.controllers import (
    DEFAULT_FALLBACK_GAINS,
    ConsensusLaw,
    GainPair,
    InvalidGainsError,
    LinearFeedbackGains,
    consensus_command,
    desired_gap,
    linear_feedback_accel,
)
from caccsim.gaintable import BuildConfig


def test_desired_gap_hand_values():
    """Spacing target is length plus speed times the combined horizon."""
    assert desired_gap(20.0, 5.0, 0.7, 0.06) == 20.2
    assert desired_gap(14.0, 5.0, 0.7, 0.06) == 15.64
    assert desired_gap(0.0, 5.0, 0.7, 0.06) == 5.0


def test_desired_gap_elementwise():
    speeds = np.array([0.0, 14.0, 20.0])
    out = desired_gap(speeds, 5.0, 0.7, 0.06)
    assert out.tolist() == [5.0, 15.64, 20.2]


def test_consensus_command_hand_value_unit_speed_weight():
    """Follower 50 m behind a delayed leader sample, closing at 14 m/s."""
    cmd = consensus_command(0.0, 50.0, 28.0, 14.0, 5.0, 0.76, k=0.1, gamma=1.0)
    assert cmd == 0.972


def test_consensus_command_hand_value_heavier_speed_weight():
    cmd = consensus_command(0.0, 50.0, 28.0, 14.0, 5.0, 0.76, k=0.1, gamma=3.0)
    assert cmd == -1.8280000000000003


def random_columns(rng, m):
    """Follower [positions, speeds] and delayed leader [positions, speeds]."""
    state = np.concatenate([rng.uniform(-50.0, 50.0, m), rng.uniform(0.0, 35.0, m)])
    target = np.concatenate([rng.uniform(-50.0, 150.0, m), rng.uniform(0.0, 35.0, m)])
    return state, target


def test_consensus_accel_matches_raw_command():
    """The kernel's in-place consensus step computes consensus_command,
    bit for bit, column by column."""
    rng = np.random.default_rng(17)
    m = 256
    gamma, k = rng.uniform(0.5, 10.0, m), rng.uniform(0.01, 2.0, m)
    for cfg in (BuildConfig(), BuildConfig(leader_length=4.3, time_gap=1.13)):
        step = ConsensusLaw(gamma, k).command(cfg, m)
        state, target = random_columns(rng, m)
        cmd = np.empty(m)
        step(state, state[m:], target, cmd)
        ri, vi = state[:m], state[m:]
        rj, vj = target[:m], target[m:]
        for n in range(m):
            expected = consensus_command(
                float(ri[n]), float(rj[n]), float(vi[n]), float(vj[n]),
                cfg.leader_length, cfg.headway_time, float(k[n]), float(gamma[n]),
            )
            assert cmd[n] == expected


def test_consensus_equilibrium_gives_zero_command():
    """Gap at target and equal speeds command no acceleration."""
    v = 20.0
    gap = desired_gap(v, 5.0, 0.7, 0.06)
    cmd = consensus_command(0.0, gap, v, v, 5.0, 0.76, k=0.1, gamma=4.0)
    assert cmd == 0.0


def test_consensus_command_scales_exactly_with_k_doubling():
    """Doubling k doubles the command bit for bit (power-of-two scaling)."""
    base = consensus_command(3.0, 41.0, 17.0, 15.0, 5.0, 0.76, k=0.1, gamma=2.0)
    doubled = consensus_command(3.0, 41.0, 17.0, 15.0, 5.0, 0.76, k=0.2, gamma=2.0)
    assert doubled == 2.0 * base


def test_consensus_command_linear_in_speed_error_weight():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ri = float(rng.uniform(-50.0, 50.0))
        rj = float(rng.uniform(-50.0, 150.0))
        vi = float(rng.uniform(0.0, 35.0))
        vj = float(rng.uniform(0.0, 35.0))
        g1 = float(rng.uniform(0.5, 9.0))
        g2 = g1 + float(rng.uniform(0.1, 3.0))
        c1 = consensus_command(ri, rj, vi, vj, 5.0, 0.76, 0.1, g1)
        c2 = consensus_command(ri, rj, vi, vj, 5.0, 0.76, 0.1, g2)
        expected_delta = -0.1 * (g2 - g1) * (vi - vj)
        assert c2 - c1 == pytest.approx(expected_delta, abs=1e-9)


def test_consensus_command_elementwise_matches_scalar():
    """The batched path computes the same floats as scalar calls."""
    rng = np.random.default_rng(5)
    ri = rng.uniform(-20.0, 20.0, size=64)
    rj = rng.uniform(0.0, 120.0, size=64)
    vi = rng.uniform(0.0, 35.0, size=64)
    vj = rng.uniform(0.0, 35.0, size=64)
    batched = consensus_command(ri, rj, vi, vj, 5.0, 0.76, 0.1, 3.0)
    for n in range(64):
        scalar = consensus_command(
            float(ri[n]), float(rj[n]), float(vi[n]), float(vj[n]),
            5.0, 0.76, 0.1, 3.0,
        )
        assert batched[n] == scalar


def test_gain_pair_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        GainPair(k=0.0, gamma=1.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        GainPair(k=0.1, gamma=-2.0)
    with pytest.raises(ValueError, match="k must be positive"):
        GainPair(k=math.nan, gamma=1.0)


def test_invalid_gain_pair_round_trip():
    pair = GainPair.invalid()
    assert not pair.valid
    assert math.isnan(pair.k) and math.isnan(pair.gamma)


def test_consensus_accel_refuses_invalid_gains():
    with pytest.raises(InvalidGainsError):
        ConsensusLaw.of(GainPair.invalid())


def test_linear_feedback_hand_value():
    """Feedforward 0.3, speed error 2 m/s, spacing error 10 m."""
    cmd = linear_feedback_accel(0.0, 30.0, 20.0, 22.0, 0.3, 5.0, 0.7, LinearFeedbackGains())
    assert cmd == 2.46


def test_linear_feedback_equilibrium():
    """At matched speed and target spacing only the feedforward term acts."""
    gains = LinearFeedbackGains()
    v = 14.0
    spacing = gains.standstill_gap + 5.0 + v * 0.7
    assert linear_feedback_accel(0.0, spacing, v, v, 0.0, 5.0, 0.7, gains) == 0.0


@pytest.mark.parametrize("field", ["k_a", "k_v", "k_d", "standstill_gap"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_linear_feedback_gains_reject_non_finite_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        LinearFeedbackGains(**{field: value})


def test_default_fallback_gains_are_fixed():
    assert DEFAULT_FALLBACK_GAINS.k_a == 1.0
    assert DEFAULT_FALLBACK_GAINS.k_v == 0.58
    assert DEFAULT_FALLBACK_GAINS.k_d == 0.1
    assert DEFAULT_FALLBACK_GAINS.standstill_gap == 1.0
