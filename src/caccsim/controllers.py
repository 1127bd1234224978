"""Longitudinal controllers for a follower tracking a delayed leader.

All control laws see the leader only through the communication delay: the
leader sample handed to a controller is the delayed one.  The consensus law
regulates the gap toward a speed-dependent target spacing and weights the
speed error with a tunable gain; the linear feedback law is a conventional
fallback used when no scheduled gain is available.

Each law is a function on raw values (consensus_command,
linear_feedback_accel), the reference, and a law object (ConsensusLaw,
LinearFeedbackLaw) that the simulation kernel steps.  A one-column run
steps on Python floats, and its step is the raw-value function itself,
bound to the law's gains (the law's column_step).  Only the consensus law
has an in-place array step too, for the table build's batches; it does
the reference's arithmetic operation for operation, so both give the same
floats.  The fallback only ever runs one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GainPair",
    "LinearFeedbackGains",
    "InvalidGainsError",
    "ConsensusLaw",
    "LinearFeedbackLaw",
    "desired_gap",
    "consensus_command",
    "linear_feedback_accel",
    "require",
]


def require(settings, rule, holds, *names) -> None:
    """Raise ValueError(f"{name} must be {rule}, got {value!r}") for the
    first named field of settings whose value fails holds.

    The one single-field check of every settings record; a rule that
    relates two fields is written out where it applies.
    """
    for name in names:
        value = getattr(settings, name)
        if not holds(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


class InvalidGainsError(ValueError):
    """Raised when a controller is handed an invalid gain pair.

    The caller is expected to engage the fallback controller instead of
    retrying with the same gains.
    """


@dataclass(frozen=True)
class GainPair:
    """Consensus controller gains: position gain k, speed-error weight gamma.

    An invalid pair (the stored-table miss marker) carries NaN fields and
    valid=False; controllers refuse it.
    """

    k: float
    gamma: float
    valid: bool = True

    def __post_init__(self) -> None:
        if self.valid:
            require(self, "positive and finite", lambda v: 0 < v < math.inf, "k", "gamma")

    @classmethod
    def invalid(cls) -> "GainPair":
        return cls(k=math.nan, gamma=math.nan, valid=False)


@dataclass(frozen=True)
class LinearFeedbackGains:
    """Gains of the linear feedback fallback controller.

    k_a weights the leader's (delayed) acceleration, k_v the speed error,
    k_d the spacing error against a standstill-plus-time-gap policy.
    """

    k_a: float = 1.0
    k_v: float = 0.58
    k_d: float = 0.1
    standstill_gap: float = 1.0

    def __post_init__(self) -> None:
        require(self, "finite", math.isfinite, *(f.name for f in fields(self)))


def desired_gap(follower_speed, leader_length, time_gap, comm_delay):
    """Target spacing: leader length plus speed times (time gap + delay).

    Works elementwise on arrays.  The delay term compensates the age of the
    leader sample the controller acts on.
    """
    return leader_length + follower_speed * (time_gap + comm_delay)


def consensus_command(
    r_follower,
    r_leader_delayed,
    v_follower,
    v_leader_delayed,
    leader_length,
    headway_time,
    k,
    gamma,
):
    """Consensus law on raw values; elementwise over arrays.

    headway_time is the combined spacing horizon (time gap + delay).  The
    command drives the spacing disagreement and the speed disagreement to
    zero together.  The simulation kernel runs ConsensusLaw's in-place step
    instead; this is its reference, and it must give the same floats.
    """
    spacing_error = r_follower - r_leader_delayed + leader_length + v_follower * headway_time
    speed_error = v_follower - v_leader_delayed
    return -k * (spacing_error + gamma * speed_error)


def linear_feedback_accel(
    r_follower,
    r_leader_delayed,
    v_follower,
    v_leader_delayed,
    a_leader_delayed,
    leader_length,
    time_gap,
    gains: LinearFeedbackGains,
):
    """Linear feedback fallback on raw values: feedforward accel + speed +
    spacing terms.  LinearFeedbackLaw's column_step."""
    spacing_target = gains.standstill_gap + leader_length + v_follower * time_gap
    spacing_error = r_leader_delayed - r_follower - spacing_target
    speed_error = v_leader_delayed - v_follower
    return (
        gains.k_a * a_leader_delayed
        + gains.k_v * speed_error
        + gains.k_d * spacing_error
    )


# A law's column_step(cfg) returns the step of a one-column batch on
# floats: step(r, r_leader, v, v_leader) returns the command.
# ConsensusLaw's command(cfg, m) returns the kernel's per-step callable for
# m columns: step(state, speed, target, cmd) with state = [positions,
# speeds] of the followers, speed its second half, target = [positions,
# speeds] of the delayed leaders, writing the commands into cmd.  Buffers
# and 0-d operands (cheaper for a ufunc than a float, same value) are made
# once per call, so a step only runs ufuncs in place.


class ConsensusLaw:
    """consensus_command with one (gamma, k) per column."""

    def __init__(self, gamma, k):
        self.gamma = np.array(gamma, dtype=float)
        self.k = np.array(k, dtype=float)

    @classmethod
    def of(cls, gains: GainPair) -> "ConsensusLaw":
        """One-column law; an invalid pair calls for the fallback instead."""
        if not gains.valid:
            raise InvalidGainsError("invalid gain pair; engage the fallback controller")
        return cls([gains.gamma], [gains.k])

    def keep(self, mask) -> None:
        self.gamma, self.k = self.gamma[mask], self.k[mask]

    def column_step(self, cfg):
        lj, headway = cfg.leader_length, cfg.headway_time
        k, gamma = self.k.item(), self.gamma.item()

        def step(r, r_leader, v, v_leader):
            return consensus_command(r, r_leader, v, v_leader, lj, headway, k, gamma)

        return step

    def command(self, cfg, m: int):
        err = np.empty(2 * m)
        spacing, speed_err = err[:m], err[m:]
        term = np.empty(m)
        lj, headway = np.array(cfg.leader_length), np.array(cfg.headway_time)
        gamma, neg_k = self.gamma, -self.k
        subtract, add, multiply = np.subtract, np.add, np.multiply

        def step(state, speed, target, cmd):
            subtract(state, target, err)
            add(spacing, lj, spacing)
            multiply(speed, headway, term)
            add(spacing, term, spacing)
            multiply(gamma, speed_err, speed_err)
            add(spacing, speed_err, spacing)
            multiply(neg_k, spacing, cmd)

        return step


class LinearFeedbackLaw:
    """linear_feedback_accel with one gain set, for a one-column run.

    The kernel's leader holds its speed, so its delayed acceleration is 0;
    the feedforward term k_a * 0 is still taken, for its signed zero.
    """

    def __init__(self, gains: LinearFeedbackGains):
        self.gains = gains

    def column_step(self, cfg):
        lj, time_gap, gains = cfg.leader_length, cfg.time_gap, self.gains

        def step(r, r_leader, v, v_leader):
            return linear_feedback_accel(
                r, r_leader, v, v_leader, 0.0, lj, time_gap, gains
            )

        return step
