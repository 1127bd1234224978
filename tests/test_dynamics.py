"""Tests of the simulation kernel: stepping, delayed observation, the laws."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caccsim.controllers import (
    ConsensusLaw,
    LinearFeedbackGains,
    LinearFeedbackLaw,
    consensus_command,
    linear_feedback_accel,
)
from caccsim.dynamics import FollowerRuns, simulate_pair
from caccsim.gaintable import BuildConfig
from caccsim.harness import ScenarioConfig

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


def test_step_rejects_nonfinite_command():
    """A gain that overflows the command fails the run, not the numbers,
    and the one error is all that is reported: no numpy warning."""
    cfg = BuildConfig(t_max=2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="accel_cmd"):
            simulate_pair(30.0, 24.0, 18.0, ConsensusLaw([3.0], [1e308]), cfg)
    assert caught == []


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
    traj = simulate_pair(30.0, 24.0, 18.0, ZERO, BuildConfig(t_max=2.5))
    assert len(traj) == 251
    assert traj.t[250] == 250 * 0.01
    assert np.array_equal(traj.t, np.arange(251) * 0.01)


def test_simclock_delay_steps():
    assert BuildConfig(comm_delay=0.06).steps("comm_delay") == 6
    assert BuildConfig(comm_delay=0.0).steps("comm_delay") == 0
    with pytest.raises(ValueError, match="multiple"):
        BuildConfig(comm_delay=0.005)
    with pytest.raises(ValueError, match="non-negative"):
        BuildConfig(comm_delay=-0.01)


def test_delayed_state_returns_exact_stored_sample():
    """A delay of d steps observes the leader position from d rows back.

    A follower at standstill stays at the origin, so its gap is the
    observed leader position itself."""
    n, delay = 300, CFG.steps("comm_delay")
    _, _, _, gap = run(40.0, 0.0, 14.0, ZERO, n)
    leader = leader_positions(40.0, 14.0, n, CFG.dt)
    assert np.array_equal(gap[delay:], leader[: n - delay])


def test_delayed_state_zero_delay_is_current_sample():
    cfg = BuildConfig(t_max=10.0, comm_delay=0.0)
    _, _, _, gap = run(40.0, 0.0, 14.0, ZERO, 300, cfg)
    assert np.array_equal(gap, leader_positions(40.0, 14.0, 300, cfg.dt))


def test_delayed_state_holds_initial_sample_before_start():
    """Rows before any delayed sample exists see the initial leader."""
    delay = CFG.steps("comm_delay")
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
    # advance() returns views of buffers the next call reuses; keep copies.
    blocks = [[s.copy() for s in pieces.advance(rows)] for rows in (3, 5, 1, 256, 435)]
    for want, got in zip(expected, zip(*blocks)):
        assert np.array_equal(want, np.concatenate(got))


def linear_scalar_loop(dr0, vi0, vj0, gains, n, cfg):
    """Rows 0 .. n of a hand-written scalar run over linear_feedback_accel."""
    delay = cfg.steps("comm_delay")
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
        # A leader starting at -0.0 keeps its sign: the first gap is -0.0.
        (-0.0, 10.0, 10.0, LinearFeedbackGains()),
    ],
    ids=["defaults", "behind", "signed-zero", "leader-at-minus-zero"],
)
def test_linear_law_matches_manual_scalar_loop(dr0, vi0, vj0, gains):
    """The kernel's linear feedback law, advanced in uneven blocks, equals a
    hand-written scalar loop over linear_feedback_accel bit for bit.  The
    fallback only runs one column, on the kernel's float loop."""
    cfg = BuildConfig(t_max=10.0)
    delay = cfg.steps("comm_delay")
    n = round(cfg.t_max / cfg.dt)
    runs = FollowerRuns([dr0], [vi0], [vj0], LinearFeedbackLaw(gains), cfg)
    scalar = linear_scalar_loop(dr0, vi0, vj0, gains, n, cfg)
    blocks = [
        [s.copy() for s in runs.advance(rows)]
        for rows in (2, delay, 300, n + 1 - delay - 302)
    ]
    kernel = [np.concatenate(series)[:, 0] for series in zip(*blocks)]
    for want, got in zip(scalar, kernel):
        assert want.tobytes() == got.tobytes()
    if gains.k_v < 0:
        assert scalar[2][1] == 0.0 and not np.signbit(scalar[2][1])


speeds = st.floats(0.0, 35.0)
weights = st.floats(-1.0, 2.0)


@st.composite
def law_columns(draw):
    """Three runs' initial conditions, a law over them and the fallback's
    gains: consensus with gains per column (gains None), or linear feedback
    with one gain set (k_a may be negative), which runs one column only."""
    dr0 = draw(st.lists(st.floats(-60.0, 120.0), min_size=3, max_size=3))
    vi0 = draw(st.lists(speeds, min_size=3, max_size=3))
    vj0 = draw(st.lists(speeds, min_size=3, max_size=3))
    if draw(st.booleans()):
        gammas = draw(st.lists(st.floats(0.5, 10.0), min_size=3, max_size=3))
        ks = draw(st.lists(st.floats(0.01, 2.0), min_size=3, max_size=3))
        make = lambda cols: ConsensusLaw([gammas[c] for c in cols], [ks[c] for c in cols])
        return dr0, vi0, vj0, make, None
    gains = LinearFeedbackGains(
        draw(weights), draw(weights), draw(weights), draw(st.floats(0.0, 5.0))
    )
    return dr0, vi0, vj0, lambda cols: LinearFeedbackLaw(gains), gains


@settings(max_examples=150, deadline=None)
@given(
    columns=law_columns(),
    comm_delay=st.sampled_from([0.0, 0.02, 0.06]),
    blocks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    col=st.integers(0, 2),
    narrow_after=st.integers(0, 8),
)
def test_one_column_loop_matches_the_batch_column(columns, comm_delay, blocks, col, narrow_after):
    """A run stepped alone on floats gives the bytes of the same run as a
    column of a three-column batch stepped on arrays, whatever the block
    split, the delay, and wherever keep() narrows the batch to that column.
    The fallback has no batch, so its run is checked against the scalar
    loop instead."""
    dr0, vi0, vj0, make, gains = columns
    cfg = BuildConfig(t_max=10.0, comm_delay=comm_delay)
    alone = FollowerRuns([dr0[col]], [vi0[col]], [vj0[col]], make([col]), cfg)
    if gains is not None:
        n = sum(blocks) - 1
        scalar = linear_scalar_loop(dr0[col], vi0[col], vj0[col], gains, n, cfg)
        kernel = zip(*([s[:, 0].copy() for s in alone.advance(rows)] for rows in blocks))
        for want, got in zip(scalar, kernel):
            assert want.tobytes() == np.concatenate(got).tobytes()
        return
    batch = FollowerRuns(dr0, vi0, vj0, make([0, 1, 2]), cfg)
    narrowed = FollowerRuns(dr0, vi0, vj0, make([0, 1, 2]), cfg)
    only = np.arange(3) == col
    for i, rows in enumerate(blocks):
        if i == narrow_after:
            narrowed.keep(only)
        got = narrowed.advance(rows)
        at = 0 if i >= narrow_after else col
        for one, full, part in zip(alone.advance(rows), batch.advance(rows), got):
            assert one[:, 0].tobytes() == full[:, col].tobytes() == part[:, at].tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), comm_delay=st.sampled_from([0.0, 0.02, 0.06]))
def test_reused_block_buffers_leave_the_rows_unchanged(data, comm_delay):
    """Rows handed out in random blocks, with keep() dropping random columns
    between blocks, equal by bytes the same rows and columns of one
    advance() over the whole run."""
    m = data.draw(st.integers(2, 6), label="columns")

    def draw(values):
        return data.draw(st.lists(values, min_size=m, max_size=m))

    dr0, vi0, vj0 = draw(st.floats(-60.0, 120.0)), draw(speeds), draw(speeds)
    gammas, ks = draw(st.floats(0.5, 10.0)), draw(st.floats(0.01, 2.0))
    blocks = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=8))
    cfg = BuildConfig(t_max=10.0, comm_delay=comm_delay)
    whole = FollowerRuns(dr0, vi0, vj0, ConsensusLaw(gammas, ks), cfg)
    whole = whole.advance(sum(blocks))
    pieces = FollowerRuns(dr0, vi0, vj0, ConsensusLaw(gammas, ks), cfg)
    open_cols, lo = np.arange(m), 0
    for rows in blocks:
        for want, got in zip(whole, pieces.advance(rows)):
            assert want[lo : lo + rows, open_cols].tobytes() == got.tobytes()
        lo += rows
        mask = np.array(draw(st.booleans())[: len(open_cols)])
        if mask.any():
            pieces.keep(mask)
            open_cols = open_cols[mask]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), comm_delay=st.sampled_from([0.0, 0.02, 0.06]))
def test_columns_sharing_leaders_give_the_rows_of_each_column_alone(data, comm_delay):
    """A batch whose columns share leaders in any order hands out the row
    bytes of each column run alone, with random blocks and keep() calls
    between them, stepped on arrays and, once keep() has narrowed it to
    one column, on floats.  Leaders at 0.0 and -0.0 are different
    leaders, and some batches follow two leaders that differ only there.
    Some batches give each column a leader of its own, and some are cut
    by their first keep() to columns with a leader each, numbered in
    another order than the columns.  A keep() may drop every column of
    the lowest-numbered leader still followed, or cut the batch to one
    column of the highest-numbered one, so the leaders kept from the
    start outlive the columns that follow them."""
    m = data.draw(st.integers(1, 20), label="columns")
    shape = data.draw(st.sampled_from(["shared", "own", "reordered", "signed-zero"]), label="shape")

    def draw(values, size=None):
        size = m if size is None else size
        return data.draw(st.lists(values, min_size=size, max_size=size))

    if shape == "signed-zero":  # both leaders followed, by two columns or more
        vj = data.draw(speeds, label="vj")
        leaders = [(0.0, vj), (-0.0, vj)]
        of, m = [0, 1, *draw(st.integers(0, 1))], m + 2
    else:
        leaders = data.draw(st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 30.0]) | st.floats(-60.0, 120.0), speeds),
            min_size=1 if shape == "shared" else m, max_size=m,
            unique_by=lambda leader: np.array(leader).tobytes(),
        ), label="leaders")
    if shape == "shared":
        of = draw(st.integers(0, len(leaders) - 1))
    elif shape != "signed-zero":
        of = data.draw(st.permutations(range(m)), label="order")
    if shape == "reordered":
        # Column 0 shares the last column's leader and is dropped first, so
        # that leader lives on in a column it was not first read from.
        of, m = [of[-1], *of], m + 1
    dr0, vj0 = ([leaders[i][j] for i in of] for j in (0, 1))
    vi0, gammas, ks = draw(speeds), draw(st.floats(0.5, 10.0)), draw(st.floats(0.01, 2.0))
    blocks = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=8))
    cfg = BuildConfig(t_max=10.0, comm_delay=comm_delay)
    batch = FollowerRuns(dr0, vi0, vj0, ConsensusLaw(gammas, ks), cfg)
    alone = [
        FollowerRuns([dr0[c]], [vi0[c]], [vj0[c]], ConsensusLaw([gammas[c]], [ks[c]]), cfg)
        for c in range(m)
    ]
    open_cols = np.arange(m)
    for rows in blocks:
        ones = [alone[c].advance(rows) for c in open_cols]
        want = [np.concatenate(series, axis=1) for series in zip(*ones)]
        for one, got in zip(want, batch.advance(rows)):
            assert one.tobytes() == got.tobytes()
        cut = data.draw(st.sampled_from(["any", "lowest", "one"]), label="keep")
        if shape == "reordered" and len(open_cols) == m:
            mask = open_cols > 0
        elif cut == "lowest":
            mask = batch.leader_of != batch.leader_of.min()
        elif cut == "one":
            mask = np.arange(len(open_cols)) == batch.leader_of.argmax()
        else:
            mask = np.array(draw(st.booleans(), len(open_cols)))
        if mask.any():
            batch.keep(mask)
            open_cols = open_cols[mask]
