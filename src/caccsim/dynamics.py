"""The simulation kernel: batched car-following runs on a fixed-step grid.

Every run, offline for the table build and online for a scheduled
scenario, is integrated here.  A leader holds its initial speed; a
follower starts at the origin with zero acceleration and is driven by a
control law that sees the leader only through the communication delay.
Integration is explicit first order: position advances with the pre-step
speed, speed with the command, and the command is recorded as the
acceleration of the next sample.  A delay is a whole number of steps and
is never interpolated; before any delayed sample exists the initial one is
held.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FollowerRuns"]


class FollowerRuns:
    """Batched car-following runs, one column per run.

    law is a control law of caccsim.controllers with one entry per column
    (or one shared by all); cfg supplies dt, the delay and the spacing
    policy.  advance() returns the next rows of follower position, speed,
    acceleration and delayed gap; keep() drops columns.

    Only the step loop cannot be vectorized over rows, and its cost is
    the number of array operations per step, not their length, so it does
    as few as it can, writing into buffers of the block, with operand pairs
    laid side by side so that one call serves both.  Leader positions and
    gaps are computed for the whole block outside the loop; the running sum
    adds the leader's step in the same order as a step-by-step update.
    """

    def __init__(self, dr0, vi0, vj0, law, cfg):
        self.cfg = cfg
        self.law = law
        self.row = 0
        self.delay = cfg.delay_steps()
        # Follower (position, speed) at the last row returned.
        self.state = np.concatenate([np.zeros(len(vi0)), np.array(vi0, dtype=float)])
        self.vj = np.array(vj0, dtype=float)
        self.leader_step = self.vj * cfg.dt
        # Leader position at row max(row - 1 - delay, 0).
        self.leader = np.array(dr0, dtype=float)

    def advance(self, n_rows: int):
        """Rows row .. row + n_rows - 1 as four (n_rows, columns) arrays."""
        lo, m = self.row, len(self.vj)
        d = self.delay
        # lead[i]: leader position at row max(lo - 1 - d + i, 0), which is the
        # delayed leader the command of row lo + i sees.
        lead = np.empty((n_rows + 1, m))
        # Rows before 0 clamp to row 0, so lead[1 : still + 1] repeat lead[0].
        still = min(max(d + 1 - lo, 0), n_rows)
        lead[: still + 1] = self.leader
        lead[still + 1 :] = self.leader_step
        np.add.accumulate(lead[still:], axis=0, out=lead[still:])
        # rows[i]: positions, speeds and the commands that take them on,
        # each m long, at row lo - 1 + i.  Flat rows keep every operand of
        # the loop one contiguous vector.
        rows = np.empty((n_rows + 1, 3 * m))
        first = 0
        if lo == 0:  # row 0 is the initial state, reached by no command
            rows[0, 2 * m :] = 0.0
            rows[1, : 2 * m] = self.state
            first = 1
        else:
            rows[0, : 2 * m] = self.state
        aim = np.empty((n_rows, 2 * m))  # delayed leader position and speed
        aim[:, :m] = lead[:-1]
        aim[:, m:] = self.vj
        command = self.law.command(self.cfg, m)
        delta = np.empty(2 * m)
        dt = np.full(2 * m, self.cfg.dt)
        multiply, add = np.multiply, np.add
        steps = zip(
            rows[first:-1, : 2 * m],  # position and speed
            rows[first:-1, m : 2 * m],  # speed
            rows[first:-1, m:],  # speed and command
            rows[first:-1, 2 * m :],  # command
            rows[first + 1 :, : 2 * m],  # next position and speed
            aim[first:],
        )
        for state, speed, rates, cmd, nxt, target in steps:
            command(state, speed, target, cmd)
            multiply(rates, dt, delta)
            add(state, delta, nxt)
        self.row += n_rows
        self.state = rows[-1, : 2 * m].copy()
        self.leader = lead[-1].copy()
        gap = lead[1:] - rows[1:, :m]
        return rows[1:, :m], rows[1:, m : 2 * m], rows[:-1, 2 * m :], gap

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():
            return
        self.state = self.state[np.tile(mask, 2)]
        for name in ("vj", "leader_step", "leader"):
            setattr(self, name, getattr(self, name)[mask])
        self.law.keep(mask)
