"""Follow one leader with the consensus controller and watch it settle.

Two vehicles share a lane.  The leader cruises at constant speed some
distance ahead; the follower starts at the origin with a different speed
and closes in on a spacing of one leader length plus a speed-dependent
headway.  The follower only sees the leader through a communication delay,
so it steers against slightly stale data the whole way.

Run it:

    python demos/01_single_run.py

It prints the settling time, the comfort figures, and a coarse strip chart
of the gap error so you can see the approach without a plotting stack.
"""

import math

from caccsim.controllers import GainPair
from caccsim.gaintable import BuildConfig
from caccsim.harness import ScenarioConfig, run_scenario

# The operating point: leader 50 m ahead at 14 m/s, follower arriving at
# 28 m/s.  A hard closing maneuver, but it stays comfortable with the
# right gains.
scenario = ScenarioConfig(
    scenario_id="closing-in",
    dr0=50.0,
    vi0=28.0,
    vj0=14.0,
    controller="fixed_consensus",
    gains=GainPair(k=0.1, gamma=4.0),
)

# Default timing and evaluation settings: 10 ms steps, 120 s runs, 60 ms
# communication delay, 0.7 s time gap, projected gap-floor arming.
cfg = BuildConfig()

report, trajectory = run_scenario(scenario, cfg)
m = report.metrics

print(f"scenario: leader {scenario.dr0:+.0f} m ahead at {scenario.vj0:.0f} m/s, "
      f"follower at {scenario.vi0:.0f} m/s")
print(f"gains: gamma={report.gains.gamma:g} k={report.gains.k:g}")
if math.isfinite(m.t_consensus):
    print(f"consensus after {m.t_consensus:.2f} s "
          f"(bands held for {cfg.hold_window:.1f} s)")
else:
    print("consensus not reached inside the run")
print(f"accel range  [{-m.max_decel:+.3f}, {m.max_accel:+.3f}] m/s^2")
print(f"jerk range   [{m.min_jerk:+.3f}, {m.max_jerk:+.3f}] m/s^3")
print(f"comfort score {m.omega:.3f}")
print(f"closest armed gap {m.min_gap:.2f} m "
      f"(floor {cfg.leader_length:.0f} m, violated: {m.safety_violated})")

# Strip chart: one row per 5 s, the bar is |gap error| on a log-ish scale.
# The error is the gap minus the speed-dependent target at that instant.
# Stop a little past settling; the tail is all zeros.
print()
print("gap error over time (one row per 5 s):")
desired = trajectory.desired_gaps()
error = trajectory.gap - desired
step = round(5.0 / cfg.dt)
t_stop = cfg.t_max
if math.isfinite(m.t_consensus):
    t_stop = min(t_stop, m.t_consensus + 10.0)
last = round(t_stop / cfg.dt)
for idx in range(0, last + 1, step):
    e = float(error[idx])
    if abs(e) < 0.05:
        bar = ""
    else:
        bar = "#" * min(40, 1 + int(8 * math.log10(abs(e) / 0.05)))
    print(f"  t={trajectory.t[idx]:6.1f} s  err={e:+8.2f} m  {bar}")
