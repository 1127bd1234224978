"""Frequency-domain check: disturbance amplification.

A platoon is string stable when a disturbance shrinks as it propagates
backwards, i.e. the leader-to-follower transfer magnitude never exceeds
one at any frequency.  This demo sweeps that magnitude for a range of
speed-error weights, then for a range of position gains.

    python demos/04_stability_sweep.py
"""

from caccsim.controllers import GainPair
from caccsim.stability import (
    FrequencySweep,
    string_stability_margin,
    transfer_magnitude,
)

sweep = FrequencySweep()

print("peak |G| over the sweep (k=0.1, time gap 0.7 s, delay 60 ms):")
for gamma in [1.0, 2.0, 4.0, 7.0, 10.0]:
    margin = string_stability_margin(GainPair(k=0.1, gamma=gamma), sweep=sweep)
    verdict = "stable" if margin.stable else "UNSTABLE"
    print(f"  gamma={gamma:5.1f}  max|G|={margin.max_magnitude:.4f} "
          f"at {margin.worst_omega:.4f} rad/s  {verdict}")

# Push the position weight up until amplification appears.  High k buys
# tracking speed at the cost of string stability.
print()
print("same sweep with gamma=1 while raising k:")
for k in [0.1, 0.4, 0.8, 1.2]:
    margin = string_stability_margin(GainPair(k=k, gamma=1.0), sweep=sweep)
    verdict = "stable" if margin.stable else "UNSTABLE"
    print(f"  k={k:4.1f}  max|G|={margin.max_magnitude:.4f}  {verdict}")

# The low-frequency end tends to k, not to one; a platoon filtered this
# way attenuates slow drift.
g = GainPair(k=0.1, gamma=1.0)
low = transfer_magnitude(1e-3, g)
print()
print(f"low-frequency gain: |G|(0.001) = {low:.6f} (limit is k = 0.1)")

