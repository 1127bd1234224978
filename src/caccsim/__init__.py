"""Lookup-table gain scheduling for delay-aware CACC car following.

Offline, a constrained grid search simulates every candidate gain pair at
every tabulated operating point and stores the safest fastest choice.
Online, a follower snaps its operating point to the nearest cell and runs a
consensus controller with the stored gains, falling back to linear feedback
on a miss.  Stability checks and a benchmark harness round out the toolkit.
"""

__version__ = "0.1.0"
