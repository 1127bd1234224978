"""Query a gain table and see when the fallback controller takes over.

The scheduled controller reads its gains from the nearest table cell at
t=0 and keeps them for the whole run.  Two situations force a fallback to
the plain linear-feedback law instead: the operating point lies outside
the table's axes, or the nearest cell holds the invalid marker because no
candidate survived there.

    python demos/03_lookup_and_fallback.py
"""

import math

from caccsim.gaintable import (
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
    build_table,
    lookup,
)
from caccsim.harness import ScenarioConfig, run_scenario

cfg = BuildConfig()

# A small table around moderate speeds.  Keep it tiny so the build is quick.
axes = AxisGrid(dr=[0.0, 30.0, 60.0], vi=[10.0, 20.0, 30.0], vj=[10.0, 20.0, 30.0])
candidates = CandidateSets(gammas=[2.0, 5.0, 8.0], ks=[0.1])
table = build_table(axes, candidates, cfg)

print("query -> stored gains (nearest cell, ties to the smaller grid value)")
for query in [(30.0, 20.0, 20.0), (44.0, 14.9, 25.1), (61.0, 20.0, 20.0), (500.0, 20.0, 20.0)]:
    pair = lookup(table, *query)
    if pair is None:
        verdict = "outside the axes -> no cell"
    elif not pair.valid:
        verdict = "marker cell -> invalid pair"
    else:
        verdict = f"gamma={pair.gamma:g} k={pair.k:g}"
    print(f"  dr={query[0]:6.1f} vi={query[1]:5.1f} vj={query[2]:5.1f}  {verdict}")

# A run whose starting point sits inside the grid: the table supplies the
# gains and the consensus law drives the approach.
print()
inside = ScenarioConfig(scenario_id="inside", dr0=30.0, vi0=20.0, vj0=20.0)
report, _ = run_scenario(inside, cfg, table)
print(f"inside the grid:  fallback={report.fallback_engaged}  "
      f"gains gamma={report.gains.gamma:g} k={report.gains.k:g}  "
      f"t_consensus={report.metrics.t_consensus:.2f} s")

# Start far outside the grid.  The lookup misses, so the harness silently
# swaps in the linear-feedback fallback and reports it.
outside = ScenarioConfig(scenario_id="outside", dr0=500.0, vi0=20.0, vj0=20.0)
report, _ = run_scenario(outside, cfg, table)
t = report.metrics.t_consensus
settle = f"{t:.2f} s" if math.isfinite(t) else "not reached"
print(f"outside the grid: fallback={report.fallback_engaged}  "
      f"gains=from fallback law  t_consensus={settle}")

# The same happens on a marker cell.  Force one to show the path.
k_cells = table.k_cells.copy()
gamma_cells = table.gamma_cells.copy()
k_cells[1, 1, 1] = math.nan
gamma_cells[1, 1, 1] = math.nan
marked = GainTable(axes, candidates, cfg, k_cells, gamma_cells)
report, _ = run_scenario(inside, cfg, marked)
print(f"marker cell:      fallback={report.fallback_engaged}")
