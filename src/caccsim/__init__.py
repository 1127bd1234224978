"""Lookup-table gain scheduling for delay-aware CACC car following.

Offline, a constrained grid search simulates every candidate gain pair at
every tabulated operating point and stores the safest fastest choice.
Online, a follower snaps its operating point to the nearest cell and runs a
consensus controller with the stored gains, falling back to linear feedback
on a miss.  Stability checks and a benchmark harness round out the toolkit.
"""

from .controllers import (
    ConsensusLaw,
    GainPair,
    InvalidGainsError,
    LinearFeedbackGains,
    LinearFeedbackLaw,
    desired_gap,
    linear_feedback_accel,
)
from .dynamics import FollowerRuns, simulate_pair
from .gaintable import (
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
    TableFormatError,
    build_table,
    load_table,
    lookup,
    save_table,
)
from .harness import (
    BaselineConfig,
    RunReport,
    ScenarioConfig,
    SuiteResult,
    run_scenario,
    run_suite,
)
from .metrics import (
    ComfortWeights,
    ConsensusThresholds,
    RunMetrics,
    SafetyMode,
    Trajectory,
    evaluate_run,
    jerk_series,
    omega_score,
)
from .stability import (
    FrequencySweep,
    StabilityMargin,
    string_stability_margin,
    transfer_magnitude,
)

__version__ = "0.1.0"
