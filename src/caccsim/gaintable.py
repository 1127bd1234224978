"""Offline gain-table build, online lookup, and table persistence.

A table cell is keyed by (initial gap, follower speed, leader speed) and
stores the gain pair that, in an offline car-following run from that
operating point, passes the gap-floor check and reaches consensus fastest,
with comfort score and then lexicographic order breaking ties.  Cells where
no candidate qualifies store a NaN marker.  Lookup snaps a query to the
nearest cell per axis and refuses queries outside the grid.

The builder runs every candidate of a chunk of cells as columns of one
batch of the simulation kernel (dynamics.FollowerRuns with the consensus
law) and scores it as it goes: after each block of steps it folds the new
rows into a few numbers per run (last band break, first sustained index,
armed flag, first gap-floor violation) and settles every cell whose stored
gains can no longer change, so most cells stop long before the horizon.
No rows outlive their block: the rare time tie, which compares comfort
scores over whole runs, re-simulates the tied runs.  The harness runs a
scenario on the same kernel, as one column, and band and comfort
arithmetic are those of evaluate_run, so a single re-run of a cell's
operating point reproduces any stored decision exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controllers import ConsensusLaw, GainPair, desired_gap
from .dynamics import FollowerRuns
from .metrics import (
    ONSET_EXCLUDED_SAMPLES,
    ComfortWeights,
    ConsensusThresholds,
    RunMetrics,
    SafetyMode,
    _bands_ok,
    _jerk,
    _window_extrema,
    omega_score,
)

__all__ = [
    "AxisGrid",
    "CandidateSets",
    "BuildConfig",
    "GainTable",
    "TableFormatError",
    "build_table",
    "lookup",
    "save_table",
    "load_table",
]

FORMAT_VERSION = "gaintable-v1"

# Fixed for this format version; recorded on the table for documentation.
TIE_RULE = "min convergence time, then min comfort score, then smallest (gamma, k)"

# Rows simulated between two scorings of a batch.  Decisions are exact at
# any block length; a longer block amortizes the scoring over more steps
# but runs a settled cell on for longer (half a block on average).
_BLOCK_STEPS = 256


def _ascending_floats(values, name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if len(arr) > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly ascending")
    return arr


@dataclass(frozen=True)
class AxisGrid:
    """The three sorted coordinate grids of the table.

    dr : m, initial delayed-leader gap values.
    vi : m/s, follower speed values.
    vj : m/s, leader speed values.
    """

    dr: np.ndarray
    vi: np.ndarray
    vj: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dr", _ascending_floats(self.dr, "dr axis"))
        object.__setattr__(self, "vi", _ascending_floats(self.vi, "vi axis"))
        object.__setattr__(self, "vj", _ascending_floats(self.vj, "vj axis"))

    @property
    def shape(self) -> tuple[int, int, int]:
        return len(self.dr), len(self.vi), len(self.vj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AxisGrid):
            return NotImplemented
        return (
            np.array_equal(self.dr, other.dr)
            and np.array_equal(self.vi, other.vi)
            and np.array_equal(self.vj, other.vj)
        )


@dataclass(frozen=True)
class CandidateSets:
    """Candidate gain values searched per cell, each strictly ascending."""

    gammas: np.ndarray
    ks: np.ndarray

    def __post_init__(self) -> None:
        gammas = _ascending_floats(self.gammas, "gamma candidates")
        ks = _ascending_floats(self.ks, "k candidates")
        if not np.all(gammas > 0):
            raise ValueError("gamma candidates must be positive")
        if not np.all(ks > 0):
            raise ValueError("k candidates must be positive")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "ks", ks)

    def pairs(self) -> list[tuple[float, float]]:
        """Candidate (gamma, k) pairs in lexicographic order."""
        return [(float(g), float(k)) for g in self.gammas for k in self.ks]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CandidateSets):
            return NotImplemented
        return np.array_equal(self.gammas, other.gammas) and np.array_equal(
            self.ks, other.ks
        )


@dataclass(frozen=True)
class BuildConfig:
    """Settings shared by the table build and the run harness."""

    dt: float = 0.01
    t_max: float = 120.0
    comm_delay: float = 0.06
    leader_length: float = 5.0
    time_gap: float = 0.7
    thresholds: ConsensusThresholds = field(default_factory=ConsensusThresholds)
    weights: ComfortWeights = field(default_factory=ComfortWeights)
    safety_mode: SafetyMode = SafetyMode.PROJECTED
    hold_window: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "dt", "t_max", "comm_delay", "leader_length", "time_gap", "hold_window"
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.hold_window < 0:
            raise ValueError("hold_window must be non-negative")
        if not self.t_max > self.hold_window:
            raise ValueError("t_max must exceed hold_window")
        if round(self.t_max / self.dt) < 1:
            raise ValueError(
                f"t_max {self.t_max!r} must span at least one step of dt {self.dt!r}"
            )
        if not self.leader_length > 0:
            raise ValueError("leader_length must be positive")
        if not self.time_gap > 0:
            raise ValueError("time_gap must be positive")
        self.delay_steps()  # validates divisibility

    def delay_steps(self) -> int:
        """Communication delay in whole steps; must divide evenly."""
        ratio = self.comm_delay / self.dt
        n = round(ratio)
        if self.comm_delay < 0 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"comm_delay {self.comm_delay!r} must be a non-negative integer "
                f"multiple of dt {self.dt!r}"
            )
        return n

    @property
    def headway_time(self) -> float:
        return self.time_gap + self.comm_delay


class TableFormatError(ValueError):
    """Raised when a table file cannot be parsed or fails validation."""


@dataclass
class GainTable:
    """Built gain table: axes, candidate sets, settings, and cell gains.

    k_cells and gamma_cells have the axes shape; NaN in both marks a cell
    where no candidate passed the gap floor or none converged.
    """

    axes: AxisGrid
    candidates: CandidateSets
    config: BuildConfig
    k_cells: np.ndarray
    gamma_cells: np.ndarray
    tie_rule: str = TIE_RULE

    def __post_init__(self) -> None:
        shape = self.axes.shape
        self.k_cells = np.asarray(self.k_cells, dtype=float).reshape(shape)
        self.gamma_cells = np.asarray(self.gamma_cells, dtype=float).reshape(shape)
        if not np.array_equal(
            np.isnan(self.k_cells), np.isnan(self.gamma_cells)
        ):
            raise ValueError("k and gamma markers disagree on some cells")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.axes.shape

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.k_cells)

    def cell(self, i1: int, i2: int, i3: int) -> GainPair:
        k = float(self.k_cells[i1, i2, i3])
        gamma = float(self.gamma_cells[i1, i2, i3])
        if math.isnan(k):
            return GainPair.invalid()
        return GainPair(k=k, gamma=gamma)

    def distinct_valid_pairs(self) -> list[tuple[float, float]]:
        """Sorted distinct (gamma, k) pairs stored in valid cells."""
        mask = self.valid_mask()
        pairs = {
            (float(g), float(k))
            for g, k in zip(self.gamma_cells[mask], self.k_cells[mask])
        }
        return sorted(pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GainTable):
            return NotImplemented
        return (
            self.axes == other.axes
            and self.candidates == other.candidates
            and self.config == other.config
            and np.array_equal(self.k_cells, other.k_cells, equal_nan=True)
            and np.array_equal(self.gamma_cells, other.gamma_cells, equal_nan=True)
        )


class _CellScorer:
    """Streaming evaluation and staged selection for a batch of cells.

    Columns come in cell order, one per candidate pair.  score() takes the
    next rows of every open column and judges them with the band arithmetic
    of evaluate_run; it carries, per column, the row of the last band break,
    the first sustained index, the projected-mode armed flag and the first
    armed gap-floor violation.  No rows are kept: the comfort tie-break,
    which needs a column's whole acceleration series and is rare, gets it
    from accel_of(column, n_rows), column being the index in the batch.
    decide() settles every cell whose stored gains can no longer change and
    drops its columns.
    """

    def __init__(self, vj, pairs, n_samples: int, cfg: BuildConfig, accel_of):
        m = len(vj)
        self.pairs = pairs
        self.accel_of = accel_of
        self.cfg = cfg
        self.n_samples = n_samples
        self.window = round(cfg.hold_window / cfg.dt)
        self.rows = 0
        n_cells = m // len(pairs)
        self.k = np.full(n_cells, math.nan)
        self.gamma = np.full(n_cells, math.nan)
        # Open cells and columns, by their index in the batch.
        self.cells = np.arange(n_cells)
        self.cols = np.arange(m)
        self.vj = np.asarray(vj, dtype=float)[None, :]
        self.prev_accel = np.zeros(m)
        self.last_break = np.full(m, -1)
        self.first_hold = np.full(m, -1)  # -1 until the bands have held
        self.armed = np.full(m, cfg.safety_mode is SafetyMode.SAME_LANE)
        self.first_violation = np.full(m, n_samples)  # n_samples: none yet

    def score(self, v_follower, a_follower, gap) -> None:
        """Fold the next rows of the open columns into the carried state."""
        cfg = self.cfg
        lo = self.rows
        hi = lo + len(a_follower)
        jerk = np.empty_like(a_follower)
        jerk[0] = (a_follower[0] - self.prev_accel) / cfg.dt if lo else 0.0
        jerk[1:] = (a_follower[1:] - a_follower[:-1]) / cfg.dt
        self.prev_accel = a_follower[-1]
        desired = desired_gap(
            v_follower, cfg.leader_length, cfg.time_gap, cfg.comm_delay
        )
        ok = _bands_ok(
            gap, desired, self.vj, v_follower, a_follower, jerk, cfg.thresholds
        )

        rows = np.arange(lo, hi)[:, None]
        breaks = np.maximum.accumulate(np.where(ok, -1, rows), axis=0)
        np.maximum(breaks, self.last_break, out=breaks)
        held = ok & (rows - breaks > self.window)
        # The first held row closes the first run of window + 1 in-band rows.
        new_hold = held.any(axis=0) & (self.first_hold < 0)
        self.first_hold = np.where(
            new_hold, lo + held.argmax(axis=0) - self.window, self.first_hold
        )
        self.last_break = breaks[-1]

        armed = np.logical_or.accumulate(gap > cfg.leader_length, axis=0) | self.armed
        below = armed & (gap <= cfg.leader_length)
        new_violation = below.any(axis=0) & (self.first_violation == self.n_samples)
        self.first_violation = np.where(
            new_violation, lo + below.argmax(axis=0), self.first_violation
        )
        self.armed = armed[-1]
        self.rows = hi

    def decide(self) -> np.ndarray:
        """Settle the cells whose gains are final; returns the kept-column mask.

        Exact after L scored rows with a hold window of w rows.  A safe
        converged column (first sustained index i with i + w < L, first
        violation after i) settles its cell: a column not converged yet has
        index >= L - w > i, so it can neither win nor tie.  A cell is also
        settled, as a marker, when every column is excluded: converged but
        unsafe, or not converged with its first armed violation at or before
        the start of its current band run.  At the horizon every cell is
        settled.
        """
        n_cand = len(self.pairs)
        converged = self.first_hold >= 0
        safe = converged & (self.first_violation > self.first_hold)
        excluded = np.where(
            converged, ~safe, self.first_violation <= self.last_break + 1
        )
        done = safe.reshape(-1, n_cand).any(axis=1)
        done |= excluded.reshape(-1, n_cand).all(axis=1)
        if self.rows == self.n_samples:
            done[:] = True
        keep = np.repeat(~done, n_cand)
        if done.any():
            # Columns not converged yet go in as unconverged; see above.
            t_consensus = np.where(converged, self.first_hold * self.cfg.dt, math.inf)
            end = np.where(converged, self.first_hold, self.rows - 1)
            violated = self.first_violation <= end
            for pos in np.flatnonzero(done):
                lo = pos * n_cand

                def comfort(i, lo=lo):
                    return self._comfort(lo + i, int(end[lo + i]))

                cell = self.cells[pos]
                self.k[cell], self.gamma[cell] = _select_cell(
                    t_consensus[lo : lo + n_cand],
                    violated[lo : lo + n_cand],
                    comfort,
                    self.pairs,
                )
            self.cells = self.cells[~done]
            self.cols = self.cols[keep]
            self.vj = self.vj[:, keep]
            for name in (
                "prev_accel", "last_break", "first_hold", "armed", "first_violation"
            ):
                setattr(self, name, getattr(self, name)[keep])
        return keep

    def _comfort(self, col: int, end_idx: int) -> float:
        """Comfort score of open column col over rows [0, end_idx]."""
        a = self.accel_of(int(self.cols[col]), end_idx + 1)
        jerk = _jerk(a, self.cfg.dt)
        extrema = _window_extrema(a, jerk, end_idx, ONSET_EXCLUDED_SAMPLES)
        # Only the extrema enter the score; the other fields are unused.
        comfort = RunMetrics(math.inf, *extrema, 0.0, math.nan, False)
        return omega_score(comfort, self.cfg.weights)


def _select_cell(t_consensus, violated, comfort, pairs) -> tuple[float, float]:
    """Stored gains for one cell from its candidates' run outcomes.

    t_consensus[i] is candidate i's consensus time (inf when not reached),
    violated[i] whether it broke the gap floor up to then (or over the whole
    run), and comfort(i) its comfort score, asked for only to break a time
    tie.  Stage 1 keeps candidates that pass the gap floor; none left means
    a marker cell.  Stage 2 keeps the converged ones with minimum
    convergence time; none converged also means a marker cell.  A unique
    minimizer wins outright; otherwise minimum comfort score, then smallest
    (gamma, k).
    """
    safe = [i for i in range(len(pairs)) if not violated[i]]
    if not safe:
        return math.nan, math.nan
    converged = [i for i in safe if math.isfinite(t_consensus[i])]
    if not converged:
        return math.nan, math.nan
    t_best = min(t_consensus[i] for i in converged)
    fastest = [i for i in converged if t_consensus[i] == t_best]
    if len(fastest) > 1:
        omega = {i: comfort(i) for i in fastest}
        omega_best = min(omega.values())
        tied = [i for i in fastest if omega[i] == omega_best]
        winner = min(tied, key=lambda i: pairs[i])
    else:
        winner = fastest[0]
    gamma, k = pairs[winner]
    return k, gamma


def _evaluate_cells(args):
    """Worker: stored gains of a list of flat cell indices.

    Simulates every candidate of the cells as one batch, _BLOCK_STEPS rows
    at a time.  After each block the rows are scored, every cell whose
    stored gains are final is settled and its columns leave the batch
    (_CellScorer.decide); the batch stops when no column is left.  Cells
    where a safe candidate converged early stop early; a marker cell stops
    once every candidate has broken the gap floor, else at the horizon.
    A time tie re-simulates the tied runs alone for their comfort scores;
    the arithmetic is per column, so they come out the same.
    """
    flat_indices, axes, candidates, cfg = args
    pairs = candidates.pairs()
    n_cand = len(pairs)
    shape = axes.shape

    cells = [np.unravel_index(i, shape) for i in flat_indices]
    dr0 = np.repeat([float(axes.dr[c[0]]) for c in cells], n_cand)
    vi0 = np.repeat([float(axes.vi[c[1]]) for c in cells], n_cand)
    vj0 = np.repeat([float(axes.vj[c[2]]) for c in cells], n_cand)
    gamma = np.tile([p[0] for p in pairs], len(cells))
    k = np.tile([p[1] for p in pairs], len(cells))

    def accel_of(col, n_rows):
        one = slice(col, col + 1)
        law = ConsensusLaw(gamma[one], k[one])
        run = FollowerRuns(dr0[one], vi0[one], vj0[one], law, cfg)
        return run.advance(n_rows)[2][:, 0]

    n_samples = round(cfg.t_max / cfg.dt) + 1
    runs = FollowerRuns(dr0, vi0, vj0, ConsensusLaw(gamma, k), cfg)
    scorer = _CellScorer(vj0, pairs, n_samples, cfg, accel_of)
    while len(scorer.cols):
        _, v, a, gap = runs.advance(min(_BLOCK_STEPS, n_samples - runs.row))
        scorer.score(v, a, gap)
        runs.keep(scorer.decide())
    return flat_indices, scorer.k, scorer.gamma


def build_table(
    axes: AxisGrid,
    candidates: CandidateSets,
    cfg: BuildConfig,
    workers: int = 1,
    cell_chunk: int = 48,
) -> GainTable:
    """Constrained grid search over every cell of the axes.

    Deterministic: results do not depend on workers or chunking, and a
    serial and a parallel build of the same inputs serialize to identical
    bytes.  Tie breaking follows TIE_RULE.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if cell_chunk < 1:
        raise ValueError("cell_chunk must be at least 1")
    shape = axes.shape
    n_cells = shape[0] * shape[1] * shape[2]
    k_cells = np.full(n_cells, math.nan)
    gamma_cells = np.full(n_cells, math.nan)

    tasks = [
        (list(range(lo, min(lo + cell_chunk, n_cells))), axes, candidates, cfg)
        for lo in range(0, n_cells, cell_chunk)
    ]
    if workers == 1:
        results = map(_evaluate_cells, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_evaluate_cells, tasks))
        finally:
            pool.shutdown()
    for flat_indices, k_vals, gamma_vals in results:
        k_cells[flat_indices] = k_vals
        gamma_cells[flat_indices] = gamma_vals

    table = GainTable(
        axes=axes,
        candidates=candidates,
        config=cfg,
        k_cells=k_cells.reshape(shape),
        gamma_cells=gamma_cells.reshape(shape),
    )
    _validate_members(table)
    return table


def _validate_members(table: GainTable) -> None:
    """Every valid cell's gains must come from the candidate sets."""
    mask = table.valid_mask()
    gammas = set(float(g) for g in table.candidates.gammas)
    ks = set(float(k) for k in table.candidates.ks)
    for g, k in zip(table.gamma_cells[mask], table.k_cells[mask]):
        if float(g) not in gammas or float(k) not in ks:
            raise TableFormatError(
                f"stored gains (gamma={g!r}, k={k!r}) are not candidate members"
            )


def _nearest_index(grid: np.ndarray, query: float) -> int | None:
    """Nearest grid index by absolute distance; ties go to the smaller value.

    None when the query lies strictly outside [grid[0], grid[-1]].
    """
    if not math.isfinite(query):
        return None
    if query < grid[0] or query > grid[-1]:
        return None
    i = int(np.searchsorted(grid, query))
    if i == 0:
        return 0
    if i >= len(grid):
        return len(grid) - 1
    below = query - grid[i - 1]
    above = grid[i] - query
    return i - 1 if below <= above else i


def lookup(table: GainTable, dr: float, vi: float, vj: float) -> GainPair | None:
    """Gain pair of the nearest cell, or None when any axis is out of range.

    A returned pair may be the invalid marker; callers engage the fallback
    controller on either None or an invalid pair.
    """
    i1 = _nearest_index(table.axes.dr, dr)
    i2 = _nearest_index(table.axes.vi, vi)
    i3 = _nearest_index(table.axes.vj, vj)
    if i1 is None or i2 is None or i3 is None:
        return None
    return table.cell(i1, i2, i3)


def _fmt(value: float) -> str:
    """Shortest decimal form that round-trips the binary value."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _fmt_list(values) -> str:
    return ",".join(_fmt(float(v)) for v in values)


def _meta_line(cfg: BuildConfig) -> str:
    thr = cfg.thresholds
    w = cfg.weights
    return (
        f"meta dt={_fmt(cfg.dt)} tmax={_fmt(cfg.t_max)} tau={_fmt(cfg.comm_delay)} "
        f"lj={_fmt(cfg.leader_length)} tg={_fmt(cfg.time_gap)} "
        f"eta_r={_fmt(thr.eta_r)} eta_v={_fmt(thr.eta_v)} "
        f"delta_a={_fmt(thr.delta_a)} delta_jerk={_fmt(thr.delta_jerk)} "
        f"w1={_fmt(w.omega_1)} w2={_fmt(w.omega_2)} "
        f"mode={cfg.safety_mode.value} hold={_fmt(cfg.hold_window)}"
    )


def save_table(table: GainTable, path) -> None:
    """Write the table as UTF-8 text with LF line endings.

    Numbers use shortest round-trip decimals, so save, load, save is
    byte-identical.
    """
    lines = [
        FORMAT_VERSION,
        (
            f"axes dr={_fmt_list(table.axes.dr)} "
            f"vi={_fmt_list(table.axes.vi)} vj={_fmt_list(table.axes.vj)}"
        ),
        (
            f"candidates gamma={_fmt_list(table.candidates.gammas)} "
            f"k={_fmt_list(table.candidates.ks)}"
        ),
        _meta_line(table.config),
    ]
    z1, z2, z3 = table.shape
    for i1 in range(z1):
        for i2 in range(z2):
            for i3 in range(z3):
                k = table.k_cells[i1, i2, i3]
                gamma = table.gamma_cells[i1, i2, i3]
                lines.append(f"cell {i1} {i2} {i3} {_fmt(k)} {_fmt(gamma)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _parse_kv_tokens(line: str, prefix: str, keys: tuple[str, ...], lineno: int):
    tokens = line.split()
    if not tokens or tokens[0] != prefix:
        raise TableFormatError(f"line {lineno}: expected a {prefix!r} line")
    if len(tokens) != len(keys) + 1:
        raise TableFormatError(
            f"line {lineno}: expected {len(keys)} {prefix!r} entries"
        )
    out = {}
    for token, key in zip(tokens[1:], keys):
        name, sep, value = token.partition("=")
        if not sep or name != key:
            raise TableFormatError(
                f"line {lineno}: expected token {key}=..., got {token!r}"
            )
        out[key] = value
    return out


def _parse_float(text: str, context: str) -> float:
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise TableFormatError(f"{context}: bad number {text!r}") from exc


def _parse_float_list(text: str, context: str) -> list[float]:
    return [_parse_float(part, context) for part in text.split(",") if part != ""]


def load_table(path) -> GainTable:
    """Parse a table file, validating structure, order, and membership."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != FORMAT_VERSION:
        found = lines[0] if lines else "<empty file>"
        raise TableFormatError(
            f"unsupported table format version: {found!r} (expected {FORMAT_VERSION!r})"
        )
    if len(lines) < 4:
        raise TableFormatError("truncated file: missing header lines")

    axes_kv = _parse_kv_tokens(lines[1], "axes", ("dr", "vi", "vj"), 2)
    axes = AxisGrid(
        dr=_parse_float_list(axes_kv["dr"], "dr axis"),
        vi=_parse_float_list(axes_kv["vi"], "vi axis"),
        vj=_parse_float_list(axes_kv["vj"], "vj axis"),
    )
    cand_kv = _parse_kv_tokens(lines[2], "candidates", ("gamma", "k"), 3)
    candidates = CandidateSets(
        gammas=_parse_float_list(cand_kv["gamma"], "gamma candidates"),
        ks=_parse_float_list(cand_kv["k"], "k candidates"),
    )
    meta_keys = (
        "dt", "tmax", "tau", "lj", "tg", "eta_r", "eta_v",
        "delta_a", "delta_jerk", "w1", "w2", "mode", "hold",
    )
    meta = _parse_kv_tokens(lines[3], "meta", meta_keys, 4)
    try:
        mode = SafetyMode(meta["mode"])
    except ValueError as exc:
        raise TableFormatError(f"line 4: unknown mode {meta['mode']!r}") from exc
    cfg = BuildConfig(
        dt=_parse_float(meta["dt"], "meta dt"),
        t_max=_parse_float(meta["tmax"], "meta tmax"),
        comm_delay=_parse_float(meta["tau"], "meta tau"),
        leader_length=_parse_float(meta["lj"], "meta lj"),
        time_gap=_parse_float(meta["tg"], "meta tg"),
        thresholds=ConsensusThresholds(
            eta_r=_parse_float(meta["eta_r"], "meta eta_r"),
            eta_v=_parse_float(meta["eta_v"], "meta eta_v"),
            delta_a=_parse_float(meta["delta_a"], "meta delta_a"),
            delta_jerk=_parse_float(meta["delta_jerk"], "meta delta_jerk"),
        ),
        weights=ComfortWeights(
            omega_1=_parse_float(meta["w1"], "meta w1"),
            omega_2=_parse_float(meta["w2"], "meta w2"),
        ),
        safety_mode=mode,
        hold_window=_parse_float(meta["hold"], "meta hold"),
    )

    z1, z2, z3 = axes.shape
    expected = z1 * z2 * z3
    cell_lines = lines[4:]
    if len(cell_lines) != expected:
        raise TableFormatError(
            f"expected {expected} cell lines, found {len(cell_lines)}"
        )
    k_cells = np.full((z1, z2, z3), math.nan)
    gamma_cells = np.full((z1, z2, z3), math.nan)
    row = 0
    for i1 in range(z1):
        for i2 in range(z2):
            for i3 in range(z3):
                lineno = 5 + row
                parts = cell_lines[row].split()
                if len(parts) != 6 or parts[0] != "cell":
                    raise TableFormatError(
                        f"line {lineno}: malformed cell line {cell_lines[row]!r}"
                    )
                try:
                    got = (int(parts[1]), int(parts[2]), int(parts[3]))
                except ValueError as exc:
                    raise TableFormatError(
                        f"line {lineno}: bad cell indices"
                    ) from exc
                if got != (i1, i2, i3):
                    raise TableFormatError(
                        f"line {lineno}: cell indices {got} out of row-major order, "
                        f"expected {(i1, i2, i3)}"
                    )
                k = _parse_float(parts[4], f"line {lineno} k")
                gamma = _parse_float(parts[5], f"line {lineno} gamma")
                if math.isnan(k) != math.isnan(gamma):
                    raise TableFormatError(
                        f"line {lineno}: marker cell must have NaN for both gains"
                    )
                k_cells[i1, i2, i3] = k
                gamma_cells[i1, i2, i3] = gamma
                row += 1

    table = GainTable(
        axes=axes,
        candidates=candidates,
        config=cfg,
        k_cells=k_cells,
        gamma_cells=gamma_cells,
    )
    _validate_members(table)
    return table
