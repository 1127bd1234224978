"""Offline gain-table build, online lookup, and table persistence.

A table cell is keyed by (initial gap, follower speed, leader speed) and
stores the gain pair that, in an offline car-following run from that
operating point, passes the gap-floor check and reaches consensus fastest,
with comfort score and then lexicographic order breaking ties.  Cells where
no candidate qualifies store a NaN marker.  Lookup snaps a query to the
nearest cell per axis and refuses queries outside the grid.

The builder runs every candidate of a chunk of cells as columns of one
batch of the simulation kernel (dynamics.FollowerRuns with the consensus
law).  The runs are judged as they go by the one run evaluator,
metrics._RunScorer, the same that evaluate_run applies to a whole run;
after each block of steps this module only selects: it settles every cell
whose stored gains can no longer change, so most cells stop long before the
horizon.  No rows outlive their block: the rare time tie, which compares
comfort scores over whole runs, re-simulates each tied run through
dynamics.simulate_pair and judges it with evaluate_run.  The harness runs a
scenario through the same simulate_pair, so a single re-run of a cell's
operating point reproduces any stored decision exactly.

A block is built in place: the kernel hands out views of block buffers it
reuses, and the scorer judges them in scratch buffers of its own, with no
2-D accumulate.

Lookup does its scalar work on Python floats.  Each AxisGrid keeps, per
axis, its first and last values and its cuts: the largest float that snaps
to each grid value rather than to the next one, found once when the grid is
built (_cut, where the tie rule is stated) and kept current by making the
axis arrays read-only.  A query checks the three ranges, stopping at the
first axis that misses, snaps each axis with one bisect_left over its cuts
and reads one cell with ndarray.item.  It returns a shared, frozen
GainPair: one module-level marker for every marker cell, and per table one
pair per distinct (k, gamma), built on the first query that reads it.  The
key is the two floats read on this query, so a write to the cell arrays in
place cannot leave a stale pair behind: the next query reads the new
floats.  A query takes about 1.1 us on a 2-CPU VM (perfbench's median on
grid), against about 1.5 us when each axis bisected its values and
compared the two distances, about 3 us when each query built its GainPair
and about 8 us for searchsorted on the arrays.  Save formats the cell block from flat tolist() columns; load
parses it line by line into lists and makes each cell array at once.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .controllers import ConsensusLaw, GainPair
from .dynamics import FollowerRuns, simulate_pair
from .metrics import ComfortWeights, ConsensusThresholds, SafetyMode, _RunScorer

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

# Fixed for this format version; inspect-table prints it.
TIE_RULE = "min convergence time, then min comfort score, then smallest (gamma, k)"

# Rows simulated between two scorings of a batch.  Decisions are exact at
# any block length; a longer block amortizes the scoring over more steps
# but runs a settled cell on for longer (half a block on average).
_BLOCK_STEPS = 256

# Cells per batch, and per task of a parallel build.  Results do not depend
# on it.
_CELL_CHUNK = 48

# What GainTable.cell returns for every marker cell.  GainPair is frozen.
_MARKER = GainPair.invalid()


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _order_key(x: float) -> int:
    """x's rank among the floats: keys ascend with x, neighbouring floats
    have neighbouring keys, and both zeros have key 0."""
    (bits,) = _BITS.unpack(_DOUBLE.pack(x))
    return bits if bits < _SIGN else _SIGN - bits


def _from_key(key: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(key if key >= 0 else _SIGN - key))[0]


def _cut(a: float, b: float) -> float:
    """The largest float that snaps to the grid value a rather than to the
    next one, b.

    This is the tie rule of lookup: a query q between a and b snaps to the
    nearer of the two by the subtractions q - a and b - q, and a tie goes to
    a.  Both sides are monotone in q, so the rule holds up to the cut and
    fails above it.  The search bisects the order keys of the floats,
    keeping lo where the rule holds and hi where it fails, at most 64
    halvings.  The two roundings keep the cut within an ulp of b - a of the
    midpoint, so the search first narrows [a, b] to the floats just outside
    that band, once the rule holds at the lower one and fails at the upper
    one: most cuts then take two or three halvings.
    """

    def to_a(key: int) -> bool:
        q = _from_key(key)
        return q - a <= b - q

    lo, hi = _order_key(a), _order_key(b)
    mid, ulp = a / 2 + b / 2, math.ulp(b - a)
    near = max(lo, _order_key(mid - ulp) - 1), min(hi, _order_key(mid + ulp) + 1)
    if to_a(near[0]) and not to_a(near[1]):
        lo, hi = near
    while hi - lo > 1:
        key = (lo + hi) // 2
        if to_a(key):
            lo = key
        else:
            hi = key
    return _from_key(lo)


def _ascending_floats(values, name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if not np.all(arr[1:] > arr[:-1]):
        raise ValueError(f"{name} must be strictly ascending")
    return arr


@dataclass(frozen=True)
class AxisGrid:
    """The three sorted coordinate grids of the table.

    dr : m, initial delayed-leader gap values.
    vi : m/s, follower speed values.
    vj : m/s, leader speed values.

    The arrays are read-only copies.  For lookup, each axis is also kept as
    (first value, last value, cuts) in Python floats (_dr_snap, _vi_snap,
    _vj_snap), the cuts being the tuple of _cut over neighbouring values.
    A pickled grid is built again from its arrays, so it stays read-only.
    """

    dr: np.ndarray
    vi: np.ndarray
    vj: np.ndarray

    def __post_init__(self) -> None:
        for name in ("dr", "vi", "vj"):
            arr = _ascending_floats(getattr(self, name), f"{name} axis")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            grid = arr.tolist()
            cuts = tuple(map(_cut, grid, grid[1:]))
            object.__setattr__(self, f"_{name}_snap", (grid[0], grid[-1], cuts))

    def __reduce__(self):
        return AxisGrid, (self.dr, self.vi, self.vj)

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
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = self.axes.shape
        n_cells = shape[0] * shape[1] * shape[2]
        for name in ("k_cells", "gamma_cells"):
            cells = np.asarray(getattr(self, name), dtype=float)
            if cells.size != n_cells:
                raise ValueError(
                    f"{name} has {cells.size} values, but the axes have {n_cells} cells"
                )
            setattr(self, name, cells.reshape(shape))
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
        """The cell's gains as a shared pair: _MARKER for a marker cell, else
        the one pair this table keeps per (k, gamma) read on this call."""
        k = self.k_cells.item(i1, i2, i3)
        gamma = self.gamma_cells.item(i1, i2, i3)
        if math.isnan(k):
            return _MARKER
        try:
            return self._pairs[k, gamma]
        except KeyError:
            pair = self._pairs[k, gamma] = GainPair(k=k, gamma=gamma)
            return pair

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
    """Staged selection for a batch of cells.

    Columns come in cell order, one per candidate pair, and are judged by
    runs, a metrics._RunScorer over the batch.  decide() settles every cell
    whose stored gains can no longer change and drops its columns.  No rows
    are kept: the comfort tie-break, which needs a column's whole run and is
    rare, judges rerun(column) with evaluate_run, rerun giving the column's
    run re-simulated alone by simulate_pair (column being its index in the
    batch).
    """

    def __init__(self, vj, pairs, n_samples: int, cfg: BuildConfig, rerun):
        self.pairs = pairs
        self.rerun = rerun
        self.cfg = cfg
        n_cells = len(vj) // len(pairs)
        self.k = np.full(n_cells, math.nan)
        self.gamma = np.full(n_cells, math.nan)
        # Open cells and columns, by their index in the batch.
        self.cells = np.arange(n_cells)
        self.cols = np.arange(len(vj))
        self.runs = _RunScorer(
            cfg, np.asarray(vj, dtype=float)[None, :], n_samples, cfg.thresholds,
            cfg.safety_mode, cfg.hold_window,
        )

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
        runs, n_cand = self.runs, len(self.pairs)
        converged = runs.first_hold >= 0
        safe = converged & (runs.first_violation > runs.first_hold)
        excluded = np.where(
            converged, ~safe, runs.first_violation <= runs.last_break + 1
        )
        done = safe.reshape(-1, n_cand).any(axis=1)
        done |= excluded.reshape(-1, n_cand).all(axis=1)
        if runs.rows == runs.n_samples:
            done[:] = True
        keep = np.repeat(~done, n_cand)
        if done.any():
            # Columns not converged yet go in as unconverged; see above.
            t_consensus = np.where(converged, runs.first_hold * self.cfg.dt, math.inf)
            end = np.where(converged, runs.first_hold, runs.rows - 1)
            violated = runs.first_violation <= end
            for pos in np.flatnonzero(done):
                lo = pos * n_cand

                def comfort(i, lo=lo):
                    return self._comfort(int(self.cols[lo + i]))

                cell = self.cells[pos]
                self.k[cell], self.gamma[cell] = _select_cell(
                    t_consensus[lo : lo + n_cand],
                    violated[lo : lo + n_cand],
                    comfort,
                    self.pairs,
                )
            self.cells = self.cells[~done]
            self.cols = self.cols[keep]
            runs.keep(keep)
        return keep

    def _comfort(self, column: int) -> float:
        """Comfort score of the batch's column, from its re-simulated run."""
        cfg = self.cfg
        # Called as metrics.evaluate_run: perfbench counts a gaintable
        # evaluate_run as one per candidate, which a tie's re-run is not.
        return metrics.evaluate_run(
            self.rerun(column), cfg.thresholds, cfg.weights, cfg.safety_mode,
            cfg.hold_window,
        ).omega


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
    A time tie re-simulates each tied run alone through simulate_pair for
    its comfort score; the arithmetic is per column, so it comes out the
    same.
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

    n_samples = round(cfg.t_max / cfg.dt) + 1

    def rerun(col):
        law = ConsensusLaw(gamma[col : col + 1], k[col : col + 1])
        return simulate_pair(dr0[col], vi0[col], vj0[col], law, cfg, cfg.t_max)

    runs = FollowerRuns(dr0, vi0, vj0, ConsensusLaw(gamma, k), cfg)
    scorer = _CellScorer(vj0, pairs, n_samples, cfg, rerun)
    while len(scorer.cols):
        _, v, a, gap = runs.advance(min(_BLOCK_STEPS, n_samples - runs.row))
        scorer.runs.score(v, a, gap)
        runs.keep(scorer.decide())
    return flat_indices, scorer.k, scorer.gamma


def build_table(
    axes: AxisGrid,
    candidates: CandidateSets,
    cfg: BuildConfig,
    workers: int = 1,
) -> GainTable:
    """Constrained grid search over every cell of the axes.

    Deterministic: results do not depend on workers or on _CELL_CHUNK, and
    a serial and a parallel build of the same inputs serialize to identical
    bytes.  Tie breaking follows TIE_RULE.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    shape = axes.shape
    n_cells = shape[0] * shape[1] * shape[2]
    k_cells = np.full(n_cells, math.nan)
    gamma_cells = np.full(n_cells, math.nan)

    tasks = [
        (list(range(lo, min(lo + _CELL_CHUNK, n_cells))), axes, candidates, cfg)
        for lo in range(0, n_cells, _CELL_CHUNK)
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
    gammas = table.gamma_cells[mask]
    ks = table.k_cells[mask]
    bad = ~(np.isin(gammas, table.candidates.gammas) & np.isin(ks, table.candidates.ks))
    if bad.any():
        i = bad.argmax()
        raise TableFormatError(
            f"stored gains (gamma={gammas[i]!r}, k={ks[i]!r}) are not candidate members"
        )


def lookup(table: GainTable, dr: float, vi: float, vj: float) -> GainPair | None:
    """Gain pair of the nearest cell, or None when any axis is out of range.

    A returned pair may be the invalid marker; callers engage the fallback
    controller on either None or an invalid pair.  Each query checks the
    range of each axis (false for NaN), returning at the first that misses,
    snaps each axis to the number of its cuts below the query with one
    bisect_left (see _cut for the tie rule) and reads the cell with
    table.cell, about 1.1 us.  The pair returned is shared (see
    GainTable.cell) and frozen.
    """
    axes = table.axes
    lo, hi, dr_cuts = axes._dr_snap
    if not lo <= dr <= hi:
        return None
    lo, hi, vi_cuts = axes._vi_snap
    if not lo <= vi <= hi:
        return None
    lo, hi, vj_cuts = axes._vj_snap
    if not lo <= vj <= hi:
        return None
    return table.cell(
        bisect_left(dr_cuts, dr), bisect_left(vi_cuts, vi), bisect_left(vj_cuts, vj)
    )


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
    k_text = map(_fmt, table.k_cells.ravel().tolist())
    gamma_text = map(_fmt, table.gamma_cells.ravel().tolist())
    lines += [
        f"cell {i1} {i2} {i3} {k} {gamma}"
        for (i1, i2, i3), k, gamma in zip(np.ndindex(table.shape), k_text, gamma_text)
    ]
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
    if not text:
        return []
    parts = text.split(",")
    if "" in parts:
        raise TableFormatError(f"{context}: empty entry in {text!r}")
    return [_parse_float(part, context) for part in parts]


def load_table(path) -> GainTable:
    """Parse a table file, validating structure, order, and membership.

    Cell lines are checked one at a time, in row-major order, and their
    gains gathered into lists that become the two cell arrays at the end.
    The table's AxisGrid finds the cuts that lookup bisects (about 1.1 us
    a query) once, here.  No GainPair is built here: lookup builds
    each distinct one on first use.
    """
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
    dr = _parse_float_list(axes_kv["dr"], "line 2 dr axis")
    vi = _parse_float_list(axes_kv["vi"], "line 2 vi axis")
    vj = _parse_float_list(axes_kv["vj"], "line 2 vj axis")
    try:
        axes = AxisGrid(dr=dr, vi=vi, vj=vj)
    except ValueError as exc:
        raise TableFormatError(f"line 2: {exc}") from exc
    cand_kv = _parse_kv_tokens(lines[2], "candidates", ("gamma", "k"), 3)
    cand_gammas = _parse_float_list(cand_kv["gamma"], "line 3 gamma candidates")
    cand_ks = _parse_float_list(cand_kv["k"], "line 3 k candidates")
    try:
        candidates = CandidateSets(gammas=cand_gammas, ks=cand_ks)
    except ValueError as exc:
        raise TableFormatError(f"line 3: {exc}") from exc
    meta_keys = (
        "dt", "tmax", "tau", "lj", "tg", "eta_r", "eta_v",
        "delta_a", "delta_jerk", "w1", "w2", "mode", "hold",
    )
    meta = _parse_kv_tokens(lines[3], "meta", meta_keys, 4)
    try:
        mode = SafetyMode(meta["mode"])
    except ValueError as exc:
        raise TableFormatError(f"line 4: unknown mode {meta['mode']!r}") from exc
    try:
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
    except ValueError as exc:
        raise TableFormatError(f"line 4: {exc}") from exc

    shape = axes.shape
    expected = shape[0] * shape[1] * shape[2]
    cell_lines = lines[4:]
    if len(cell_lines) != expected:
        raise TableFormatError(
            f"expected {expected} cell lines, found {len(cell_lines)}"
        )
    ks, gammas = [], []
    for row, (line, index) in enumerate(zip(cell_lines, np.ndindex(shape))):
        lineno = 5 + row
        parts = line.split()
        if len(parts) != 6 or parts[0] != "cell":
            raise TableFormatError(f"line {lineno}: malformed cell line {line!r}")
        try:
            got = (int(parts[1]), int(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise TableFormatError(f"line {lineno}: bad cell indices") from exc
        if got != index:
            raise TableFormatError(
                f"line {lineno}: cell indices {got} out of row-major order, "
                f"expected {index}"
            )
        k = _parse_float(parts[4], f"line {lineno} k")
        gamma = _parse_float(parts[5], f"line {lineno} gamma")
        if not (math.isfinite(k) and math.isfinite(gamma)):
            if math.isnan(k) != math.isnan(gamma):
                raise TableFormatError(
                    f"line {lineno}: marker cell must have NaN for both gains"
                )
            if math.isinf(k) or math.isinf(gamma):
                raise TableFormatError(f"line {lineno}: gains must be finite or NaN")
        ks.append(k)
        gammas.append(gamma)
    k_cells = np.array(ks).reshape(shape)
    gamma_cells = np.array(gammas).reshape(shape)
    table = GainTable(
        axes=axes,
        candidates=candidates,
        config=cfg,
        k_cells=k_cells,
        gamma_cells=gamma_cells,
    )
    _validate_members(table)
    return table
