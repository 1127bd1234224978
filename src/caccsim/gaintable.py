"""Offline gain-table build, online lookup, and table persistence.

A table cell is keyed by (initial gap, follower speed, leader speed) and
stores the gain pair that, in an offline car-following run from that
operating point, passes the gap-floor check and reaches consensus fastest,
with comfort score and then lexicographic order breaking ties.  Cells where
no candidate qualifies store a NaN marker.  Lookup snaps a query to the
nearest cell per axis and answers None to queries outside the grid.

The builder runs every candidate of a chunk of cells as columns of one
batch of the simulation kernel (dynamics.FollowerRuns with the consensus
law).  The runs are judged as they go by the one run evaluator,
metrics._RunScorer, the same that evaluate_run applies to a whole run;
after each block of steps this module only selects: it drops every run that
can no longer win and settles every cell whose stored gains can no longer
change, so most runs stop long before the horizon.  No rows outlive their
block: the rare time tie, which compares comfort scores over whole runs,
re-simulates each tied run through dynamics.simulate_pair and judges it
with evaluate_run.  The harness runs a scenario through the same
simulate_pair, so a single re-run of a cell's operating point reproduces
any stored decision exactly.

A block is built in place: the kernel hands out views of block buffers it
reuses, and the scorer judges them in scratch buffers of its own.  A block
spends little on work that cannot change a decision: the kernel takes the
running sum of a cell's leader once for all its candidates, and the scorer
runs the gap and speed bands and the hold test only on the columns within
their jerk and acceleration bands somewhere in the block.

Lookup does its scalar work on Python floats.  Each AxisGrid keeps, per
axis, one tuple of cuts: the largest float that snaps to each grid value
rather than to the next one, found once when the grid is built (_cut, where
the tie rule is stated), bounded by the float below the first value and by
the last value, and kept current by making the axis arrays read-only.  Each
GainTable builds its cell index once, when the table is built
(_cell_index): nested lists of the shared, frozen GainPair of every cell,
one module-level marker for every marker cell and one pair per distinct
stored (k, gamma), padded with a face of None on every side.  A table's
cells are thus fixed when it is built.  A query makes no range check: it
bisects each axis's tuple once and indexes the cell index, where a query
outside the grid or NaN lands on the None face.  A query takes about
0.6 us on a 2-CPU VM (perfbench's medians: 0.62 on grid, 0.47 on closing).

Save writes the header lines from _HEADER, which names each line's keys
and the fields they hold, and load reads them back through it with
_read_settings, the one reader of settings text, which config's sections
go through too; a header fault is prefixed with "line <n>: ".  Save
formats the cell block from flat tolist() columns, its index tokens from
_index_tokens.  Load accepts exactly what save writes, with any line
ends.  It reads the block as columns: whole-block string operations
certify the layout, each distinct gain token is parsed once and the gain
columns are mapped through those values (_read_cell_block).  Only a
refused block is walked line by line, to name its first faulty line.
"""

from __future__ import annotations

import math
import typing
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from . import metrics
from .controllers import ConsensusLaw, GainPair, require
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
# but runs a settled cell on for longer (half a block on average).  On
# perfbench's serial pieces (in process, seeds 7 and 8), against the build
# before the selective bands and shared leader sums, with its 256-row
# blocks, CPU time ratios were 0.61-0.74 (grid) and 0.88-0.93 (closing) at
# 96 rows, 0.71-0.76 and 0.90 at 128, 0.78-0.80 and 0.87-0.91 at 192, and
# 0.79 and 0.93-0.94 at 256.  96 and 128 tie within the noise; 128 scores
# each run fewer times.
_BLOCK_STEPS = 128

# Cells per batch, and per task of a parallel build.  Results do not depend
# on it.  Wider batches spread each step's fixed numpy cost over more
# columns: the shipped grid builds in 5.1-5.4 s serially (5.6-6.0 at 48) and
# 2.8-3.4 s with 2 workers (3.5-3.9), at 51 MB RSS against 40 (2-CPU VM).
# perfbench cannot see it: each serial piece is one chunk of at most 48
# cells, and the 2-worker build's workers stay under the bench's own peak.
_CELL_CHUNK = 192

# What GainTable.cell returns for every marker cell.  GainPair is frozen.
_MARKER = GainPair.invalid()


def _cut(a: float, b: float) -> float:
    """The largest float that snaps to the grid value a rather than to the
    next one, b.

    This is the tie rule of lookup: a query q between a and b snaps to the
    nearer of the two by the subtractions q - a and b - q, and a tie goes to
    a.  Both sides are monotone in q, so the rule holds up to the cut and
    fails above it.  The search bisects float values, keeping lo where the
    rule holds and hi where it fails, and stops when the halfway float
    lo / 2 + hi / 2 is one of the two, so they are neighbours.  The two
    roundings keep the cut within an ulp of b - a of the midpoint, so the
    search starts from the floats just outside that band, clamped to
    [a, b], when the rule holds at the lower one and fails at the upper one:
    most cuts then take one to three halvings.  Otherwise it starts from
    [a, b].  A start that straddles 0 takes more, as the halvings run down
    the exponents first: 56 for [-1, 1], 107 for the widest finite grid.
    """

    def to_a(q: float) -> bool:
        return q - a <= b - q

    mid, ulp = a / 2 + b / 2, math.ulp(b - a)
    lo = max(a, math.nextafter(mid - ulp, -math.inf))
    hi = min(b, math.nextafter(mid + ulp, math.inf))
    if not (to_a(lo) and not to_a(hi)):
        lo, hi = a, b
    while (q := lo / 2 + hi / 2) != lo and q != hi:
        if to_a(q):
            lo = q
        else:
            hi = q
    return lo


def _fields_equal(self, other) -> bool:
    """Dataclass equality by the compare=True fields, arrays by value with
    NaN equal to NaN."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for name in (f.name for f in fields(self) if f.compare):
        a, b = getattr(self, name), getattr(other, name)
        if not (
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        ):
            return False
    return True


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
    one tuple of Python floats (_dr_cuts, _vi_cuts, _vj_cuts): the float
    below the first value, the cuts (_cut over neighbouring values) and the
    last value.  A float query bisects to 0 below the first value and to
    n + 1 above the last, and to 1 + its grid index in between.  A pickled
    grid is built again from its arrays, so it stays read-only.
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
            below = math.nextafter(grid[0], -math.inf)
            cuts = (below, *map(_cut, grid, grid[1:]), grid[-1])
            object.__setattr__(self, f"_{name}_cuts", cuts)

    def __reduce__(self):
        return AxisGrid, (self.dr, self.vi, self.vj)

    @property
    def shape(self) -> tuple[int, int, int]:
        return len(self.dr), len(self.vi), len(self.vj)

    __eq__ = _fields_equal


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

    __eq__ = _fields_equal


@dataclass(frozen=True)
class BuildConfig:
    """Settings shared by the table build and the run harness; t_max,
    hold_window and comm_delay are whole multiples of dt."""

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
        require(self, "finite", math.isfinite, "dt", "t_max", "comm_delay",
                "leader_length", "time_gap", "hold_window")
        require(self, "positive", lambda v: v > 0, "dt", "leader_length", "time_gap")
        for name in ("hold_window", "comm_delay"):
            self.steps(name)
        if not self.t_max > self.hold_window:
            raise ValueError("t_max must exceed hold_window")
        if self.steps("t_max") < 1:
            raise ValueError(
                f"t_max {self.t_max!r} must span at least one step of dt {self.dt!r}"
            )

    def steps(self, name: str) -> int:
        """The field name (t_max, hold_window or comm_delay) in whole steps
        of dt, the one seconds-to-steps rule: a non-negative whole multiple,
        to 1e-9 relative, or a ValueError naming the field (also when the
        ratio overflows)."""
        value = getattr(self, name)
        ratio = value / self.dt
        if value >= 0 and math.isfinite(ratio):
            n = round(ratio)
            if abs(ratio - n) <= 1e-9 * max(1.0, ratio):
                return n
        raise ValueError(
            f"{name} {value!r} must be a non-negative integer multiple of dt {self.dt!r}"
        )

    @property
    def headway_time(self) -> float:
        return self.time_gap + self.comm_delay


class TableFormatError(ValueError):
    """Raised when a table file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class GainTable:
    """Built gain table: axes, candidate sets, settings, and cell gains.

    k_cells and gamma_cells have the axes shape; NaN in both marks a cell
    where no candidate passed the gap floor or none converged.  Every other
    cell holds a valid gain pair, both gains positive and finite and members
    of the candidate sets, so every table saves a file that loads.

    A table's cells are fixed when it is built: __post_init__ builds _cells,
    the shared GainPair of every cell as nested lists [i1 + 1][i2 + 1][i3 + 1]
    with a face of None on every side (_cell_index), which cell and lookup
    read.  The cell arrays stay writable, but a write to them is not seen by
    the table; a table built from the written arrays sees it.
    """

    axes: AxisGrid
    candidates: CandidateSets
    config: BuildConfig
    k_cells: np.ndarray
    gamma_cells: np.ndarray
    _cells: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = self.axes.shape
        n_cells = shape[0] * shape[1] * shape[2]
        for name in ("k_cells", "gamma_cells"):
            cells = np.asarray(getattr(self, name), dtype=float)
            if cells.size != n_cells:
                raise ValueError(
                    f"{name} has {cells.size} values, but the axes have {n_cells} cells"
                )
            object.__setattr__(self, name, cells.reshape(shape))
        if not np.array_equal(np.isnan(self.k_cells), np.isnan(self.gamma_cells)):
            raise ValueError("k and gamma markers disagree on some cells")
        _validate_members(self.k_cells, self.gamma_cells, self.candidates)
        object.__setattr__(self, "_cells", _cell_index(self.k_cells, self.gamma_cells))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.axes.shape

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.k_cells)

    def cell(self, i1: int, i2: int, i3: int) -> GainPair:
        """The cell's shared, frozen gains: _MARKER for a marker cell, else
        the one pair this table built for its (k, gamma).  An index outside
        the shape, a negative one too, raises IndexError."""
        n1, n2, n3 = self.shape
        if not (0 <= i1 < n1 and 0 <= i2 < n2 and 0 <= i3 < n3):
            raise IndexError(f"cell index ({i1}, {i2}, {i3}) outside {n1}x{n2}x{n3}")
        return self._cells[i1 + 1][i2 + 1][i3 + 1]

    def distinct_valid_pairs(self) -> list[tuple[float, float]]:
        """Sorted distinct (gamma, k) pairs stored in valid cells."""
        mask = self.valid_mask()
        pairs = {
            (float(g), float(k))
            for g, k in zip(self.gamma_cells[mask], self.k_cells[mask])
        }
        return sorted(pairs)

    __eq__ = _fields_equal


# The header, lines 2 to 4 of a table file, which save_table writes and
# load_table reads from this alone.  Per line: its prefix, the GainTable
# field it holds, the record _read_settings fills for it, and its keys in
# file order, each with the field it fills (dotted into nested settings).
# Every key of the axes and candidates is required, here and in config's
# sections, so no value of their placeholder records is left.
_AXES = AxisGrid(dr=[0.0], vi=[0.0], vj=[0.0])
_CANDIDATES = CandidateSets(gammas=[1.0], ks=[1.0])
_HEADER = (
    ("axes", "axes", _AXES, {"dr": "dr", "vi": "vi", "vj": "vj"}),
    ("candidates", "candidates", _CANDIDATES, {"gamma": "gammas", "k": "ks"}),
    ("meta", "config", BuildConfig(), {
        "dt": "dt", "tmax": "t_max", "tau": "comm_delay",
        "lj": "leader_length", "tg": "time_gap",
        "eta_r": "thresholds.eta_r", "eta_v": "thresholds.eta_v",
        "delta_a": "thresholds.delta_a", "delta_jerk": "thresholds.delta_jerk",
        "w1": "weights.omega_1", "w2": "weights.omega_2",
        "mode": "safety_mode", "hold": "hold_window",
    }),
)


def _read_settings(defaults, texts: dict, keys: dict, required=(), **given):
    """defaults, a settings dataclass, with fields read from texts, a dict
    of key to text: the one reader of config sections and table header
    lines, which add the location to its faults.

    keys maps a key to the field it fills, dotted into nested settings
    (thresholds.eta_r); a field that neither keys nor given names is read
    from the key of its name when its default is a float, int, str, Enum or
    array.  A text is parsed as the type of its default, an array as
    comma-separated floats (an empty text is an empty list, which the
    settings refuse by name).  An unknown key, a text that does not parse
    and a missing required key raise a ValueError naming the key; a value
    the settings refuse raises their ValueError, naming the field.
    """
    read = {
        f.name: f.name
        for f in fields(defaults)
        if f.name not in {*given, *keys.values()}
        and (type(value := getattr(defaults, f.name)) in (float, int, str, np.ndarray)
             or isinstance(value, Enum))
    } | keys
    values = {}
    for key, text in texts.items():
        if key not in read:
            raise ValueError(f"unknown key {key!r}; expected one of {sorted(read)}")
        path = read[key]
        kind = type(attrgetter(path)(defaults))
        try:
            if kind is not np.ndarray:
                values[path] = kind(text)
            elif text.strip():
                values[path] = [float(part) for part in text.split(",")]
            else:
                values[path] = []
        except ValueError as exc:
            raise ValueError(f"bad value {text!r} for key {key!r}") from exc
    for key in required:
        if key not in texts:
            raise ValueError(f"missing required key {key!r}")
    return _replace(defaults, values | given)


def _replace(settings, values: dict):
    """settings with the fields at the dotted paths of values replaced."""
    by_name = {}  # a field's own value is keyed by the empty path
    for path, value in values.items():
        name, _, rest = path.partition(".")
        by_name.setdefault(name, {})[rest] = value
    return replace(settings, **{
        name: inner[""] if "" in inner else _replace(getattr(settings, name), inner)
        for name, inner in by_name.items()
    })


def _cell_index(k_cells: np.ndarray, gamma_cells: np.ndarray) -> list:
    """The shared GainPair of every cell as nested lists [i1 + 1][i2 + 1]
    [i3 + 1], padded with a face of None on every side: _MARKER on each
    marker cell and one pair per distinct stored (k, gamma).

    The cells are checked before (_validate_members), so every pair built
    here is valid.  Each array is coded by np.unique (NaN taking one code),
    the two codes are combined into one per cell and coded again, so each
    distinct pair is built once and no Python loop runs over the cells.
    """
    k, gamma = k_cells.ravel(), gamma_cells.ravel()
    k_values, k_code = np.unique(k, return_inverse=True)
    gamma_values, gamma_code = np.unique(gamma, return_inverse=True)
    n_gamma = len(gamma_values)
    codes, cell_code = np.unique(k_code * n_gamma + gamma_code, return_inverse=True)
    ks, gammas = k_values.tolist(), gamma_values.tolist()
    pairs = np.empty(len(codes), dtype=object)
    pairs[:] = [
        _MARKER if math.isnan(ks[code // n_gamma])
        else GainPair(k=ks[code // n_gamma], gamma=gammas[code % n_gamma])
        for code in codes.tolist()
    ]
    cells = pairs[cell_code].reshape(k_cells.shape)
    return np.pad(cells, 1, constant_values=None).tolist()


class _CellScorer:
    """Cell selection for a batch of cells, column by column.

    Columns come in cell order, one per candidate pair, so column c belongs
    to cell c // len(pairs) and runs pair c % len(pairs); runs, a
    metrics._RunScorer over the batch, judges them.  decide() drops every
    column that can no longer win and settles every cell whose stored gains
    are final; cols holds the open columns by their index in the batch.  No
    rows are kept: the comfort tie-break, which needs a column's whole run
    and is rare, judges rerun(column) with evaluate_run, rerun giving the
    column's run re-simulated alone by simulate_pair.
    """

    def __init__(self, vj, pairs, n_samples: int, cfg: BuildConfig, rerun):
        self.pairs = pairs
        self.rerun = rerun
        n_cells = len(vj) // len(pairs)
        self.k = np.full(n_cells, math.nan)
        self.gamma = np.full(n_cells, math.nan)
        self.cols = np.arange(len(vj))
        self.runs = _RunScorer(cfg, np.asarray(vj, dtype=float)[None, :], n_samples)

    def decide(self) -> np.ndarray:
        """Drop lost columns, settle final cells; return the kept-column mask.

        Exact after L scored rows with a hold window of w rows.  A column is
        lost when it converged unsafe (first armed violation at or before its
        first sustained index) or, not converged, its first armed violation
        is at or before the start of its current band run, since any later
        hold starts after that run.  A safe converged column (first sustained
        index i, i + w < L) settles its cell: a column not converged yet has
        index >= L - w > i, so it can neither win nor tie.  The winner is the
        safe column of least index, then least comfort score, then smallest
        (gamma, k).  At the horizon every column leaves; a cell with no safe
        column keeps its NaN marker.
        """
        runs, cols, n_cand = self.runs, self.cols, len(self.pairs)
        hold, violation = runs.first_hold, runs.first_violation
        safe = (hold >= 0) & (violation > hold)
        cells = cols // n_cand
        won = np.zeros(len(self.k), dtype=bool)
        won[cells[safe]] = True
        for cell in np.flatnonzero(won).tolist():
            mine = safe & (cells == cell)
            fastest = cols[mine & (hold == hold[mine].min())].tolist()
            if len(fastest) > 1:
                omega = [self._comfort(col) for col in fastest]
                fastest = [c for c, o in zip(fastest, omega) if o == min(omega)]
            gamma, k = min(self.pairs[col % n_cand] for col in fastest)
            self.k[cell], self.gamma[cell] = k, gamma
        keep = (hold < 0) & (violation > runs.last_break + 1) & ~won[cells]
        keep &= runs.rows < runs.n_samples
        self.cols = cols[keep]
        runs.keep(keep)
        return keep

    def _comfort(self, column: int) -> float:
        """Comfort score of the batch's column, from its re-simulated run."""
        # Called as metrics.evaluate_run: perfbench counts a gaintable
        # evaluate_run as one per candidate, which a tie's re-run is not.
        return metrics.evaluate_run(self.rerun(column)).omega


def _evaluate_cells(args):
    """Worker: stored gains of a list of flat cell indices.

    Simulates every candidate of the cells as one batch, _BLOCK_STEPS rows
    at a time.  After each block the rows are scored, and every column that
    can no longer win or whose cell is settled leaves the batch
    (_CellScorer.decide); the batch stops when no column is left.  A cell
    where a safe candidate converged stops there; a column that broke the
    gap floor where it can no longer converge safely stops at once, so a
    marker cell stops once all its columns have, else at the horizon.
    A time tie re-simulates each tied run alone through simulate_pair for
    its comfort score; the arithmetic is per column, so it comes out the
    same.
    """
    flat_indices, axes, candidates, cfg = args
    pairs = candidates.pairs()
    n_cand = len(pairs)

    i_dr, i_vi, i_vj = np.unravel_index(flat_indices, axes.shape)
    dr0 = np.repeat(axes.dr[i_dr], n_cand)
    vi0 = np.repeat(axes.vi[i_vi], n_cand)
    vj0 = np.repeat(axes.vj[i_vj], n_cand)
    gamma, k = np.tile(np.array(pairs).T, len(flat_indices))

    n_samples = cfg.steps("t_max") + 1

    def rerun(col):
        law = ConsensusLaw(gamma[col : col + 1], k[col : col + 1])
        return simulate_pair(dr0[col], vi0[col], vj0[col], law, cfg)

    law = ConsensusLaw(gamma, k)
    runs = FollowerRuns(dr0, vi0, vj0, law, cfg)
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
    # A fork pool starts all its workers at once, so it gets no more
    # workers than tasks.
    workers = min(workers, len(tasks))
    if workers == 1:
        results = map(_evaluate_cells, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_cells, tasks))
    for flat_indices, k_vals, gamma_vals in results:
        k_cells[flat_indices] = k_vals
        gamma_cells[flat_indices] = gamma_vals

    return GainTable(
        axes=axes,
        candidates=candidates,
        config=cfg,
        k_cells=k_cells.reshape(shape),
        gamma_cells=gamma_cells.reshape(shape),
    )


def _validate_members(
    k_cells: np.ndarray,
    gamma_cells: np.ndarray,
    cands: CandidateSets,
    first_line: int | None = None,
) -> None:
    """Every cell that is not a marker must hold gains from the candidate
    sets, checked on the arrays by GainTable.  The sets hold only positive,
    finite values, so this is also the check that a cell's gains are valid.
    The fault names the first bad cell: its line when first_line, the line
    of cell 0, is given, else its indices."""
    k = k_cells.ravel()
    gamma = gamma_cells.ravel()
    bad = ~np.isnan(k) & ~(np.isin(gamma, cands.gammas) & np.isin(k, cands.ks))
    if bad.any():
        i = int(bad.argmax())
        if first_line is None:
            where = f"cell {tuple(map(int, np.unravel_index(i, k_cells.shape)))}: "
        else:
            where = f"line {first_line + i}: "
        raise TableFormatError(
            f"{where}stored gains (gamma={gamma[i].item()!r}, k={k[i].item()!r}) "
            "are not candidate members"
        )


def lookup(table: GainTable, dr: float, vi: float, vj: float) -> GainPair | None:
    """Gain pair of the nearest cell, or None when any axis is out of range.

    A returned pair may be the invalid marker; callers engage the fallback
    controller on either None or an invalid pair.  There are no range
    checks: each axis bisects its AxisGrid cut tuple once (see _cut for the
    tie rule), and a query below the first value, NaN or -inf lands on the
    None face of the padded cell index, as does one above the last value or
    +inf.  About 0.6 us a query.  The queries are floats: an int past 2**53
    that lies between the first value and the float below it bisects into
    the grid.  The pair returned is shared (see GainTable.cell) and frozen.
    """
    axes = table.axes
    return table._cells[bisect_left(axes._dr_cuts, dr)][
        bisect_left(axes._vi_cuts, vi)
    ][bisect_left(axes._vj_cuts, vj)]


def _fmt(value: float) -> str:
    """Shortest decimal form that round-trips the binary value."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _fmt_value(value) -> str:
    """A header value: comma-separated floats, a float or an Enum's value."""
    if isinstance(value, np.ndarray):
        return ",".join(map(_fmt, value.tolist()))
    return value.value if isinstance(value, Enum) else _fmt(value)


def _index_tokens(shape) -> list[list[str]]:
    """The index tokens of the cell lines, one list per axis, in row-major
    order: cell line j is "cell" and the j-th token of each list, then k
    and gamma, joined by single spaces."""
    n1, n2, n3 = shape
    return [
        list(chain.from_iterable(repeat(str(i), inner) for i in range(n))) * outer
        for n, inner, outer in ((n1, n2 * n3, 1), (n2, n3, n1), (n3, 1, n1 * n2))
    ]


def save_table(table: GainTable, path) -> None:
    """Write the table as UTF-8 text with LF line endings.

    Numbers use shortest round-trip decimals, so save, load, save is
    byte-identical.
    """
    lines = [FORMAT_VERSION]
    for prefix, name, _, keys in _HEADER:
        settings = getattr(table, name)
        values = [_fmt_value(attrgetter(path)(settings)) for path in keys.values()]
        lines.append(" ".join([prefix, *map("{}={}".format, keys, values)]))
    k_text = map(_fmt, table.k_cells.ravel().tolist())
    gamma_text = map(_fmt, table.gamma_cells.ravel().tolist())
    lines += [
        f"cell {i1} {i2} {i3} {k} {gamma}"
        for i1, i2, i3, k, gamma in zip(*_index_tokens(table.shape), k_text, gamma_text)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _parse_kv_tokens(line: str, prefix: str, keys: dict, lineno: int) -> dict[str, str]:
    tokens = line.split(" ")
    if tokens[0] != prefix:
        raise TableFormatError(f"line {lineno}: expected a {prefix!r} line")
    if len(tokens) != len(keys) + 1:
        raise TableFormatError(
            f"line {lineno}: expected {len(keys)} {prefix!r} entries"
        )
    out = {}
    for token, key in zip(tokens[1:], keys):
        name, sep, value = token.partition("=")
        if not sep or name != key or token.split() != [token]:
            raise TableFormatError(
                f"line {lineno}: expected token {key}=..., got {token!r}"
            )
        out[key] = value
    return out


def _parse_float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise TableFormatError(f"{context}: bad number {text!r}") from exc


def _read_header(lines: list[str]) -> dict:
    """The GainTable fields the header lines hold, read by _HEADER; a fault
    names its line."""
    header = {}
    for lineno, (prefix, name, defaults, keys) in enumerate(_HEADER, start=2):
        texts = _parse_kv_tokens(lines[lineno - 1], prefix, keys, lineno)
        try:
            header[name] = _read_settings(defaults, texts, keys)
        except ValueError as exc:
            raise TableFormatError(f"line {lineno}: {exc}") from exc
    return header


def load_table(path) -> GainTable:
    """Parse a table file, validating structure, order, and membership.

    Only the layout save_table writes loads, with any line ends: the file
    is read with universal newlines.  The cell block is read as columns
    (_read_cell_block, about 6 ms for the 6069 cells of the production
    table on a 2-CPU VM).  A fault names its line, a gain outside the
    candidate sets too: the table checks membership when it is built, and
    only a refused table is checked again, to name the line.  A file that
    is not UTF-8 raises TableFormatError too.  The table's AxisGrid finds
    the cuts that lookup bisects here, and the table builds its cell index
    (about 0.8 ms of the load for the production table), so a lookup
    builds nothing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n", 4)
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"not UTF-8 text: {exc}") from exc
    # The four header lines and the cell block, or a shorter file.
    if len(lines) == 5:
        block = lines.pop()
    else:
        block = ""
        if lines[-1] == "":
            lines.pop()
    if not lines or lines[0] != FORMAT_VERSION:
        found = lines[0] if lines else "<empty file>"
        raise TableFormatError(
            f"unsupported table format version: {found!r} (expected {FORMAT_VERSION!r})"
        )
    if len(lines) < 4:
        raise TableFormatError("truncated file: missing header lines")

    header = _read_header(lines)

    shape = header["axes"].shape
    expected = shape[0] * shape[1] * shape[2]
    body = block.removesuffix("\n")
    found = body.count("\n") + 1 if block else 0
    if found > expected:
        raise TableFormatError(
            f"line {5 + expected}: expected {expected} cell lines, found {found}"
        )
    if found < expected:
        raise TableFormatError(
            f"line {5 + found}: end of file, expected {expected} cell lines, "
            f"found {found}"
        )
    k_cells, gamma_cells = _read_cell_block(body, shape)
    try:
        return GainTable(**header, k_cells=k_cells, gamma_cells=gamma_cells)
    except ValueError:
        # Shape and markers are sound, so the fault is a gain off the sets.
        _validate_members(k_cells, gamma_cells, header["candidates"], first_line=5)
        raise


def _read_cell_block(body: str, shape) -> tuple[np.ndarray, np.ndarray]:
    """The k and gamma cells of a block of exactly the lines save_table
    writes; raises the fault of the first faulty line otherwise.

    body is the block without its last newline, one line per cell
    (load_table has counted its newlines).  Whole-block string operations
    certify the layout: 6n tokens, joined by single spaces they give body
    with its newlines as spaces (so no tab, doubled or trailing space, or
    blank line), every newline is followed by "cell ", every sixth token
    is "cell" and the index tokens are those of _index_tokens.  Each
    distinct gain token is parsed once, and the marker and finiteness rules
    are checked on the arrays.  A block fails a check only when one of its
    lines breaks the line rule of _raise_cell_fault, which names the first.
    """
    n = shape[0] * shape[1] * shape[2]
    tokens = body.split()
    if (
        len(tokens) != 6 * n
        or body.count("\ncell ") != n - 1
        or tokens[0::6] != ["cell"] * n
        or [tokens[1::6], tokens[2::6], tokens[3::6]] != _index_tokens(shape)
        or " ".join(tokens) != body.replace("\n", " ")
    ):
        _raise_cell_fault(body, shape)
    k_text, gamma_text = tokens[4::6], tokens[5::6]
    del tokens  # the other four columns are not needed past the checks
    try:
        value = {t: _parse_float(t, "cell") for t in {*k_text, *gamma_text}}
    except TableFormatError:
        _raise_cell_fault(body, shape)
    k = np.array(list(map(value.__getitem__, k_text)))
    gamma = np.array(list(map(value.__getitem__, gamma_text)))
    # Both gains finite, or both NaN.
    both = (np.isfinite(k) & np.isfinite(gamma)) | (np.isnan(k) & np.isnan(gamma))
    if not both.all():
        _raise_cell_fault(body, shape)
    return k, gamma


def _raise_cell_fault(body: str, shape) -> typing.NoReturn:
    """Raise the fault of the first cell line of body that save_table would
    not write, naming the line.

    A line is "cell", three indices and two gains, joined by single spaces;
    an index as str(i) writes it, in row-major order; a gain as _parse_float
    reads it; both gains finite, or both NaN.
    """
    for lineno, (line, index) in enumerate(zip(body.split("\n"), np.ndindex(shape)), 5):
        parts = line.split()
        if len(parts) != 6 or parts[0] != "cell" or " ".join(parts) != line:
            raise TableFormatError(f"line {lineno}: malformed cell line {line!r}")
        try:
            got = tuple(map(int, parts[1:4]))
        except ValueError:
            got = ()
        if list(map(str, got)) != parts[1:4]:
            raise TableFormatError(f"line {lineno}: bad cell indices")
        if got != index:
            raise TableFormatError(
                f"line {lineno}: cell indices {got} out of row-major order, "
                f"expected {index}"
            )
        k = _parse_float(parts[4], f"line {lineno} k")
        gamma = _parse_float(parts[5], f"line {lineno} gamma")
        if math.isnan(k) != math.isnan(gamma):
            raise TableFormatError(
                f"line {lineno}: marker cell must have NaN for both gains"
            )
        if math.isinf(k) or math.isinf(gamma):
            raise TableFormatError(f"line {lineno}: gains must be finite or NaN")
    raise AssertionError("a refused cell block has no faulty line")
