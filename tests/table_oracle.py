"""Reference cell selection and line-by-line reading of a table file.

_select_cell is the staged selection that the table build's column-wise
_CellScorer.decide is pinned to: it picks one cell's stored gains from its
candidates' whole-run outcomes.

oracle_cells is the oracle that property tests pin
caccsim.gaintable.load_table's column reader to: it counts the cell lines,
then checks them one at a time in row-major order, then checks candidate
membership, and raises the fault of the first faulty line with
load_table's text.  It reads the layout save_table writes and nothing else:
tokens joined by single spaces, indices as str(i) writes them, gains as
float() reads them or "NaN".  The module shares only TableFormatError with
caccsim.
"""

from __future__ import annotations

import math

import numpy as np

from caccsim.gaintable import TableFormatError


def oracle_number(text: str, context: str) -> float:
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise TableFormatError(f"{context}: bad number {text!r}") from exc


def oracle_cells(path, table) -> tuple[np.ndarray, np.ndarray]:
    """The flat k and gamma cells of the file at path, whose header holds
    table's axes and candidates, or the first fault, raised."""
    # Universal newlines, as load_table reads the file.
    lines = path.read_text(encoding="utf-8").split("\n")[4:]
    if lines and lines[-1] == "":
        lines.pop()
    expected, found = table.k_cells.size, len(lines)
    if found > expected:
        raise TableFormatError(
            f"line {5 + expected}: expected {expected} cell lines, found {found}"
        )
    if found < expected:
        raise TableFormatError(
            f"line {5 + found}: end of file, expected {expected} cell lines, "
            f"found {found}"
        )
    ks, gammas = [], []
    for lineno, (line, index) in enumerate(zip(lines, np.ndindex(table.shape)), 5):
        parts = line.split(" ")
        if len(parts) != 6 or parts[0] != "cell" or parts != line.split():
            raise TableFormatError(f"line {lineno}: malformed cell line {line!r}")
        try:
            got = tuple(int(t) for t in parts[1:4])
        except ValueError:
            got = None
        if got is None or [str(i) for i in got] != parts[1:4]:
            raise TableFormatError(f"line {lineno}: bad cell indices")
        if got != index:
            raise TableFormatError(
                f"line {lineno}: cell indices {got} out of row-major order, "
                f"expected {index}"
            )
        k = oracle_number(parts[4], f"line {lineno} k")
        gamma = oracle_number(parts[5], f"line {lineno} gamma")
        if not (math.isfinite(k) and math.isfinite(gamma)):
            if math.isnan(k) != math.isnan(gamma):
                raise TableFormatError(
                    f"line {lineno}: marker cell must have NaN for both gains"
                )
            if math.isinf(k) or math.isinf(gamma):
                raise TableFormatError(f"line {lineno}: gains must be finite or NaN")
        ks.append(k)
        gammas.append(gamma)
    members_k = table.candidates.ks.tolist()
    members_gamma = table.candidates.gammas.tolist()
    for lineno, (k, gamma) in enumerate(zip(ks, gammas), 5):
        if math.isfinite(k) and not (gamma in members_gamma and k in members_k):
            raise TableFormatError(
                f"line {lineno}: stored gains (gamma={gamma!r}, k={k!r}) "
                "are not candidate members"
            )
    return np.array(ks), np.array(gammas)


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
