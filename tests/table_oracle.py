"""Line-by-line reference reading of a table file's cell block.

The oracle that property tests pin caccsim.gaintable.load_table's column
reader to: it counts the cell lines, then checks them one at a time in
row-major order, then checks candidate membership, and raises the fault of
the first faulty line with load_table's text.  It reads the layout
save_table writes and nothing else: tokens joined by single spaces, indices
as str(i) writes them, gains as float() reads them or "NaN".  It shares
only TableFormatError with caccsim.
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
