"""How much two CSV files differ, cell by cell.

    python3 tools/csvdiff.py A B

Prints one line: the number of cells that differ as text and, over those
that both files hold as numbers, the largest absolute and relative
difference (relative to the larger magnitude of the two).  Files whose rows
do not pair up cell for cell are reported by their line counts only.  Needs
numpy alone; tools/samebits.sh calls it for each CSV that differs.
"""

import sys

import numpy as np


def read_cells(path):
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split(",") for line in handle]


def as_number(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def report(path_a, path_b) -> str:
    rows_a, rows_b = read_cells(path_a), read_cells(path_b)
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return f"rows do not pair up: {len(rows_a)} lines against {len(rows_b)}"
    cells_a = np.array([cell for row in rows_a for cell in row])
    cells_b = np.array([cell for row in rows_b for cell in row])
    differ = cells_a != cells_b
    text = f"{np.count_nonzero(differ)} of {differ.size} cells differ"
    a = np.array([as_number(cell) for cell in cells_a[differ]])
    b = np.array([as_number(cell) for cell in cells_b[differ]])
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b)
        scale = np.maximum(np.abs(a), np.abs(b))
        numeric = ~np.isnan(gap)
        if not numeric.any():
            return text + ", none of them numeric on both sides"
        gap, scale = gap[numeric], scale[numeric]
        # an infinite gap (a finite cell against an infinite one) is infinite relative too
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
        rel[np.isinf(gap)] = np.inf
    return f"{text}, largest absolute difference {gap.max():.3g}, largest relative {rel.max():.3g}"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} A B")
    print(report(sys.argv[1], sys.argv[2]))
