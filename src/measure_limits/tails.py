"""Tail functionals and uniform-integrability diagnostics.

For a family of functions and measures the tail functional at level K is
the integral of |f_n| over {|f_n| >= K}.  The sup-over-n aggregation of
the K-curve realizes the uniform-integrability criterion; the limsup over
n is approximated by a sup over a trailing index window, so verdicts are
explicitly grid- and window-relative.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .kernels import tail_dots
from .refinement import FamilyPairing

DEFAULT_K_GRID: tuple[float, ...] = tuple(2.0 ** j for j in range(-1, 13))


def default_window_start(n_max: int) -> int:
    """First index of the trailing window used for limsup/liminf surrogates."""
    return max(1, n_max - max(8, n_max // 4) + 1)


@dataclass(frozen=True)
class TailCurve:
    k_grid: tuple[float, ...]
    table: np.ndarray          # shape (n_max, len(k_grid)); +inf allowed
    window_start: int
    sup_curve: np.ndarray
    limsup_curve: np.ndarray   # sup over the trailing window

    @property
    def n_max(self) -> int:
        return self.table.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["K"] + [f"n={n}" for n in range(1, self.n_max + 1)]
                   + ["sup", "limsup_window"])
        for j, k in enumerate(self.k_grid):
            w.writerow([repr(k)] + [repr(float(v)) for v in self.table[:, j]]
                       + [repr(float(self.sup_curve[j])),
                          repr(float(self.limsup_curve[j]))])
        return buf.getvalue()


@dataclass(frozen=True)
class UiVerdict:
    passes: bool
    k_star: Optional[float]    # smallest grid K with aggregate <= tol


def tail_rows(p: FamilyPairing, k_grid, negative: bool = False
              ) -> Iterator[np.ndarray]:
    """Per index of a chunk, the tail row of its first function against
    its first measure, or of the negative part max(-v, 0): bit for bit
    the row of that part refined on its own, whose merged cells are 0."""
    v = np.maximum(-p.values[0], 0.0) if negative else p.values[0]
    return tail_dots(v, p.masses[0], p.offsets, k_grid)


def curve_of(rows, n_max: int, k_grid, window_start: int) -> TailCurve:
    """The curve of the tail rows of indices 1..n_max, read once the grid
    and the window start are checked; a row that raises raises here."""
    k_grid = tuple(float(k) for k in k_grid)
    if not k_grid or any(k <= 0 for k in k_grid) or list(k_grid) != sorted(k_grid):
        raise ValueError("K grid must be nonempty, positive, and sorted")
    if not 1 <= window_start <= n_max:
        raise ValueError(f"window start {window_start} outside 1..{n_max}")
    table = np.empty((n_max, len(k_grid)))
    for n, row in enumerate(rows):
        table[n] = row
    sup_curve = np.max(table, axis=0)
    limsup_curve = np.max(table[window_start - 1:, :], axis=0)
    return TailCurve(k_grid, table, window_start, sup_curve, limsup_curve)


def verdict(curve: TailCurve, kind: str, tol: float = 1e-6) -> UiVerdict:
    """Thresholded vanishing check of the relevant aggregate curve."""
    if kind not in ("ui", "aui"):
        raise ValueError(f"kind must be 'ui' or 'aui', got {kind!r}")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    agg = curve.sup_curve if kind == "ui" else curve.limsup_curve
    hits = np.nonzero(agg <= tol)[0]
    if hits.size:
        return UiVerdict(True, float(curve.k_grid[hits[0]]))
    return UiVerdict(False, None)


def first_shift(tails, tol: float, n_shift_max: int) -> Optional[int]:
    """Smallest N <= n_shift_max with max(tails[N:]) <= tol, or None.

    ``tails[n - 1]`` is the tail of index n at one level K, e.g. a column
    of a ``TailCurve`` table.  None (no such N) is a value, not an error.
    N stays below len(tails) so the max never ranges over an empty index
    set.
    """
    tails = np.asarray(tails, dtype=np.float64)
    for shift in range(0, min(n_shift_max, tails.size - 1) + 1):
        if float(np.max(tails[shift:])) <= tol:
            return shift
    return None
