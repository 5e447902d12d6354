"""Tail functionals and uniform-integrability diagnostics.

For a family of functions and measures the tail functional at level K is
the integral of |f_n| over {|f_n| >= K}.  The sup-over-n aggregation of
the K-curve realizes the uniform-integrability criterion; the limsup over
n is approximated by a sup over a trailing index window plus a
stabilization flag, so verdicts are explicitly grid- and window-relative.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functions import FnSequence
from .kernels import tail_dots
from .measures import MeasureSequence
from .refinement import fn_measure_rows, reduce_family
from .xreal import MalformedObjectError

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
    stabilized: np.ndarray     # per-K bool: window values agree within stab_tol
    stab_tol: float

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
    kind: str                  # "ui" | "aui"
    passes: bool
    k_star: Optional[float]    # smallest grid K with aggregate <= tol
    tol: float


def tail_curve(seq: FnSequence, measures: MeasureSequence,
               k_grid=DEFAULT_K_GRID, window_start: Optional[int] = None,
               stab_tol: float = 1e-9) -> TailCurve:
    """Table of the integrals of |f_n| over {|f_n| >= K} against mu_n, for
    every index n and grid level K (inclusive threshold; exact, +inf
    allowed), with its aggregates.  Each index is refined on its own, in
    ragged passes over the family, and each pass's rows come from one
    ``tail_dots`` call over the whole grid."""
    k_grid = tuple(float(k) for k in k_grid)
    if not k_grid or any(k <= 0 for k in k_grid) or list(k_grid) != sorted(k_grid):
        raise ValueError("K grid must be nonempty, positive, and sorted")
    n_max = seq.n_max
    if window_start is None:
        window_start = default_window_start(n_max)
    if not 1 <= window_start <= n_max:
        raise ValueError(f"window start {window_start} outside 1..{n_max}")
    table = np.empty((n_max, len(k_grid)))
    indices = range(1, n_max + 1)
    rows = fn_measure_rows((seq.fn(n) for n in indices),
                           (measures.measure(n) for n in indices))
    for n, row in enumerate(reduce_family(rows, lambda p: tail_dots(
            p.values[0], p.masses[0], p.offsets, k_grid))):
        table[n] = row
    sup_curve = np.max(table, axis=0)
    window = table[window_start - 1:, :]
    limsup_curve = np.max(window, axis=0)
    with np.errstate(invalid="ignore"):
        spread = np.max(window, axis=0) - np.min(window, axis=0)
    stabilized = np.where(np.isnan(spread), np.all(np.isinf(window), axis=0),
                          spread < stab_tol)
    return TailCurve(k_grid, table, window_start, sup_curve, limsup_curve,
                     np.asarray(stabilized, dtype=bool), stab_tol)


def verdict(curve: TailCurve, kind: str, tol: float = 1e-6) -> UiVerdict:
    """Thresholded vanishing check of the relevant aggregate curve."""
    if kind not in ("ui", "aui"):
        raise ValueError(f"kind must be 'ui' or 'aui', got {kind!r}")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    agg = curve.sup_curve if kind == "ui" else curve.limsup_curve
    hits = np.nonzero(agg <= tol)[0]
    if hits.size:
        return UiVerdict(kind, True, float(curve.k_grid[hits[0]]), tol)
    return UiVerdict(kind, False, None, tol)


def first_shift(tails, tol: float, n_shift_max: int) -> Optional[int]:
    """Smallest N <= n_shift_max with max(tails[N:]) <= tol, or None.

    ``tails[n - 1]`` is the tail of index n at one level K, e.g. a column
    of a ``tail_curve`` table.  None (no such N) is a value, not an error.
    N stays below len(tails) so the max never ranges over an empty index
    set.
    """
    tails = np.asarray(tails, dtype=np.float64)
    for shift in range(0, min(n_shift_max, tails.size - 1) + 1):
        if float(np.max(tails[shift:])) <= tol:
            return shift
    return None


@dataclass(frozen=True)
class TailTableCheck:
    status: str                       # "holds" | "not_triggered" | "witness"
    shift: Optional[int]
    witness: Optional[tuple[int, int]]  # (n index, K index) when the
                                        # implication fails numerically


def check_tail_table(table, k_grid, window_start: int, tol: float,
                     slack: float = 1e-12) -> TailTableCheck:
    """Windowed-vanishing implies shifted-sup-vanishing, on a finite table.

    Rows must be nonincreasing in K (checked; error otherwise).  If the
    trailing-window aggregate drops to <= tol somewhere on the grid,
    verifies that after discarding finitely many leading rows the full sup
    does too, and reports the shift.  A returned witness means the table
    violates the monotonicity/vanishing tolerances, never the underlying
    equivalence.
    """
    table = np.asarray(table, dtype=np.float64)
    n_rows = table.shape[0]
    for i in range(n_rows):
        row = table[i]
        with np.errstate(invalid="ignore"):
            rising = row[1:] > row[:-1] + slack
        if np.any(rising):
            raise MalformedObjectError(f"row {i + 1} is not nonincreasing in K")
    window_agg = np.max(table[window_start - 1:, :], axis=0)
    if not np.any(window_agg <= tol):
        return TailTableCheck("not_triggered", None, None)
    for shift in range(0, n_rows):
        sup = np.max(table[shift:, :], axis=0)
        if np.any(sup <= tol + slack):
            return TailTableCheck("holds", shift, None)
    j = len(k_grid) - 1
    return TailTableCheck("witness", None, (int(np.argmax(table[:, j])) + 1, j))
