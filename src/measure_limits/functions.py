"""Extended-real-valued step functions, function sequences, ramps, and
the dominance check between two function families.

A :class:`PiecewiseFn` is a measurable step function with finitely many
breakpoints, a constant value on every cell, and a default value outside
the listed cells.  Cells are half-open ``[lo, hi)``; the rightmost domain
endpoint belongs to the last cell when a breakpoint lands exactly on it.
Values may be ``+inf``/``-inf``; only integration decides definedness.
A -0.0 value or default is stored as 0.0, so extremes ignore tie order.
``dominates`` compares two families on their common refinements, in one
``refinement.family_pairing`` pass, as the integral series do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .refinement import BlockedFn, family_pairing
from .xreal import (
    DomainMismatchError,
    Interval,
    MalformedObjectError,
)


class PiecewiseFn:
    """Step function on an interval domain, on read-only arrays.

    ``table[c]`` is its value after c breakpoints: the default for c = 0,
    ``values`` (the view ``table[1:-1]``) in between, and the last cell's
    value if the last breakpoint is ``domain.hi``, else the default.
    Read-only canonical breakpoints that own their data are kept, and so
    is such a table with the right ends given as ``table[1:-1]``."""

    __slots__ = ("breakpoints", "values", "table", "default", "domain")

    def __init__(self, breakpoints, values, default: float = 0.0,
                 domain: Interval = Interval(-math.inf, math.inf)):
        bp = np.asarray(breakpoints, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if bp.ndim != 1 or vals.ndim != 1:
            raise MalformedObjectError("breakpoints and values must be 1-d")
        if bp.size != 0 and vals.size != bp.size - 1:
            raise MalformedObjectError(
                f"{vals.size} cell values for {bp.size} breakpoints")
        if bp.size == 0 and vals.size != 0:
            raise MalformedObjectError("cell values without breakpoints")
        # strictly increasing breakpoints between finite ends are finite
        if bp.size and not (math.isfinite(bp[0]) and math.isfinite(bp[-1])
                            and (bp[1:] > bp[:-1]).all()):
            raise MalformedObjectError("breakpoints must be finite and strictly increasing")
        if np.isnan(vals).any():
            raise MalformedObjectError("cell values may not be NaN")
        if math.isnan(default):
            raise MalformedObjectError("default value is NaN")
        if bp.size and (bp[0] < domain.lo or bp[-1] > domain.hi):
            raise MalformedObjectError("breakpoints outside the declared domain")
        self.default = float(default) + 0.0
        self.domain = domain
        self.breakpoints, self.table = _canonicalize(bp, vals, self.default,
                                                     domain)
        self.values = self.table[1:-1]

    n_breakpoints = property(lambda self: self.breakpoints.size)

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainMismatchError(f"{x} outside domain [{self.domain.lo}, {self.domain.hi}]")
        return float(self.table[np.searchsorted(self.breakpoints, x, "right")])

    # -- algebra ---------------------------------------------------------

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray],
                   fn_scalar: Callable[[float], float]) -> "PiecewiseFn":
        vals = fn(self.values) if self.values.size else self.values
        return PiecewiseFn(self.breakpoints, vals, fn_scalar(self.default), self.domain)

    def __abs__(self) -> "PiecewiseFn":
        return self.map_values(np.abs, abs)

    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.table).all())


def _canonicalize(bp: np.ndarray, vals: np.ndarray, default: float,
                  domain: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent equal-valued cells, strip default-valued edge cells
    and store -0.0 values as 0.0: evaluation-preserving everywhere under
    the half-open cell convention, up to the sign of zero.  Returns the
    breakpoints and the value table."""
    given, lo, hi = vals, 0, vals.size
    while lo < hi and vals[lo] == default:
        lo += 1
    while hi > lo and vals[hi - 1] == default:
        hi -= 1
    if hi - lo < max(vals.size, 1):
        vals, bp = vals[lo:hi], bp[lo:hi + 1] if hi > lo else bp[:0]
    change = vals[1:] != vals[:-1]
    if not change.all():
        # each kept cell starts where the value changes
        new = np.flatnonzero(change) + 1
        vals, bp = vals[np.append(0, new)], bp[np.r_[0, new, bp.size - 1]]
    # breakpoints that are read-only and own their data are kept, and so
    # are values given as table[1:-1] of such a table with the right ends
    # and no -0.0, the one double whose int64 view is the least int64
    if bp.base is not None or bp.flags.writeable:
        bp = np.array(bp)
    bp.setflags(write=False)
    end = vals[-1] + 0.0 if bp.size and bp[-1] == domain.hi else default
    table = vals.base
    if not (vals is given and isinstance(table, np.ndarray)
            and table.shape == (bp.size + 1,) and table.base is None
            and not (table.flags.writeable or vals.flags.writeable)
            and table[1:-1].__array_interface__ == vals.__array_interface__
            and (table[0], table[-1]) == (default, end)
            and table.view(np.int64).min() != np.iinfo(np.int64).min):
        table = np.empty(bp.size + 1)
        table[0], table[-1] = default, end
        np.add(vals, 0.0, out=table[1:-1])
        table.setflags(write=False)
    return bp, table


def zero_fn(domain: Interval) -> PiecewiseFn:
    return PiecewiseFn((), (), 0.0, domain)


def constant_fn(c: float, domain: Interval) -> PiecewiseFn:
    return PiecewiseFn((), (), c, domain)


def dominates(upper: Sequence[PiecewiseFn], lower: Sequence[PiecewiseFn]
              ) -> bool:
    """Exact check that u_n >= l_n everywhere, for every index n of two
    families of step functions of the same length.

    The pairs (u_n, l_n) are refined by one ``family_pairing`` pass and
    compared cell by cell (``dominance_fails``), a ``BlockedFn`` up to its
    first failing block.  The cells cover the whole domain, ends included:
    a closed finite ``domain.hi`` takes the last cell's value in both
    functions.  A one-point domain has no cells; both functions are their
    defaults there.  The pairs are read lazily and in order, so a pair on
    two different domains raises DomainMismatchError unless an earlier
    pair already fails.
    """
    point_fails = []

    def rows():
        for u, l in zip(upper, lower):
            if u.domain != l.domain:
                raise DomainMismatchError(
                    "dominance check requires a shared domain")
            if u.domain.lo < u.domain.hi:
                yield (u, l), ()
            elif u.default < l.default:
                point_fails.append(True)
                return

    for p in family_pairing(rows()):
        fails = any(map(dominance_fails, p.parts() if p.parts else (p,)))
        # released before the next chunk is built
        del p
        if fails:
            return False
    return not point_fails


def dominance_fails(p) -> bool:
    """Whether l_n > u_n on a cell of the pairing p of rows (u_n, l_n)."""
    return bool(np.any(p.values[0] < p.values[1]))


@dataclass(frozen=True)
class EpiCertificate:
    """Analytic epigraphical-limit certificate.

    ``fn`` gives the limit function as a step function; ``overrides`` pin
    exact values at individual points that a step function cannot carry
    (isolated spikes at atoms).  Certificates are trusted inputs: the
    epi-limits module uses them without scanning.  The tier-1 tests compare
    them with windowed scans of the same functions with the certificates
    stripped (``FnSequence(seq.fns)``; see ``tests/test_epilimits.py``).
    """

    fn: PiecewiseFn
    overrides: tuple[tuple[float, float], ...] = ()

    def values_at(self, xs, lower: bool) -> np.ndarray:
        """The lower (upper) semicontinuous envelope of ``fn`` at every
        point, min (max) of f(x) and f(x-) read off its table, and f(x)
        alone at ``domain.lo``; the first override at a point replaces
        it."""
        f, xs = self.fn, np.asarray(xs, dtype=np.float64)
        outside = ~((xs >= f.domain.lo) & (xs <= f.domain.hi))
        if outside.any():
            raise DomainMismatchError(f"{float(xs[outside][0])} outside domain "
                                      f"[{f.domain.lo}, {f.domain.hi}]")
        at, left = (f.table[np.searchsorted(f.breakpoints, xs, side)]
                    for side in ("right", "left"))
        env = np.where(xs > f.domain.lo,
                       (np.minimum if lower else np.maximum)(at, left), at)
        for loc, v in reversed(self.overrides):
            env[xs == loc] = v
        return env


def whole(f):
    """f, or the ``BlockedFn`` f written whole, as its one block."""
    if not isinstance(f, BlockedFn):
        return f
    b, = f.cell_blocks(False, f.n_breakpoints)
    b.breakpoints.flags.writeable = b.table.flags.writeable = False
    return PiecewiseFn(b.breakpoints, b.table[1:-1], b.table[0], f.domain)


@dataclass(frozen=True)
class LazyFamily(Sequence):
    """The step functions member(n), n in ``indices``, on one domain, built
    on demand: a member may be a ``BlockedFn``, which states its size and
    builds nothing until it is read.  ``len`` builds nothing, an index or
    an iteration builds its members and keeps none, and a slice is again
    such a family."""

    member: Callable[[int], object]
    indices: range

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LazyFamily(self.member, self.indices[i])
        return whole(self.member(self.indices[i]))

    def __iter__(self):  # an IndexError of member is not the family's end
        return map(whole, map(self.member, self.indices))


@dataclass(frozen=True)
class FnSequence:
    """The indexed family f_1..f_{n_max} of step functions: ``fns[n - 1]``
    is f_n.  The family is a tuple, built once, or a ``LazyFamily``."""

    fns: Sequence[PiecewiseFn]
    epi_liminf_cert: Optional[EpiCertificate] = None
    epi_limsup_cert: Optional[EpiCertificate] = None

    @property
    def n_max(self) -> int:
        return len(self.fns)

    @property
    def members(self):  # as made: a lazy family's BlockedFn unbuilt
        f = self.fns
        return map(f.member, f.indices) if isinstance(f, LazyFamily) else f


@dataclass(frozen=True)
class Ramp:
    """Continuous piecewise-linear function with constant extension outside."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 1:
            raise MalformedObjectError("ramp needs matching node arrays")
        if any(not math.isfinite(v) for v in self.ys):
            raise MalformedObjectError("ramp values must be finite (bounded witness)")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise MalformedObjectError("ramp nodes must be strictly increasing")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))
