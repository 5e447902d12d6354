"""Extended-real-valued step functions, function sequences, and ramps.

A :class:`PiecewiseFn` is a measurable step function with finitely many
breakpoints, a constant value on every cell, and a default value outside
the listed cells.  Cells are half-open ``[lo, hi)``; the rightmost domain
endpoint belongs to the last cell when a breakpoint lands exactly on it.
Values may be ``+inf``/``-inf``; only integration decides definedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import union_edges
from .xreal import (
    DomainMismatchError,
    Interval,
    MalformedObjectError,
    require_not_nan,
)


class PiecewiseFn:
    """Step function on an interval domain."""

    __slots__ = ("breakpoints", "values", "default", "domain")

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
        if bp.size and (not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0)):
            raise MalformedObjectError("breakpoints must be finite and strictly increasing")
        if np.any(np.isnan(vals)):
            raise MalformedObjectError("cell values may not be NaN")
        require_not_nan(default, "default value")
        if bp.size and (bp[0] < domain.lo or bp[-1] > domain.hi):
            raise MalformedObjectError("breakpoints outside the declared domain")
        bp, vals = _canonicalize(bp, vals, default)
        bp.setflags(write=False)
        vals.setflags(write=False)
        self.breakpoints = bp
        self.values = vals
        self.default = float(default)
        self.domain = domain

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainMismatchError(f"{x} outside domain [{self.domain.lo}, {self.domain.hi}]")
        bp = self.breakpoints
        if bp.size == 0:
            return self.default
        if x == self.domain.hi and x == bp[-1] and self.values.size:
            return float(self.values[-1])
        i = int(np.searchsorted(bp, x, side="right")) - 1
        if i < 0 or i >= self.values.size:
            return self.default
        return float(self.values[i])

    def values_at(self, points) -> np.ndarray:
        """Vectorized evaluation; caller guarantees points lie in the domain.

        Each point is located by binary search in the breakpoints; a
        breakpoint on a finite ``domain.hi`` gives that point the last cell's
        value.  :meth:`cell_values` skips the search when the points are the
        left edges of f's own cells.
        """
        pts = np.asarray(points, dtype=np.float64)
        out = np.full(pts.shape, self.default)
        bp = self.breakpoints
        if bp.size == 0:
            return out
        idx = np.searchsorted(bp, pts, side="right") - 1
        mask = (idx >= 0) & (idx < self.values.size)
        out[mask] = self.values[idx[mask]]
        if self.values.size and bp[-1] == self.domain.hi:
            out[pts == self.domain.hi] = self.values[-1]
        return out

    def cell_values(self, edges: np.ndarray) -> np.ndarray:
        """f's value on each cell ``[edges[i], edges[i+1])`` of a partition
        that refines f: bit for bit ``values_at(edges[:-1])``.

        When the edges are f's breakpoints plus at most one edge before and
        one after them, as the domain ends of a refinement of f alone are,
        the cells are f's own: ``values`` is copied out, with ``default`` in
        the end cells, and nothing is searched.  Any other edge set goes to
        ``values_at``, and so does a cell that starts at a breakpoint on
        ``domain.hi`` (that closed end takes the last cell's value).  The
        size test comes first, so a partition with more edges pays one
        integer comparison.
        """
        bp = self.breakpoints
        extra = edges.size - bp.size
        if bp.size and 0 <= extra <= 2:
            lead = int(edges[0] < bp[0])
            trail = extra - lead
            if (trail <= 1 and not (trail and bp[-1] == self.domain.hi)
                    and np.array_equal(edges[lead:lead + bp.size], bp)):
                out = np.full(edges.size - 1, self.default)
                out[lead:lead + self.values.size] = self.values
                return out
        return self.values_at(edges[:-1])

    def left_limit(self, x: float) -> float:
        """Value of the cell ending at x (the one-sided limit from below)."""
        bp = self.breakpoints
        if bp.size == 0 or x <= bp[0]:
            return self.default
        i = int(np.searchsorted(bp, x, side="left")) - 1
        if i >= self.values.size:
            return self.default
        return float(self.values[i])

    def range_on(self, lo: float, hi: float, lo_closed: bool, hi_closed: bool
                 ) -> tuple[float, float]:
        """(inf, sup) of the function over the given subinterval of the domain.

        The subinterval is clipped to the domain; domain endpoints count as
        closed (balls are one-sided there).  Exact for step functions.
        """
        if lo < self.domain.lo:
            lo, lo_closed = self.domain.lo, True
        if hi > self.domain.hi:
            hi, hi_closed = self.domain.hi, True
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            raise MalformedObjectError("empty interval in range_on")
        cands_lo: list[float] = []
        cands_hi: list[float] = []
        if lo_closed:
            v = self(lo)
            cands_lo.append(v)
            cands_hi.append(v)
        if hi_closed and hi > lo:
            v = self(hi)
            cands_lo.append(v)
            cands_hi.append(v)
        if hi > lo:
            bp = self.breakpoints
            if bp.size == 0:
                cands_lo.append(self.default)
                cands_hi.append(self.default)
            else:
                # cells [bp[i], bp[i+1]) meeting the open interior (lo, hi)
                i0 = max(0, int(np.searchsorted(bp, lo, side="right")) - 1)
                i1 = int(np.searchsorted(bp, hi, side="left"))
                sl = self.values[i0:i1]
                if sl.size:
                    cands_lo.append(float(np.min(sl)))
                    cands_hi.append(float(np.max(sl)))
                if lo < bp[0] or hi > bp[-1]:
                    cands_lo.append(self.default)
                    cands_hi.append(self.default)
        return min(cands_lo), max(cands_hi)

    def lower_envelope(self, x: float) -> float:
        """Lower-semicontinuous envelope at x: min of value and one-sided limits."""
        v = self(x)
        if x > self.domain.lo:
            v = min(v, self.left_limit(x))
        return v

    def upper_envelope(self, x: float) -> float:
        v = self(x)
        if x > self.domain.lo:
            v = max(v, self.left_limit(x))
        return v

    # -- algebra ---------------------------------------------------------

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray],
                   fn_scalar: Callable[[float], float]) -> "PiecewiseFn":
        vals = fn(self.values) if self.values.size else self.values
        return PiecewiseFn(self.breakpoints, vals, fn_scalar(self.default), self.domain)

    def __neg__(self) -> "PiecewiseFn":
        return self.map_values(lambda v: -v, lambda d: -d)

    def __abs__(self) -> "PiecewiseFn":
        return self.map_values(np.abs, abs)

    def is_bounded(self) -> bool:
        if self.values.size and not np.all(np.isfinite(self.values)):
            return False
        return math.isfinite(self.default)

    def sup_abs(self) -> float:
        m = abs(self.default)
        if self.values.size:
            m = max(m, float(np.max(np.abs(self.values))))
        return m

    def __repr__(self) -> str:
        return (f"PiecewiseFn({self.breakpoints.size} breakpoints, "
                f"default={self.default})")


def _canonicalize(bp: np.ndarray, vals: np.ndarray, default: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent equal-valued cells and strip default-valued edge cells.

    Evaluation-preserving everywhere under the half-open cell convention.
    """
    if bp.size == 0:
        return bp, vals
    lo, hi = 0, vals.size
    while lo < hi and vals[lo] == default:
        lo += 1
    while hi > lo and vals[hi - 1] == default:
        hi -= 1
    vals = vals[lo:hi]
    bp = bp[lo:hi + 1]
    if vals.size == 0:
        return np.empty(0), np.empty(0)
    keep = np.ones(bp.size, dtype=bool)
    keep[1:-1] = vals[1:] != vals[:-1]
    if keep.all():
        # nothing to merge: the arrays are copied whole (read-only inputs,
        # such as another function's, are shared as they are)
        return _own(bp), _own(vals)
    return np.ascontiguousarray(bp[keep]), np.ascontiguousarray(vals[keep[:-1]])


def _own(a: np.ndarray) -> np.ndarray:
    """a itself when it is read-only and contiguous, else a contiguous copy,
    so that freezing the result never freezes a caller's array."""
    if a.flags.writeable or not a.flags.c_contiguous:
        return np.array(a)
    return a


def zero_fn(domain: Interval) -> PiecewiseFn:
    return PiecewiseFn((), (), 0.0, domain)


def constant_fn(c: float, domain: Interval) -> PiecewiseFn:
    return PiecewiseFn((), (), c, domain)


def part(f: PiecewiseFn, which: str) -> PiecewiseFn:
    """Positive part max(f, 0) or negative part -min(f, 0); both nonnegative."""
    if which == "positive":
        return f.map_values(lambda v: np.maximum(v, 0.0), lambda d: max(d, 0.0))
    if which == "negative":
        return f.map_values(lambda v: np.maximum(-v, 0.0), lambda d: max(-d, 0.0))
    raise ValueError(f"which must be 'positive' or 'negative', got {which!r}")


def tail_restrict(f: PiecewiseFn, k: float) -> PiecewiseFn:
    """|f| restricted to the superlevel set {|f| >= k}; zero elsewhere."""
    if not k > 0:
        raise ValueError(f"threshold must be positive, got {k}")

    def clamp(v):
        a = np.abs(v)
        return np.where(a >= k, a, 0.0)

    return f.map_values(clamp, lambda d: abs(d) if abs(d) >= k else 0.0)


@dataclass(frozen=True)
class DominanceWitness:
    lo: float
    hi: float
    upper_value: float
    lower_value: float


def dominates(upper: PiecewiseFn, lower: PiecewiseFn
              ) -> tuple[bool, Optional[DominanceWitness]]:
    """Exact pointwise check upper >= lower; reports a witness cell on failure."""
    if upper.domain != lower.domain:
        raise DomainMismatchError("dominance check requires a shared domain")
    dom = upper.domain
    edges = union_edges([
        upper.breakpoints, lower.breakpoints,
        np.asarray([b for b in (dom.lo, dom.hi) if math.isfinite(b)]),
    ])
    # representative points: one per region, half-open semantics make the
    # left edge carry the cell value; the last edge stands for itself
    if edges.size == 0:
        reps = np.zeros(1)
    elif edges[0] > dom.lo:
        lead = dom.lo if math.isfinite(dom.lo) else edges[0] - 1.0
        reps = np.concatenate([[lead], edges])
    else:
        reps = edges
    # the closing edge dom.hi lets cell_values read the last point as well
    cells = np.append(reps, dom.hi)
    uv = upper.cell_values(cells)
    lv = lower.cell_values(cells)
    bad = np.nonzero(uv < lv)[0]
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    x = float(reps[i])
    j = int(np.searchsorted(edges, x, side="right"))
    hi = float(edges[j]) if j < edges.size else dom.hi
    return False, DominanceWitness(x, hi, float(uv[i]), float(lv[i]))


@dataclass(frozen=True)
class EpiCertificate:
    """Analytic epigraphical-limit certificate.

    ``fn`` gives the limit function as a step function; ``overrides`` pin
    exact values at individual points that a step function cannot carry
    (isolated spikes at atoms).  Certificates are trusted inputs: the
    epi-limits module uses them without scanning.  The tier-1 tests compare
    them with windowed estimates (``test_comb_teeth_*`` in
    ``tests/test_epilimits.py``).
    """

    fn: PiecewiseFn
    overrides: tuple[tuple[float, float], ...] = ()

    def value_at(self, x: float, direction: str) -> float:
        for loc, v in self.overrides:
            if loc == x:
                return v
        if direction == "lower":
            return self.fn.lower_envelope(x)
        return self.fn.upper_envelope(x)


@dataclass
class FnSequence:
    """Lazily generated indexed family f_1..f_{n_max} of step functions;
    each is built once and kept for the life of the sequence."""

    n_max: int
    builder: Callable[[int], PiecewiseFn]
    epi_liminf_cert: Optional[EpiCertificate] = None
    epi_limsup_cert: Optional[EpiCertificate] = None
    #: (point, radius) -> (n0, fn) with f_n == fn on the ball for all n >= n0,
    #: or None when the family does not stabilize there.
    eventual_form: Optional[Callable[[float, float],
                                     Optional[tuple[int, PiecewiseFn]]]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def fn(self, n: int) -> PiecewiseFn:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"index {n} outside 1..{self.n_max}")
        f = self._cache.get(n)
        if f is None:
            f = self.builder(n)
            self._cache[n] = f
        return f

    def map(self, transform: Callable[[PiecewiseFn], PiecewiseFn]) -> "FnSequence":
        return FnSequence(self.n_max, lambda n: transform(self.fn(n)))


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

    def sup_abs(self) -> float:
        return max(abs(v) for v in self.ys)
