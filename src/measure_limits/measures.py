"""Finite nonnegative measures on real intervals.

A measure is a sum of three layers: point atoms, constant-density cells,
and analytic segments whose sub-interval masses come from a closed-form
mass function.  Atoms may sit inside cells (masses add); cells and
segments must not overlap each other.  Quadrature never enters the main
path: a segment's masses, its total included, are its ``mass_fn``'s
closed form, which keeps the gallery's closed-form constants exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kernels import comp_sum
from .xreal import Interval, MalformedObjectError

_LN2 = math.log(2.0)
#: ``_exp2_mass`` runs its chain over blocks of this many cells (512 KiB).
_EXP2_BLOCK = 1 << 16


def _exp2_mass(a, b):
    # 2^-a * (1 - 2^-(b-a)) / ln 2, written to avoid cancellation for b - a << 1
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # the same IEEE operations in the same order, block by block in place,
    # with one scratch block: (b - a) * -ln2 is -(b - a) * ln2 exactly; a
    # block of widths with one bit pattern takes its first cell's expm1
    out = np.empty(a.shape)
    d = np.empty(min(a.size, _EXP2_BLOCK))
    for i in range(0, a.size, _EXP2_BLOCK):
        x, o = a[i:i + _EXP2_BLOCK], out[i:i + _EXP2_BLOCK]
        t = np.subtract(b[i:i + _EXP2_BLOCK], x, out=d[:x.size])
        if t.view(np.int64).min() == t.view(np.int64).max():
            t = t[:1]
        t *= -_LN2
        np.expm1(t, out=t)
        np.negative(t, out=t)
        np.negative(x, out=o)
        np.exp2(o, out=o)
        o *= t
        o /= _LN2
    return out


@dataclass(frozen=True)
class AnalyticSegment:
    """Measure layer on [lo, hi] whose masses are given by ``mass_fn``.

    ``mass_fn`` returns the exact masses of the [a, b) subintervals, from
    1-d end arrays that lie in [lo, hi] with a < b, without the
    cancellation of differences of an antiderivative; the ends are not
    copied, and callers clip them to the segment.  No mass is negative or
    -0.0, so none is clamped: for a < b, exp2's b - a > 0,
    -expm1(-(b - a) ln 2) >= +0 and 2^-a >= +0.  ``total`` is the mass of
    [lo, hi] by the same rule.
    """

    name: str
    lo: float
    hi: float
    mass_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and self.lo < self.hi):
            raise MalformedObjectError(f"bad segment bounds [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.total) and self.total >= 0):
            raise MalformedObjectError(f"segment {self.name!r} has non-finite total mass")

    @cached_property
    def total(self) -> float:
        return float(self.mass_fn(np.asarray([self.lo]), np.asarray([self.hi]))[0])


#: Named segment densities resolvable from scenario files.
CDF_REGISTRY: dict[str, Callable[[float, float], AnalyticSegment]] = {
    "exp2": lambda lo, hi: AnalyticSegment("exp2", lo, hi, _exp2_mass),
}


def make_segment(name: str, lo: float, hi: float) -> AnalyticSegment:
    try:
        factory = CDF_REGISTRY[name]
    except KeyError:
        raise MalformedObjectError(
            f"unknown analytic CDF {name!r}; known: {sorted(CDF_REGISTRY)}") from None
    return factory(lo, hi)


class FiniteMeasure:
    """Finite nonnegative measure: atoms + density cells + analytic segments."""

    __slots__ = ("atom_locs", "atom_weights", "cell_los", "cell_his",
                 "cell_densities", "segments", "domain", "_piece_edges")

    def __init__(self, atoms=(), cells=(), segments=(),
                 domain: Interval = Interval(-math.inf, math.inf)):
        self.atom_locs, self.atom_weights = np.array(
            sorted(atoms), dtype=np.float64).reshape(-1, 2).T.copy()
        self.cell_los, self.cell_his, self.cell_densities = np.array(
            sorted(cells), dtype=np.float64).reshape(-1, 3).T.copy()
        self.segments = tuple(sorted(segments, key=lambda s: s.lo))
        self.domain = domain
        self._validate()
        # measures are immutable, so every refinement shares one edge array
        self._piece_edges = np.unique(np.concatenate([
            self.cell_los, self.cell_his,
            np.asarray([s.lo for s in self.segments]),
            np.asarray([s.hi for s in self.segments if math.isfinite(s.hi)]),
            self.atom_locs,
        ]))
        self._piece_edges.flags.writeable = False

    def _validate(self) -> None:
        locs, w, dom = self.atom_locs, self.atom_weights, self.domain
        if locs.size:
            if not np.isfinite(locs).all():
                raise MalformedObjectError("atom locations must be finite")
            if (w < 0).any() or not np.isfinite(w).all():
                raise MalformedObjectError("atom weights must be finite and >= 0")
            # the atoms are sorted, so equal locations are neighbours
            if (locs[1:] == locs[:-1]).any():
                raise MalformedObjectError("duplicate atom locations")
            if (locs < dom.lo).any() or (locs > dom.hi).any():
                raise MalformedObjectError("atom outside domain")
        los, his, rho = self.cell_los, self.cell_his, self.cell_densities
        if los.size:
            if not (np.isfinite(los).all() and np.isfinite(his).all()):
                raise MalformedObjectError("cell bounds must be finite")
            if (his <= los).any():
                raise MalformedObjectError("cell needs lo < hi")
            if (rho < 0).any() or not np.isfinite(rho).all():
                raise MalformedObjectError("cell density must be finite and >= 0")
        # cells and segments must be pairwise non-overlapping: sorted by
        # lo, each span ends by the next one's lo
        ends = sorted([*zip(los.tolist(), his.tolist()),
                       *((s.lo, s.hi) for s in self.segments)])
        if (any(lo2 < hi1 for (_, hi1), (lo2, _) in zip(ends, ends[1:]))
                or any(lo < dom.lo or hi > dom.hi for lo, hi in ends)):
            # the first fault in the order of the described spans
            spans = sorted(
                [(lo, hi, f"cell [{lo}, {hi})")
                 for lo, hi in zip(self.cell_los, self.cell_his)]
                + [(s.lo, s.hi, f"segment {s.name!r} [{s.lo}, {s.hi})")
                   for s in self.segments])
            for (lo1, hi1, d1), (lo2, hi2, d2) in zip(spans, spans[1:]):
                if lo2 < hi1:
                    raise MalformedObjectError(f"overlapping regions: {d1} and {d2}")
            for lo, hi, desc in spans:
                if lo < dom.lo or hi > dom.hi:
                    raise MalformedObjectError(f"{desc} outside domain")

    # -- masses ----------------------------------------------------------

    def total_mass(self) -> float:
        parts = [self.atom_weights,
                 self.cell_densities * (self.cell_his - self.cell_los),
                 np.asarray([s.total for s in self.segments])]
        return comp_sum(np.concatenate(parts)) if any(p.size for p in parts) else 0.0

    def continuous_cell_masses(self, edges: np.ndarray) -> np.ndarray:
        """Masses of the partition cells [edges[i], edges[i+1]) from the
        non-atomic layers.  ``edges`` must span the whole domain (infinite
        endpoints included) and contain every cell and segment endpoint of
        this measure, so each partition cell meets one layer piece at
        most; masses are then exact."""
        out = np.zeros(edges.size - 1)
        for lo, hi, rho in zip(self.cell_los, self.cell_his, self.cell_densities):
            i0 = int(np.searchsorted(edges, lo, side="left"))
            i1 = int(np.searchsorted(edges, hi, side="left"))
            if rho:
                out[i0:i1] += rho * (edges[i0 + 1:i1 + 1] - edges[i0:i1])
        for seg in self.segments:
            i0 = int(np.searchsorted(edges, seg.lo, side="left"))
            i1 = int(np.searchsorted(edges, seg.hi, side="left"))
            out[i0:i1] += seg.mass_fn(edges[i0:i1], edges[i0 + 1:i1 + 1])
        return out

    def mass_of_intervals(self, los, his, hi_closed) -> float:
        """Mass of the intervals [lo, hi) together, or [lo, hi] where the
        interval's ``hi_closed`` flag is set: one row of atom, cell and
        segment terms per interval, formed at once, and one exactly
        rounded sum of all the rows' terms."""
        lo = np.asarray(los, dtype=np.float64)[:, None]
        hi = np.asarray(his, dtype=np.float64)[:, None]
        locs = self.atom_locs
        atoms = (lo <= locs) & np.where(
            np.asarray(hi_closed, dtype=bool)[:, None], locs <= hi, locs < hi)
        clip_lo = np.maximum(self.cell_los, lo)
        clip_hi = np.minimum(self.cell_his, hi)
        # each segment's masses by one call over its clipped ends
        s_lo = np.maximum([s.lo for s in self.segments], lo)
        s_hi = np.minimum([s.hi for s in self.segments], hi)
        seg_keep = s_hi > s_lo
        seg = np.zeros(seg_keep.shape)
        for j, s in enumerate(self.segments):
            keep = seg_keep[:, j]
            seg[keep, j] = s.mass_fn(s_lo[keep, j], s_hi[keep, j])
        terms = np.concatenate([np.broadcast_to(self.atom_weights, atoms.shape),
                                self.cell_densities * (clip_hi - clip_lo), seg],
                               axis=1)
        keep = (np.concatenate([atoms, clip_hi > clip_lo, seg_keep], axis=1)
                & (hi >= lo))
        return comp_sum(terms[keep])

    def piece_edges(self) -> np.ndarray:
        """All finite structural endpoints (cells, segments, atoms), sorted;
        a read-only array computed once at construction."""
        return self._piece_edges


def lebesgue(lo: float, hi: float) -> FiniteMeasure:
    return FiniteMeasure(cells=[(lo, hi, 1.0)], domain=Interval(lo, hi))


def point_mass(loc: float, weight: float, domain: Interval) -> FiniteMeasure:
    return FiniteMeasure(atoms=[(loc, weight)], domain=domain)
