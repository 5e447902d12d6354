"""Hypothesis strategies for step functions, measures and their families.

Each strategy takes the point set, value set and size bounds of the test
that draws from it, so each test keeps its own input space, and draws one
object in a fixed handful of integer choices: a subset of the points is
one size and one rank among the subsets of that size, and the values of
its cells are one mixed-radix code, a digit per cell.

Hypothesis draws small integers far more often than large ones.  So each
rank and code is multiplied by a unit modulo its range: a bijection, which
keeps every subset and every value vector reachable, and spreads the
draws over the whole range, so that late cells and late points are drawn
as often as early ones.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from measure_limits import FiniteMeasure, Interval, PiecewiseFn, make_segment

#: The golden ratio's fractional part: multiples of about n times it are
#: spread evenly over [0, n).
_SPREAD = (math.sqrt(5.0) - 1.0) / 2.0


def _code(draw, n: int) -> int:
    """One integer in [0, n), drawn once and spread over the range."""
    unit = round(n * _SPREAD) | 1
    while math.gcd(unit, n) != 1:
        unit += 2
    return draw(st.integers(0, n - 1)) * unit % n


def picks(draw, items, k: int) -> list:
    """k entries of items, repeats allowed: one mixed-radix code."""
    c = _code(draw, len(items) ** k)
    out = []
    for _ in range(k):
        c, digit = divmod(c, len(items))
        out.append(items[digit])
    return out


def subset(draw, items, k: int) -> list:
    """k entries of sorted items, in their order: one rank among the
    k-subsets, read in the combinatorial number system.  Of two equal
    entries taken (0.0 and -0.0) the first stays."""
    rank = _code(draw, math.comb(len(items), k))
    out = []
    for i, x in enumerate(items):
        if len(out) == k:
            break
        # the subsets that take x and the rest of their entries after it
        taking = math.comb(len(items) - i - 1, k - len(out) - 1)
        if rank < taking:
            out.append(x)
        else:
            rank -= taking
    return [x for i, x in enumerate(out) if i == 0 or x != out[i - 1]]


def _inside(points, domain: Interval) -> list:
    return sorted(x for x in points if domain.lo <= x <= domain.hi)


@st.composite
def step_fns(draw, domain: Interval, points, values, max_cells: int
             ) -> PiecewiseFn:
    """A step function on domain: no breakpoints, or 2 to max_cells + 1
    of the points inside it, and a value of values on each cell and as
    its default."""
    pts = _inside(points, domain)
    n_cells = draw(st.integers(0, min(max_cells, len(pts) - 1)))
    bps = subset(draw, pts, n_cells + 1) if n_cells else []
    *vals, default = picks(draw, values, max(len(bps) - 1, 0) + 1)
    return PiecewiseFn(bps, vals, default, domain)


@st.composite
def measures(draw, domain: Interval, points, densities, weights,
             cuts: tuple[int, int], max_atoms: int, segment_los=()
             ) -> FiniteMeasure:
    """A measure on domain: cells between consecutive cuts, as many cuts
    as ``cuts`` allows, each cell with a density of densities (None
    leaves the cell out); atoms on up to max_atoms of the points, each
    with a weight of weights; and on a domain unbounded above, maybe an
    exp2 segment [lo, inf) for a lo of segment_los, the cuts at or below
    lo."""
    pts = _inside(points, domain)
    segments, top = [], domain.hi
    if segment_los and math.isinf(domain.hi) and draw(st.booleans()):
        top = segment_los[draw(st.integers(0, len(segment_los) - 1))]
        segments.append(make_segment("exp2", top, math.inf))
    below = [x for x in pts if x <= top]
    n_cuts = draw(st.integers(cuts[0], min(cuts[1], len(below))))
    ends = subset(draw, below, n_cuts)
    cells = [(a, b, d) for a, b, d
             in zip(ends, ends[1:], picks(draw, densities, max(len(ends) - 1, 0)))
             if d is not None]
    locs = subset(draw, pts, draw(st.integers(0, min(max_atoms, len(pts)))))
    atoms = list(zip(locs, picks(draw, weights, len(locs))))
    return FiniteMeasure(atoms, cells, segments, domain)


@st.composite
def families(draw, max_size: int, *members) -> tuple[list, ...]:
    """1 to max_size indices, each with one object of every member
    strategy: one list per member."""
    n = draw(st.integers(1, max_size))
    return tuple([draw(m) for _ in range(n)] for m in members)
