"""Sequential epigraphical lower and upper limits.

The epi-liminf of a function sequence at s is the supremum over index
thresholds N and ball radii delta of the infimum of f_n(s') over n >= N
and s' in the delta-ball around s.  A finite schedule of (N_j, delta_j)
pairs realizes the inner inf/sup exactly (cell scans are exact for step
functions) but truncates the outer limit, so every estimate carries a
certainty tag: ``exact`` requires an analytic certificate, otherwise the
value is ``window``-truncated and downstream checks must not treat it as
a proof.

A certificate decides every point exactly, and nothing is scanned.
Without one, an estimate reads the last two schedule steps: the last
gives the value, and their agreement makes it stabilized.  The inf over
n >= N_j and a ball is the inf over that ball of the envelope
min_{n >= N_j} f_n (max for the limsup).  One ``epi_scan`` reads both
directions at all the points a caller needs of a family, from the two
envelopes of each step.  ``tests/helpers.py`` keeps the scalar scan (one
``range_on`` call per step and index) that it must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functions import EpiCertificate, FnSequence, PiecewiseFn
from .kernels import comp_sum, pos_neg_dot, union_edges
from .measures import FiniteMeasure
from .refinement import family_pairing
from .xreal import (
    DomainMismatchError,
    Interval,
    MalformedObjectError,
    ScheduleError,
    close_arrays,
    integral_of_parts,
)

EXACT = "exact"
WINDOW = "window"


@dataclass(frozen=True)
class EpiSchedule:
    """Pairs of rising index thresholds and shrinking ball radii."""

    steps: tuple[tuple[int, float], ...]
    n_max: int

    def __post_init__(self) -> None:
        if not self.steps:
            raise ScheduleError("schedule needs at least one (N, delta) step")
        ns = [n for n, _ in self.steps]
        ds = [d for _, d in self.steps]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ScheduleError("index thresholds must be strictly increasing")
        if any(b >= a for a, b in zip(ds, ds[1:])) or ds[-1] <= 0:
            raise ScheduleError("ball radii must be strictly decreasing and positive")
        if ns[-1] > self.n_max:
            raise ScheduleError(
                f"schedule exhausts the index range: N={ns[-1]} > n_max={self.n_max}")

    @classmethod
    def default(cls, n_max: int, window_start: Optional[int] = None
                ) -> "EpiSchedule":
        """Dyadic schedule; the last threshold is capped at the trailing
        analysis window so tail infima and windowed liminf ranges align."""
        cap = min(window_start or n_max, n_max)
        steps = []
        for j in range(1, 13):
            n = min(2 ** j, cap)
            if steps and n <= steps[-1][0]:
                break
            steps.append((n, 2.0 ** -j))
            if n == cap:
                break
        return cls(tuple(steps), n_max)


def _balls(domain: Interval, pts: np.ndarray, deltas: np.ndarray):
    """Open balls of radius delta_j around every point, clipped to the
    domain: a clipped end becomes the closed domain end.  Returns (lo, hi,
    lo_closed, empty), each of shape (points, steps)."""
    lo = pts[:, None] - deltas[None, :]
    hi = pts[:, None] + deltas[None, :]
    lo_closed = lo < domain.lo
    hi_closed = hi > domain.hi
    lo = np.where(lo_closed, domain.lo, lo)
    hi = np.where(hi_closed, domain.hi, hi)
    empty = (lo > hi) | ((lo == hi) & ~(lo_closed & hi_closed))
    return lo, hi, lo_closed, empty


def _require_nonempty(empty: np.ndarray) -> None:
    if empty.any():
        raise MalformedObjectError(
            "an epi-limit ball around a sample point misses the domain")


def _reduce_ranges(ufunc: np.ufunc, vals: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(vals[s:e])`` for every pair with s < e, by one
    ``reduceat``.  The ranges go in descending order of their ends, so the
    segment between two ranges is a single element, and one sentinel past
    the last value lets an end equal ``vals.size``."""
    order = np.argsort(-ends)
    idx = np.stack([starts, ends], axis=1)[order].ravel()
    out = np.empty(order.size)
    out[order] = ufunc.reduceat(np.append(vals, 0.0), idx)[0::2]
    return out


def _ball_extrema(edges, vals, lo, hi, lo_closed) -> np.ndarray:
    """inf of the min envelope (row 0) and sup of the max envelope (row 1)
    over every clipped ball, from the ``_envelopes`` of a family: their
    cells span the domain, so a ball with an open interior reads the cells
    that meet it, a closed end the first or the last one, and a one-point
    ball, on a one-point domain, reads its one cell."""
    inner = hi > lo
    out = np.full((2, *lo.shape), math.inf)
    out[1] = -math.inf
    out[:, lo_closed & ~inner] = vals[:, :1]
    if inner.any():
        # cells [edges[i], edges[i+1]) meeting the open interior (lo, hi),
        # at least one for every inner ball, as the cells span the domain
        i0 = np.searchsorted(edges, lo[inner], side="right") - 1
        i1 = np.searchsorted(edges, hi[inner], side="left")
        for k, ufunc in enumerate((np.minimum, np.maximum)):
            out[k][inner] = _reduce_ranges(ufunc, vals[k], i0, i1)
    return out


def _envelopes(fns: Sequence[PiecewiseFn]) -> tuple:
    """Pointwise min and max of a family of step functions on one domain,
    on the union of the domain ends and their breakpoints: ``(edges,
    vals)``, row 0 of ``vals`` the min and row 1 the max on the cells
    [edges[i], edges[i+1]).  A one-point domain is one cell at its
    point."""
    domain = fns[0].domain
    if any(f.domain != domain for f in fns):
        raise DomainMismatchError("an epi-limit scan requires a shared domain")
    edges = union_edges([np.asarray([domain.lo, domain.hi]),
                         *(f.breakpoints for f in fns)])
    starts = edges[:-1] if edges.size > 1 else edges
    vals = np.full((2, starts.size), math.inf)
    vals[1] = -math.inf
    for f in fns:
        # f's breakpoints at or left of each cell start pick its value; an
        # end other than the default is at domain.hi, where no cell starts
        v = f.table[np.searchsorted(f.breakpoints, starts, side="right")]
        np.minimum(vals[0], v, out=vals[0])
        np.maximum(vals[1], v, out=vals[1])
    return edges, vals


def epi_scan(seq: FnSequence, pts, sched: EpiSchedule, stab_tol: float):
    """Windowed estimates of the family at every point, certificates aside:
    ``(points, cols, stab, empty)`` over the sorted distinct points.
    ``cols[0][p, j]`` (``cols[1]``) is the inf (sup) over the open
    delta_j-ball around p of the min (max) envelope of f_n, n >= N_j, at
    the last two steps (or the one step), +inf (-inf) past the family;
    ``stab`` marks two steps that agree within stab_tol, ``empty`` a
    point with a scanned ball off the domain."""
    pts = np.unique(np.asarray(pts, dtype=np.float64))
    steps = sched.steps[-2:]
    cols = np.full((2, pts.size, len(steps)), math.inf)
    cols[1] = -math.inf
    empty = np.zeros(pts.size, dtype=bool)
    for j, (n, delta) in enumerate(steps):
        if n > seq.n_max:
            continue
        envs = _envelopes(seq.fns[n - 1:])
        *balls, miss = _balls(seq.fns[n - 1].domain, pts, np.asarray([delta]))
        empty |= miss[:, 0]
        cols[:, :, j] = _ball_extrema(*envs, *balls)[..., 0]
    stab = close_arrays(cols[..., 0], cols[..., -1], stab_tol)
    return pts, cols, stab & (len(steps) == 2), empty


def _estimates(seq: FnSequence, pts, sched: EpiSchedule, lower: bool, scan
               ) -> tuple[np.ndarray, np.ndarray, str]:
    """Values, stabilized flags and the certainty tag of the estimates at
    every point: a certificate decides every point exactly; without one,
    ``scan()`` does, an ``epi_scan`` at points that include these."""
    cert = seq.epi_liminf_cert if lower else seq.epi_limsup_cert
    if cert is not None:
        # a scan would reject a ball outside the domain; so does this
        deltas = np.asarray([d for n, d in sched.steps if n <= seq.n_max])
        *_, empty = _balls(cert.fn.domain, np.asarray(pts), deltas)
        _require_nonempty(empty)
        return cert.values_at(pts, lower), np.ones(len(pts), dtype=bool), EXACT
    points, cols, stab, empty = scan()
    at = np.searchsorted(points, np.asarray(pts, dtype=np.float64))
    _require_nonempty(empty[at])
    k = 0 if lower else 1
    return cols[k, at, -1], stab[k, at], WINDOW


@dataclass(frozen=True)
class ExistsReport:
    points: tuple[float, ...]
    point_ok: tuple[bool, ...]
    exception_mass: float
    mass_exact: bool


def epi_limit_exists(seq: FnSequence, grid, sched: EpiSchedule, tol: float,
                     m: FiniteMeasure, stab_tol: float = 1e-9, scan=None
                     ) -> ExistsReport:
    """Pointwise existence of the epigraphical limit plus the measure of
    the estimated exception set.

    A sample point passes when liminf and limsup agree within tol and both
    are stabilized (an exact estimate always is).  With certificates on
    both sides the exception mass is exact: it is the measure of the
    step-function disagreement set.  Otherwise the mass is a sample-based
    estimate: isolated failures contribute only the atom mass at the
    point, runs of failures contribute their midpoint cells, in one
    exactly rounded sum.  ``scan`` returns an ``epi_scan`` at points that
    include the grid.
    """
    pts = sorted(float(x) for x in grid)
    scan = scan or (lambda: epi_scan(seq, pts, sched, stab_tol))
    lo, lo_stab, _ = _estimates(seq, pts, sched, True, scan)
    hi, hi_stab, _ = _estimates(seq, pts, sched, False, scan)
    oks = (close_arrays(lo, hi, tol) & lo_stab & hi_stab).tolist()
    lo_cert, hi_cert = seq.epi_liminf_cert, seq.epi_limsup_cert
    if lo_cert is not None and hi_cert is not None:
        mass = _cert_disagreement_mass(lo_cert, hi_cert, m, tol)
        return ExistsReport(tuple(pts), tuple(oks), mass, True)
    los, his, hi_closed = [], [], []
    for i, s in enumerate(pts):
        if oks[i]:
            continue
        left_bad = i > 0 and not oks[i - 1]
        right_bad = i + 1 < len(pts) and not oks[i + 1]
        los.append((pts[i - 1] + s) / 2 if left_bad else s)
        his.append((s + pts[i + 1]) / 2 if right_bad else s)
        # a midpoint shared with a failing right neighbour is that
        # neighbour's: an atom there counts once
        hi_closed.append(not right_bad)
    mass = m.mass_of_intervals(los, his, hi_closed)
    return ExistsReport(tuple(pts), tuple(oks), mass, False)


def _cert_disagreement_mass(lo_cert: EpiCertificate, hi_cert: EpiCertificate,
                            m: FiniteMeasure, tol: float) -> float:
    p = next(family_pairing([((lo_cert.fn, hi_cert.fn), (m,))]))
    cells = slice(0, int(p.n_cells[0]))
    lv, hv = p.values[0][cells], p.values[1][cells]
    masses = p.masses[0][cells]
    la = lo_cert.values_at(m.atom_locs, True)
    ha = hi_cert.values_at(m.atom_locs, False)
    bad, bad_atoms = ~close_arrays(lv, hv, tol), ~close_arrays(la, ha, tol)
    # one exactly rounded sum over the cells and the atoms
    return comp_sum(np.concatenate([masses[bad], m.atom_weights[bad_atoms]]))


def _integrate_certificate(cert: EpiCertificate, m: FiniteMeasure,
                           lower: bool) -> float:
    """Exact integral of a certificate: cells pointwise, atoms by
    envelope/override in the certificate's semicontinuity direction."""
    p = next(family_pairing([((cert.fn,), (m,))]))
    cells = slice(0, int(p.n_cells[0]))
    vals, masses = p.values[0][cells], p.masses[0][cells]
    if m.atom_locs.size:
        vals = np.concatenate([vals, cert.values_at(m.atom_locs, lower)])
        masses = np.concatenate([masses, m.atom_weights])
    return integral_of_parts(*pos_neg_dot(vals, masses),
                             "certificate integral undefined")


def epi_window(seq: FnSequence, m: FiniteMeasure, sched: EpiSchedule, grid,
               stab_tol: float, *extra) -> tuple:
    """What a windowed epi integral reads: the points whose estimates stand
    in for the cells and atoms of m, their masses, and one ``epi_scan`` at
    those points and the ``extra`` ones."""
    # refine by the trailing-tail functions so each is cell-constant; the
    # midpoint estimate then bounds every tail function's cell value from
    # the certified side, which keeps windowed Fatou gaps one-sided
    tail_bps = [f.breakpoints for f in seq.fns[sched.steps[-1][0] - 1:]]
    edges = np.unique(np.concatenate([
        np.asarray(sorted(float(x) for x in grid)),
        m.piece_edges(),
        np.asarray([m.domain.lo, m.domain.hi]),
        *tail_bps,
    ]))
    edges = edges[(edges >= m.domain.lo) & (edges <= m.domain.hi)]
    masses = m.continuous_cell_masses(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    unbounded = ~np.isfinite(mids)
    if np.any(unbounded):
        finite_edge = np.where(np.isfinite(edges[:-1]), edges[:-1], edges[1:] - 1.0)
        mids = np.where(unbounded, finite_edge + 1.0, mids)
    pts = np.concatenate([mids, m.atom_locs])
    return (pts, np.concatenate([masses, m.atom_weights]),
            epi_scan(seq, np.concatenate([pts, *extra]), sched, stab_tol))


def epi_integral(seq: FnSequence, m: FiniteMeasure, which: str,
                 sched: EpiSchedule, grid, stab_tol: float = 1e-9,
                 window=None) -> tuple[float, str]:
    """Integral of the epi-liminf/limsup against m, with a certainty tag.

    With an analytic certificate the value is exact.  Without one the
    domain is cut at the sample grid, the windowed estimate at each cell
    midpoint stands in for the cell, and the certainty is ``window``.
    ``window`` returns the ``epi_window``.
    """
    if which not in ("liminf", "limsup"):
        raise ValueError(f"which must be 'liminf' or 'limsup', got {which!r}")
    lower = which == "liminf"
    cert = seq.epi_liminf_cert if lower else seq.epi_limsup_cert
    if cert is not None:
        return _integrate_certificate(cert, m, lower), EXACT
    window = window or (lambda: epi_window(seq, m, sched, grid, stab_tol))
    pts, masses, scan = window()
    vals = _estimates(seq, pts, sched, lower, lambda: scan)[0]
    return (integral_of_parts(*pos_neg_dot(vals, masses),
                              "epi integral undefined"), WINDOW)
