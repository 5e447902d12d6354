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
Without one, the points of one family and direction go through one
batched scan that reads each f_n once for all points.
``tests/helpers.py`` keeps the scalar one-ball-at-a-time scan
(``range_on``) that it must match bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functions import EpiCertificate, FnSequence, PiecewiseFn
from .kernels import comp_sum, pos_neg_dot
from .measures import FiniteMeasure
from .refinement import family_pairing
from .xreal import (
    Interval,
    MalformedObjectError,
    ScheduleError,
    close,
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


@dataclass(frozen=True)
class EpiEstimate:
    value: float
    certainty: str          # EXACT | WINDOW
    stabilized: bool
    #: windowed inf/sup per schedule step; () where a certificate decides
    per_j: tuple[float, ...]


def _balls(domain: Interval, pts: np.ndarray, deltas: np.ndarray):
    """Open balls of radius delta_j around every point, clipped to the
    domain: a clipped end becomes the closed domain end.  Returns (lo, hi,
    lo_closed, hi_closed, empty), each of shape (points, steps)."""
    lo = pts[:, None] - deltas[None, :]
    hi = pts[:, None] + deltas[None, :]
    lo_closed = lo < domain.lo
    hi_closed = hi > domain.hi
    lo = np.where(lo_closed, domain.lo, lo)
    hi = np.where(hi_closed, domain.hi, hi)
    empty = (lo > hi) | ((lo == hi) & ~(lo_closed & hi_closed))
    return lo, hi, lo_closed, hi_closed, empty


def _require_nonempty(empty: np.ndarray) -> None:
    if empty.any():
        raise MalformedObjectError(
            "an epi-limit ball around a sample point misses the domain")


def _reduce_ranges(ufunc: np.ufunc, vals: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(vals[s:e])`` for every pair, each distinct range read
    once as that very slice (so ties between 0.0 and -0.0 resolve as a
    scalar reduction of the slice resolves them)."""
    width = vals.size + 1
    keys, inverse = np.unique(starts * width + ends, return_inverse=True)
    lo, hi = np.divmod(keys, width)
    out = np.empty(keys.size)
    # reduceat's last segment runs to the end of the array, so a range
    # that reaches the last cell is reduced on its own
    tail = hi == vals.size
    for i in np.flatnonzero(tail):
        out[i] = ufunc.reduce(vals[lo[i]:])
    inner = np.flatnonzero(~tail)
    if inner.size:
        # ends descending: each next start lies below the previous end, so
        # the segments between two ranges are single elements
        inner = inner[np.argsort(-hi[inner], kind="stable")]
        idx = np.empty(2 * inner.size, dtype=np.intp)
        idx[0::2] = lo[inner]
        idx[1::2] = hi[inner]
        out[inner] = ufunc.reduceat(vals[:hi[inner[0]] + 1], idx)[0::2]
    return out[inverse]


def _ball_extrema(f: PiecewiseFn, lo, hi, lo_closed, hi_closed, lower: bool
                  ) -> np.ndarray:
    """inf (lower) or sup of f over every clipped ball: the value at each
    closed end, the cells meeting the open interior and the default
    outside the breakpoints are offered in that order, and the first
    extreme one is kept."""
    better = np.less if lower else np.greater
    out = np.full(lo.shape, math.inf if lower else -math.inf)

    def offer(where: np.ndarray, cand) -> None:
        np.copyto(out, cand, where=where & better(cand, out))

    inner = hi > lo
    if lo_closed.any():
        offer(lo_closed, f(f.domain.lo))
    if (hi_closed & inner).any():
        offer(hi_closed & inner, f(f.domain.hi))
    bp, vals = f.breakpoints, f.values
    if bp.size == 0:
        offer(inner, f.default)
        return out
    # cells [bp[i], bp[i+1]) meeting the open interior (lo, hi)
    i0 = np.maximum(np.searchsorted(bp, lo, side="right") - 1, 0)
    i1 = np.minimum(np.searchsorted(bp, hi, side="left"), vals.size)
    hit = inner & (i1 > i0)
    if hit.any():
        cand = np.empty(lo.shape)
        cand[hit] = _reduce_ranges(np.minimum if lower else np.maximum,
                                   vals, i0[hit], i1[hit])
        offer(hit, cand)
    offer(inner & ((lo < bp[0]) | (hi > bp[-1])), f.default)
    return out


def _scan(seq: FnSequence, pts: np.ndarray, sched: EpiSchedule, lower: bool
          ) -> np.ndarray:
    """Windowed epi-liminf (lower) or limsup of every point at every
    schedule step, shape (points, steps): entry (p, j) is the inf/sup of
    f_n over the open delta_j-ball around point p and every n >= N_j.

    Each f_n is searched once for all points; steps whose threshold n has
    reached take it into their running extreme.
    """
    thresholds = [n for n, _ in sched.steps]
    deltas = np.asarray([d for _, d in sched.steps])
    acc = np.full((pts.size, deltas.size), math.inf if lower else -math.inf)
    better = np.less if lower else np.greater
    balls: dict = {}
    for n, f in enumerate(seq.fns[thresholds[0] - 1:], start=thresholds[0]):
        key = (f.domain.lo, f.domain.hi)
        if key not in balls:
            balls[key] = _balls(f.domain, pts, deltas)
        lo, hi, lo_closed, hi_closed, empty = balls[key]
        k = bisect_right(thresholds, n)
        _require_nonempty(empty[:, :k])
        ext = _ball_extrema(f, lo[:, :k], hi[:, :k], lo_closed[:, :k],
                            hi_closed[:, :k], lower)
        run = acc[:, :k]
        np.copyto(run, ext, where=better(ext, run))
    return acc


def _estimates(seq: FnSequence, pts: list[float], sched: EpiSchedule,
               lower: bool, stab_tol: float) -> list[EpiEstimate]:
    """Estimates at every point: a certificate decides every point
    exactly; without one, one batched scan covers them all."""
    if not pts:
        return []
    cert = seq.epi_liminf_cert if lower else seq.epi_limsup_cert
    if cert is not None:
        # a scan would reject a ball outside the domain; so does this
        deltas = np.asarray([d for n, d in sched.steps if n <= seq.n_max])
        *_, empty = _balls(cert.fn.domain, np.asarray(pts), deltas)
        _require_nonempty(empty)
        direction = "lower" if lower else "upper"
        return [EpiEstimate(cert.value_at(s, direction), EXACT, True, ())
                for s in pts]
    out = []
    for row in _scan(seq, np.asarray(pts), sched, lower).tolist():
        per_j = tuple(row)
        stab = len(per_j) >= 2 and close(per_j[-2], per_j[-1], stab_tol)
        out.append(EpiEstimate(per_j[-1], WINDOW, stab, per_j))
    return out


def epi_liminf(seq: FnSequence, s: float, sched: EpiSchedule,
               stab_tol: float = 1e-9) -> EpiEstimate:
    """liminf over n -> inf, s' -> s of f_n(s'); -inf propagates."""
    return _estimates(seq, [s], sched, True, stab_tol)[0]


def epi_limsup(seq: FnSequence, s: float, sched: EpiSchedule,
               stab_tol: float = 1e-9) -> EpiEstimate:
    return _estimates(seq, [s], sched, False, stab_tol)[0]


@dataclass(frozen=True)
class ExistsReport:
    points: tuple[float, ...]
    point_ok: tuple[bool, ...]
    exception_mass: float
    mass_exact: bool


def epi_limit_exists(seq: FnSequence, grid, sched: EpiSchedule, tol: float,
                     m: FiniteMeasure, stab_tol: float = 1e-9) -> ExistsReport:
    """Pointwise existence of the epigraphical limit plus the measure of
    the estimated exception set.

    A sample point passes when liminf and limsup agree within tol and both
    carry equal-strength certainty (both exact or both stabilized).  With
    certificates on both sides the exception mass is exact: it is the
    measure of the step-function disagreement set.  Otherwise the mass is
    a sample-based estimate: isolated failures contribute only the atom
    mass at the point, runs of failures contribute their midpoint cells.
    """
    pts = sorted(float(x) for x in grid)
    oks = []
    for lo, hi in zip(_estimates(seq, pts, sched, True, stab_tol),
                      _estimates(seq, pts, sched, False, stab_tol)):
        comparable = ((lo.certainty == EXACT and hi.certainty == EXACT)
                      or (lo.stabilized and hi.stabilized))
        oks.append(comparable and close(lo.value, hi.value, tol))
    lo_cert, hi_cert = seq.epi_liminf_cert, seq.epi_limsup_cert
    if lo_cert is not None and hi_cert is not None:
        mass = _cert_disagreement_mass(lo_cert, hi_cert, m, tol)
        return ExistsReport(tuple(pts), tuple(oks), mass, True)
    terms = []
    for i, s in enumerate(pts):
        if oks[i]:
            continue
        left_bad = i > 0 and not oks[i - 1]
        right_bad = i + 1 < len(pts) and not oks[i + 1]
        lo_edge = (pts[i - 1] + s) / 2 if left_bad else s
        hi_edge = (s + pts[i + 1]) / 2 if right_bad else s
        if lo_edge == hi_edge:
            terms.append(m.mass_of_interval(s, s, True, True))
        else:
            terms.append(m.mass_of_interval(lo_edge, hi_edge, True, True))
    mass = comp_sum(np.asarray(terms)) if terms else 0.0
    return ExistsReport(tuple(pts), tuple(oks), mass, False)


def _cert_disagreement_mass(lo_cert: EpiCertificate, hi_cert: EpiCertificate,
                            m: FiniteMeasure, tol: float) -> float:
    p = next(family_pairing([((lo_cert.fn, hi_cert.fn), (m,))]))
    cells = slice(0, int(p.n_cells[0]))
    lv, hv = p.values[0][cells], p.values[1][cells]
    masses = p.masses[0][cells]
    with np.errstate(invalid="ignore"):
        both_inf = np.isinf(lv) & np.isinf(hv) & (np.sign(lv) == np.sign(hv))
        diff = np.where(both_inf, 0.0, np.abs(hv - lv))
        bad = ~(diff <= tol)
    terms = [comp_sum(masses[bad])] if np.any(bad) else []
    for loc, w in zip(m.atom_locs, m.atom_weights):
        if not close(lo_cert.value_at(float(loc), "lower"),
                     hi_cert.value_at(float(loc), "upper"), tol):
            terms.append(w)
    return comp_sum(np.asarray(terms)) if terms else 0.0


def _integrate_certificate(cert: EpiCertificate, m: FiniteMeasure,
                           direction: str) -> float:
    """Exact integral of a certificate: cells pointwise, atoms by
    envelope/override in the certificate's semicontinuity direction."""
    p = next(family_pairing([((cert.fn,), (m,))]))
    cells = slice(0, int(p.n_cells[0]))
    vals, masses = p.values[0][cells], p.masses[0][cells]
    if m.atom_locs.size:
        avals = np.asarray([cert.value_at(float(loc), direction)
                            for loc in m.atom_locs])
        vals = np.concatenate([vals, avals])
        masses = np.concatenate([masses, m.atom_weights])
    return integral_of_parts(*pos_neg_dot(vals, masses),
                             "certificate integral undefined")


def epi_integral(seq: FnSequence, m: FiniteMeasure, which: str,
                 sched: EpiSchedule, grid, stab_tol: float = 1e-9
                 ) -> tuple[float, str]:
    """Integral of the epi-liminf/limsup against m, with a certainty tag.

    With an analytic certificate the value is exact.  Without one the
    domain is cut at the sample grid, the windowed estimate at each cell
    midpoint stands in for the cell, and the certainty is ``window``.
    """
    if which not in ("liminf", "limsup"):
        raise ValueError(f"which must be 'liminf' or 'limsup', got {which!r}")
    lower = which == "liminf"
    cert = seq.epi_liminf_cert if lower else seq.epi_limsup_cert
    if cert is not None:
        return (_integrate_certificate(cert, m, "lower" if lower else "upper"),
                EXACT)
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
    pts = mids.tolist() + m.atom_locs.tolist()
    vals = np.asarray([e.value for e in _estimates(seq, pts, sched, lower,
                                                   stab_tol)])
    if m.atom_locs.size:
        masses = np.concatenate([masses, m.atom_weights])
    return (integral_of_parts(*pos_neg_dot(vals, masses),
                              "epi integral undefined"), WINDOW)
