"""Shared test utilities: independent oracles and random object builders.

Most oracles deliberately avoid the library's refinement/kernel path: they
evaluate functions pointwise through binary search, accumulate with
math.fsum, and derive analytic masses straight from the CDF, so agreement
with the main path is meaningful.  The per-index oracles at the end are
the loops that the ragged family passes replaced: one ``common_refinement``
per index, reduced by the cell-loop kernels.  The epi and tail oracles
keep the one-quantity paths that the shared scans and passes replaced;
``epi_estimate`` reads one point through the shared scan, and
``loop_masses_of_intervals`` keeps the per-interval segment loop that
one call per segment replaced.
The emission and validation oracles near the end are the generic
canonical emitter and the construction checks that the type-dispatched
emitter and the lean checks replaced.  The whole-array oracles at the
very end are the comb path's passes before they were blocked or
written once: the TwoSum tree and the exp2 chain over whole arrays, the
per-edge binary search of one-index value lookups and the concatenating
comb builder.  After them come the comb path's passes before they
gathered by index and kept their arrays: the kernels that compress by
boolean masks, the exp2 chain with one expm1 per cell and the comb
builder that writes the edge 2.0 for ``PiecewiseFn`` to merge away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from measure_limits import EpiCertificate, FiniteMeasure, FnSequence, Interval
from measure_limits import PiecewiseFn, Ramp, Scenario, lebesgue
from measure_limits import epilimits, tail_curve
from measure_limits.integration import integral_series
from measure_limits import zero_fn
from measure_limits.kernels import (
    _TREE_MIN, _pair, _run_sum, _sums, ragged_sums, tail_dots, union_edges,
)
from measure_limits.measures import _EXP2_BLOCK, _LN2, _exp2_mass
from measure_limits.uniform import _gap_rows, _gap_series
from measure_limits.xreal import (
    DomainMismatchError,
    MalformedObjectError,
    NotIntegrableError,
    UnsupportedScenarioError,
    close,
    integral_of_parts,
)
from measure_limits.gallery import LN2, _comb_depths, _comb_domain


def brute_edges(f: PiecewiseFn, m: FiniteMeasure) -> list[float]:
    pts = set(float(x) for x in f.breakpoints)
    pts.update(float(x) for x in m.cell_los)
    pts.update(float(x) for x in m.cell_his)
    for s in m.segments:
        pts.add(s.lo)
        if math.isfinite(s.hi):
            pts.add(s.hi)
    for b in (m.domain.lo, m.domain.hi):
        if math.isfinite(b):
            pts.add(b)
    return sorted(pts)


def brute_cell_mass(m: FiniteMeasure, lo: float, hi: float) -> float:
    """Mass of [lo, hi) from the continuous layers, one piece at a time."""
    total = []
    for clo, chi, rho in zip(m.cell_los, m.cell_his, m.cell_densities):
        a, b = max(clo, lo), min(chi, hi)
        if b > a:
            total.append(rho * (b - a))
    for seg in m.segments:
        a, b = max(seg.lo, lo), min(seg.hi, hi)
        if b > a:
            total.append(float(np.asarray(seg.cdf(b)) - np.asarray(seg.cdf(a))))
    return math.fsum(total)


def scan_integrate(f: PiecewiseFn, m: FiniteMeasure) -> float:
    """Pointwise-evaluation integration oracle (finite-valued inputs)."""
    edges = brute_edges(f, m)
    terms = []
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2.0
        terms.append(f(mid) * brute_cell_mass(m, lo, hi))
    if edges and math.isinf(m.domain.hi):
        # segments may extend beyond the last finite edge
        last = edges[-1]
        terms.append(f(last + 1.0) * brute_cell_mass(m, last, math.inf))
    for loc, w in zip(m.atom_locs, m.atom_weights):
        terms.append(f(float(loc)) * float(w))
    return math.fsum(terms)


def scan_tail(f: PiecewiseFn, m: FiniteMeasure, k: float) -> float:
    """Tail-functional oracle via pointwise |f| indicator scan."""
    edges = brute_edges(f, m)
    terms = []
    for lo, hi in zip(edges, edges[1:]):
        v = abs(f((lo + hi) / 2.0))
        if v >= k:
            terms.append(v * brute_cell_mass(m, lo, hi))
    if edges and math.isinf(m.domain.hi):
        last = edges[-1]
        v = abs(f(last + 1.0))
        if v >= k:
            terms.append(v * brute_cell_mass(m, last, math.inf))
    for loc, w in zip(m.atom_locs, m.atom_weights):
        v = abs(f(float(loc)))
        if v >= k:
            terms.append(v * float(w))
    return math.fsum(terms)


def riemann_mass(density, lo: float, hi: float, n: int = 1_000_000) -> float:
    """Midpoint Riemann sum; the quadrature cross-check for CDF masses."""
    xs = np.linspace(lo, hi, n + 1)
    mids = (xs[:-1] + xs[1:]) / 2.0
    return float(np.sum(density(mids)) * (hi - lo) / n)


def rand_step_fn(rng: np.random.Generator, domain: Interval, max_cells: int = 6,
                 lo: float = -8.0, hi: float = 8.0,
                 ensure_nonneg_cell: bool = False) -> PiecewiseFn:
    n_cells = int(rng.integers(1, max_cells + 1))
    width = domain.hi - domain.lo
    bps = np.sort(rng.uniform(domain.lo, domain.hi, size=n_cells + 1))
    while np.any(np.diff(bps) <= 1e-12 * width):
        bps = np.sort(rng.uniform(domain.lo, domain.hi, size=n_cells + 1))
    vals = rng.uniform(lo, hi, size=n_cells)
    if ensure_nonneg_cell and np.all(vals < 0):
        vals[int(rng.integers(0, n_cells))] = abs(vals[0])
    return PiecewiseFn(bps, vals, 0.0, domain)


def rand_atomic_measure(rng: np.random.Generator, domain: Interval,
                        max_atoms: int = 5) -> FiniteMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    locs = rng.uniform(domain.lo, domain.hi, size=k)
    while np.unique(locs).size != k:
        locs = rng.uniform(domain.lo, domain.hi, size=k)
    weights = rng.uniform(0.0, 2.0, size=k)
    return FiniteMeasure(atoms=list(zip(locs, weights)), domain=domain)


def rand_measure(rng: np.random.Generator, domain: Interval) -> FiniteMeasure:
    """Atoms plus a cell partition of the domain with random densities."""
    cuts = np.sort(rng.uniform(domain.lo, domain.hi,
                               size=int(rng.integers(1, 4))))
    edges = np.concatenate([[domain.lo], cuts, [domain.hi]])
    cells = [(float(a), float(b), float(rng.uniform(0.0, 2.0)))
             for a, b in zip(edges, edges[1:]) if b - a > 1e-9]
    atoms = []
    if rng.random() < 0.5:
        atoms = [(float(rng.uniform(domain.lo, domain.hi)),
                  float(rng.uniform(0.0, 1.0)))]
    return FiniteMeasure(atoms=atoms, cells=cells, domain=domain)


def fatou_random_scenario(rng: np.random.Generator, n_max: int = 16,
                          name: str = "random") -> Scenario:
    """Random scenario for the Fatou property suite.

    mu_n adds one atom of weight <= 1/n at a point where f_n is
    nonnegative, so total-variation distances vanish and the per-index
    integral can only move up from the base value; the windowed gap is
    then one-sided up to rounding.
    """
    domain = Interval(0.0, 1.0)
    base = rand_measure(rng, domain)
    fns = [rand_step_fn(rng, domain, ensure_nonneg_cell=True)
           for _ in range(n_max)]
    perturbed = []
    for n, f in enumerate(fns, start=1):
        nonneg = np.nonzero(f.values >= 0.0)[0]
        i = int(nonneg[int(rng.integers(0, nonneg.size))])
        loc = float((f.breakpoints[i] + f.breakpoints[i + 1]) / 2.0)
        w = float(rng.uniform(0.0, 1.0 / n))
        atoms = list(zip(base.atom_locs, base.atom_weights))
        if any(a == loc for a, _ in atoms):
            atoms = [(a, wt + (w if a == loc else 0.0)) for a, wt in atoms]
        else:
            atoms.append((loc, w))
        cells = list(zip(base.cell_los, base.cell_his, base.cell_densities))
        perturbed.append(FiniteMeasure(atoms=atoms, cells=cells, domain=domain))
    return Scenario(
        name=name,
        measures=tuple(perturbed),
        limit_measure=base,
        f_seq=FnSequence(tuple(fns)),
        certificate="tv",
    )


def fatou_random_document(rng: np.random.Generator, n_max: int = 12,
                          name: str = "random-doc") -> dict:
    """Scenario document of the randomized Fatou construction above, with a
    minorant family g_n = f_n - c (c >= 0) and the zero limit function, so
    that every check applies."""
    sc = fatou_random_scenario(rng, n_max, name)
    shift = float(rng.uniform(0.0, 1.0))

    def fn_spec(f: PiecewiseFn, c: float = 0.0) -> dict:
        return {"breakpoints": f.breakpoints.tolist(),
                "values": (f.values - c).tolist(), "default": f.default - c}

    def measure_spec(m: FiniteMeasure) -> dict:
        return {"atoms": [[float(a), float(w)]
                          for a, w in zip(m.atom_locs, m.atom_weights)],
                "cells": [[float(a), float(b), float(d)] for a, b, d in
                          zip(m.cell_los, m.cell_his, m.cell_densities)]}

    fns = sc.f_seq.fns
    return {
        "name": name,
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": n_max,
        "measures": {"explicit": [measure_spec(m) for m in sc.measures]},
        "limit_measure": measure_spec(sc.limit_measure),
        "functions": {"explicit": [fn_spec(f) for f in fns]},
        "g_functions": {"explicit": [fn_spec(f, shift) for f in fns]},
        "limit_function": {"breakpoints": [], "values": [], "default": 0.0},
        "checks": ["ui", "aui", "shift", "fatou", "minorant",
                   "weakened_minorant", "majorant", "dct", "uniform_fatou",
                   "uniform_dct", "weak_gap"],
        "convergence_certificate": {"kind": "tv"},
    }


def range_on(f: PiecewiseFn, lo: float, hi: float, lo_closed: bool,
             hi_closed: bool) -> tuple[float, float]:
    """(inf, sup) of the function over the given subinterval of the domain.

    The subinterval is clipped to the domain; domain endpoints count as
    closed (balls are one-sided there).  Exact for step functions.
    """
    if lo < f.domain.lo:
        lo, lo_closed = f.domain.lo, True
    if hi > f.domain.hi:
        hi, hi_closed = f.domain.hi, True
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        raise MalformedObjectError("empty interval in range_on")
    cands_lo: list[float] = []
    cands_hi: list[float] = []
    if lo_closed:
        v = f(lo)
        cands_lo.append(v)
        cands_hi.append(v)
    if hi_closed and hi > lo:
        v = f(hi)
        cands_lo.append(v)
        cands_hi.append(v)
    if hi > lo:
        bp = f.breakpoints
        if bp.size == 0:
            cands_lo.append(f.default)
            cands_hi.append(f.default)
        else:
            # cells [bp[i], bp[i+1]) meeting the open interior (lo, hi)
            i0 = max(0, int(np.searchsorted(bp, lo, side="right")) - 1)
            i1 = int(np.searchsorted(bp, hi, side="left"))
            sl = f.values[i0:i1]
            if sl.size:
                cands_lo.append(float(np.min(sl)))
                cands_hi.append(float(np.max(sl)))
            if lo < bp[0] or hi > bp[-1]:
                cands_lo.append(f.default)
                cands_hi.append(f.default)
    return min(cands_lo), max(cands_hi)


def scan_epi_oracle(seq: FnSequence, s: float, sched, lower: bool
                    ) -> list[float]:
    """Windowed epi-liminf (lower) or limsup at s per schedule step, one
    scalar ``range_on`` call per step and index: the reference whose last
    two entries the envelope scan in ``measure_limits.epilimits`` must
    match bit for bit."""
    per_j = []
    for n0, delta in sched.steps:
        best = math.inf if lower else -math.inf
        for f in seq.fns[n0 - 1:]:
            lo, hi = range_on(f, s - delta, s + delta, False, False)
            best = min(best, lo) if lower else max(best, hi)
        per_j.append(best)
    return per_j


def scan_columns(seq: FnSequence, pts, sched, lower: bool) -> np.ndarray:
    """One direction of ``epilimits.epi_scan``'s columns at pts, in their
    order; a ball around one of them that misses the domain raises, as it
    does for the scan's readers."""
    pts = np.asarray(pts, dtype=np.float64)
    points, cols, _, empty = epilimits.epi_scan(seq, pts, sched, 1e-9)
    at = np.searchsorted(points, pts)
    epilimits._require_nonempty(empty[at])
    return cols[0 if lower else 1][at]


def envelope_oracle(fns, lower: bool) -> PiecewiseFn:
    """The one-direction envelope that the two-sided scan replaced:
    min (lower) or max of a family, each function looked up on its own
    union of breakpoints."""
    domain = fns[0].domain
    if any(f.domain != domain for f in fns):
        raise DomainMismatchError("an epi-limit scan requires a shared domain")
    ext = np.minimum if lower else np.maximum
    edges = union_edges([f.breakpoints for f in fns])
    vals = np.full(max(edges.size - 1, 0), math.inf if lower else -math.inf)
    for f in fns:
        lut = np.concatenate([[f.default], f.values, [f.default]])
        ext(vals, lut[np.searchsorted(f.breakpoints, edges[:-1], side="right")],
            out=vals)
    return PiecewiseFn(edges, vals, float(ext.reduce([f.default for f in fns])),
                       domain)


def ball_extrema_oracle(f: PiecewiseFn, lo, hi, lo_closed, hi_closed,
                        lower: bool) -> np.ndarray:
    """The one-direction ball scan that the two-sided one replaced: inf
    (lower) or sup of one step function over every clipped ball."""
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
    i0 = np.maximum(np.searchsorted(bp, lo, side="right") - 1, 0)
    i1 = np.minimum(np.searchsorted(bp, hi, side="left"), vals.size)
    hit = inner & (i1 > i0)
    if hit.any():
        cand = np.empty(lo.shape)
        cand[hit] = epilimits._reduce_ranges(
            np.minimum if lower else np.maximum, vals, i0[hit], i1[hit])
        offer(hit, cand)
    offer(inner & ((lo < bp[0]) | (hi > bp[-1])), f.default)
    return out


def estimates_oracle(seq: FnSequence, pts, sched, lower: bool,
                     stab_tol: float = 1e-9):
    """The one-direction estimates that the two-sided scan replaced:
    (values, stabilized flags, certainty) at pts, each of the last two
    steps scanning one envelope and rejecting an empty ball at once."""
    cert = seq.epi_liminf_cert if lower else seq.epi_limsup_cert
    pts = np.asarray(pts, dtype=np.float64)
    if cert is not None:
        deltas = np.asarray([d for n, d in sched.steps if n <= seq.n_max])
        *_, empty = epilimits._balls(cert.fn.domain, pts, deltas)
        epilimits._require_nonempty(empty)
        return (np.asarray([cert.value_at(s, "lower" if lower else "upper")
                            for s in pts.tolist()]),
                np.ones(pts.size, dtype=bool), "exact")
    steps = sched.steps[-2:]
    cols = np.full((pts.size, len(steps)), math.inf if lower else -math.inf)
    for j, (n, delta) in enumerate(steps):
        if n > seq.n_max:
            continue
        env = envelope_oracle(seq.fns[n - 1:], lower)
        *balls, empty = epilimits._balls(env.domain, pts, np.asarray([delta]))
        epilimits._require_nonempty(empty)
        cols[:, j] = ball_extrema_oracle(env, *balls, lower)[:, 0]
    stab = [len(c) == 2 and close(c[0], c[1], stab_tol) for c in cols.tolist()]
    return cols[:, -1], np.asarray(stab, dtype=bool), "window"


@dataclass(frozen=True)
class Estimate:
    """The epi-liminf or limsup estimate at one point."""

    value: float
    certainty: str          # "exact" | "window"
    stabilized: bool


def epi_estimate(seq: FnSequence, s: float, sched, lower: bool,
                 stab_tol: float = 1e-9) -> Estimate:
    """The epi-liminf (lower) or limsup estimate at s through the calls
    that the checks make: ``epilimits._estimates`` over one
    ``epilimits.epi_scan`` at s, looked up when it runs."""
    values, stab, certainty = epilimits._estimates(
        seq, [s], sched, lower,
        lambda: epilimits.epi_scan(seq, [s], sched, stab_tol))
    return Estimate(float(values[0]), certainty, bool(stab[0]))


def part(f: PiecewiseFn, which: str) -> PiecewiseFn:
    """Positive part max(f, 0) or negative part -min(f, 0), both
    nonnegative, as step functions of their own."""
    if which == "positive":
        return f.map_values(lambda v: np.maximum(v, 0.0), lambda d: max(d, 0.0))
    if which == "negative":
        return f.map_values(lambda v: np.maximum(-v, 0.0), lambda d: max(-d, 0.0))
    raise ValueError(f"which must be 'positive' or 'negative', got {which!r}")


def negated(f: PiecewiseFn) -> PiecewiseFn:
    """-f as a step function of its own: every value and the default
    negated."""
    return f.map_values(lambda v: -v, lambda d: -d)


def neg_parts(sc: Scenario) -> FnSequence:
    """The family of the negative parts ``part(f_n, "negative")``."""
    return FnSequence(tuple(part(f, "negative") for f in sc.f_seq.fns))


def neg_tail_curve_oracle(sc: Scenario):
    """The negative-part tail curve as a family pass of its own, over the
    ``part(f_n, "negative")`` family."""
    return tail_curve(neg_parts(sc), sc.measures, sc.k_grid, sc.window_start)


def l1_series_oracle(sc: Scenario):
    """The L1 norms of the f_n as a family pass of their own, over the
    |f_n| family; read index by index."""
    return integral_series([abs(f) for f in sc.f_seq.fns], sc.measures)


def loop_mass_of_interval(m: FiniteMeasure, lo: float, hi: float,
                          lo_closed: bool, hi_closed: bool) -> float:
    """Reference for ``FiniteMeasure.masses_of_intervals``: one interval,
    its atoms tested one by one."""
    if hi < lo:
        return 0.0
    terms = []
    for aloc, w in zip(m.atom_locs, m.atom_weights):
        if (lo < aloc < hi) or (aloc == lo and lo_closed) or (aloc == hi and hi_closed):
            terms.append(w)
    clip_lo = np.maximum(m.cell_los, lo)
    clip_hi = np.minimum(m.cell_his, hi)
    grab = clip_hi > clip_lo
    terms.extend(m.cell_densities[grab] * (clip_hi[grab] - clip_lo[grab]))
    for seg in m.segments:
        a, b = max(seg.lo, lo), min(seg.hi, hi)
        if b > a:
            terms.append(float(segment_mass(seg, a, b)))
    return math.fsum(terms) + 0.0 if terms else 0.0


def segment_mass(seg, a, b) -> np.ndarray:
    """Reference for an exp2 segment's masses of [a, b) subintervals,
    scalars or arrays: ``clipped_exp2_mass`` over the segment's bounds.
    Every segment that the tests build carries the exp2 ``mass_fn``."""
    assert seg.mass_fn is _exp2_mass, "the reference knows exp2 segments only"
    return clipped_exp2_mass(seg.lo, seg.hi, a, b)


def loop_masses_of_intervals(m: FiniteMeasure, los, his, lo_closed: bool,
                             hi_closed: bool) -> list[float]:
    """Reference for ``FiniteMeasure.masses_of_intervals``: its body with
    the segment masses taken one interval and segment at a time, each
    from the scalar ``segment_mass`` of the ends clipped in Python."""
    lo = np.asarray(los, dtype=np.float64)[:, None]
    hi = np.asarray(his, dtype=np.float64)[:, None]
    locs = m.atom_locs
    atoms = (((lo < locs) & (locs < hi)) | ((locs == lo) & lo_closed)
             | ((locs == hi) & hi_closed))
    clip_lo = np.maximum(m.cell_los, lo)
    clip_hi = np.minimum(m.cell_his, hi)
    seg = np.zeros((lo.size, len(m.segments)))
    seg_keep = np.zeros(seg.shape, dtype=bool)
    for i, (a, b) in enumerate(zip(lo[:, 0].tolist(), hi[:, 0].tolist())):
        for j, s in enumerate(m.segments):
            s_lo, s_hi = max(s.lo, a), min(s.hi, b)
            if s_hi > s_lo:
                seg[i, j] = float(segment_mass(s, s_lo, s_hi))
                seg_keep[i, j] = True
    terms = np.concatenate([np.broadcast_to(m.atom_weights, atoms.shape),
                            m.cell_densities * (clip_hi - clip_lo), seg],
                           axis=1)
    keep = (np.concatenate([atoms, clip_hi > clip_lo, seg_keep], axis=1)
            & (hi >= lo))
    return list(ragged_sums(terms.ravel(),
                            np.arange(lo.size + 1) * terms.shape[1],
                            keep.ravel()))


def unique_edges(pieces) -> np.ndarray:
    """Reference for ``kernels.union_edges``: the concatenated pieces
    sorted and deduplicated again."""
    return np.unique(np.concatenate(pieces))


def clipped_exp2_mass(lo: float, hi: float, a, b) -> np.ndarray:
    """Reference for the exp2 segment's cell masses: both ends clipped to
    [lo, hi], then the closed form as one expression with temporaries."""
    ln2 = math.log(2.0)
    a = np.clip(np.asarray(a, dtype=np.float64), lo, hi)
    b = np.clip(np.asarray(b, dtype=np.float64), lo, hi)
    return np.maximum(np.exp2(-a) * (-np.expm1(-(b - a) * ln2)) / ln2, 0.0)


def loop_comp_sum(xs) -> float:
    """Reference for ``kernels.comp_sum``."""
    return math.fsum(xs) + 0.0


def loop_pos_neg_dot(values, masses) -> tuple[float, float, bool, bool]:
    """Reference for ``kernels.pos_neg_dot``, one cell at a time.

    Returns (pos_sum, neg_sum, pos_inf, neg_inf): the finite sums and a
    flag per part for an infinite value on positive mass.
    """
    pos_terms = []
    neg_terms = []
    pos_inf = neg_inf = False
    for v, m in zip(values, masses):
        if m == 0.0 or v == 0.0:
            continue
        if v > 0.0:
            if math.isinf(v):
                pos_inf = True
            else:
                pos_terms.append(v * m)
        else:
            if math.isinf(v):
                neg_inf = True
            else:
                neg_terms.append(-v * m)
    return math.fsum(pos_terms) + 0.0, math.fsum(neg_terms) + 0.0, pos_inf, neg_inf


def tail_row(values, masses, ks) -> np.ndarray:
    """``kernels.tail_dots`` of one run: the tail row of all the cells."""
    return next(tail_dots(values, masses, (0, len(values)), ks))


def loop_tail_dot(values, masses, k: float) -> tuple[float, bool]:
    """Reference for one entry of ``kernels.tail_dots``, one cell at a
    time: the finite sum of |v| * m over |v| >= k, and an inf flag."""
    terms = []
    has_inf = False
    for v, m in zip(values, masses):
        if m == 0.0:
            continue
        a = abs(v)
        if a >= k:
            if math.isinf(a):
                has_inf = True
            else:
                terms.append(a * m)
    return math.fsum(terms) + 0.0, has_inf


def list_dominates(upper: PiecewiseFn, lower: PiecewiseFn) -> bool:
    """Reference for one index of ``functions.dominates``: upper >= lower
    at one point of every region, each point evaluated by the scalar
    ``f(x)``.  The regions are the cells between the breakpoints and the
    finite domain ends, and the last edge on its own."""
    dom = upper.domain
    if lower.domain != dom:
        raise DomainMismatchError("dominance check requires a shared domain")
    edges = unique_edges([
        upper.breakpoints, lower.breakpoints,
        np.asarray([b for b in (dom.lo, dom.hi) if math.isfinite(b)]),
    ]).tolist()
    if not edges:
        edges = [0.0]
    elif edges[0] > dom.lo:
        edges.insert(0, dom.lo if math.isfinite(dom.lo) else edges[0] - 1.0)
    return all(upper(x) >= lower(x) for x in edges)


def list_comb_g(n: int) -> PiecewiseFn:
    """Reference for the ``dyadic_comb`` fixture's g_n: the dyadic cells
    and the cliff gathered cell by cell in Python lists."""
    dom, mu = _comb_domain()
    seg = mu.segments[0]
    h = 2.0 ** -n
    n_cells = 2 ** (n + 1)
    bp = np.arange(n_cells + 1) * h
    base = np.zeros(n_cells)
    lo = bp[:-1]
    if n < 2:
        base[lo >= n] = -(2.0 ** n)
    a = bp[0:-1:2]
    depths = _comb_depths(seg, a, a + h)
    vals = base.copy()
    vals[0::2] -= depths
    bps = list(bp)
    cells = list(vals)
    if n >= 2:
        if n > 2:
            bps.append(float(n))
            cells.append(0.0)
        bps.append(float(n + 1))
        cells.append(-(2.0 ** n))
    return PiecewiseFn(bps, cells, 0.0, dom)


def constant_seq(f: PiecewiseFn, n_max: int) -> FnSequence:
    return FnSequence((f,) * n_max)


def zero_seq(domain: Interval, n_max: int) -> FnSequence:
    return constant_seq(zero_fn(domain), n_max)


def with_constant_offset(sc: Scenario, c: float) -> Scenario:
    """Scenario with f_n + c for every n; used by shift-invariance checks.

    Epi certificates shift along, so exactness of the left side survives
    the offset.
    """
    def shift_fn(f: PiecewiseFn) -> PiecewiseFn:
        return f.map_values(lambda v: v + c, lambda d: d + c)

    def shift_cert(cert):
        if cert is None:
            return None
        return EpiCertificate(shift_fn(cert.fn),
                              tuple((loc, v + c) for loc, v in cert.overrides))

    base = sc.f_seq
    offset = FnSequence(tuple(shift_fn(f) for f in base.fns),
                        shift_cert(base.epi_liminf_cert),
                        shift_cert(base.epi_limsup_cert))
    return replace(sc, f_seq=offset, name=f"{sc.name}+{c}")


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


def gap_extrema(f_n: PiecewiseFn, m_n: FiniteMeasure, f: PiecewiseFn,
                m: FiniteMeasure) -> tuple[float, float]:
    """(inf, sup) over measurable sets C of int_C f_n dmu_n - int_C f dmu:
    one index of the set-uniform report's Hahn series."""
    return next(_gap_series(_gap_rows([f_n], [m_n], f, m)))


def masses_extrema(masses) -> tuple[float, float]:
    """``gap_extrema`` of a gap with the given cell masses: the masses as
    values on unit Lebesgue cells against the zero limit, so each gap mass
    is its value times 1.0, exactly.  k equal neighbours merge into one
    cell of mass k; k * v is still exact for the 2**-30-scaled integers
    that the bit-for-bit tests draw."""
    m = lebesgue(0.0, float(len(masses)))
    f_n = PiecewiseFn(np.arange(len(masses) + 1.0), masses, 0.0, m.domain)
    return gap_extrema(f_n, m, zero_fn(m.domain), m)


# -- per-index oracles for the ragged family passes -------------------------
#
# Each index is refined on its own by ``common_refinement`` and reduced by
# the cell-loop kernels above, one index after another: the loops that the
# family passes of ``measure_limits`` replaced, kept as bit-for-bit oracles.

@dataclass(frozen=True)
class Partition:
    edges: np.ndarray
    atoms: np.ndarray
    domain: Interval

    @property
    def n_cells(self) -> int:
        return max(self.edges.size - 1, 0)


def common_refinement(objs) -> Partition:
    """Minimal ordered partition on which every input object is constant."""
    if not objs:
        raise ValueError("need at least one object")
    domain = objs[0].domain
    pieces = [np.asarray([domain.lo, domain.hi])]
    atom_sets = []
    for obj in objs:
        if obj.domain != domain:
            raise DomainMismatchError(
                f"domain {obj.domain} differs from {domain}")
        if isinstance(obj, PiecewiseFn):
            pieces.append(obj.breakpoints)
        elif isinstance(obj, FiniteMeasure):
            pieces.append(obj.piece_edges())
            atom_sets.append(obj.atom_locs)
        else:
            raise TypeError(f"cannot refine {type(obj).__name__}")
    edges = union_edges(pieces)
    atoms = np.unique(np.concatenate(atom_sets)) if atom_sets else np.empty(0)
    return Partition(edges, atoms, domain)


def atom_weights_at(m: FiniteMeasure, locs: np.ndarray) -> np.ndarray:
    """Weights of m's atoms at the given sorted locations (0 where absent)."""
    out = np.zeros(locs.size)
    if m.atom_locs.size and locs.size:
        idx = np.searchsorted(locs, m.atom_locs)
        ok = ((idx < locs.size)
              & (locs[np.minimum(idx, locs.size - 1)] == m.atom_locs))
        np.add.at(out, idx[ok], m.atom_weights[ok])
    return out


def loop_pairing(fns, measures):
    """One index's common refinement of the functions and measures, as
    (values per function, masses per measure, number of cells)."""
    p = common_refinement(list(fns) + list(measures))
    # each cell is read at its left edge, then each atom at its location
    points = p.edges[:-1].tolist() + p.atoms.tolist()
    values = [np.asarray([f(x) for x in points], dtype=np.float64) for f in fns]
    masses = [np.concatenate([m.continuous_cell_masses(p.edges),
                              atom_weights_at(m, p.atoms)])
              for m in measures]
    return values, masses, p.n_cells


def loop_refined_values_masses(f: PiecewiseFn, m: FiniteMeasure):
    if f.domain != m.domain:
        raise DomainMismatchError("function and measure domains differ")
    (values,), (masses,), _ = loop_pairing([f], [m])
    return values, masses


def loop_integrate(f: PiecewiseFn, m: FiniteMeasure) -> float:
    pos, neg, pos_inf, neg_inf = loop_pos_neg_dot(*loop_refined_values_masses(f, m))
    return integral_of_parts(math.inf if pos_inf else pos,
                             math.inf if neg_inf else neg,
                             "both positive and negative parts diverge")


def loop_integral_series(seq: FnSequence, measures) -> list:
    return [loop_integrate(f, m) for f, m in zip(seq.fns, measures)]


def loop_tail_table(seq: FnSequence, measures, ks) -> list:
    rows = []
    for f, m in zip(seq.fns, measures):
        values, masses = loop_refined_values_masses(f, m)
        row = []
        for k in ks:
            s, has_inf = loop_tail_dot(values, masses, k)
            row.append(math.inf if has_inf else s)
        rows.append(row)
    return rows


def loop_tv_norm_diff(a: FiniteMeasure, b: FiniteMeasure) -> float:
    if a.domain != b.domain:
        raise DomainMismatchError("total-variation distance requires one domain")
    _, (ma, mb), _ = loop_pairing([], [a, b])
    return math.fsum(np.abs(ma - mb).tolist()) + 0.0


def loop_tv_series(measures, limit: FiniteMeasure) -> list:
    return [loop_tv_norm_diff(m, limit) for m in measures]


def loop_gap_masses(f_n, m_n, f, m) -> list:
    """Signed gap masses of one index, atoms first."""
    a = tuple((s.name, s.lo, s.hi) for s in m_n.segments)
    b = tuple((s.name, s.lo, s.hi) for s in m.segments)
    if a != b:
        raise UnsupportedScenarioError(
            "set-uniform gaps need both measures to carry identical analytic "
            "segments (or none)")
    (vn, v), (wn, w), cells = loop_pairing([f_n, f], [m_n, m])

    def prod(values, masses):
        out = np.zeros_like(masses)
        nz = masses != 0.0
        out[nz] = values[nz] * masses[nz]
        return out

    gaps = (prod(vn, wn) - prod(v, w)).tolist()
    return gaps[cells:] + gaps[:cells]


def loop_gap_series(sc: Scenario) -> tuple[list, list]:
    """(inf gaps, sup gaps) of the set-uniform report, index by index:
    the L1 checks, the segment check and the gap masses in their order."""
    f, m = sc.limit_fn, sc.limit_measure
    inf_gaps, sup_gaps = [], []
    for n, (f_n, m_n) in enumerate(zip(sc.f_seq.fns, sc.measures), start=1):
        if loop_integrate(abs(f_n), m_n) == math.inf:
            raise NotIntegrableError("f_n is not integrable against its measure")
        if n == 1 and loop_integrate(abs(f), m) == math.inf:
            raise NotIntegrableError(
                "limit function is not integrable against its measure")
        gaps = loop_gap_masses(f_n, m_n, f, m)
        neg = math.fsum([g for g in gaps if g < 0.0]) + 0.0
        pos = math.fsum([g for g in gaps if g > 0.0]) + 0.0
        inf_gaps.append(neg)
        sup_gaps.append(max(pos, -neg + 0.0))
    return inf_gaps, sup_gaps


def loop_condition_series(f_seq: FnSequence, f: PiecewiseFn, m: FiniteMeasure,
                          eps: float) -> tuple[list, list]:
    under, inmeas = [], []
    for f_n in f_seq.fns:
        p = common_refinement([f_n, f, m])
        points = p.edges[:-1].tolist()
        vn = np.asarray([f_n(x) for x in points], dtype=np.float64)
        v = np.asarray([f(x) for x in points], dtype=np.float64)
        masses = m.continuous_cell_masses(p.edges)
        with np.errstate(invalid="ignore"):
            under_terms = [math.fsum(masses[vn <= v - eps].tolist()) + 0.0]
            inmeas_terms = [math.fsum(masses[np.abs(vn - v) >= eps].tolist())
                            + 0.0]
        for loc, w in zip(m.atom_locs, m.atom_weights):
            a, b = f_n(float(loc)), f(float(loc))
            if a <= b - eps:
                under_terms.append(float(w))
            if abs(a - b) >= eps:
                inmeas_terms.append(float(w))
        under.append(math.fsum(under_terms) + 0.0)
        inmeas.append(math.fsum(inmeas_terms) + 0.0)
    return under, inmeas


def loop_integrate_ramp(r: Ramp, m: FiniteMeasure) -> float:
    """Reference for one ramp against one measure in
    ``integration._ramp_integrals``, one cell at a time."""
    terms = [w * r(loc) for loc, w in zip(m.atom_locs, m.atom_weights)]
    nodes = np.asarray(r.xs)
    for lo, hi, rho in zip(m.cell_los, m.cell_his, m.cell_densities):
        if rho == 0.0:
            continue
        inner = nodes[(nodes > lo) & (nodes < hi)]
        edges = np.concatenate([[lo], inner, [hi]])
        for a, b in zip(edges, edges[1:]):
            ya, yb = r(a), r(b)
            terms.append(rho * (b - a) * (ya + yb) / 2.0)
    for seg in m.segments:
        y0 = r(seg.lo)
        varying = [x for x in r.xs if seg.lo < x < seg.hi and r(x) != y0]
        hi_probe = (seg.hi if math.isfinite(seg.hi)
                    else max(r.xs[-1] + 1.0, seg.lo + 1.0))
        if varying or r(hi_probe) != y0:
            raise UnsupportedScenarioError(
                "ramp varies over an analytic segment; use a step-function bank")
        terms.append(y0 * seg.total)
    return math.fsum([float(t) for t in terms]) + 0.0


def loop_bank_eval(h, m: FiniteMeasure) -> float:
    if isinstance(h, Ramp):
        return loop_integrate_ramp(h, m)
    if not h.is_bounded():
        raise UnsupportedScenarioError("bank functions must be bounded")
    return loop_integrate(h, m)


def loop_weak_gaps(measures, limit: FiniteMeasure, bank) -> list:
    """Reference for ``integration.weak_gap_bank``'s gaps."""
    base = [loop_bank_eval(h, limit) for h in bank]
    gaps = []
    for mn in measures:
        gaps.append(max((abs(loop_bank_eval(h, mn) - b)
                         for h, b in zip(bank, base)), default=0.0))
    return gaps


def canonical_json_oracle(value) -> str:
    """Reference for ``scenario.canonical_json``: one ``isinstance`` chain
    and one ``json.dumps`` per string."""
    out: list[str] = []

    def canon(value) -> None:
        if type(value).__module__ == "numpy":
            value = value.item() if hasattr(value, "item") else value
        if value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, str):
            out.append(json.dumps(value, ensure_ascii=False))
        elif isinstance(value, int):
            out.append(str(value))
        elif isinstance(value, float):
            if math.isnan(value):
                raise ValueError("cannot serialize NaN in canonical JSON")
            if math.isinf(value):
                out.append('"inf"' if value > 0 else '"-inf"')
            else:
                out.append(format(value, ".17g"))
        elif isinstance(value, dict):
            out.append("{")
            for i, k in enumerate(sorted(value)):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k), ensure_ascii=False))
                out.append(":")
                canon(value[k])
            out.append("}")
        elif isinstance(value, (list, tuple)):
            out.append("[")
            for i, v in enumerate(value):
                if i:
                    out.append(",")
                canon(v)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    canon(value)
    return "".join(out)


def piecewise_oracle(breakpoints, values, default, domain: Interval
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Reference for ``PiecewiseFn``'s construction: its checks in their
    order, with ``np.diff`` for the order of the breakpoints, and the
    stored breakpoints, values and default."""
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
        raise MalformedObjectError(
            "breakpoints must be finite and strictly increasing")
    if np.any(np.isnan(vals)):
        raise MalformedObjectError("cell values may not be NaN")
    if math.isnan(default):
        raise MalformedObjectError("default value is NaN")
    if bp.size and (bp[0] < domain.lo or bp[-1] > domain.hi):
        raise MalformedObjectError("breakpoints outside the declared domain")
    bp, vals = canonicalize_oracle(bp, vals, default)
    return bp, vals, float(default) + 0.0


def canonicalize_oracle(bp: np.ndarray, vals: np.ndarray, default: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``functions._canonicalize``: the ``keep`` mask is
    built whole before it is asked whether anything merges."""
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
        return np.array(bp), vals + 0.0
    return np.ascontiguousarray(bp[keep]), vals[keep[:-1]] + 0.0


def validate_measure_oracle(m: FiniteMeasure) -> None:
    """Reference for ``FiniteMeasure._validate``: ``np.unique`` for
    duplicate atoms and every span described before the overlap scan."""
    if m.atom_locs.size:
        if not np.all(np.isfinite(m.atom_locs)):
            raise MalformedObjectError("atom locations must be finite")
        if (np.any(m.atom_weights < 0)
                or not np.all(np.isfinite(m.atom_weights))):
            raise MalformedObjectError("atom weights must be finite and >= 0")
        if np.unique(m.atom_locs).size != m.atom_locs.size:
            raise MalformedObjectError("duplicate atom locations")
        if (np.any(m.atom_locs < m.domain.lo)
                or np.any(m.atom_locs > m.domain.hi)):
            raise MalformedObjectError("atom outside domain")
    if m.cell_los.size:
        if not (np.all(np.isfinite(m.cell_los))
                and np.all(np.isfinite(m.cell_his))):
            raise MalformedObjectError("cell bounds must be finite")
        if np.any(m.cell_his <= m.cell_los):
            raise MalformedObjectError("cell needs lo < hi")
        if (np.any(m.cell_densities < 0)
                or not np.all(np.isfinite(m.cell_densities))):
            raise MalformedObjectError("cell density must be finite and >= 0")
    spans = sorted(
        [(lo, hi, f"cell [{lo}, {hi})") for lo, hi in zip(m.cell_los, m.cell_his)]
        + [(s.lo, s.hi, f"segment {s.name!r} [{s.lo}, {s.hi})")
           for s in m.segments])
    for (lo1, hi1, d1), (lo2, hi2, d2) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise MalformedObjectError(f"overlapping regions: {d1} and {d2}")
    for lo, hi, desc in spans:
        if lo < m.domain.lo or hi > m.domain.hi:
            raise MalformedObjectError(f"{desc} outside domain")


def whole_tree_sum(x: np.ndarray) -> float | None:
    """Reference for ``kernels._tree_sum``: the TwoSum levels over the
    whole array, with fresh arrays at every level."""
    n = x.size
    if not max(float(x.max()), -float(x.min())) * n < 2.0 ** 1000:
        return None
    err_sum = 0.0
    err_abs = 0.0
    while x.size > 1:
        h = x.size // 2
        a, b = x[:h], x[h:2 * h]
        s = np.empty(x.size - h)
        top = np.add(a, b, out=s[:h])
        if x.size & 1:
            s[h] = x[-1]
        b_virtual = top - a
        err = top - b_virtual
        np.subtract(a, err, out=err)
        np.subtract(b, b_virtual, out=b_virtual)
        err += b_virtual
        err_sum += float(err.sum())
        err_abs += float(np.abs(err, out=err).sum())
        x = s
    s = float(x[0])
    if err_abs == 0.0:
        return s + 0.0
    bound = err_abs * (n * 2.0 ** -52) + 5e-324
    lo = s + math.nextafter(err_sum - bound, -math.inf)
    hi = s + math.nextafter(err_sum + bound, math.inf)
    return lo + 0.0 if lo == hi else None


def whole_exp2_mass(a, b) -> np.ndarray:
    """Reference for ``measures._exp2_mass`` on 1-d arrays: the same
    chain on two whole arrays in place."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    d *= -_LN2
    np.expm1(d, out=d)
    np.negative(d, out=d)
    out = np.negative(a)
    np.exp2(out, out=out)
    out *= d
    out /= _LN2
    return out


def seen_values(f: PiecewiseFn, fns, measures) -> np.ndarray:
    """Reference for f's values in the one-index pairing of ``(fns,
    measures)``: f's breakpoints at or left of every edge, found by one
    binary search per edge, index f's lookup table once for the cells
    and once for the atoms."""
    d = (fns + measures)[0].domain
    pieces = [np.asarray([d.lo, d.hi]), *(g.breakpoints for g in fns)]
    for m in measures:
        pieces += [m.cell_los, m.cell_his,
                   np.asarray([s.lo for s in m.segments]),
                   np.asarray([s.hi for s in m.segments]), m.atom_locs]
    edges = union_edges(pieces)
    atom_edges = np.unique(np.searchsorted(edges, np.concatenate(
        [m.atom_locs for m in measures] + [np.empty(0)])))
    lut = [(f.default,)]
    if f.breakpoints.size:
        lut.append(f.values)
        lut.append((f.values[-1] if f.breakpoints[-1] == d.hi
                    else f.default,))
    lut = np.concatenate(lut)
    c = np.searchsorted(f.breakpoints, edges, side="right")
    return np.concatenate([lut[c[:-1]], lut[c[atom_edges]]])


def concat_comb_g(n: int) -> PiecewiseFn:
    """Reference for the ``dyadic_comb`` fixture's g_n: the dyadic cells
    first, then the cliff appended by ``np.concatenate``."""
    dom, mu = _comb_domain()
    seg = mu.segments[0]
    h = 2.0 ** -n
    n_cells = 2 ** (n + 1)
    bp = np.arange(n_cells + 1) * h
    vals = np.zeros(n_cells)
    if n < 2:
        vals[bp[:-1] >= n] = -(2.0 ** n)
    a = bp[0:-1:2]
    vals[0::2] -= _comb_depths(seg, a, a + h)
    if n > 2:
        bp = np.concatenate([bp, [float(n), float(n + 1)]])
        vals = np.concatenate([vals, [0.0, -(2.0 ** n)]])
    elif n == 2:
        bp = np.concatenate([bp, [float(n + 1)]])
        vals = np.concatenate([vals, [-(2.0 ** n)]])
    return PiecewiseFn(bp, vals, 0.0, dom)


# --------------------------------------------------------------------------
# the comb path before index gathers and kept arrays
#
# The kernels as they selected their terms with boolean masks and formed
# every product, the exp2 chain with one expm1 per cell, and the comb
# builder that wrote the edge 2.0 for ``PiecewiseFn`` to merge away; the
# copying canonicalization is ``canonicalize_oracle`` above.

def mask_bounds(mask: np.ndarray, offsets) -> np.ndarray:
    """Where each run of ``offsets`` starts among the entries of ``mask``,
    counted in order: the run bounds of ``x[mask]``."""
    if len(offsets) == 2 and offsets[0] == 0 and offsets[1] == mask.size:
        return np.asarray([0, np.count_nonzero(mask)])
    return np.searchsorted(np.flatnonzero(mask), offsets)


def mask_ragged_sums(xs, offsets, mask=None):
    """Reference for ``kernels.ragged_sums``: a boolean compress."""
    x = np.asarray(xs, dtype=np.float64)
    if mask is None:
        return _sums(x, np.asarray(offsets).tolist())
    return _sums(x[mask], mask_bounds(mask, offsets).tolist())


def mask_pos_neg_dots(values, masses, offsets):
    """Reference for ``kernels.pos_neg_dots``: every product formed, the
    terms selected by sign masks and compressed."""
    v, m = _pair(values, masses)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = v * m
    pos_cells = v > 0.0
    neg_cells = ~(v >= 0.0)
    runs = len(offsets) - 1
    pos_inf = neg_inf = [False] * runs
    odd = ~np.isfinite(v)
    if odd.any():
        live = m != 0.0
        pos_cells &= live
        neg_cells &= live
        inf = np.isinf(v, out=odd)
        pos_inf = (np.diff(mask_bounds(pos_cells & inf, offsets)) > 0).tolist()
        neg_inf = (np.diff(mask_bounds(neg_cells & inf, offsets)) > 0).tolist()
        pos_cells &= ~inf
        neg_cells &= ~inf
    pos = _sums(prod[pos_cells], mask_bounds(pos_cells, offsets).tolist())
    neg_terms = prod[neg_cells]
    neg = _sums(np.negative(neg_terms, out=neg_terms),
                mask_bounds(neg_cells, offsets).tolist())
    for p_inf, n_inf, p, n in zip(pos_inf, neg_inf, pos, neg):
        yield math.inf if p_inf else p, math.inf if n_inf else n


def mask_tail_dots(values, masses, offsets, ks):
    """Reference for ``kernels.tail_dots``: live, finite and threshold
    masks, each compressing the arrays."""
    v, m = _pair(values, masses)
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 1:
        raise ValueError("ks must be a 1-d grid of thresholds")
    a = np.abs(v)
    live = m != 0.0
    inf = np.isinf(a)
    has_inf = (np.diff(mask_bounds(live & inf, offsets)) > 0).tolist()
    keep = live & ~inf
    a, m = a[keep], m[keep]
    with np.errstate(over="ignore"):
        terms = a * m
    runs = mask_bounds(keep, offsets)
    grid = ks.tolist()
    table = np.empty((runs.size - 1, len(grid)))
    failed: dict = {}
    for j, k in enumerate(grid):
        sel = a >= k
        t = terms[sel]
        t_list = t.tolist() if t.size < _TREE_MIN else None
        b = mask_bounds(sel, runs).tolist()
        for i in range(len(b) - 1):
            if i in failed:
                continue
            try:
                s = _run_sum(t, t_list, b[i], b[i + 1])
            except (OverflowError, ValueError) as exc:
                failed[i] = exc
                continue
            table[i, j] = math.inf if has_inf[i] and math.inf >= k else s
    for i, row in enumerate(table):
        if i in failed:
            raise failed[i]
        yield row


def cellwise_exp2_mass(a, b) -> np.ndarray:
    """Reference for ``measures._exp2_mass``: the blocked chain with one
    expm1 per cell, whatever the widths."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(a.shape)
    d = np.empty(min(a.size, _EXP2_BLOCK))
    for i in range(0, a.size, _EXP2_BLOCK):
        x, o = a[i:i + _EXP2_BLOCK], out[i:i + _EXP2_BLOCK]
        t = np.subtract(b[i:i + _EXP2_BLOCK], x, out=d[:x.size])
        t *= -_LN2
        np.expm1(t, out=t)
        np.negative(t, out=t)
        np.negative(x, out=o)
        np.exp2(o, out=o)
        o *= t
        o /= _LN2
    return out


def written_comb_g(n: int) -> PiecewiseFn:
    """Reference for the ``dyadic_comb`` fixture's g_n: every dyadic edge
    of [0, 2] written, 2.0 included, the depths as ``(b - a) / (2 ln 2)``
    over the masses of ``cellwise_exp2_mass``, and writeable arrays that
    ``PiecewiseFn`` copies and canonicalizes."""
    dom, _ = _comb_domain()
    h = 2.0 ** -n
    n_cells = 2 ** (n + 1)
    tail = [float(n), float(n + 1)] if n > 2 else [3.0] if n == 2 else []
    bp = np.arange(n_cells + 1 + len(tail), dtype=np.float64)
    bp[:n_cells + 1] *= h
    bp[n_cells + 1:] = tail
    vals = np.zeros(bp.size - 1)
    if n < 2:
        vals[bp[:n_cells] >= n] = -(2.0 ** n)
    else:
        vals[-1] = -(2.0 ** n)
    a = bp[0:n_cells:2]
    b = a + h
    mass = np.maximum(cellwise_exp2_mass(a, b), 0.0)
    vals[0:n_cells:2] -= ((b - a) / (2.0 * LN2)) / mass
    return PiecewiseFn(bp, vals, 0.0, dom)
