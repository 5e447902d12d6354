"""Shared test utilities: one reference per computation, and random
object builders (the hypothesis strategies are in ``strategies.py``).

Each reference is the most direct form of its computation: scalar
evaluation, one cell at a time, ``math.fsum``.  Every fast path is
compared with its reference bit for bit, so a new fast path replaces the
code it speeds up and keeps no generation of its own here.

Computation -> reference:

- exact sums (``kernels.comp_sum``, the certified tree): ``loop_comp_sum``;
- positive and negative parts (``kernels.pos_neg_dots``): ``loop_pos_neg_dot``;
- tail rows (``kernels.tail_dots``): ``loop_tail_dot``;
- edge unions (``kernels.union_edges``): ``unique_edges``;
- exp2 segment masses (``measures._exp2_mass``): ``exp2_mass``;
- interval masses (``FiniteMeasure.mass_of_intervals``):
  ``loop_mass_of_intervals``;
- family pairings (``refinement.family_pairing``): ``loop_pairing``, and
  the per-index series read off it: ``loop_integral_series``,
  ``loop_tail_table``, ``loop_tv_series``, ``loop_gap_series``,
  ``loop_condition_series``, ``loop_weak_gaps``;
- shared family passes: ``neg_tail_curve_oracle``, ``l1_series_oracle``;
- dominance (``functions.dominates``): ``list_dominates``;
- epi-limit scans (``epilimits.epi_scan`` and the estimates read off it):
  ``scan_epi_oracle``, one scalar ``range_on`` per step and index;
- certificate envelopes (``EpiCertificate.values_at``): ``cert_value_at``;
- the comb fixture's g_n: ``comb_g_oracle``;
- canonical JSON: ``canonical_json_oracle``;
- construction checks of ``PiecewiseFn`` and ``FiniteMeasure``:
  ``piecewise_oracle`` with ``canonicalize_oracle``, and
  ``validate_measure_oracle``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from measure_limits import EpiCertificate, EpiSchedule, FiniteMeasure, FnSequence
from measure_limits import Interval, PiecewiseFn, Ramp, Scenario, lebesgue
from measure_limits import epilimits, zero_fn
from measure_limits.integration import integral_series
from measure_limits.kernels import tail_dots, union_edges
from measure_limits.tails import curve_of
from measure_limits.measures import _exp2_mass
from measure_limits.uniform import _gap_rows, _gap_series
from measure_limits.xreal import (
    DomainMismatchError,
    MalformedObjectError,
    NotIntegrableError,
    UnsupportedScenarioError,
    close,
    integral_of_parts,
)
from measure_limits.gallery import LN2, _comb_domain


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


def scan_estimates(seq: FnSequence, pts, sched, lower: bool,
                   stab_tol: float = 1e-9) -> tuple[list[float], list[bool]]:
    """Windowed epi-liminf (lower) or limsup estimates at pts, and their
    stabilized flags: the last of ``scan_epi_oracle``'s entries over the
    schedule's last two steps, stabilized when both are there and
    close."""
    read = EpiSchedule(sched.steps[-2:], sched.n_max)
    values, stab = [], []
    for s in pts:
        *prev, last = scan_epi_oracle(seq, s, read, lower)
        values.append(last)
        stab.append(bool(prev) and close(prev[0], last, stab_tol))
    return values, stab


def cert_value_at(cert: EpiCertificate, x: float, lower: bool) -> float:
    """Reference for ``EpiCertificate.values_at`` at one point: the first
    override at x, else min (max) of f(x) and the left limit f(x-), the
    value of the cell that ends at x, which ``domain.lo`` has not."""
    f = cert.fn
    if not f.domain.contains(x):
        raise DomainMismatchError(
            f"{x} outside domain [{f.domain.lo}, {f.domain.hi}]")
    for loc, v in cert.overrides:
        if loc == x:
            return v
    v = f(x)
    if x > f.domain.lo:
        i = int(np.searchsorted(f.breakpoints, x, side="left")) - 1
        left = float(f.values[i]) if 0 <= i < f.values.size else f.default
        v = min(v, left) if lower else max(v, left)
    return v


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
    """The negative-part tail curve, its rows the per-index loop over the
    ``part(f_n, "negative")`` family."""
    return curve_of(loop_tail_table(neg_parts(sc), sc.measures, sc.k_grid),
                    sc.n_max, sc.k_grid, sc.window_start)


def l1_series_oracle(sc: Scenario):
    """The L1 norms of the f_n as a family pass of their own, over the
    |f_n| family; read index by index."""
    return integral_series([abs(f) for f in sc.f_seq.fns], sc.measures)


def loop_mass_of_intervals(m: FiniteMeasure, bounds) -> float:
    """Reference for ``FiniteMeasure.mass_of_intervals``: one interval
    (lo, hi, hi_closed) at a time, its atoms tested one by one, its
    segment ends clipped in Python, and one ``math.fsum`` of all the
    intervals' terms."""
    terms = []
    for lo, hi, closed in [b for b in bounds if b[0] <= b[1]]:
        for aloc, w in zip(m.atom_locs, m.atom_weights):
            if lo <= aloc < hi or (aloc == hi and closed):
                terms.append(w)
        clip_lo = np.maximum(m.cell_los, lo)
        clip_hi = np.minimum(m.cell_his, hi)
        grab = clip_hi > clip_lo
        terms.extend(m.cell_densities[grab] * (clip_hi[grab] - clip_lo[grab]))
        for seg in m.segments:
            assert seg.mass_fn is _exp2_mass, "the reference knows exp2 segments only"
            a, b = max(seg.lo, lo), min(seg.hi, hi)
            if b > a:
                terms.append(float(exp2_mass(a, b)))
    return math.fsum(terms) + 0.0


def unique_edges(pieces) -> np.ndarray:
    """Reference for ``kernels.union_edges``: the concatenated pieces
    sorted and deduplicated again."""
    return np.unique(np.concatenate(pieces))


def exp2_mass(a, b) -> np.ndarray:
    """Reference for the exp2 segment's masses of [a, b) cells,
    ``measures._exp2_mass``: 2^-a (1 - 2^-(b - a)) / ln 2 as one
    expression per cell, expm1 against cancellation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.exp2(-a) * -np.expm1((b - a) * -LN2) / LN2


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
                # the kernel's spelling: (-v) * m differs in a NaN's sign
                neg_terms.append(-(v * m))
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


def comb_g_oracle(n: int) -> PiecewiseFn:
    """Reference for the ``dyadic_comb`` fixture's g_n: the 2^(n+1) cells
    of width h = 2^-n on [0, 2], each even one depressed by its measure
    average (h / (2 ln 2)) / ``exp2_mass``, and the cliff -2^n on
    [n, n + 1), past 2 appended after a zero cell [2, n); ``PiecewiseFn``
    merges equal neighbours."""
    dom, _ = _comb_domain()
    h = 2.0 ** -n
    bp = np.arange(2 ** (n + 1) + 1) * h
    vals = np.where(bp[:-1] >= n, -(2.0 ** n), 0.0)
    a = bp[0:-1:2]
    vals[0::2] -= (h / (2.0 * LN2)) / exp2_mass(a, a + h)
    if n > 2:
        bp, vals = np.append(bp, [n, n + 1.0]), np.append(vals, [0.0, -(2.0 ** n)])
    elif n == 2:
        bp, vals = np.append(bp, 3.0), np.append(vals, -4.0)
    return PiecewiseFn(bp, vals, 0.0, dom)


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
    """Reference for ``uniform._condition_series``: per index, one
    ``math.fsum`` over the cell masses and atom weights of {f_n <= f - eps}
    and one over those of {|f_n - f| >= eps}."""
    under, inmeas = [], []
    for f_n in f_seq.fns:
        (vn, v), (w,), _ = loop_pairing([f_n, f], [m])
        with np.errstate(invalid="ignore"):
            under.append(math.fsum(w[vn <= v - eps].tolist()) + 0.0)
            inmeas.append(math.fsum(w[np.abs(vn - v) >= eps].tolist()) + 0.0)
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
