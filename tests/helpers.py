"""Shared test utilities: independent oracles and random object builders.

Most oracles deliberately avoid the library's refinement/kernel path: they
evaluate functions pointwise through binary search, accumulate with
math.fsum, and derive analytic masses straight from the CDF, so agreement
with the main path is meaningful.  The per-index oracles at the end are
the loops that the ragged family passes replaced: one ``common_refinement``
per index, reduced by the cell-loop kernels.
"""

from __future__ import annotations

import math

import numpy as np

from measure_limits import FiniteMeasure, FnSequence, Interval, MeasureSequence
from measure_limits import PiecewiseFn, Ramp, Scenario, common_refinement, zero_fn
from measure_limits.functions import DominanceWitness
from measure_limits.xreal import (
    DomainMismatchError,
    NotIntegrableError,
    UnsupportedScenarioError,
    integral_of_parts,
)
from measure_limits.gallery import _comb_depths, _comb_domain


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
        measures=MeasureSequence(n_max, lambda n: perturbed[n - 1]),
        limit_measure=base,
        f_seq=FnSequence(n_max, lambda n: fns[n - 1]),
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

    fns = [sc.f_seq.fn(n) for n in range(1, n_max + 1)]
    return {
        "name": name,
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": n_max,
        "measures": {"explicit": [measure_spec(sc.measures.measure(n))
                                  for n in range(1, n_max + 1)]},
        "limit_measure": measure_spec(sc.limit_measure),
        "functions": {"explicit": [fn_spec(f) for f in fns]},
        "g_functions": {"explicit": [fn_spec(f, shift) for f in fns]},
        "limit_function": {"breakpoints": [], "values": [], "default": 0.0},
        "checks": ["ui", "aui", "shift", "fatou", "minorant",
                   "weakened_minorant", "majorant", "dct", "uniform_fatou",
                   "uniform_dct", "weak_gap"],
        "convergence_certificate": {"kind": "tv"},
    }


def scan_epi_oracle(seq: FnSequence, s: float, sched, lower: bool
                    ) -> list[float]:
    """Windowed epi-liminf (lower) or limsup at s per schedule step, one
    scalar ``range_on`` call per step and index: the reference that the
    batched scan in ``measure_limits.epilimits`` must match bit for bit."""
    per_j = []
    for n0, delta in sched.steps:
        best = math.inf if lower else -math.inf
        for n in range(n0, seq.n_max + 1):
            lo, hi = seq.fn(n).range_on(s - delta, s + delta, False, False)
            best = min(best, lo) if lower else max(best, hi)
        per_j.append(best)
    return per_j


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


def loop_tail_dot(values, masses, k: float) -> tuple[float, bool]:
    """Reference for one entry of ``kernels.tail_dot``, one cell at a
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


def list_dominates(upper: PiecewiseFn, lower: PiecewiseFn):
    """Reference for ``functions.dominates``: the representative points
    gathered in a Python list, evaluated through ``values_at``."""
    dom = upper.domain
    assert lower.domain == dom
    edges = unique_edges([
        upper.breakpoints, lower.breakpoints,
        np.asarray([b for b in (dom.lo, dom.hi) if math.isfinite(b)]),
    ])
    reps = list(edges)
    if edges.size == 0:
        reps = [0.0]
    elif edges[0] > dom.lo:
        reps.insert(0, dom.lo if math.isfinite(dom.lo) else edges[0] - 1.0)
    reps = np.asarray(reps, dtype=np.float64)
    reps = reps[(reps >= dom.lo) & (reps <= dom.hi)]
    uv = upper.values_at(reps)
    lv = lower.values_at(reps)
    bad = np.nonzero(uv < lv)[0]
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    x = float(reps[i])
    nxt = edges[edges > x]
    hi = float(nxt[0]) if nxt.size else dom.hi
    return False, DominanceWitness(x, hi, float(uv[i]), float(lv[i]))


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
    return FnSequence(n_max, lambda n: f)


def zero_seq(domain: Interval, n_max: int) -> FnSequence:
    return constant_seq(zero_fn(domain), n_max)


# -- per-index oracles for the ragged family passes -------------------------
#
# Each index is refined on its own by ``common_refinement`` and reduced by
# the cell-loop kernels above, one index after another: the loops that the
# family passes of ``measure_limits`` replaced, kept as bit-for-bit oracles.

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
    values = [np.concatenate([f.cell_values(p.edges), f.values_at(p.atoms)])
              for f in fns]
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


def loop_integral_series(seq: FnSequence, measures: MeasureSequence) -> list:
    return [loop_integrate(seq.fn(n), measures.measure(n))
            for n in range(1, seq.n_max + 1)]


def loop_tail_table(seq: FnSequence, measures: MeasureSequence, ks) -> list:
    rows = []
    for n in range(1, seq.n_max + 1):
        values, masses = loop_refined_values_masses(seq.fn(n),
                                                    measures.measure(n))
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


def loop_tv_series(measures: MeasureSequence, limit: FiniteMeasure) -> list:
    return [loop_tv_norm_diff(measures.measure(n), limit)
            for n in range(1, measures.n_max + 1)]


def loop_gap_masses(f_n, m_n, f, m) -> list:
    """Signed gap masses of one index, atoms first as in
    ``SignedCellMeasure.all_masses``."""
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
    for n in range(1, sc.n_max + 1):
        f_n, m_n = sc.f_seq.fn(n), sc.measures.measure(n)
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
    for n in range(1, f_seq.n_max + 1):
        f_n = f_seq.fn(n)
        p = common_refinement([f_n, f, m])
        vn = f_n.cell_values(p.edges)
        v = f.cell_values(p.edges)
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
    """Reference for ``integration.integrate_ramp``, one cell at a time."""
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


def loop_weak_gaps(measures: MeasureSequence, limit: FiniteMeasure,
                   bank) -> list:
    """Reference for ``integration.weak_gap_bank``'s gaps."""
    base = [loop_bank_eval(h, limit) for h in bank]
    gaps = []
    for n in range(1, measures.n_max + 1):
        mn = measures.measure(n)
        gaps.append(max((abs(loop_bank_eval(h, mn) - b)
                         for h, b in zip(bank, base)), default=0.0))
    return gaps
