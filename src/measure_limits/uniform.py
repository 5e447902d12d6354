"""Set-uniform gaps: the worst measurable set for Fatou-type and
dominated-convergence-type comparisons.

The signed gap measure of index n assigns each region C the value
``int_C f_n dmu_n - int_C f dmu``.  For step functions on a common
refinement the integrand is cell-constant, so the infimum over all
measurable sets is attained at the union of negative cells (the Hahn
decomposition) and the supremum of absolute values at the better of the
two Hahn sets.  That turns an uncountable extremum into an exact finite
sum.  Hahn reductions use exactly rounded summation so values are
grouping-independent and enumeration oracles can match them bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fatou import Scenario, convergence_evidence
from .functions import FnSequence, PiecewiseFn
from .integration import integral_series, integrate
from .kernels import comp_sum, ragged_sums, sign_sums
from .measures import FiniteMeasure, SignedCellMeasure
from .refinement import (
    FamilyPairing, common_refinement, family_pairing, reduce_family,
)
from .tails import verdict
from .xreal import NotIntegrableError, UnsupportedScenarioError


def _require_l1(f: PiecewiseFn, m: FiniteMeasure, what: str) -> None:
    if integrate(abs(f), m) == math.inf:
        raise NotIntegrableError(f"{what} is not integrable against its measure")


def _check_shared_segments(m_n: FiniteMeasure, m: FiniteMeasure) -> None:
    """Hahn over refinement cells is exact only when the gap integrand has
    one sign per cell.  Identical analytic segments factor out a common
    nonnegative density, which guarantees that; differing segments would
    need sign-change root splitting the CDF cannot provide, so they are
    rejected rather than approximated."""
    a = tuple((s.name, s.lo, s.hi) for s in m_n.segments)
    b = tuple((s.name, s.lo, s.hi) for s in m.segments)
    if a != b:
        raise UnsupportedScenarioError(
            "set-uniform gaps need both measures to carry identical analytic "
            "segments (or none)")


def _gap_rows(fns, measures, f: PiecewiseFn, m: FiniteMeasure):
    """``family_pairing`` rows ((f_n, f), (mu_n, m)), read lazily; an index
    whose measures carry different segments raises."""
    for f_n, m_n in zip(fns, measures):
        _check_shared_segments(m_n, m)
        yield (f_n, f), (m_n, m)


def _signed_masses(p: FamilyPairing) -> np.ndarray:
    """Per cell and atom, int f_n dmu_n - int f dmu over it."""
    def prod(values, masses):
        # 0 * inf = 0: null regions contribute nothing even at inf values
        out = np.zeros_like(masses)
        nz = masses != 0.0
        out[nz] = values[nz] * masses[nz]
        return out

    return (prod(p.values[0], p.masses[0]) - prod(p.values[1], p.masses[1]))


def _hahn_sums(p: FamilyPairing) -> Iterator[tuple[float, float]]:
    """Per index of a chunk, (positive, negative) sums of the signed gap
    masses, each index adding its atoms' masses before its cells'."""
    gaps = _signed_masses(p)
    if p.atom.any():
        runs = np.repeat(np.arange(len(p)), np.diff(p.offsets))
        gaps = gaps[np.lexsort((~p.atom, runs))]
    return sign_sums(gaps, p.offsets)


def _gap_series(rows) -> Iterator[tuple[float, float]]:
    """Per index, (inf, sup) over measurable sets of the signed gap: the
    negative Hahn mass with its sign, and the larger Hahn mass."""
    for pos, neg in reduce_family(rows, _hahn_sums):
        yield neg, max(pos, -neg + 0.0)


def signed_gap(f_n: PiecewiseFn, m_n: FiniteMeasure,
               f: PiecewiseFn, m: FiniteMeasure) -> SignedCellMeasure:
    """Per-region signed masses of C -> int_C f_n dmu_n - int_C f dmu."""
    _require_l1(f_n, m_n, "f_n")
    _require_l1(f, m, "limit function")
    _check_shared_segments(m_n, m)
    regions = common_refinement([f_n, m_n, f, m])
    p = next(family_pairing([((f_n, f), (m_n, m))]))
    gaps = _signed_masses(p).tolist()
    cells = int(p.n_cells[0])
    return SignedCellMeasure(tuple(regions.atoms.tolist()), tuple(gaps[cells:]),
                             tuple(regions.edges.tolist()), tuple(gaps[:cells]))


def uniform_fatou_gap(g: SignedCellMeasure) -> float:
    """inf over measurable sets of the signed gap: the total negative
    Hahn mass; always <= 0 (the empty set is a candidate)."""
    masses = g.all_masses()
    return comp_sum(masses[masses < 0.0])


def hahn_masses(g: SignedCellMeasure) -> tuple[float, float]:
    """(positive, negative) Hahn masses; their sum is the total variation."""
    masses = g.all_masses()
    pos = comp_sum(masses[masses > 0.0])
    neg = -comp_sum(masses[masses < 0.0]) + 0.0
    return pos, neg


def uniform_sup_gap(g: SignedCellMeasure) -> float:
    """sup over measurable sets of |signed gap|: attained at the positive
    or the negative Hahn set, whichever carries more mass."""
    return max(hahn_masses(g))


def _condition_series(f_seq: FnSequence, f: PiecewiseFn, m: FiniteMeasure,
                      eps: float) -> tuple[list[float], list[float]]:
    """Per-index masses of {f_n <= f - eps} and of {|f_n - f| >= eps},
    both read from ragged passes over the refinements of (f_n, f, m): the
    cells' masses are summed first, then added to the atoms' weights."""
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    under, inmeas = [], []
    rows = (((f_seq.fn(n), f), (m,)) for n in range(1, f_seq.n_max + 1))
    for p in family_pairing(rows):
        (vn, v), (w,) = p.values, p.masses
        # where f_n and f are the same infinity, |f_n - f| is NaN, which
        # is not >= eps: the point is not far
        with np.errstate(invalid="ignore"):
            below = vn <= v - eps
            far = np.abs(vn - v) >= eps
        cells = ~p.atom
        cell_under = ragged_sums(w, p.offsets, cells & below)
        cell_far = ragged_sums(w, p.offsets, cells & far)
        weights, below, far = w.tolist(), below.tolist(), far.tolist()
        bounds = p.offsets.tolist()
        for i, n_cells in enumerate(p.n_cells.tolist()):
            under_terms = [next(cell_under)]
            inmeas_terms = [next(cell_far)]
            for j in range(bounds[i] + n_cells, bounds[i + 1]):
                if below[j]:
                    under_terms.append(weights[j])
                if far[j]:
                    inmeas_terms.append(weights[j])
            under.append(comp_sum(under_terms))
            inmeas.append(comp_sum(inmeas_terms))
    return under, inmeas


def condition_undershoot(f_seq: FnSequence, f: PiecewiseFn, m: FiniteMeasure,
                         eps: float) -> list[float]:
    """Per-index mass of the undershoot set {f_n <= f - eps}."""
    return _condition_series(f_seq, f, m, eps)[0]


def conv_in_measure(f_seq: FnSequence, f: PiecewiseFn, m: FiniteMeasure,
                    eps: float) -> list[float]:
    """Per-index mass of {|f_n - f| >= eps}; vanishing means convergence
    in measure at this epsilon."""
    return _condition_series(f_seq, f, m, eps)[1]


def trend_vanishing(values, window_start: int, tol: float) -> bool:
    """Window heuristic for 'tends to zero': already below tol, or
    nonincreasing with a strict decrease across the window."""
    window = [abs(v) for v in list(values)[window_start - 1:]]
    if max(window) <= tol:
        return True
    slack = 1e-12 * (1.0 + max(window))
    monotone = all(b <= a + slack for a, b in zip(window, window[1:]))
    return monotone and window[-1] <= 0.9 * window[0] + tol


@dataclass(frozen=True)
class UniformGapSeries:
    scenario: str
    inf_gaps: tuple[float, ...]      # per-n inf over sets; <= 0
    sup_gaps: tuple[float, ...]      # per-n sup over sets of |gap|; >= 0
    cond_undershoot: tuple[float, ...]
    cond_in_measure: tuple[float, ...]
    eps: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "inf_gap", "sup_gap", "cond_i", "cond_ii"])
        for i in range(len(self.inf_gaps)):
            w.writerow([i + 1, repr(self.inf_gaps[i]), repr(self.sup_gaps[i]),
                        repr(self.cond_undershoot[i]),
                        repr(self.cond_in_measure[i])])
        return buf.getvalue()


@dataclass(frozen=True)
class UniformReport:
    series: UniformGapSeries
    tv_series: tuple[float, ...]
    tv_vanishing: bool
    fatou_gap_vanishing: bool
    sup_gap_vanishing: bool
    undershoot_vanishing: bool
    in_measure_vanishing: bool
    aui_neg: bool
    aui_full: bool
    fatou_predicted: bool
    fatou_consistent: bool
    dct_predicted: bool
    dct_consistent: bool
    diagnostics: dict

    @property
    def consistent(self) -> bool:
        return self.fatou_consistent and self.dct_consistent


def uniform_report(sc: Scenario) -> UniformReport:
    """Observed gap trends against the two-condition characterizations,
    computed once per scenario (``Scenario.uniform_report``) and shared by
    every check that reads it.

    The uniform Fatou property should hold exactly when the undershoot
    masses vanish and the negative parts are a.u.i.; the uniform
    convergence of integrals over all sets exactly when the family
    converges in measure and is a.u.i.  Disagreement between an observed
    trend and its prediction clears ``fatou_consistent``/``dct_consistent``:
    on a closed-form fixture that is a fixture bug, on a document a window
    too short to judge.
    """
    return sc.uniform_report


def _uniform_report_body(sc: Scenario) -> UniformReport:
    if sc.limit_fn is None:
        raise UnsupportedScenarioError("uniform checks need a limit function")
    t = sc.tolerances
    f, m = sc.limit_fn, sc.limit_measure
    indices = range(1, sc.n_max + 1)
    l1 = integral_series((sc.abs_seq.fn(n) for n in indices),
                         (sc.measures.measure(n) for n in indices))
    gaps = _gap_series(_gap_rows((sc.f_seq.fn(n) for n in indices),
                                 (sc.measures.measure(n) for n in indices),
                                 f, m))
    inf_gaps, sup_gaps = [], []
    for n in indices:
        if next(l1) == math.inf:
            raise NotIntegrableError(
                "f_n is not integrable against its measure")
        if n == 1:
            # the limit is the same at every index, so it is checked once,
            # after f_1 as in signed_gap, which fixes the first error raised
            _require_l1(f, m, "limit function")
        inf_gap, sup_gap = next(gaps)
        inf_gaps.append(inf_gap)
        sup_gaps.append(sup_gap)
    under, inmeas = _condition_series(sc.f_seq, f, m, t.eps_cond)
    series = UniformGapSeries(sc.name, tuple(inf_gaps), tuple(sup_gaps),
                              tuple(under), tuple(inmeas), t.eps_cond)

    tv = sc.tv_series
    w = sc.window_start
    aui_neg = verdict(sc.neg_tail_curve, "aui", t.ui_tol).passes
    aui_full = verdict(sc.abs_tail_curve, "aui", t.ui_tol).passes

    gap_v = trend_vanishing(inf_gaps, w, t.ui_tol)
    sup_v = trend_vanishing(sup_gaps, w, t.ui_tol)
    under_v = trend_vanishing(under, w, t.ui_tol)
    inmeas_v = trend_vanishing(inmeas, w, t.ui_tol)
    tv_v = trend_vanishing(tv, w, t.ui_tol)
    fatou_pred = under_v and aui_neg
    dct_pred = inmeas_v and aui_full
    return UniformReport(
        series, tuple(tv), tv_v, gap_v, sup_v, under_v, inmeas_v,
        aui_neg, aui_full,
        fatou_predicted=fatou_pred, fatou_consistent=(gap_v == fatou_pred),
        dct_predicted=dct_pred, dct_consistent=(sup_v == dct_pred),
        diagnostics={"weak_convergence": convergence_evidence(sc),
                     "window_start": w,
                     "integral_series": sc.f_integral_series},
    )
