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
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from .functions import FnSequence, PiecewiseFn
from .integration import integrate
from .kernels import ragged_sums, sign_sums
from .measures import FiniteMeasure
from .refinement import FamilyPairing, family_pairing, reduce_family, replay
from .tails import verdict
from .xreal import NotIntegrableError, UnsupportedScenarioError

if TYPE_CHECKING:
    from .fatou import Scenario


def _check_shared_segments(m_n: FiniteMeasure, m: FiniteMeasure) -> None:
    """Hahn over refinement cells is exact only when the gap integrand has
    one sign per cell.  Identical analytic segments factor out a common
    nonnegative density, which guarantees that; differing segments would
    need sign-change root splitting the mass rule cannot provide, so they are
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
    masses.  Each sum is exactly rounded over terms of one sign, so the
    order of the cells and atoms does not change it."""
    return sign_sums(_signed_masses(p), p.offsets)


def _gap_series(rows) -> Iterator[tuple[float, float]]:
    """Per index, (inf, sup) over measurable sets of the signed gap: the
    negative Hahn mass with its sign, and the larger Hahn mass."""
    for pos, neg in replay(reduce_family(rows, _hahn_sums)[0]):
        yield neg, max(pos, -neg + 0.0)


def _condition_series(f_seq: FnSequence, f: PiecewiseFn, m: FiniteMeasure,
                      eps: float) -> tuple[list[float], list[float]]:
    """Per-index masses of {f_n <= f - eps} and of {|f_n - f| >= eps},
    both read from ragged passes over the refinements of (f_n, f, m): one
    exactly rounded sum per index over its cells' masses and its atoms'
    weights."""
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    under, inmeas = [], []
    rows = (((f_n, f), (m,)) for f_n in f_seq.fns)
    for p in family_pairing(rows):
        (vn, v), (w,) = p.values, p.masses
        # where f_n and f are the same infinity, |f_n - f| is NaN, which
        # is not >= eps: the point is not far
        with np.errstate(invalid="ignore"):
            below = vn <= v - eps
            far = np.abs(vn - v) >= eps
        under.extend(ragged_sums(w, p.offsets, below))
        inmeas.extend(ragged_sums(w, p.offsets, far))
    return under, inmeas


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
    inf_gaps: tuple[float, ...]      # per-n inf over sets; <= 0
    sup_gaps: tuple[float, ...]      # per-n sup over sets of |gap|; >= 0
    cond_undershoot: tuple[float, ...]
    cond_in_measure: tuple[float, ...]

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
class UniformCheck:
    """One set-uniform check's gap trend against its prediction."""
    gap_trend_vanishing: bool
    conditions_predict_vanishing: bool
    consistent: bool
    aui_negative_parts: bool
    aui_full_family: bool
    tv_vanishing: bool
    undershoot_vanishing: bool
    in_measure_vanishing: bool
    conclusion: str
    disagreement: Optional[str]   # set when the trend contradicts the prediction


def _uniform_check(observed: bool, predicted: bool, trends: dict
                   ) -> UniformCheck:
    # both sides are trends judged over the trailing window; when they
    # disagree, the window cannot tell which one misjudged the limit
    consistent = observed == predicted
    return UniformCheck(
        observed, predicted, consistent, **trends,
        conclusion=("inconclusive" if not consistent
                    else "holds" if observed else "violated"),
        disagreement=None if consistent else (
            "observed gap trend contradicts the two-condition "
            "characterization"))


@dataclass(frozen=True)
class UniformReport:
    series: UniformGapSeries
    fatou: UniformCheck    # the uniform Fatou property
    dct: UniformCheck      # uniform convergence of integrals over all sets


def uniform_report(sc: Scenario) -> UniformReport:
    """Observed gap trends against the two-condition characterizations;
    ``Scenario.uniform_report`` computes it once per scenario for every
    check that reads it.

    The uniform Fatou property should hold exactly when the undershoot
    masses vanish and the negative parts are a.u.i.; the uniform
    convergence of integrals over all sets exactly when the family
    converges in measure and is a.u.i.  Disagreement between an observed
    trend and its prediction clears the check's ``consistent`` and reads
    ``inconclusive``: on a closed-form fixture that is a fixture bug, on a
    document a window too short to judge.
    """
    if sc.limit_fn is None:
        raise UnsupportedScenarioError("uniform checks need a limit function")
    t = sc.tolerances
    f, m = sc.limit_fn, sc.limit_measure
    l1 = replay(sc.abs_pass[0])
    gaps = _gap_series(_gap_rows(sc.f_seq.fns, sc.measures, f, m))
    inf_gaps, sup_gaps = [], []
    for n in range(1, sc.n_max + 1):
        if next(l1) == math.inf:
            raise NotIntegrableError(
                "f_n is not integrable against its measure")
        if n == 1:
            # the limit is the same at every index, so it is checked once,
            # after f_1: a non-integrable f_1 is the first error raised
            if integrate(abs(f), m) == math.inf:
                raise NotIntegrableError(
                    "limit function is not integrable against its measure")
        inf_gap, sup_gap = next(gaps)
        inf_gaps.append(inf_gap)
        sup_gaps.append(sup_gap)
    under, inmeas = _condition_series(sc.f_seq, f, m, t.eps_cond)
    series = UniformGapSeries(tuple(inf_gaps), tuple(sup_gaps),
                              tuple(under), tuple(inmeas))

    tv = sc.tv_series
    w = sc.window_start
    aui_neg = verdict(sc.neg_tail_curve, "aui", t.ui_tol).passes
    aui_full = verdict(sc.abs_tail_curve, "aui", t.ui_tol).passes
    under_v = trend_vanishing(under, w, t.ui_tol)
    inmeas_v = trend_vanishing(inmeas, w, t.ui_tol)
    trends = {"aui_negative_parts": aui_neg, "aui_full_family": aui_full,
              "tv_vanishing": trend_vanishing(tv, w, t.ui_tol),
              "undershoot_vanishing": under_v,
              "in_measure_vanishing": inmeas_v}
    return UniformReport(
        series,
        _uniform_check(trend_vanishing(inf_gaps, w, t.ui_tol),
                       under_v and aui_neg, trends),
        _uniform_check(trend_vanishing(sup_gaps, w, t.ui_tol),
                       inmeas_v and aui_full, trends))
