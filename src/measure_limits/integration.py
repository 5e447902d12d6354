"""Exact integration of step functions and ramps against finite measures.

The integral of an extended-real-valued function is the difference of its
positive- and negative-part integrals, computed separately; when both
diverge the integral is undefined and raising is the contract.  All cell
reductions run through ``kernels``, whose sums are exactly rounded
(equal to ``math.fsum`` of the same terms; large arrays are summed in
numpy with a certified error bound), so they do not depend on the order
of the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import PiecewiseFn, Ramp, constant_fn
from .kernels import comp_sum, pos_neg_dot
from .measures import FiniteMeasure, MeasureSequence
from .refinement import (
    atom_weights_at,
    common_refinement,
    measure_cell_masses,
    refined_values_masses,
)
from .xreal import DomainMismatchError, UnsupportedScenarioError, integral_of_parts

__all__ = [
    "integrate", "integrate_parts", "tv_norm_diff", "integrate_ramp",
    "default_bank", "weak_gap_bank", "WeakGapSeries",
]


def integrate_parts(f: PiecewiseFn, m: FiniteMeasure) -> tuple[float, float]:
    """(positive-part, negative-part) integrals; either may be +inf."""
    return pos_neg_dot(*refined_values_masses(f, m))


def integrate(f: PiecewiseFn, m: FiniteMeasure) -> float:
    """Integral of f against m; +-inf when exactly one part diverges.

    Raises UndefinedIntegralError when both parts are infinite.
    """
    return integral_of_parts(*integrate_parts(f, m),
                             "both positive and negative parts diverge")


def tv_norm_diff(a: FiniteMeasure, b: FiniteMeasure) -> float:
    """Total-variation norm of a - b: positive plus negative Hahn mass."""
    if a.domain != b.domain:
        raise DomainMismatchError("total-variation distance requires one domain")
    p = common_refinement([a, b])
    diffs = measure_cell_masses(a, p) - measure_cell_masses(b, p)
    if p.atoms.size:
        diffs = np.concatenate([
            diffs, atom_weights_at(a, p.atoms) - atom_weights_at(b, p.atoms)])
    return comp_sum(np.abs(diffs))


def integrate_ramp(r: Ramp, m: FiniteMeasure) -> float:
    """Exact integral of a continuous piecewise-linear function.

    Supported against atoms and constant-density cells.  Analytic
    segments are accepted only where the ramp is constant; the CDF alone
    does not determine first moments, and guessing is worse than refusing.
    """
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
        hi_probe = seg.hi if math.isfinite(seg.hi) else max(r.xs[-1] + 1.0, seg.lo + 1.0)
        if varying or r(hi_probe) != y0:
            raise UnsupportedScenarioError(
                "ramp varies over an analytic segment; use a step-function bank")
        terms.append(y0 * seg.total)
    return comp_sum(np.asarray(terms)) if terms else 0.0


def _bank_eval(h, m: FiniteMeasure) -> float:
    if isinstance(h, Ramp):
        return integrate_ramp(h, m)
    if isinstance(h, PiecewiseFn):
        if not h.is_bounded():
            raise UnsupportedScenarioError("bank functions must be bounded")
        return integrate(h, m)
    raise TypeError(f"bank entries must be PiecewiseFn or Ramp, got {type(h).__name__}")


@dataclass(frozen=True)
class WeakGapSeries:
    """Per-index worst bank gap sup_h |int h dmu_n - int h dmu|.

    A large gap at a large index witnesses failure of weak convergence; small
    gaps over a finite bank are evidence only.  ``certificate`` records how
    the scenario claims convergence ('tv', 'builder', or 'none'); without a
    certificate the bank result must be read as inconclusive.
    """

    gaps: tuple[float, ...]
    bank_size: int
    certificate: str


def default_bank(limit: FiniteMeasure) -> list:
    """Constant witness plus unit-bounded bumps at the limit measure's
    structural points: 1-Lipschitz hats on atom/cell measures, indicator
    steps when analytic segments are present (ramps have no closed-form
    first moment against a CDF)."""
    dom = limit.domain
    bank = [constant_fn(1.0, dom)]
    for c in limit.piece_edges()[:6]:
        c = float(c)
        if limit.segments:
            hi = min(c + 1.0, dom.hi)
            if hi > c:
                bank.append(PiecewiseFn([c, hi], [1.0], 0.0, dom))
        else:
            bank.append(Ramp((c - 1.0, c, c + 1.0), (0.0, 1.0, 0.0)))
    return bank


def weak_gap_bank(measures: MeasureSequence, limit: FiniteMeasure, bank,
                  certificate: str = "none") -> WeakGapSeries:
    bank = list(bank)
    base = [_bank_eval(h, limit) for h in bank]
    gaps = []
    for n in range(1, measures.n_max + 1):
        mn = measures.measure(n)
        gaps.append(max((abs(_bank_eval(h, mn) - b) for h, b in zip(bank, base)),
                        default=0.0))
    return WeakGapSeries(tuple(gaps), len(bank), certificate)
