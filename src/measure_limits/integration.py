"""Exact integration of step functions and ramps against finite measures.

The integral of an extended-real-valued function is the difference of its
positive- and negative-part integrals, computed separately; when both
diverge the integral is undefined and raising is the contract.  All cell
reductions run through ``kernels``, whose sums are exactly rounded
(equal to ``math.fsum`` of the same terms; large arrays are summed in
numpy with a certified error bound), so they do not depend on the order
of the cells.  A series over the indices of a family is computed by
ragged family passes (``refinement.family_pairing``) and read index by
index, so it raises at the first index that fails; ``integrate`` is the
same pass over one index.  Ramps enter only through ``weak_gap_bank``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .functions import PiecewiseFn, Ramp, constant_fn
from .kernels import pos_neg_dots, pos_neg_parts, ragged_sums
from .measures import FiniteMeasure
from .refinement import FamilyPairing, reduce_family, replay
from .xreal import UnsupportedScenarioError, integral_of_parts

__all__ = [
    "integrate", "integral_series", "tv_series", "default_bank",
    "weak_gap_bank",
]


def chunk_integrals(p: FamilyPairing) -> Iterator[float]:
    """Per index of a chunk, the integral of its first function against
    its first measure: the difference of the positive- and negative-part
    integrals, summed over a ``BlockedFn``'s blocks end to end."""
    for pos, neg in ([pos_neg_parts(lambda: (
            (q.values[0], q.masses[0]) for q in p.parts()))] if p.parts
            else pos_neg_dots(p.values[0], p.masses[0], p.offsets)):
        yield integral_of_parts(pos, neg,
                                "both positive and negative parts diverge")


def integral_series(fns: Iterable[PiecewiseFn],
                    measures: Iterable[FiniteMeasure]) -> Iterator[float]:
    """The integral of each f_n against its mu_n, from ragged family
    passes; read index by index, it raises at the first index that
    fails."""
    return replay(reduce_family(
        (((f,), (m,)) for f, m in zip(fns, measures)), chunk_integrals)[0])


def integrate(f: PiecewiseFn, m: FiniteMeasure) -> float:
    """Integral of f against m; +-inf when exactly one part diverges.

    Raises UndefinedIntegralError when both parts are infinite.
    """
    return next(integral_series([f], [m]))


def tv_series(measures: Iterable[FiniteMeasure],
              limit: FiniteMeasure) -> Iterator[float]:
    """Total-variation norm of mu_n - mu for each mu_n, from ragged
    family passes: the sum of |mass difference| over each index's cells
    and atoms."""
    rows = (((), (m, limit)) for m in measures)
    return replay(reduce_family(rows, lambda p: ragged_sums(
        np.abs(p.masses[0] - p.masses[1]), p.offsets))[0])


def _ramp_integrals(ramps: list, measures: list) -> Iterator[float]:
    """Exact integral of each ramp against each measure, measure by
    measure: one vectorized pass per ramp over all the measures' atoms and
    density cells, read lazily.

    A density cell is cut at the ramp's nodes inside it and each piece
    adds its trapezoid rho * (b - a) * (y(a) + y(b)) / 2.  Analytic
    segments are accepted only where the ramp is constant, adding the
    ramp's value times the segment's ``total``; a segment's masses alone
    do not determine first moments, and guessing is worse than refusing.
    """
    if not ramps:
        return
    n_ramps = len(ramps)
    keys, terms = [], []
    locs = np.concatenate([m.atom_locs for m in measures] + [np.empty(0)])
    weights = np.concatenate([m.atom_weights for m in measures] + [np.empty(0)])
    atom_of = np.repeat(np.arange(len(measures)),
                        [m.atom_locs.size for m in measures])
    lo = np.concatenate([m.cell_los for m in measures] + [np.empty(0)])
    hi = np.concatenate([m.cell_his for m in measures] + [np.empty(0)])
    rho = np.concatenate([m.cell_densities for m in measures] + [np.empty(0)])
    cell_of = np.repeat(np.arange(len(measures)),
                        [m.cell_los.size for m in measures])
    live = rho != 0.0
    lo, hi, rho, cell_of = lo[live], hi[live], rho[live], cell_of[live]
    for j, r in enumerate(ramps):
        xs = np.asarray(r.xs)
        keys.append(atom_of * n_ramps + j)
        terms.append(weights * np.interp(locs, xs, r.ys))
        # each cell's ends with the ramp's nodes clipped into it: the
        # pieces of positive length are the cell cut at its inner nodes
        pts = np.concatenate([lo[:, None],
                              np.clip(xs[None, :], lo[:, None], hi[:, None]),
                              hi[:, None]], axis=1)
        y = np.interp(pts, xs, r.ys)
        a, b = pts[:, :-1], pts[:, 1:]
        piece = b > a
        keys.append(np.broadcast_to((cell_of * n_ramps + j)[:, None],
                                    piece.shape)[piece])
        terms.append((rho[:, None] * (b - a) * (y[:, :-1] + y[:, 1:])
                      / 2.0)[piece])
    rejected = set()
    for i, m in enumerate(measures):
        for seg in m.segments:
            for j, r in enumerate(ramps):
                y0 = r(seg.lo)
                varying = [x for x in r.xs
                           if seg.lo < x < seg.hi and r(x) != y0]
                hi_probe = (seg.hi if math.isfinite(seg.hi)
                            else max(r.xs[-1] + 1.0, seg.lo + 1.0))
                if varying or r(hi_probe) != y0:
                    rejected.add(i * n_ramps + j)
                keys.append(np.asarray([i * n_ramps + j]))
                terms.append(np.asarray([y0 * seg.total]))
    keys = np.concatenate(keys + [np.empty(0, dtype=np.intp)])
    terms = np.concatenate(terms + [np.empty(0)])
    order = np.argsort(keys, kind="stable")
    offsets = np.searchsorted(keys[order], np.arange(len(measures) * n_ramps + 1))
    totals = ragged_sums(terms[order], offsets)
    for pair in range(len(measures) * n_ramps):
        # the segment check comes before the pair's sum, as in one call
        if pair in rejected:
            raise UnsupportedScenarioError(
                "ramp varies over an analytic segment; use a step-function bank")
        yield next(totals)


def _bank_integrals(bank: list, measures: list) -> Iterator[float]:
    """The integral of every bank entry against every measure, measure by
    measure and entry by entry in bank order, read one by one: step entries
    through ragged family passes, ramps through one vectorized pass."""
    steps = [h for h in bank if isinstance(h, PiecewiseFn)]

    def step_rows():
        for m in measures:
            for h in steps:
                if not h.is_bounded():
                    raise UnsupportedScenarioError(
                        "bank functions must be bounded")
                yield (h,), (m,)

    step_values = replay(reduce_family(step_rows(), chunk_integrals)[0])
    ramp_values = _ramp_integrals([h for h in bank if isinstance(h, Ramp)],
                                  measures)
    for _ in measures:
        for h in bank:
            if isinstance(h, Ramp):
                yield next(ramp_values)
            elif isinstance(h, PiecewiseFn):
                yield next(step_values)
            else:
                raise TypeError("bank entries must be PiecewiseFn or Ramp, "
                                f"got {type(h).__name__}")


def default_bank(limit: FiniteMeasure) -> list:
    """Constant witness plus unit-bounded bumps at the limit measure's
    structural points: 1-Lipschitz hats on atom/cell measures, indicator
    steps when analytic segments are present (ramps have no closed-form
    first moment against a segment)."""
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


def weak_gap_bank(measures: tuple[FiniteMeasure, ...], limit: FiniteMeasure,
                  bank) -> tuple[float, ...]:
    """The worst bank gap sup_h |int h dmu_n - int h dmu| of each mu_n
    against the limit: the integrals of every bank entry against the
    limit and against each measure, in one pass over all (measure, entry)
    pairs.

    Gaps over a finite bank and a finite index window are evidence only:
    gaps of any size at finitely many indices are compatible with weak
    convergence, and small ones do not prove it.
    """
    bank = list(bank)
    values = _bank_integrals(bank, [limit, *measures])
    base = [next(values) for _ in bank]
    gaps = []
    for _ in measures:
        row = [next(values) for _ in bank]
        gaps.append(max((abs(v - b) for v, b in zip(row, base)), default=0.0))
    return tuple(gaps)
