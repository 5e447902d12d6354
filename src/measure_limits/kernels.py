"""Reduction kernels over aligned cell-value / cell-mass arrays.

Each kernel selects its terms with numpy sign and threshold masks, forms
the products in numpy and adds them with ``math.fsum``.  Every sum is
therefore exactly rounded, so its value does not depend on the order of
the terms.  Terms are still added in cell order, because whether
``math.fsum`` raises ``OverflowError`` for a finite sum past the double
range does depend on it.  Refinements can reach millions of cells;
``perfbench/`` times the kernels inside end-to-end runs.
"""

from __future__ import annotations

import math

import numpy as np


def _pair(values, masses) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(masses, dtype=np.float64)
    if v.shape != m.shape:
        raise ValueError("values and masses must have equal length")
    return v, m


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.tolist()) + 0.0


def comp_sum(xs) -> float:
    """Exactly rounded sum of a 1-d float array."""
    return _fsum(np.asarray(xs, dtype=np.float64))


def pos_neg_dot(values, masses) -> tuple[float, float]:
    """(pos, neg): the positive- and negative-part integrals of a pairing.

    pos sums v * m over the cells with v > 0, neg sums -v * m over the
    cells with v < 0.  Cells with zero mass contribute nothing whatever
    their value (0 * inf = 0); an infinite value on positive mass makes
    its part +inf.
    """
    v, m = _pair(values, masses)
    live = (m != 0.0) & (v != 0.0)
    pos_cells = live & (v > 0.0)
    neg_cells = live & ~pos_cells
    inf = np.isinf(v)
    up, down = pos_cells & ~inf, neg_cells & ~inf
    with np.errstate(over="ignore"):
        pos = _fsum(v[up] * m[up])
        neg = _fsum(-v[down] * m[down])
    return (math.inf if np.count_nonzero(pos_cells & inf) else pos,
            math.inf if np.count_nonzero(neg_cells & inf) else neg)


def tail_dot(values, masses, ks) -> np.ndarray:
    """Tail row over a K grid: entry j sums |v| * m over the cells with
    |v| >= ks[j].

    The threshold is inclusive and ``ks`` may be in any order and repeat.
    Zero-mass cells contribute nothing, and an infinite |v| on positive
    mass at or above ks[j] makes entry j +inf.  The products are formed
    once for the whole grid; each entry adds its terms in cell order.
    """
    v, m = _pair(values, masses)
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 1:
        raise ValueError("ks must be a 1-d grid of thresholds")
    a = np.abs(v)
    live = m != 0.0
    a, m = a[live], m[live]
    inf = np.isinf(a)
    has_inf = bool(np.count_nonzero(inf))
    a, m = a[~inf], m[~inf]
    with np.errstate(over="ignore"):
        terms = a * m
    row = np.empty(ks.size)
    for j, k in enumerate(ks.tolist()):
        s = _fsum(terms[a >= k])
        # an infinite |v| is >= every threshold but NaN
        row[j] = math.inf if has_inf and math.inf >= k else s
    return row
