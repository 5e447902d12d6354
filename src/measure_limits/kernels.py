"""Reduction kernels over aligned cell-value / cell-mass arrays, and the
sorted union of edge arrays that refinements are built on.

Each kernel selects its terms with numpy sign and threshold masks, forms
the products in numpy and adds them exactly rounded: every sum equals
``math.fsum`` of the same terms, so its value does not depend on the
order of the terms.  Arrays of fewer than 4,096 terms go to
``math.fsum`` directly.  Larger ones are added in numpy by a tree of
error-free (TwoSum) levels whose rounding errors are summed with a
proven bound; when that bound cannot certify the rounded result, or a
term is not finite, or partial sums could come near the double range,
the terms go to ``math.fsum`` in cell order instead.  So
``OverflowError`` for a finite sum past the double range, ``ValueError``
for inf + -inf and inf results are ``math.fsum``'s own.  Refinements can
reach millions of cells; ``perfbench/`` times the kernels inside
end-to-end runs.
"""

from __future__ import annotations

import math

import numpy as np

#: Arrays below this many terms are summed by ``math.fsum`` alone: the
#: tree's numpy calls per level cost more than ``math.fsum`` on fewer
#: terms (they break even near 3,000 terms).
_TREE_MIN = 4096
#: No partial sum of n terms of magnitude below 2**1000 / n comes near
#: the double range, in the tree or in ``math.fsum``.
_TREE_RANGE = 2.0 ** 1000
#: Edge arrays up to this size are merged by ``np.unique`` alone.
_MERGE_MIN = 1024


def _pair(values, masses) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(masses, dtype=np.float64)
    if v.shape != m.shape:
        raise ValueError("values and masses must have equal length")
    return v, m


def _tree_sum(x: np.ndarray) -> float | None:
    """The correctly rounded sum of x, or None when it is not certified.

    Each level adds the two halves of the array with TwoSum, which also
    yields the exact rounding error of every addition, so the exact sum
    is the last level's single value s plus the sum E of all errors.
    The errors are added in numpy to e, with |E - e| <= b for
    b = 2 n u * sum|err| (u = 2**-53), a bound that holds for any order
    of summation.  Rounding is monotone, so when s + (e - b) and
    s + (e + b), each rounded outwards first, round to the same double,
    that double is the rounded exact sum: the value ``math.fsum`` gives.
    """
    n = x.size
    if not max(float(x.max()), -float(x.min())) * n < _TREE_RANGE:  # NaN too
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


def _fsum(terms: np.ndarray) -> float:
    if terms.size >= _TREE_MIN:
        s = _tree_sum(terms)
        if s is not None:
            return s
    return math.fsum(terms.tolist()) + 0.0


def comp_sum(xs) -> float:
    """Exactly rounded sum of a 1-d float array: ``math.fsum`` of it."""
    return _fsum(np.asarray(xs, dtype=np.float64))


def union_edges(pieces) -> np.ndarray:
    """Sorted distinct values of several edge arrays: bit for bit
    ``np.unique(np.concatenate(pieces))``.

    When the largest piece has more than 1,024 entries and is strictly
    increasing, as a large function's breakpoints are, the other values
    are deduplicated on their own and inserted into it at their
    ``searchsorted`` positions, so the large piece is copied once and
    never sorted.  Every other input goes to ``np.unique``, and so does
    one that holds both 0.0 and -0.0: which of the two ``np.unique``
    keeps depends on its sort and on the order of the pieces.
    """
    if max(map(len, pieces)) <= _MERGE_MIN:
        return np.unique(np.concatenate(pieces))
    pieces = [np.asarray(p, dtype=np.float64) for p in pieces]
    i = max(range(len(pieces)), key=lambda k: pieces[k].size)
    big = pieces[i]
    if not np.all(big[1:] > big[:-1]):
        return np.unique(np.concatenate(pieces))
    rest = np.concatenate([np.empty(0), *pieces[:i], *pieces[i + 1:]])
    zeros = np.signbit(rest[rest == 0.0])
    j = int(np.searchsorted(big, 0.0))
    if j < big.size and big[j] == 0.0:
        zeros = np.append(zeros, np.signbit(big[j]))
    if zeros.any() and not zeros.all():
        return np.unique(np.concatenate(pieces))
    rest = np.unique(rest)
    at = np.searchsorted(big, rest)
    new = at == big.size
    new[~new] = big[at[~new]] != rest[~new]
    return np.insert(big, at[new], rest[new])


def pos_neg_dot(values, masses) -> tuple[float, float]:
    """(pos, neg): the positive- and negative-part integrals of a pairing.

    pos sums v * m over the cells with v > 0, neg sums -v * m over the
    cells with v < 0.  Cells with zero mass contribute nothing whatever
    their value (0 * inf = 0); an infinite value on positive mass makes
    its part +inf.
    """
    v, m = _pair(values, masses)
    # the products are formed once: -(v * m) is (-v) * m exactly
    with np.errstate(over="ignore", invalid="ignore"):
        prod = v * m
    live = m != 0.0
    pos_cells = live & (v > 0.0)
    neg_cells = live & ~(v >= 0.0)  # v < 0, or NaN
    inf = np.isinf(v)
    pos_inf = neg_inf = False
    if inf.any():
        pos_inf = bool(np.count_nonzero(pos_cells & inf))
        neg_inf = bool(np.count_nonzero(neg_cells & inf))
        pos_cells &= ~inf
        neg_cells &= ~inf
    pos = _fsum(prod[pos_cells])
    neg_terms = prod[neg_cells]
    neg = _fsum(np.negative(neg_terms, out=neg_terms))
    return math.inf if pos_inf else pos, math.inf if neg_inf else neg


def tail_dot(values, masses, ks) -> np.ndarray:
    """Tail row over a K grid: entry j sums |v| * m over the cells with
    |v| >= ks[j].

    The threshold is inclusive and ``ks`` may be in any order and repeat.
    Zero-mass cells contribute nothing, and an infinite |v| on positive
    mass at or above ks[j] makes entry j +inf.  The products are formed
    once for the whole grid, and each entry is an exactly rounded sum.
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
