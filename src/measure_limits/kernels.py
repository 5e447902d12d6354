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
for inf + -inf and inf results are ``math.fsum``'s own.

Every kernel takes ragged arrays: the ``offsets`` of a family pairing
split them into one run of cells per index (see
``refinement.family_pairing``), the masks and products are formed once
for all the runs, and the per-index sums are computed as the caller asks
for them, so a caller that reduces index by index raises at the first
index that fails.  ``pos_neg_dot`` and ``tail_dot`` are the one-run calls.
Refinements can reach millions of cells; ``perfbench/`` times the kernels
inside end-to-end runs.
"""

from __future__ import annotations

import math
from typing import Iterator

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


def _bounds(mask: np.ndarray, offsets) -> np.ndarray:
    """Where each run of ``offsets`` starts among the entries of ``mask``,
    counted in order: the run bounds of ``x[mask]``."""
    if len(offsets) == 2 and offsets[0] == 0 and offsets[1] == mask.size:
        return np.asarray([0, np.count_nonzero(mask)])
    return np.searchsorted(np.flatnonzero(mask), offsets)


def _run_sum(terms: np.ndarray, t_list, lo: int, hi: int) -> float:
    """Exactly rounded sum of ``terms[lo:hi]``; ``t_list`` is
    ``terms.tolist()`` when terms is too short for the numpy tree."""
    if t_list is not None:
        return math.fsum(t_list[lo:hi]) + 0.0
    return _fsum(terms[lo:hi])


def _sums(terms: np.ndarray, bounds) -> Iterator[float]:
    """Exactly rounded sum of each run ``terms[bounds[i]:bounds[i + 1]]``,
    computed when it is asked for."""
    b = list(bounds)
    t_list = terms.tolist() if terms.size < _TREE_MIN else None
    for lo, hi in zip(b, b[1:]):
        yield _run_sum(terms, t_list, lo, hi)


def ragged_sums(xs, offsets, mask=None) -> Iterator[float]:
    """Per run, the exactly rounded sum of xs over the entries of ``mask``
    (all entries when it is None)."""
    x = np.asarray(xs, dtype=np.float64)
    if mask is None:
        return _sums(x, np.asarray(offsets).tolist())
    return _sums(x[mask], _bounds(mask, offsets).tolist())


def sign_sums(xs, offsets) -> Iterator[tuple[float, float]]:
    """Per run, (sum of the positive entries, sum of the negative entries),
    each exactly rounded: the Hahn masses of a signed cell measure, the
    negative one with its sign."""
    x = np.asarray(xs, dtype=np.float64)
    return zip(ragged_sums(x, offsets, x > 0.0), ragged_sums(x, offsets, x < 0.0))


def pos_neg_dots(values, masses, offsets) -> Iterator[tuple[float, float]]:
    """Per run, (pos, neg): the positive- and negative-part integrals.

    pos sums v * m over the cells with v > 0, neg sums -v * m over the
    cells with v < 0.  Cells with zero mass contribute nothing whatever
    their value (0 * inf = 0); an infinite value on positive mass makes
    its part +inf.  Each run sums pos before neg.
    """
    v, m = _pair(values, masses)
    # the products are formed once: -(v * m) is (-v) * m exactly
    with np.errstate(over="ignore", invalid="ignore"):
        prod = v * m
    live = m != 0.0
    pos_cells = live & (v > 0.0)
    neg_cells = live & ~(v >= 0.0)  # v < 0, or NaN
    inf = np.isinf(v)
    runs = len(offsets) - 1
    pos_inf = neg_inf = [False] * runs
    if inf.any():
        pos_inf = (np.diff(_bounds(pos_cells & inf, offsets)) > 0).tolist()
        neg_inf = (np.diff(_bounds(neg_cells & inf, offsets)) > 0).tolist()
        pos_cells &= ~inf
        neg_cells &= ~inf
    pos = _sums(prod[pos_cells], _bounds(pos_cells, offsets).tolist())
    neg_terms = prod[neg_cells]
    neg = _sums(np.negative(neg_terms, out=neg_terms),
                _bounds(neg_cells, offsets).tolist())
    del prod, live, pos_cells, neg_cells, inf, neg_terms
    for p_inf, n_inf, p, n in zip(pos_inf, neg_inf, pos, neg):
        yield math.inf if p_inf else p, math.inf if n_inf else n


def pos_neg_dot(values, masses) -> tuple[float, float]:
    """``pos_neg_dots`` of one run."""
    v, m = _pair(values, masses)
    return next(pos_neg_dots(v, m, (0, v.size)))


def tail_dots(values, masses, offsets, ks) -> Iterator[np.ndarray]:
    """Per run, the tail row over a K grid: entry j sums |v| * m over the
    cells with |v| >= ks[j].

    The threshold is inclusive and ``ks`` may be in any order and repeat.
    Zero-mass cells contribute nothing, and an infinite |v| on positive
    mass at or above ks[j] makes entry j +inf.  The products are formed
    once, each threshold selects its cells in all runs at once, and each
    entry is an exactly rounded sum of its terms in cell order; a run
    whose sums fail raises the error of its first failing entry.
    """
    v, m = _pair(values, masses)
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 1:
        raise ValueError("ks must be a 1-d grid of thresholds")
    a = np.abs(v)
    live = m != 0.0
    inf = np.isinf(a)
    has_inf = (np.diff(_bounds(live & inf, offsets)) > 0).tolist()
    keep = live & ~inf
    a, m = a[keep], m[keep]
    with np.errstate(over="ignore"):
        terms = a * m
    runs = _bounds(keep, offsets)
    grid = ks.tolist()
    table = np.empty((runs.size - 1, len(grid)))
    failed: dict = {}
    for j, k in enumerate(grid):
        sel = a >= k
        t = terms[sel]
        t_list = t.tolist() if t.size < _TREE_MIN else None
        b = _bounds(sel, runs).tolist()
        for i in range(len(b) - 1):
            if i in failed:
                continue
            try:
                s = _run_sum(t, t_list, b[i], b[i + 1])
            except (OverflowError, ValueError) as exc:
                failed[i] = exc
                continue
            # an infinite |v| is >= every threshold but NaN
            table[i, j] = math.inf if has_inf[i] and math.inf >= k else s
    for i, row in enumerate(table):
        if i in failed:
            raise failed[i]
        yield row


def tail_dot(values, masses, ks) -> np.ndarray:
    """``tail_dots`` of one run."""
    v, m = _pair(values, masses)
    return next(tail_dots(v, m, (0, v.size), ks))
