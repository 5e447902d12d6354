"""Reduction kernels over aligned cell-value / cell-mass arrays, and the
sorted union of edge arrays that refinements are built on.

Each kernel gathers its terms by the indices of a sign or threshold
test, forms their products in numpy and adds them exactly rounded: every
sum equals ``math.fsum`` of the same terms, so its value does not depend
on the order of the terms.  Arrays of fewer than 4,096 terms go to
``math.fsum`` directly.  Larger ones are added in numpy by a tree of
error-free (TwoSum) levels, over cache-sized blocks, whose rounding
errors are summed with a proven bound; when that bound cannot certify
the rounded result, or a term is not finite, or partial sums could come
near the double range, the terms go to ``math.fsum`` in cell order
instead.  So
``OverflowError`` for a finite sum past the double range, ``ValueError``
for inf + -inf and inf results are ``math.fsum``'s own.

Every kernel takes ragged arrays: the ``offsets`` of a family pairing
split them into one run of cells per index (see
``refinement.family_pairing``), the gathers and products are formed once
for all the runs, and the per-index sums are computed as the caller asks
for them, so a caller that reduces index by index raises at the first
index that fails.  ``pos_neg_dot`` is the one-run call of ``pos_neg_dots``.
Refinements can reach millions of cells; ``perfbench/`` times the kernels
inside end-to-end runs.  ``pos_neg_parts`` levels the terms of one run
given in parts, a step function's cell blocks, each released in turn.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

#: Arrays below this many terms are summed by ``math.fsum`` alone: the
#: tree's numpy calls per level cost more than ``math.fsum`` on fewer
#: terms (they break even near 3,000 terms).
_TREE_MIN = 4096
#: The tree runs its levels over blocks of this many terms (1 MiB).
_TREE_BLOCK = 1 << 17
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


def _tree_levels(x: np.ndarray, bufs) -> tuple[float, float, float]:
    """(last level's value, float sums of the errors and of |errors|) of
    one block; two of the four half-block ``bufs`` rows take turns
    holding a level's sums, two hold its errors."""
    err_sum = err_abs = 0.0
    sums, spare, b_buf, err_buf = bufs
    while x.size > 1:
        h = x.size // 2
        a, b = x[:h], x[h:2 * h]
        s = sums[:x.size - h]
        top = np.add(a, b, out=s[:h])
        if x.size & 1:
            s[h] = x[-1]
        b_virtual = np.subtract(top, a, out=b_buf[:h])
        err = np.subtract(top, b_virtual, out=err_buf[:h])
        np.subtract(a, err, out=err)
        np.subtract(b, b_virtual, out=b_virtual)
        err += b_virtual
        err_sum += float(err.sum())
        err_abs += float(np.abs(err, out=err).sum())
        x, sums, spare = s, spare, sums
    return float(x[0]), err_sum, err_abs


def _tree_part(x: np.ndarray) -> tuple:
    """(count, largest magnitude, ``_tree_levels`` of each block) of the
    terms x; no levels when the terms are not finite or reach the range."""
    top = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not top * x.size < _TREE_RANGE:  # NaN too
        return x.size, math.inf, []
    bufs = np.empty((4, (min(x.size, _TREE_BLOCK) + 1) // 2))
    return x.size, top, [_tree_levels(x[i:i + _TREE_BLOCK], bufs)
                         for i in range(0, x.size, _TREE_BLOCK)]


def _tree_sum(parts: list) -> float | None:
    """The correctly rounded sum of the terms of the ``_tree_part``s
    ``parts``, or None when it is not certified.

    Each level of a block of 2**17 terms (1 MiB, in cache) adds its two
    halves with TwoSum, which also yields the exact rounding error of
    every addition, so the exact sum is the sum of the blocks' last
    values s_i plus the sum E of all errors.  The errors are added to e,
    with |E - e| <= b for b = 2 n u * sum|err| (u = 2**-53) over all n
    terms, a bound that holds for any order of summation and any parts.
    Rounding is monotone, so when ``math.fsum`` of the s_i and e - b, and
    of the s_i and e + b, each rounded outwards first, give the same
    double, that double is the rounded exact sum: the value ``math.fsum``
    gives.
    """
    counts, tops, levels = zip((0, 0.0, ()), *parts)
    n = sum(counts)
    if not max(tops) * n < _TREE_RANGE:
        return None
    sums, errs, abss = zip((0.0, 0.0, 0.0), *(x for ls in levels for x in ls))
    err_abs = math.fsum(abss)
    if err_abs == 0.0:
        return math.fsum(sums) + 0.0
    err_sum = math.fsum(errs)
    bound = err_abs * (n * 2.0 ** -52) + 5e-324
    lo = math.fsum((*sums, math.nextafter(err_sum - bound, -math.inf)))
    hi = math.fsum((*sums, math.nextafter(err_sum + bound, math.inf)))
    return lo + 0.0 if lo == hi else None


def _fsum(terms: np.ndarray) -> float:
    if terms.size >= _TREE_MIN:
        s = _tree_sum([_tree_part(terms)])
        if s is not None:
            return s
    return math.fsum(terms.tolist()) + 0.0


def comp_sum(xs) -> float:
    """Exactly rounded sum of a 1-d float array: ``math.fsum`` of it."""
    return _fsum(np.asarray(xs, dtype=np.float64))


def union_edges(pieces) -> np.ndarray:
    """Sorted distinct values of several edge arrays: bit for bit
    ``np.unique(np.concatenate(pieces))``.

    A piece of more than 1,024 entries must be strictly increasing, as
    the breakpoints, cell ends, segment ends and atom locations that
    ``PiecewiseFn`` and ``FiniteMeasure`` validate are; this is not
    checked.  The other values are then deduplicated on their own and
    written with slice copies of the largest piece between their
    ``searchsorted`` positions, so that piece is copied once and never
    sorted.  Smaller inputs go to ``np.unique``, and so does one that
    holds both 0.0 and -0.0: which of the two ``np.unique`` keeps depends
    on its sort and on the order of the pieces.
    """
    if max(map(len, pieces)) <= _MERGE_MIN:
        return np.unique(np.concatenate(pieces))
    pieces = [np.asarray(p, dtype=np.float64) for p in pieces]
    i = max(range(len(pieces)), key=lambda k: pieces[k].size)
    big = pieces[i]
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
    # the k-th new value goes to at + k, after the run of big before it
    out = np.empty(big.size + int(new.sum()))
    src = 0
    for k, (a, v) in enumerate(zip(at[new].tolist(), rest[new].tolist())):
        out[src + k:a + k] = big[src:a]
        out[a + k], src = v, a
    out[src + out.size - big.size:] = big[src:]
    return out


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
    idx = mask.nonzero()[0]
    return _sums(x.take(idx), idx.searchsorted(offsets).tolist())


def sign_sums(xs, offsets) -> Iterator[tuple[float, float]]:
    """Per run, (sum of the positive entries, sum of the negative entries),
    each exactly rounded: the Hahn masses of a signed cell measure, the
    negative one with its sign."""
    x = np.asarray(xs, dtype=np.float64)
    return zip(ragged_sums(x, offsets, x > 0.0), ragged_sums(x, offsets, x < 0.0))


def _drop_inf(v, mask, offsets) -> tuple[np.ndarray, list]:
    """The indices of the entries of ``mask`` whose value is not infinite,
    and per run whether an entry of ``mask`` holds an infinite value."""
    idx = mask.nonzero()[0]
    inf = np.isinf(v.take(idx))
    return idx[~inf], (np.diff(idx[inf].searchsorted(offsets)) > 0).tolist()


def _part_terms(v, m, offsets) -> tuple:
    """Positive part, then negative: its terms v * m or -v * m, their run
    bounds, and per run whether an infinite value on positive mass makes
    the part +inf."""
    pos_inf = neg_inf = [False] * (len(offsets) - 1)
    # a finite value on a zero-mass cell adds a zero term, which leaves an
    # exactly rounded sum as it is; an infinite or NaN one is left out
    if v.size and not (math.isfinite(np.minimum.reduce(v))
                       and math.isfinite(np.maximum.reduce(v))):
        pos, pos_inf = _drop_inf(v, (m != 0.0) & (v > 0.0), offsets)
        # v < 0, or NaN
        neg, neg_inf = _drop_inf(v, (m != 0.0) & ~(v >= 0.0), offsets)
    else:
        pos, neg = (v > 0.0).nonzero()[0], (v < 0.0).nonzero()[0]
    # -(v * m) is (-v) * m exactly
    with np.errstate(over="ignore", invalid="ignore"):
        pos_terms = v.take(pos)
        pos_terms *= m.take(pos)
        neg_terms = v.take(neg)
        neg_terms *= m.take(neg)
    return ((pos_terms, pos.searchsorted(offsets).tolist(), pos_inf),
            (np.negative(neg_terms, out=neg_terms),
             neg.searchsorted(offsets).tolist(), neg_inf))


def pos_neg_dots(values, masses, offsets) -> Iterator[tuple[float, float]]:
    """Per run, (pos, neg): the positive- and negative-part integrals.

    pos sums v * m over the cells with v > 0, neg sums -v * m over the
    cells with v < 0.  Cells with zero mass contribute nothing whatever
    their value (0 * inf = 0); an infinite value on positive mass makes
    its part +inf.  Each run sums pos before neg.
    """
    (pt, pb, pos_inf), (nt, nb, neg_inf) = _part_terms(
        *_pair(values, masses), offsets)
    for p_inf, n_inf, p, n in zip(pos_inf, neg_inf, _sums(pt, pb),
                                  _sums(nt, nb)):
        yield math.inf if p_inf else p, math.inf if n_inf else n


def pos_neg_parts(parts) -> tuple[float, float]:
    """``pos_neg_dot`` of the (values, masses) blocks that ``parts()``
    yields: each block's terms join one tree per part and are released; a
    part the bound cannot certify is ``math.fsum`` of its terms anew."""
    trees, inf = ([], []), [False, False]
    for v, m in parts():
        for k, (terms, _, flag) in enumerate(_part_terms(v, m, (0, v.size))):
            trees[k].append(_tree_part(terms))
            inf[k] |= flag[0]
    out = [_tree_sum(t) for t in trees]
    for k in (0, 1):
        if out[k] is None:
            out[k] = math.fsum(x for v, m in parts() for x in
                               _part_terms(v, m, (0, v.size))[k][0].tolist())
        out[k] = math.inf if inf[k] else out[k] + 0.0
    return out[0], out[1]


def pos_neg_dot(values, masses) -> tuple[float, float]:
    """``pos_neg_dots`` of one run."""
    return next(pos_neg_dots(values, masses, (0, len(values))))


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
    keep, has_inf = _drop_inf(v, m != 0.0, offsets)
    a = np.abs(v.take(keep))
    with np.errstate(over="ignore"):
        terms = a * m.take(keep)
    runs = keep.searchsorted(offsets).tolist()
    del keep
    grid = ks.tolist()
    table = np.empty((len(runs) - 1, len(grid)))
    failed: dict = {}
    for j, k in enumerate(grid):
        sel = (a >= k).nonzero()[0]
        t = terms.take(sel)
        t_list = t.tolist() if t.size < _TREE_MIN else None
        b = sel.searchsorted(runs).tolist()
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
