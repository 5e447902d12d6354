"""The linear-time large-array paths against the code they stand in for.

Sums of 4,096 terms or more go through a certified numpy tree, a large
function's breakpoints are merged with the other edges instead of sorted
again, and the exp2 segment's cell masses are computed in place, block by
block.  ``helpers`` keeps the direct code: ``loop_*`` sums with
``math.fsum`` one cell at a time, ``unique_edges`` sorts with
``np.unique`` and ``exp2_mass`` is the closed form per cell.  Every
result must agree bit for bit, the sign of zero included, and so must
the ``OverflowError`` or ``ValueError`` that ``math.fsum`` raises.  The
tree and the exp2 chain run in blocks; both are checked at sizes at and
next to the block multiples.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measure_limits import (
    FiniteMeasure, Interval, PiecewiseFn, dominates, make_segment, refinement,
)
from measure_limits.kernels import (
    _TREE_BLOCK, _TREE_MIN, _TREE_RANGE, _tree_part, _tree_sum, comp_sum,
    pos_neg_dot, union_edges,
)
from measure_limits.measures import _EXP2_BLOCK, _exp2_mass

from helpers import (
    common_refinement, exp2_mass, list_dominates, loop_comp_sum,
    loop_pos_neg_dot, loop_tail_dot, tail_row, unique_edges,
)


def tree_sum(x: np.ndarray):
    """The tree's sum of the terms x, taken as one part."""
    return _tree_sum([_tree_part(x)])


TINY = 5e-324
HUGE = 2.0 ** 1023


def same(a, b) -> bool:
    """Equal floats with equal signs, or the same exception type."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and all(same(x, y) for x, y in zip(a.tolist(), b.tolist())))


def outcome(fn, *args):
    """fn(*args), or the type of the error math.fsum raised."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


# -- sums ----------------------------------------------------------------

#: Term sources: ordinary magnitudes, subnormals, near-overflow values,
#: signed zeros and infinities, and half-ulp steps around 1.
SOURCES = ("plain", "spread", "subnormal", "huge", "special", "tie")


def draw_terms(rng: np.random.Generator, n: int, weights) -> np.ndarray:
    kind = rng.choice(len(SOURCES), size=n, p=weights)
    out = np.empty(n)
    for i, name in enumerate(SOURCES):
        k = int(np.count_nonzero(kind == i))
        if name == "plain":
            part = rng.normal(size=k) * 10.0 ** rng.integers(-8, 9, size=k)
        elif name == "spread":
            part = rng.normal(size=k) * 10.0 ** rng.integers(-290, 290, size=k)
        elif name == "subnormal":
            part = rng.integers(-2 ** 20, 2 ** 20, size=k) * TINY
        elif name == "huge":
            part = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.0, size=k) * HUGE
        elif name == "special":
            part = rng.choice([0.0, -0.0, math.inf, -math.inf], size=k,
                              p=[0.4, 0.4, 0.1, 0.1])
        else:
            part = rng.choice([1.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -54,
                               3 * 2.0 ** -53], size=k)
        out[kind == i] = part
    return out


def draw_values(draw, n: int) -> np.ndarray:
    """n terms that mix the sources with drawn weights, some of them
    replaced by negated copies of others for cancellation.  Half the
    arrays leave out the near-overflow and non-finite sources and the
    cancellation, so that the tree can certify their sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clean = draw(st.booleans())
    raw = [0 if clean and name in ("huge", "special")
           else draw(st.sampled_from([0, 0, 1, 4])) for name in SOURCES]
    if not any(raw):
        raw[0] = 1
    values = draw_terms(rng, n, np.asarray(raw, dtype=float) / sum(raw))
    if not clean and draw(st.booleans()):
        k = int(rng.integers(0, n // 2 + 1))
        at = rng.choice(n, size=k, replace=False)
        values[rng.choice(n, size=k, replace=False)] = -values[at]
    return values


@st.composite
def term_arrays(draw):
    return draw_values(draw, draw(st.integers(64, 4096)))


@st.composite
def big_arrays(draw):
    """(values, masses, ks): arrays below the tree's size cut, or large
    enough that each part's terms pass it, masses that are often zero or
    subnormal, and thresholds at some |v|."""
    n = draw(st.one_of(st.integers(64, _TREE_MIN - 1),
                       st.integers(2 * _TREE_MIN, 2 * _TREE_MIN + 2048)))
    values = draw_values(draw, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masses = rng.uniform(0.0, 2.0, size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    masses[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if draw(st.booleans()):
        masses[rng.random(n) < 0.05] = TINY
    finite = np.abs(values[np.isfinite(values)])
    ks = [0.0, 1.0, math.inf, math.nan]
    if finite.size:
        ks += rng.choice(finite, size=min(4, finite.size)).tolist()
    return values, masses, ks


def padded(head, n: int = _TREE_MIN) -> np.ndarray:
    """``head`` followed by zeros up to n terms."""
    return np.concatenate([np.asarray(head, dtype=np.float64),
                           np.zeros(n - len(head))])


@settings(max_examples=300, deadline=None)
@given(term_arrays())
# finite terms whose sum passes the double range; inf + -inf
@example(padded([1e308] * 32 + [1.0] * 32, 64))
@example(padded([math.inf, -math.inf, 1.0], 64))
# exact half-ulp ties at 1.0, both ways of rounding, and just above one
@example(padded([1.0, 2.0 ** -54, 2.0 ** -54], 64))
@example(padded([1.0, 2.0 ** -53, 2.0 ** -54, 2.0 ** -54], 64))
@example(padded([1.0, 2.0 ** -53, 2.0 ** -200], 64))
# zeros of both signs, and total cancellation
@example(np.array([-0.0, 0.0] * 40))
@example(np.array([1e300, -1e300, 3.0, -3.0] * 20))
def test_tree_sum_is_fsum_or_defers(terms):
    # the tree runs on any size; where math.fsum raises, it must defer
    want = outcome(loop_comp_sum, terms.tolist())
    got = tree_sum(terms)
    assert got is None or same(got, want)


@settings(max_examples=60, deadline=None)
@given(big_arrays())
@example((padded([1e308] * 32 + [1.0] * 32), np.ones(_TREE_MIN), [1.0]))
@example((padded([math.inf, -math.inf, 1.0]), np.ones(_TREE_MIN), [1.0]))
@example((padded([1.0, 2.0 ** -53, 2.0 ** -200]), np.ones(_TREE_MIN), [0.0]))
@example((np.array([1e300, -1e300, 3.0, -3.0] * (_TREE_MIN // 4)),
          np.ones(_TREE_MIN), [0.0]))
def test_large_kernels_match_the_cell_loops_bit_for_bit(case):
    values, masses, ks = case
    terms = values.tolist()
    assert same(outcome(comp_sum, values), outcome(loop_comp_sum, terms))

    got = outcome(pos_neg_dot, values, masses)
    want = outcome(loop_pos_neg_dot, terms, masses.tolist())
    if isinstance(want, type):
        assert got is want
    else:
        assert same(got[0], math.inf if want[2] else want[0])
        assert same(got[1], math.inf if want[3] else want[1])

    got = outcome(lambda: tail_row(values, masses, ks).tolist())
    want = []
    for k in ks:
        row = outcome(loop_tail_dot, terms, masses.tolist(), k)
        if isinstance(row, type):
            want = row
            break
        want.append(math.inf if row[1] else row[0])
    if isinstance(want, type):
        assert got is want
    else:
        assert all(same(g, w) for g, w in zip(got, want))


def test_tree_sum_certifies_plain_sums_and_defers_the_rest():
    rng = np.random.default_rng(7)
    plain = rng.uniform(0.0, 1.0, size=5_000) * 10.0 ** rng.integers(-6, 7, size=5_000)
    assert tree_sum(plain) == math.fsum(plain.tolist())
    assert tree_sum(-plain) == math.fsum((-plain).tolist())
    # error-free sums need no bound: a power of two on many exact terms
    assert tree_sum(np.full(4096, 0.5)) == 2048.0
    # a non-finite term, partial sums near the double range and an exact
    # half-ulp tie are left to math.fsum
    assert tree_sum(np.append(plain, math.inf)) is None
    assert tree_sum(np.append(plain, 1e300)) is None
    assert tree_sum(np.array([1.0, 2.0 ** -53] + [0.0] * 62)) is None
    assert comp_sum(np.array([1.0, 2.0 ** -53] + [0.0] * 62)) == 1.0
    # past the tie by 2**-200, which the rounded error sum drops: the
    # bound keeps s + e from rounding to 1.0
    above = np.array([1.0, 2.0 ** -53, 2.0 ** -200] + [0.0] * 61)
    assert tree_sum(above) is None
    assert comp_sum(above) == 1.0 + 2.0 ** -52


#: Sizes around the tree's block multiples, and one block and a term.
BLOCK_SIZES = [k * _TREE_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@st.composite
def blocked_arrays(draw):
    """Terms as ``draw_values`` makes them, over a size at or next to a
    multiple of the tree's block, and sometimes scaled so that their
    largest magnitude times their count lies just below or just above
    ``_TREE_RANGE``."""
    n = draw(st.sampled_from(BLOCK_SIZES))
    values = draw_values(draw, n)
    scale = draw(st.sampled_from([None, None, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40]))
    top = float(np.max(np.abs(values)))
    if scale is not None and math.isfinite(top) and top > 0.0:
        # divided by top first: _TREE_RANGE / top overflows for a tiny top
        values /= top
        values *= (_TREE_RANGE / n) * scale
    return values


@settings(max_examples=40, deadline=None)
@given(blocked_arrays())
# total cancellation across blocks, and signed zeros in every block
@example(np.concatenate([np.full(_TREE_BLOCK, 1e300), np.full(_TREE_BLOCK, -1e300),
                         [3.0]]))
@example(np.tile([-0.0, 0.0], _TREE_BLOCK + 1))
# a half-ulp tie whose parts sit in different blocks
@example(padded([1.0, 2.0 ** -54], _TREE_BLOCK + 1)[::-1].copy())
def test_blocked_tree_sum_is_fsum_or_defers(terms):
    want = outcome(loop_comp_sum, terms.tolist())
    got = tree_sum(terms)
    assert got is None or same(got, want)
    assert same(outcome(comp_sum, terms), want)


def test_blocked_tree_sum_certifies_plain_sums_at_block_sizes():
    rng = np.random.default_rng(11)
    for n in BLOCK_SIZES:
        plain = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-6, 7, size=n)
        assert tree_sum(plain) == math.fsum(plain.tolist())
    # partial sums that may reach the double range go to math.fsum
    edge = np.full(2 * _TREE_BLOCK + 1, _TREE_RANGE / (2 * _TREE_BLOCK + 1))
    assert tree_sum(edge) is None
    # cancellation across blocks leaves a bound far wider than the result's
    # rounding: the tree does not certify it, and comp_sum is math.fsum's
    big = rng.uniform(1.0, 2.0, size=_TREE_BLOCK) * 1e12
    mixed = rng.permutation(np.concatenate([big, -big, [1e-3]]))
    assert tree_sum(mixed) is None
    assert comp_sum(mixed) == math.fsum(mixed.tolist()) == 1e-3


# -- edge unions -----------------------------------------------------------

DOMAINS = [Interval(-math.inf, math.inf), Interval(0.0, math.inf),
           Interval(-0.0, 1.0), Interval(-1.0, 1.0)]


@st.composite
def edge_sets(draw):
    """(domain, big, small): a strictly increasing breakpoint array of
    1,025-3,000 points inside the domain, and a few small points; zeros of
    either sign may sit in either, and the small points may all be in the
    big array already."""
    dom = draw(st.sampled_from(DOMAINS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = max(dom.lo, -1.0)
    n = draw(st.integers(1025, 3000))
    big = np.unique(rng.uniform(lo, 1.0, size=n))
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    if zero is not None and lo <= 0.0:
        big = np.unique(np.append(big[big != 0.0], zero))
    if draw(st.booleans()):
        small = rng.choice(big, size=int(rng.integers(1, 6)))
    else:
        small = rng.uniform(lo, 1.0, size=int(rng.integers(1, 6)))
        small = np.append(small, draw(st.sampled_from([[], [0.0], [-0.0], [1.0]])))
    return dom, big, np.unique(small)


@settings(max_examples=120, deadline=None)
@given(edge_sets())
def test_union_edges_matches_unique(case):
    dom, big, small = case
    ends = np.asarray([dom.lo, dom.hi])
    # a large piece is strictly increasing, as every caller's is;
    # midpoints land in every gap of the large piece, and a linspace puts
    # three values in its first gap
    for pieces in ([ends, big, small], [big, small, ends], [small, ends, big],
                   [big], [big, big[::7]],
                   [big, (big[1:] + big[:-1]) / 2, ends],
                   [np.linspace(big[0], big[1], 5), big, small]):
        assert same_array(union_edges(pieces), unique_edges(pieces))


@settings(max_examples=60, deadline=None)
@given(edge_sets(), st.sampled_from(["function", "measure"]))
def test_refinement_and_dominance_edges_match_unique(case, other):
    dom, big, small = case
    f = PiecewiseFn(big, np.linspace(-1.0, 1.0, big.size - 1), 0.0, dom)
    if other == "function":
        g = PiecewiseFn(small, np.arange(1.0, small.size), 0.0, dom) \
            if small.size > 1 else PiecewiseFn((), (), 0.25, dom)
        small_edges = g.breakpoints
    else:
        g = FiniteMeasure(atoms=[(float(x), 1.0) for x in small], domain=dom)
        small_edges = g.piece_edges()
    ends = np.asarray([dom.lo, dom.hi])
    p = common_refinement([f, g])
    assert same_array(p.edges, unique_edges([ends, f.breakpoints, small_edges]))
    if other == "function":
        seen = []

        def spy(pieces):
            seen.append((pieces, union_edges(pieces)))
            return seen[-1][1]

        # one index is refined by one union_edges call in refinement
        with mock.patch.object(refinement, "union_edges", side_effect=spy):
            got = dominates((f,), (g,))
        want_edges = unique_edges([ends, f.breakpoints, g.breakpoints])
        assert same_array(seen[0][1], want_edges)
        assert got == list_dominates(f, g)


# -- exp2 masses -----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0.0, math.inf), (-3.0, 40.0), (1000.0, math.inf)]),
       st.integers(2, 3000), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["uniform", "dyadic", "clustered"]))
def test_exp2_masses_in_place_match_the_closed_form(bounds, n, seed, layout):
    lo, hi = bounds
    rng = np.random.default_rng(seed)
    top = lo + 60.0 if math.isinf(hi) else hi
    if layout == "uniform":
        inner = rng.uniform(lo, top, size=n)
    elif layout == "dyadic":
        inner = lo + np.arange(1, n) * 2.0 ** -int(rng.integers(0, 40))
    else:
        # neighbouring doubles: widths of one ulp
        inner = np.nextafter(lo + 1.0, math.inf) + np.arange(n) * 2.0 ** -52
    edges = np.unique(np.concatenate([[lo, hi], inner[(inner > lo) & (inner < hi)]]))
    seg = make_segment("exp2", lo, hi)
    a, b = edges[:-1], edges[1:]
    want = exp2_mass(a, b)
    assert same_array(seg.mass_fn(a, b), want)
    m = FiniteMeasure(segments=[seg], domain=Interval(lo, hi))
    assert same_array(m.continuous_cell_masses(edges), want + 0.0)
    # one cell, as a one-interval mass_of_intervals asks for it, is the
    # closed form on scalars
    x, y = float(a[0]), float(b[0])
    assert same(float(seg.mass_fn(a[:1], b[:1])[0]), float(exp2_mass(x, y)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([k * _EXP2_BLOCK + d for k in (1, 2, 5) for d in (-1, 0, 1)]
                       + [1, 7]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_blocked_exp2_masses_match_the_closed_form(n, seed, strided):
    # sizes at and next to block multiples; strided ends as the comb
    # builder passes them
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(0.0, 60.0, size=2 * n + 1))
    edges[-1] = math.inf
    if strided:
        a, b = edges[0:-1:2], edges[1::2]
    else:
        a, b = edges[:n], edges[1:n + 1]
    assert same_array(_exp2_mass(a, b), exp2_mass(a, b))
