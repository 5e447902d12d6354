"""The array fast paths against the list-based code they stand in for.

``PiecewiseFn.cell_values`` copies a function's own cell values when the
partition is its breakpoints plus the domain ends, ``dominates`` gathers
its representative points as arrays, and the ``dyadic_comb`` builder
assembles g_n from arrays.  ``helpers.list_dominates`` and
``helpers.list_comb_g`` keep the list-based code.  Every result must agree
bit for bit, the sign of zero included.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import Interval, PiecewiseFn, dominates, gallery

from helpers import list_comb_g, list_dominates

GRID = [k / 16 for k in range(17)]
VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.inf, -math.inf]
DOMAINS = [Interval(0.0, 1.0), Interval(-math.inf, math.inf),
           Interval(0.0, math.inf), Interval(-math.inf, 1.0)]


def same(a, b) -> bool:
    """Equal floats with equal signs, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and all(same(x, y) for x, y in zip(a.tolist(), b.tolist())))


def counted_cell_values(f: PiecewiseFn, edges: np.ndarray
                        ) -> tuple[np.ndarray, int]:
    """``f.cell_values(edges)`` and how many ``values_at`` calls it made."""
    with mock.patch.object(PiecewiseFn, "values_at", autospec=True,
                           side_effect=PiecewiseFn.values_at) as spy:
        out = f.cell_values(edges)
    return out, spy.call_count


def own_edges(f: PiecewiseFn) -> np.ndarray:
    """f's breakpoints and the domain ends, as ``common_refinement`` of f
    alone builds them."""
    dom = f.domain
    return np.unique(np.concatenate([[dom.lo, dom.hi], f.breakpoints]))


def assert_cell_values_match(f: PiecewiseFn, edges: np.ndarray,
                             fast: bool) -> None:
    out, calls = counted_cell_values(f, edges)
    assert same_array(out, f.values_at(edges[:-1]))
    assert calls == (0 if fast else 1)


def assert_dominates_matches(upper: PiecewiseFn, lower: PiecewiseFn) -> None:
    ok, witness = dominates(upper, lower)
    ref_ok, ref = list_dominates(upper, lower)
    assert ok == ref_ok
    if ref is None:
        assert witness is None
    else:
        assert all(same(getattr(witness, k), getattr(ref, k))
                   for k in ("lo", "hi", "upper_value", "lower_value"))


@st.composite
def step_fns(draw, domain: Interval):
    n_cells = draw(st.integers(0, 8))
    default = draw(st.sampled_from(VALUES))
    if n_cells == 0:
        return PiecewiseFn((), (), default, domain)
    bps = draw(st.lists(st.sampled_from(GRID), min_size=n_cells + 1,
                        max_size=n_cells + 1, unique=True))
    vals = draw(st.lists(st.sampled_from(VALUES), min_size=n_cells,
                         max_size=n_cells))
    return PiecewiseFn(sorted(bps), vals, default, domain)


@st.composite
def fn_pairs(draw):
    domain = draw(st.sampled_from(DOMAINS))
    return draw(step_fns(domain)), draw(step_fns(domain))


# --- cell_values -------------------------------------------------------------

INF = math.inf
CASES = {
    "inf values, -inf default": PiecewiseFn([0.25, 0.5, 0.75], [INF, -INF],
                                            -INF, Interval(0.0, 1.0)),
    "inf default": PiecewiseFn([0.25, 0.5], [-0.0], INF, Interval(0.0, 1.0)),
    "empty breakpoints": PiecewiseFn((), (), -0.0, Interval(0.0, 1.0)),
    "breakpoint on finite hi": PiecewiseFn([0.5, 1.0], [-INF], 2.0,
                                           Interval(0.0, 1.0)),
    "breakpoints on both ends": PiecewiseFn([0.0, 0.5, 1.0], [1.0, -0.0],
                                            3.0, Interval(0.0, 1.0)),
    "one cell on the closed domain": PiecewiseFn([0.0, 1.0], [1.0], -1.0,
                                                 Interval(0.0, 1.0)),
    "infinite hi": PiecewiseFn([0.0, 0.5, 2.0], [INF, -1.0], -0.0,
                               Interval(0.0, INF)),
    "infinite lo": PiecewiseFn([-2.0, 0.5, 1.0], [-1.0, INF], -INF,
                               Interval(-INF, 1.0)),
    "infinite both": PiecewiseFn([-2.0, 0.5], [-0.0], INF,
                                 Interval(-INF, INF)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cell_values_reads_own_cells_without_a_search(name):
    f = CASES[name]
    edges = own_edges(f)
    assert_cell_values_match(f, edges, fast=f.breakpoints.size > 0)
    if f.breakpoints.size:
        # the bare breakpoints, and either domain end alone, are own cells too
        assert_cell_values_match(f, f.breakpoints, fast=True)
        for end in (f.domain.lo, f.domain.hi):
            if end not in f.breakpoints:
                edges = np.unique(np.append(f.breakpoints, end))
                assert_cell_values_match(f, edges, fast=True)
        # a cell after a breakpoint on a finite domain.hi is that closed end
        if f.breakpoints[-1] == f.domain.hi:
            edges = np.append(f.breakpoints, f.domain.hi)
            assert_cell_values_match(f, edges, fast=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cell_values_falls_back_when_edges_merely_contain_the_breakpoints(
        name):
    f = CASES[name]
    extra = np.array([0.125, 0.625, 3.0])
    extra = extra[(extra > f.domain.lo) & (extra < f.domain.hi)]
    edges = np.unique(np.concatenate([own_edges(f), extra]))
    assert_cell_values_match(f, edges, fast=False)
    # a single interior point is enough to leave the fast path
    assert_cell_values_match(f, np.unique(np.append(own_edges(f), 0.375)),
                             fast=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cell_values_equals_values_at_on_any_edge_set(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    f = data.draw(step_fns(domain))
    own = own_edges(f)
    assert_cell_values_match(f, own, fast=f.breakpoints.size > 0)
    extra = data.draw(st.lists(st.sampled_from(GRID), min_size=1,
                               max_size=6))
    edges = np.unique(np.concatenate([own, extra]))
    assert_cell_values_match(
        f, edges, fast=f.breakpoints.size > 0 and edges.size == own.size)
    # dominates closes its representative points with domain.hi, which
    # repeats a finite domain.hi
    closed = np.append(edges, domain.hi)
    assert same_array(f.cell_values(closed), f.values_at(edges))


# --- dominates ---------------------------------------------------------------

@pytest.mark.parametrize("upper, lower", [
    (a, b) for a in sorted(CASES) for b in sorted(CASES)
    if CASES[a].domain == CASES[b].domain])
def test_dominates_matches_the_list_oracle_on_fixed_cases(upper, lower):
    assert_dominates_matches(CASES[upper], CASES[lower])


@settings(max_examples=400, deadline=None)
@given(fn_pairs())
def test_dominates_matches_the_list_oracle(pair):
    f, g = pair
    for upper, lower in ((f, g), (g, f), (f, f)):
        assert_dominates_matches(upper, lower)


# --- the comb builder --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_comb_builder_matches_the_list_oracle(n):
    g = gallery.build("dyadic_comb", n_max=8).g_seq.fns[n - 1]
    ref = list_comb_g(n)
    assert same_array(g.breakpoints, ref.breakpoints)
    assert same_array(g.values, ref.values)
    assert same(g.default, ref.default)
    assert g.domain == ref.domain
