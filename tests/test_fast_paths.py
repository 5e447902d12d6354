"""The array paths against the per-index and list-based code they stand
in for.

``dominates`` checks two whole families in ragged ``family_pairing``
passes; ``helpers.list_dominates`` checks one index by scalar evaluation,
and a loop over the indices must give the same verdict, or raise the
same error.  The ``dyadic_comb`` builder assembles g_n from arrays;
``helpers.list_comb_g`` keeps the list-based code, and the two must agree
bit for bit, the sign of zero included.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    Interval, PiecewiseFn, dominates, gallery, parse_scenario, refinement,
)

from helpers import fatou_random_document, list_comb_g, list_dominates

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
def families(draw):
    """Two families of 1 to 20 indices on one domain.  Most lower members
    are capped copies of their upper ones, so that the first failing index
    can lie anywhere; one lower member may live on another domain."""
    domain = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(1, 20))
    us = [draw(step_fns(domain)) for _ in range(n)]
    if draw(st.booleans()):
        return us, us
    ls = []
    for u in us:
        if draw(st.integers(0, 3)):
            cap = draw(st.sampled_from(VALUES))
            ls.append(u.map_values(lambda v: np.minimum(v, cap),
                                   lambda d: min(d, cap)))
        else:
            ls.append(draw(step_fns(domain)))
    if draw(st.integers(0, 4)) == 0:
        other = draw(st.sampled_from([d for d in DOMAINS if d != domain]))
        ls[draw(st.integers(0, n - 1))] = PiecewiseFn((), (), 0.0, other)
    return us, ls


def outcome(fn, *args):
    """A verdict, or the error's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def loop_dominates(us, ls) -> bool:
    """Per-index reference for ``dominates``: the first index that fails
    or raises decides."""
    return all(list_dominates(u, l) for u, l in zip(us, ls))


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


# --- dominates ---------------------------------------------------------------

@pytest.mark.parametrize("upper, lower", [
    (a, b) for a in sorted(CASES) for b in sorted(CASES)
    if CASES[a].domain == CASES[b].domain])
def test_dominates_matches_the_list_oracle_on_fixed_cases(upper, lower):
    u, l = CASES[upper], CASES[lower]
    assert dominates((u,), (l,)) == list_dominates(u, l)


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from([1, 9, 40, refinement.CHUNK_EDGES]))
def test_dominates_matches_the_list_oracle(pair, budget):
    # a small chunk budget puts the first failing index past a chunk
    # boundary: a budget of 1 makes every index a chunk of its own
    us, ls = pair
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        assert outcome(dominates, us, ls) == outcome(loop_dominates, us, ls)


@pytest.mark.parametrize("name", [
    "dyadic_comb", "fading_plateau", "flat_negative", "shrinking_plateau",
    "staircase", "twin_spikes"])
@pytest.mark.parametrize("which", ["f >= g", "g >= |f|"])
def test_dominates_matches_the_list_oracle_on_fixtures(name, which):
    # the comb's g_n of 2^(n+1) cells are read point by point here
    sc = gallery.build(name, **({"n_max": 12} if name == "dyadic_comb" else {}))
    us, ls = ((sc.f_seq.fns, sc.g_seq.fns) if which == "f >= g"
              else (sc.g_seq.fns, sc.abs_seq.fns))
    for budget in (1, refinement.CHUNK_EDGES):
        with mock.patch.object(refinement, "CHUNK_EDGES", budget):
            assert dominates(us, ls) == loop_dominates(us, ls)


@pytest.mark.parametrize("seed", range(5))
def test_dominates_matches_the_list_oracle_on_documents(seed):
    doc = fatou_random_document(np.random.default_rng(seed))
    sc = parse_scenario(json.dumps(doc)).scenario
    f, g, abs_f = sc.f_seq.fns, sc.g_seq.fns, sc.abs_seq.fns
    for us, ls in ((f, g), (g, abs_f), (abs_f, f)):
        assert dominates(us, ls) == loop_dominates(us, ls)


# --- the comb builder --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_comb_builder_matches_the_list_oracle(n):
    g = gallery.build("dyadic_comb", n_max=8).g_seq.fns[n - 1]
    ref = list_comb_g(n)
    assert same_array(g.breakpoints, ref.breakpoints)
    assert same_array(g.values, ref.values)
    assert same(g.default, ref.default)
    assert g.domain == ref.domain
