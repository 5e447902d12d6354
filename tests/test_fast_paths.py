"""The array paths against the per-index and list-based code they stand
in for.

``dominates`` checks two whole families in ragged ``family_pairing``
passes; ``helpers.list_dominates`` checks one index by scalar evaluation,
and a loop over the indices must give the same verdict, or raise the
same error.  The ``dyadic_comb`` builder writes g_n's arrays once,
canonical and frozen; ``helpers.comb_g_oracle`` appends the dyadic cells
and the cliff for ``PiecewiseFn`` to merge, and the two must agree bit
for bit at every n of the fixture.  ``scenario.canonical_json``
dispatches on exact types; ``helpers.canonical_json_oracle`` keeps the
``isinstance`` chain with one ``json.dumps`` per string, and the two must
give the same string or the same error.  The lean construction checks of
``PiecewiseFn`` and ``FiniteMeasure`` must raise what
``helpers.piecewise_oracle`` and ``helpers.validate_measure_oracle``
raise, with the same message, or store the same arrays; the oracle
merges cells with ``helpers.canonicalize_oracle``.  A one-index pairing
reads a function's values as runs of its lookup table, and must give the
values of ``helpers.loop_pairing``: the function evaluated at every cell
and atom.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    FiniteMeasure, Interval, PiecewiseFn, canonical_json, dominates, gallery,
    parse_scenario, refinement,
)
from measure_limits.measures import AnalyticSegment, _exp2_mass
from measure_limits.xreal import MalformedObjectError

from helpers import (
    canonical_json_oracle, comb_g_oracle, fatou_random_document,
    list_dominates, loop_pairing, piecewise_oracle, validate_measure_oracle,
)
from strategies import families, picks, step_fns

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


#: per index of a lower family: the upper member capped by a value three
#: times in four, a member of its own (None) once in four
CAPS = [None] * len(VALUES) + VALUES * 3


def grid_fns(domain: Interval):
    return step_fns(domain, GRID, VALUES, 8)


@st.composite
def dominance_pairs(draw):
    """Two families of 1 to 20 indices on one domain.  Most lower members
    are capped copies of their upper ones, so that the first failing index
    can lie anywhere; one lower member may live on another domain."""
    domain = draw(st.sampled_from(DOMAINS))
    (us,) = draw(families(20, grid_fns(domain)))
    if draw(st.booleans()):
        return us, us
    ls = [draw(grid_fns(domain)) if cap is None
          else u.map_values(lambda v: np.minimum(v, cap), lambda d: min(d, cap))
          for u, cap in zip(us, picks(draw, CAPS, len(us)))]
    if draw(st.integers(0, 4)) == 0:
        other = draw(st.sampled_from([d for d in DOMAINS if d != domain]))
        ls[draw(st.integers(0, len(us) - 1))] = PiecewiseFn((), (), 0.0, other)
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
@given(dominance_pairs(), st.sampled_from([1, 9, 40, refinement.CHUNK_EDGES]))
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

@pytest.fixture(scope="module")
def comb_g():
    return gallery.build("dyadic_comb").g_seq.fns


@pytest.mark.parametrize("n", range(1, 21))
def test_comb_builder_matches_the_oracle(comb_g, n):
    # g_20's 2,097,154 breakpoints and values are compared as raw bytes,
    # signs of zero included; the edge 2.0 of the oracle merges away
    g, ref = comb_g[n - 1], comb_g_oracle(n)
    assert g.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert g.values.tobytes() == ref.values.tobytes()
    assert same(g.default, ref.default) and g.domain == ref.domain


def test_comb_builder_writes_canonical_frozen_arrays(comb_g):
    for n, g in enumerate(comb_g, start=1):
        # for n > 2, 2^(n+1) - 1 dyadic cells, [2 - 2^-n, n) and the cliff
        assert g.breakpoints.size == 2 ** (n + 1) + (2 if n > 2 else n)
        # the builder's own breakpoints and value table, kept without a
        # copy; the unbounded domain has the default at both table ends
        for a in (g.breakpoints, g.table):
            assert a.base is None and not a.flags.writeable
        assert g.values.base is g.table and g.table[[0, -1]].tolist() == [0.0, 0.0]
        assert (g.values[1:] != g.values[:-1]).all()
        assert g.values[0] != 0.0 and g.values[-1] != 0.0


# --- one-index value lookup --------------------------------------------------

OFF_GRID = [0.3, 0.7, -0.5, 1.5]


@st.composite
def one_index_rows(draw):
    """(fns, measures) of one index: one or two step functions, which may
    have no breakpoints, breakpoints on the domain ends or a thousand
    and more breakpoints, and at most one measure whose atoms sit on or
    off the grid of breakpoints and whose cell may cover several
    breakpoints."""
    domain = draw(st.sampled_from(DOMAINS))
    (fns,) = draw(families(2, grid_fns(domain)))
    if draw(st.integers(0, 3)) == 0:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        bp = np.unique(rng.uniform(0.0, 1.0, size=draw(st.integers(1100, 3000))))
        if draw(st.booleans()):
            bp[0], bp[-1] = 0.0, 1.0
        vals = rng.choice(VALUES, size=bp.size - 1)
        fns[0] = PiecewiseFn(bp, vals, draw(st.sampled_from(VALUES)), domain)
    measures = []
    if draw(st.booleans()) or len(fns) == 1:
        points = [x for x in GRID + OFF_GRID if domain.contains(x)]
        atoms = draw(st.lists(st.sampled_from(points), max_size=4, unique=True))
        cells = []
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2,
                                          max_size=2, unique=True)))
            cells = [(lo, hi, 1.5)]
        measures = [FiniteMeasure([(x, 0.25) for x in atoms], cells, (),
                                  domain)]
    return tuple(fns), tuple(measures)


@settings(max_examples=300, deadline=None)
@given(one_index_rows())
def test_one_index_values_match_the_pointwise_values(row):
    p = next(refinement.family_pairing([row]))
    for got, want in zip(p.values, loop_pairing(*row)[0]):
        assert same_array(got, want)


@pytest.mark.parametrize("n", [3, 12])
def test_comb_pairings_match_the_pointwise_values(comb_g, n):
    # f_n's two breakpoints against g_n's edges, and g_n against the
    # exp2 measure's segment ends
    sc = gallery.build("dyadic_comb", n_max=12)
    f, mu = sc.f_seq.fns[n - 1], sc.measures[n - 1]
    for row in (((f, comb_g[n - 1]), ()), ((comb_g[n - 1],), (mu,)),
                ((f,), (mu,))):
        p = next(refinement.family_pairing([row]))
        for got, want in zip(p.values, loop_pairing(*row)[0]):
            assert same_array(got, want)


FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308]))
JSON_SCALARS = st.one_of(
    st.text(), st.sampled_from(["é", "\u2028", '"', "\\", "\x00\x1f\x7f", "\ud800"]),
    st.integers(), st.sampled_from([2 ** 64, -(10 ** 300)]),
    st.booleans(), st.none(), FLOATS,
    FLOATS.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
KEYS = [st.text(), st.integers(), FLOATS, st.booleans()]


def json_trees(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(k, inner, max_size=4) for k in KEYS)),
        max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(json_trees(JSON_SCALARS))
def test_canonical_json_matches_the_oracle(value):
    assert outcome(canonical_json, value) == outcome(canonical_json_oracle,
                                                     value)


@settings(max_examples=200, deadline=None)
@given(json_trees(st.one_of(JSON_SCALARS, st.just(math.nan),
                            st.just(np.float64("nan")))))
def test_canonical_json_raises_on_nan_as_the_oracle(value):
    value = [value, {"x": math.nan}]
    got = outcome(canonical_json, value)
    assert got == outcome(canonical_json_oracle, value)
    assert got == (ValueError, "cannot serialize NaN in canonical JSON")


class Tag(str):
    pass


class Count(int):
    pass


class Share(float):
    pass


@pytest.mark.parametrize("value", [
    [Tag("é"), Count(3), Share(0.5), Share("inf"), {Tag("b"): 1, "a": 2}],
    np.array([1.5]), np.array(2), np.str_("x"), object(), {1, 2},
])
def test_canonical_json_writes_other_types_as_the_oracle(value):
    assert outcome(canonical_json, value) == outcome(canonical_json_oracle,
                                                     value)


BREAKS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 2.0,
                          math.nan, math.inf, -math.inf])
CELL_VALUES = st.sampled_from(VALUES + [math.nan])


@st.composite
def step_specs(draw):
    """Breakpoints as drawn, sorted or sorted without repeats, and one
    value per cell give or take one."""
    bp = draw(st.lists(BREAKS, max_size=6))
    bp = draw(st.sampled_from([bp, sorted(bp), sorted(set(bp))]))
    n = max(len(bp) - 1 + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
    vals = draw(st.lists(CELL_VALUES, min_size=n, max_size=n))
    return bp, vals, draw(CELL_VALUES), draw(st.sampled_from(DOMAINS))


def stored_fn(*spec):
    f = PiecewiseFn(*spec)
    return f.breakpoints, f.values, f.default


@settings(max_examples=500, deadline=None)
@given(step_specs())
def test_piecewise_checks_match_the_oracle(spec):
    want = outcome(piecewise_oracle, *spec)
    got = outcome(stored_fn, *spec)
    if isinstance(want[0], type):
        assert got == want
        return
    (bp, vals, default), (want_bp, want_vals, want_default) = got, want
    assert same_array(bp, want_bp) and same_array(vals, want_vals)
    assert same(default, want_default)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GRID), min_size=2, max_size=9, unique=True),
       st.data())
def test_merged_cells_match_the_oracle(bps, data):
    # few distinct values, so that neighbours, first and last cells
    # included, often repeat each other or the default
    vals = data.draw(st.lists(st.sampled_from([1.0, 0.0, -0.0]),
                              min_size=len(bps) - 1, max_size=len(bps) - 1))
    spec = (sorted(bps), vals, data.draw(st.sampled_from([0.0, 1.0, 2.0])),
            Interval(0.0, 1.0))
    (bp, vals, default), want = stored_fn(*spec), piecewise_oracle(*spec)
    assert same_array(bp, want[0]) and same_array(vals, want[1])


ENDS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 2.0,
                        math.nan, math.inf])
MASSES = st.sampled_from([0.0, 1.0, 2.5, -1.0, math.nan, math.inf])
#: segments under several names, so spans with equal ends order by name
SEGMENTS = [AnalyticSegment(name, lo, hi, _exp2_mass)
            for name in ("exp2", "a b", "a'b")
            for lo, hi in ((0.0, 0.5), (0.25, 1.0), (0.5, math.inf),
                           (0.0, 1.0), (-1.0, 0.5), (-0.0, 0.25))]


def stored_measure(m: FiniteMeasure):
    return (m.atom_locs, m.atom_weights, m.cell_los, m.cell_his,
            m.cell_densities, m.piece_edges(), m.segments)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(ENDS, MASSES), max_size=4),
       st.lists(st.tuples(ENDS, ENDS, MASSES), max_size=4),
       st.lists(st.sampled_from(SEGMENTS), max_size=2),
       st.sampled_from(DOMAINS))
def test_measure_validation_matches_the_oracle(atoms, cells, segments, domain):
    def build():
        return stored_measure(FiniteMeasure(atoms, cells, segments, domain))

    got = outcome(build)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteMeasure, "_validate", validate_measure_oracle)
        want = outcome(build)
    if isinstance(want[0], type):
        assert got == want
        return
    *arrays, segs = got
    *want_arrays, want_segs = want
    assert all(same_array(a, b) for a, b in zip(arrays, want_arrays))
    assert segs == want_segs


@pytest.mark.parametrize("cells, segments, message", [
    # equal spans order by their descriptions, -0.0 before 0.0
    ([(0.0, 1.0, 1.0), (-0.0, 1.0, 2.0)], [],
     "overlapping regions: cell [-0.0, 1.0) and cell [0.0, 1.0)"),
    ([(0.0, 0.5, 1.0)], [SEGMENTS[0]],
     "overlapping regions: cell [0.0, 0.5) and segment 'exp2' [0.0, 0.5)"),
    ([], [SEGMENTS[0], SEGMENTS[6]],
     "overlapping regions: segment 'a b' [0.0, 0.5) and "
     "segment 'exp2' [0.0, 0.5)"),
    ([(0.5, 2.0, 1.0)], [], "cell [0.5, 2.0) outside domain"),
])
def test_measure_validation_names_the_first_fault(cells, segments, message):
    with pytest.raises(MalformedObjectError) as lean:
        FiniteMeasure((), cells, segments, Interval(0.0, 1.0))
    assert str(lean.value) == message
