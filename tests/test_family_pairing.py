"""Ragged family passes against the per-index loops they replaced.

Every quantity that ``measure_limits`` reads off ``refinement.family_pairing``
is compared, bit for bit and error for error, with the per-index oracle in
``helpers``: the pairing arrays themselves, the integral series, the tail
rows, the total-variation series, the set-uniform gap and condition series
and the weak-gap bank.  The random families cover one to twenty indices,
infinite cell values, functions without breakpoints, atoms on edges and at
both domain ends, zero-density cells, exp2 segments on [0, inf) and edge
sets that hold both 0.0 and -0.0; the chunk budget is drawn too, so that
chunks of one index and chunks of many both occur.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    FiniteMeasure, FnSequence, Interval, MeasureSequence, NotIntegrableError,
    PiecewiseFn, Ramp, Scenario, UndefinedIntegralError,
    UnsupportedScenarioError, constant_fn, make_segment, tail_curve,
    weak_gap_bank,
)
from measure_limits import refinement
from measure_limits.fatou import _integral_series
from measure_limits.integration import default_bank, tv_series
from measure_limits.refinement import family_pairing
from measure_limits.refinement import reduce_family
from measure_limits.uniform import (
    _condition_series, _gap_rows, _hahn_sums, _uniform_report_body,
)

from helpers import (
    loop_condition_series, loop_gap_masses, loop_gap_series,
    loop_integral_series, loop_pairing, loop_tail_table, loop_tv_series,
    loop_weak_gaps,
)

FINITE = Interval(-1.0, 3.0)
HALF_LINE = Interval(0.0, math.inf)
# both zeros, so that refinements meet 0.0 and -0.0 together
POINTS = (-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0)
VALUES = (-3.0, -1.0, -0.0, 0.0, 0.5, 2.0, 1e300, math.inf, -math.inf)
WEIGHTS = (0.0, 0.25, 1.0, 2.0)
DENSITIES = (0.0, 0.5, 1.0, 3.0)
K_GRID = (0.5, 1.0, 2.0, 1e300)


def _distinct(xs) -> list[float]:
    """Sorted values of xs, each kept once (its first spelling of zero)."""
    out = []
    for x in xs:
        if x not in out:
            out.append(x)
    return sorted(out)


@st.composite
def step_fns(draw, domain: Interval) -> PiecewiseFn:
    pts = [x for x in POINTS if domain.lo <= x <= domain.hi]
    bps = _distinct(draw(st.lists(st.sampled_from(pts), max_size=6)))
    values = [draw(st.sampled_from(VALUES)) for _ in bps[1:]]
    return PiecewiseFn(bps, values, draw(st.sampled_from(VALUES)), domain)


@st.composite
def measures(draw, domain: Interval) -> FiniteMeasure:
    pts = [x for x in POINTS if domain.lo <= x <= domain.hi]
    segments, cell_top = [], domain.hi
    if math.isinf(domain.hi) and draw(st.booleans()):
        lo = draw(st.sampled_from((0.0, 1.0, 2.0)))
        segments.append(make_segment("exp2", lo, math.inf))
        cell_top = lo
    cuts = _distinct(draw(st.lists(
        st.sampled_from([x for x in pts if x <= cell_top]), max_size=5)))
    cells = [(a, b, draw(st.sampled_from(DENSITIES)))
             for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    locs = _distinct(draw(st.lists(st.sampled_from(pts), max_size=3)))
    atoms = [(x, draw(st.sampled_from(WEIGHTS))) for x in locs]
    return FiniteMeasure(atoms, cells, segments, domain)


@st.composite
def scenarios(draw, n_max=st.integers(1, 20)) -> Scenario:
    domain = draw(st.sampled_from((FINITE, HALF_LINE)))
    n = draw(n_max)
    fns = [draw(step_fns(domain)) for _ in range(n)]
    ms = [draw(measures(domain)) for _ in range(n)]
    return Scenario(
        name="ragged", measures=MeasureSequence(n, lambda i: ms[i - 1]),
        limit_measure=draw(measures(domain)),
        f_seq=FnSequence(n, lambda i: fns[i - 1]),
        limit_fn=draw(step_fns(domain)), k_grid=K_GRID)


chunk_budgets = st.sampled_from((1, 9, 40, refinement.CHUNK_EDGES))


def outcome(fn, *args):
    """A result as comparable bytes, or the exception's type and message."""
    try:
        return "ok", np.asarray(fn(*args), dtype=np.float64).tobytes()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def same_pairing(rows, budget):
    """Each index of the ragged pass equals its own refinement."""
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        chunks = list(family_pairing(iter(rows)))
    i = 0
    for p in chunks:
        for j in range(len(p)):
            lo, hi = p.offsets[j], p.offsets[j + 1]
            values, masses, cells = loop_pairing(*rows[i])
            assert p.n_cells[j] == cells
            assert not p.atom[lo:lo + cells].any()
            assert p.atom[lo + cells:hi].all()
            for got, want in zip(p.values, values):
                assert got[lo:hi].tobytes() == want.tobytes()
            for got, want in zip(p.masses, masses):
                assert got[lo:hi].tobytes() == want.tobytes()
            i += 1
    assert i == len(rows)


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_pairing_arrays_match_each_index_refined_alone(sc, budget):
    n = range(1, sc.n_max + 1)
    f, m = sc.limit_fn, sc.limit_measure
    fns = [sc.f_seq.fn(i) for i in n]
    ms = [sc.measures.measure(i) for i in n]
    same_pairing([((g,), (mu,)) for g, mu in zip(fns, ms)], budget)
    same_pairing([((), (mu, m)) for mu in ms], budget)
    same_pairing([((g, f), (mu, m)) for g, mu in zip(fns, ms)], budget)
    same_pairing([((g, f), (m,)) for g in fns], budget)


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_series_match_the_per_index_loops(sc, budget):
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        assert (outcome(_integral_series, sc.f_seq, sc.measures)
                == outcome(loop_integral_series, sc.f_seq, sc.measures))
        assert (outcome(lambda: tail_curve(sc.f_seq, sc.measures,
                                           K_GRID).table)
                == outcome(loop_tail_table, sc.f_seq, sc.measures, K_GRID))
        assert (outcome(lambda: list(tv_series(
            (sc.measures.measure(i) for i in range(1, sc.n_max + 1)),
            sc.limit_measure)))
                == outcome(loop_tv_series, sc.measures, sc.limit_measure))
        for i in (0, 1):
            assert (outcome(lambda: _condition_series(
                sc.f_seq, sc.limit_fn, sc.limit_measure, 0.5)[i])
                    == outcome(lambda: loop_condition_series(
                        sc.f_seq, sc.limit_fn, sc.limit_measure, 0.5)[i]))


def _loop_hahn(sc):
    """(positive, negative) sums of each index's signed gap masses."""
    out = []
    for n in range(1, sc.n_max + 1):
        gaps = loop_gap_masses(sc.f_seq.fn(n), sc.measures.measure(n),
                               sc.limit_fn, sc.limit_measure)
        out.append((math.fsum([g for g in gaps if g > 0.0]) + 0.0,
                    math.fsum([g for g in gaps if g < 0.0]) + 0.0))
    return out


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_hahn_masses_match_the_per_index_loop(sc, budget):
    n = range(1, sc.n_max + 1)
    rows = _gap_rows((sc.f_seq.fn(i) for i in n),
                     (sc.measures.measure(i) for i in n),
                     sc.limit_fn, sc.limit_measure)
    # without the report's L1 checks, infinite values reach the gap
    # masses, and inf - inf is NaN on both sides
    with mock.patch.object(refinement, "CHUNK_EDGES", budget), \
            np.errstate(invalid="ignore", over="ignore"):
        assert (outcome(lambda: list(reduce_family(rows, _hahn_sums)))
                == outcome(_loop_hahn, sc))


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_uniform_gap_series_match_the_per_index_loop(sc, budget):
    # the report body computes the gap series first; whatever it raises
    # there, the loop raises too, and otherwise both series agree
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        want_inf = outcome(lambda: loop_gap_series(sc)[0])
        want_sup = outcome(lambda: loop_gap_series(sc)[1])
        try:
            rep = _uniform_report_body(sc)
        except Exception as exc:
            if want_inf[0] != "ok":
                assert (type(exc), str(exc)) == want_inf
            return
        assert outcome(lambda: rep.series.inf_gaps) == want_inf
        assert outcome(lambda: rep.series.sup_gaps) == want_sup


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets, st.booleans())
def test_weak_gap_bank_matches_the_per_index_loop(sc, budget, mixed):
    bank = default_bank(sc.limit_measure)
    if mixed:
        # ramps and steps interleaved; the limit function may be unbounded
        bank = [Ramp((0.0, 1.0), (1.0, 0.0)),
                constant_fn(2.0, sc.limit_measure.domain),
                Ramp((0.25, 0.5, 1.0), (0.0, 1.0, 0.5)), sc.limit_fn]
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        assert (outcome(lambda: weak_gap_bank(sc.measures, sc.limit_measure,
                                              bank).gaps)
                == outcome(loop_weak_gaps, sc.measures, sc.limit_measure, bank))


# -- error order ---------------------------------------------------------------

DOM = Interval(0.0, 1.0)
UNIT = FiniteMeasure(atoms=[(0.25, 1.0), (0.75, 1.0)], domain=DOM)


def _family(fns, ms=None):
    n = len(fns)
    ms = ms or [UNIT] * n
    return (FnSequence(n, lambda i: fns[i - 1]),
            MeasureSequence(n, lambda i: ms[i - 1]))


def _overflowing():
    # two finite products whose sum passes the double range
    return PiecewiseFn([0.0, 0.5, 1.0], [1.5e308, 1.5e308], 0.0, DOM)


def _undefined():
    # +inf and -inf on positive mass: no integral
    return PiecewiseFn([0.0, 0.5, 1.0], [math.inf, -math.inf], 0.0, DOM)


@pytest.mark.parametrize("budget", [1, 9, refinement.CHUNK_EDGES])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_first_failing_index_decides_the_error(budget, k):
    ok = PiecewiseFn([0.0, 1.0], [1.0], 0.0, DOM)
    overflow_first = [ok] * (k - 1) + [_overflowing(), _undefined(), ok]
    undefined_first = [ok] * (k - 1) + [_undefined(), _overflowing(), ok]
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        with pytest.raises(OverflowError):
            _integral_series(*_family(overflow_first))
        with pytest.raises(UndefinedIntegralError):
            _integral_series(*_family(undefined_first))
        with pytest.raises(OverflowError):
            tail_curve(*_family(overflow_first), K_GRID)
    for fns in (overflow_first, undefined_first):
        assert (outcome(_integral_series, *_family(fns))
                == outcome(loop_integral_series, *_family(fns)))


def _uniform_scenario(bad_segments_at: int) -> Scenario:
    """f_2 is not integrable; the measure of index ``bad_segments_at``
    lacks the limit's exp2 segment."""
    dom = HALF_LINE
    exp2 = make_segment("exp2", 0.0, math.inf)
    with_seg = FiniteMeasure(atoms=[(0.5, 1.0)], segments=[exp2], domain=dom)
    without = FiniteMeasure(atoms=[(0.5, 1.0)], cells=[(0.0, 1.0, 1.0)],
                            domain=dom)
    fine = PiecewiseFn([0.0, 1.0], [1.0], 0.0, dom)
    spike = PiecewiseFn([0.0, 1.0], [math.inf], 0.0, dom)
    fns = [fine, spike, fine, fine]
    ms = [without if n == bad_segments_at else with_seg for n in range(1, 5)]
    return Scenario(name="order", measures=MeasureSequence(4, lambda n: ms[n - 1]),
                    limit_measure=with_seg,
                    f_seq=FnSequence(4, lambda n: fns[n - 1]), limit_fn=fine)


@pytest.mark.parametrize("budget", [1, refinement.CHUNK_EDGES])
@pytest.mark.parametrize("bad_segments_at, error", [
    (1, UnsupportedScenarioError),  # index 1's segments come before f_2
    (3, NotIntegrableError),        # f_2 comes before index 3's segments
])
def test_uniform_report_raises_in_index_order(budget, bad_segments_at, error):
    sc = _uniform_scenario(bad_segments_at)
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        with pytest.raises(error) as got:
            _uniform_report_body(sc)
    with pytest.raises(error) as want:
        loop_gap_series(_uniform_scenario(bad_segments_at))
    assert str(got.value) == str(want.value)
