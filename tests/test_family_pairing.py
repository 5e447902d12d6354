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
    FiniteMeasure, FnSequence, Interval, NotIntegrableError,
    PiecewiseFn, Ramp, Scenario, UndefinedIntegralError,
    UnsupportedScenarioError, constant_fn, make_segment,
    weak_gap_bank,
)
from measure_limits import refinement
from measure_limits.integration import default_bank, integral_series, tv_series
from measure_limits.measures import AnalyticSegment, _exp2_mass
from measure_limits.refinement import family_pairing
from measure_limits.refinement import reduce_family, replay
from measure_limits.uniform import (
    _condition_series, _gap_rows, _hahn_sums, uniform_report,
)

from helpers import (
    loop_condition_series, loop_gap_masses, loop_gap_series,
    loop_integral_series, loop_pairing, loop_tail_table, loop_tv_series,
    loop_weak_gaps, neg_parts,
)
from strategies import families, measures, picks, step_fns, subset

FINITE = Interval(-1.0, 3.0)
HALF_LINE = Interval(0.0, math.inf)
# both zeros, so that refinements meet 0.0 and -0.0 together
POINTS = (-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0)
VALUES = (-3.0, -1.0, -0.0, 0.0, 0.5, 2.0, 1e300, math.inf, -math.inf)
WEIGHTS = (0.0, 0.25, 1.0, 2.0)
DENSITIES = (0.0, 0.5, 1.0, 3.0)
K_GRID = (0.5, 1.0, 2.0, 1e300)


def fns_on(domain: Interval):
    return step_fns(domain, POINTS, VALUES, 5)


def measures_on(domain: Interval):
    # None leaves a cell out, as often as a density keeps it
    return measures(domain, POINTS, DENSITIES + (None,) * len(DENSITIES),
                    WEIGHTS, (0, 5), 3, segment_los=(0.0, 1.0, 2.0))


@st.composite
def scenarios(draw) -> Scenario:
    domain = draw(st.sampled_from((FINITE, HALF_LINE)))
    fns, ms = draw(families(20, fns_on(domain), measures_on(domain)))
    return Scenario(
        name="ragged", measures=tuple(ms),
        limit_measure=draw(measures_on(domain)),
        f_seq=FnSequence(tuple(fns)),
        limit_fn=draw(fns_on(domain)), k_grid=K_GRID)


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
        for j in range(p.offsets.size - 1):
            lo, hi = p.offsets[j], p.offsets[j + 1]
            values, masses, cells = loop_pairing(*rows[i])
            assert p.n_cells[j] == cells
            # the index's cells, then its atoms from offsets[j] + n_cells[j]
            atoms = lo + p.n_cells[j]
            for got, want in zip(p.values + p.masses, values + masses):
                assert got[lo:atoms].tobytes() == want[:cells].tobytes()
                assert got[atoms:hi].tobytes() == want[cells:].tobytes()
            i += 1
    assert i == len(rows)


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_pairing_arrays_match_each_index_refined_alone(sc, budget):
    f, m = sc.limit_fn, sc.limit_measure
    fns, ms = sc.f_seq.fns, sc.measures
    same_pairing([((g,), (mu,)) for g, mu in zip(fns, ms)], budget)
    same_pairing([((), (mu, m)) for mu in ms], budget)
    same_pairing([((g, f), (mu, m)) for g, mu in zip(fns, ms)], budget)
    same_pairing([((g, f), (m,)) for g in fns], budget)


def _halved_mass(a, b):
    return _exp2_mass(a, b) * 0.5


def _halved(lo: float, hi: float) -> AnalyticSegment:
    """A segment whose ``mass_fn`` is not exp2's, so that it ends a run."""
    return AnalyticSegment("half", lo, hi, _halved_mass)


@st.composite
def segmented_measures(draw) -> FiniteMeasure:
    """Measures on [0, inf) whose segments tile [start, inf) in one to
    four pieces, each exp2 or halved, so that neighbours share mass_fn or
    not; cells below start and atoms anywhere."""
    start = draw(st.sampled_from((0.0, 0.5, 1.0)))
    inner = [x for x in (0.5, 1.0, 2.0, 3.0) if x > start]
    ends = [start, *subset(draw, inner, draw(st.integers(0, min(3, len(inner))))),
            math.inf]
    segments = [make_segment("exp2", lo, hi) if exp2 else _halved(lo, hi)
                for lo, hi, exp2 in zip(ends, ends[1:],
                                        picks(draw, (True, False), len(ends) - 1))]
    cells = [(0.0, start, draw(st.sampled_from(DENSITIES)))] if start else []
    locs = subset(draw, [x for x in POINTS if x >= 0.0], draw(st.integers(0, 2)))
    return FiniteMeasure([(x, 1.0) for x in locs], cells, segments, HALF_LINE)


@settings(max_examples=100, deadline=None)
@given(families(8, fns_on(HALF_LINE), segmented_measures()), chunk_budgets)
def test_segment_runs_match_the_per_segment_loop(family, budget):
    # one mass_fn call per run of segments that share mass_fn over
    # adjacent cells, and a lone run over all cells as the masses
    # themselves, against one call per segment and index
    rows = list(zip(*family))
    same_pairing([((f,), (m,)) for f, m in rows], budget)
    same_pairing([((), (m, rows[0][1])) for _, m in rows], budget)


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_series_match_the_per_index_loops(sc, budget):
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        assert (outcome(lambda: list(integral_series(sc.f_seq.fns,
                                                     sc.measures)))
                == outcome(loop_integral_series, sc.f_seq, sc.measures))
        assert (outcome(lambda: sc.abs_tail_curve.table)
                == outcome(loop_tail_table, sc.abs_seq, sc.measures, K_GRID))
        assert (outcome(lambda: sc.neg_tail_curve.table)
                == outcome(loop_tail_table, neg_parts(sc), sc.measures, K_GRID))
        assert (outcome(lambda: list(tv_series(sc.measures,
                                               sc.limit_measure)))
                == outcome(loop_tv_series, sc.measures, sc.limit_measure))
        assert (outcome(_condition_series, sc.f_seq, sc.limit_fn,
                        sc.limit_measure, 0.5)
                == outcome(loop_condition_series, sc.f_seq, sc.limit_fn,
                           sc.limit_measure, 0.5))


def _loop_hahn(sc):
    """(positive, negative) sums of each index's signed gap masses."""
    out = []
    for f_n, m_n in zip(sc.f_seq.fns, sc.measures):
        gaps = loop_gap_masses(f_n, m_n, sc.limit_fn, sc.limit_measure)
        out.append((math.fsum([g for g in gaps if g > 0.0]) + 0.0,
                    math.fsum([g for g in gaps if g < 0.0]) + 0.0))
    return out


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_hahn_masses_match_the_per_index_loop(sc, budget):
    rows = _gap_rows(sc.f_seq.fns, sc.measures, sc.limit_fn,
                     sc.limit_measure)
    # without the report's L1 checks, infinite values reach the gap
    # masses, and inf - inf is NaN on both sides
    with mock.patch.object(refinement, "CHUNK_EDGES", budget), \
            np.errstate(invalid="ignore", over="ignore"):
        got = outcome(lambda: list(replay(reduce_family(rows, _hahn_sums)[0])))
        assert got == outcome(_loop_hahn, sc)


@settings(max_examples=100, deadline=None)
@given(scenarios(), chunk_budgets)
def test_uniform_gap_series_match_the_per_index_loop(sc, budget):
    # the report body computes the gap series first; whatever it raises
    # there, the loop raises too, and otherwise both series agree
    want = outcome(loop_gap_series, sc)
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        try:
            rep = uniform_report(sc)
        except Exception as exc:
            if want[0] != "ok":
                assert (type(exc), str(exc)) == want
            return
    assert outcome(lambda: (rep.series.inf_gaps, rep.series.sup_gaps)) == want


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
                                              bank))
                == outcome(loop_weak_gaps, sc.measures, sc.limit_measure, bank))


# -- error order ---------------------------------------------------------------

DOM = Interval(0.0, 1.0)
UNIT = FiniteMeasure(atoms=[(0.25, 1.0), (0.75, 1.0)], domain=DOM)


def _family(fns, ms=None):
    n = len(fns)
    ms = ms or [UNIT] * n
    return FnSequence(tuple(fns)), tuple(ms)


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
            list(integral_series(overflow_first, [UNIT] * len(overflow_first)))
        with pytest.raises(UndefinedIntegralError):
            list(integral_series(undefined_first, [UNIT] * len(undefined_first)))
        seq, ms = _family(overflow_first)
        with pytest.raises(OverflowError):
            Scenario("order", ms, UNIT, seq, k_grid=K_GRID).abs_tail_curve
    for fns in (overflow_first, undefined_first):
        assert (outcome(lambda: list(integral_series(fns, [UNIT] * len(fns))))
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
    return Scenario(name="order", measures=tuple(ms),
                    limit_measure=with_seg,
                    f_seq=FnSequence(tuple(fns)), limit_fn=fine)


@pytest.mark.parametrize("budget", [1, refinement.CHUNK_EDGES])
@pytest.mark.parametrize("bad_segments_at, error", [
    (1, UnsupportedScenarioError),  # index 1's segments come before f_2
    (3, NotIntegrableError),        # f_2 comes before index 3's segments
])
def test_uniform_report_raises_in_index_order(budget, bad_segments_at, error):
    sc = _uniform_scenario(bad_segments_at)
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        with pytest.raises(error) as got:
            uniform_report(sc)
    with pytest.raises(error) as want:
        loop_gap_series(_uniform_scenario(bad_segments_at))
    assert str(got.value) == str(want.value)
