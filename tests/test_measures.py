import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    AnalyticSegment,
    FiniteMeasure,
    Interval,
    MalformedObjectError,
    lebesgue,
    make_segment,
    point_mass,
)
from measure_limits.measures import _exp2_mass

from helpers import loop_mass_of_intervals
from helpers import riemann_mass

LN2 = math.log(2.0)


def seg_mass(seg, a: float, b: float) -> float:
    """The segment's mass of [a, b), for ends inside it."""
    return float(seg.mass_fn(np.array([a]), np.array([b]))[0])


def test_total_mass_shrinking_density():
    # density n on [0, 1/n] keeps unit mass for every n
    for n in (1, 3, 17, 64):
        m = FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))],
                          domain=Interval(0.0, 1.0))
        assert m.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_empty_measure():
    assert FiniteMeasure(domain=Interval(0.0, 1.0)).total_mass() == 0.0


def exp2_closed_form(a: float, b: float) -> float:
    """The exp2 mass of [a, b] by its antiderivative -2^-s / ln 2."""
    return (2.0 ** -a - 2.0 ** -b) / LN2


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (1.0, 2.0), (-2.0, -1.0),
                                    (-1.0, 1.0), (3.0, math.inf)])
def test_total_mass_exp2_segment(lo, hi):
    seg = make_segment("exp2", lo, hi)
    m = FiniteMeasure(segments=[seg], domain=Interval(-5.0, math.inf))
    assert seg.total == m.total_mass()
    assert m.total_mass() == pytest.approx(exp2_closed_form(lo, hi), rel=1e-15)
    # the total is the segment's mass of [lo, hi], the rule every pass uses
    assert seg.total == seg_mass(seg, lo, hi)


def test_segment_mass_matches_riemann_oracle():
    seg = make_segment("exp2", 0.0, math.inf)
    for a, b in [(0.0, 1.0), (0.25, 2.5), (3.0, 8.0)]:
        exact = seg_mass(seg, a, b)
        approx = riemann_mass(lambda s: np.exp2(-s), a, b)
        assert abs(exact - approx) <= 1e-6 * abs(exact)


def test_segment_mass_consistent_with_the_closed_form():
    seg = make_segment("exp2", -3.0, math.inf)
    for a, b in [(0.0, 0.5), (1.0, 1.0009765625), (10.0, 10.25),
                 (-3.0, -2.5), (-1.0, 1.0)]:
        assert seg_mass(seg, a, b) == pytest.approx(exp2_closed_form(a, b),
                                                    rel=1e-9)


def assert_no_negative_mass(a, b):
    masses = _exp2_mass(a, b)
    assert (masses >= 0.0).all() and not np.signbit(masses).any(), masses


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-1000.0, 1e300),
    st.one_of(st.just("inf"), st.just("ulp"), st.floats(5e-324, 1e300))),
    min_size=1, max_size=8))
def test_exp2_masses_are_never_negative_nor_minus_zero(cells):
    # a < b always: b is +inf, the next double, or a plus a positive width
    a = np.asarray([x for x, _ in cells])
    b = np.asarray([math.inf if w == "inf" else np.nextafter(x, math.inf)
                    if w == "ulp" else max(x + w, np.nextafter(x, math.inf))
                    for x, w in cells])
    assert (a < b).all()
    assert_no_negative_mass(a, b)


@pytest.mark.parametrize("lo", [0.0, 1074.0, 1075.0, 1100.0, 1e300])
def test_exp2_masses_stay_nonnegative_where_2_to_minus_a_underflows(lo):
    # past a = 1074, 2^-a is +0.0: the masses are +0.0, never -0.0; one
    # block of equal widths takes one expm1, one of one-ulp widths too
    a = lo + np.arange(3.0 * (1 << 16))
    ulp = np.nextafter(a, math.inf)
    for b in (np.maximum(a + 1.0, ulp), ulp, np.full(a.shape, math.inf)):
        assert (a < b).all()
        assert_no_negative_mass(a, b)
        assert_no_negative_mass(a[::2], b[::2])
    if lo >= 1075.0:
        assert not _exp2_mass(a, ulp).any()


def test_overlap_rejected_naming_both_cells():
    with pytest.raises(MalformedObjectError) as err:
        FiniteMeasure(cells=[(0.0, 2.0, 1.0), (1.0, 3.0, 1.0)],
                      domain=Interval(0.0, 3.0))
    assert "[0.0, 2.0)" in str(err.value) and "[1.0, 3.0)" in str(err.value)


def test_validation_errors():
    dom = Interval(0.0, 1.0)
    with pytest.raises(MalformedObjectError):
        FiniteMeasure(atoms=[(0.5, -1.0)], domain=dom)
    with pytest.raises(MalformedObjectError):
        FiniteMeasure(cells=[(0.5, 0.5, 1.0)], domain=dom)
    with pytest.raises(MalformedObjectError):
        FiniteMeasure(cells=[(0.0, 1.0, -2.0)], domain=dom)
    with pytest.raises(MalformedObjectError):
        FiniteMeasure(atoms=[(2.0, 1.0)], domain=dom)
    with pytest.raises(MalformedObjectError):
        FiniteMeasure(atoms=[(0.5, 1.0), (0.5, 2.0)], domain=dom)
    with pytest.raises(MalformedObjectError,
                       match=r"unknown segment 'nope'; known: \['exp2'\]"):
        make_segment("nope", 0.0, 1.0)


def test_atoms_may_sit_inside_cells():
    m = FiniteMeasure(atoms=[(0.5, 2.0)], cells=[(0.0, 1.0, 1.0)],
                      domain=Interval(0.0, 1.0))
    assert m.total_mass() == 3.0
    assert m.mass_of_intervals([0.25], [0.75], [False]) == pytest.approx(2.5)


def test_mass_of_interval_endpoint_flags():
    m = point_mass(0.5, 1.0, Interval(0.0, 1.0))
    assert m.mass_of_intervals([0.5], [0.7], [False]) == 1.0
    assert m.mass_of_intervals([0.2], [0.5], [True]) == 1.0
    assert m.mass_of_intervals([0.2], [0.5], [False]) == 0.0
    assert m.mass_of_intervals([0.5], [0.5], [True]) == 1.0
    # one hi flag per interval; an atom counts once per interval holding it
    assert m.mass_of_intervals([0.2, 0.5], [0.5, 0.7], [False, True]) == 1.0
    assert m.mass_of_intervals([0.2, 0.5], [0.5, 0.7], [True, False]) == 2.0
    assert m.mass_of_intervals([], [], []) == 0.0


def interval_mass(m: FiniteMeasure, bounds) -> float:
    """``mass_of_intervals`` of a list of (lo, hi, hi_closed)."""
    los, his, closed = ([b[k] for b in bounds] for k in range(3))
    return m.mass_of_intervals(los, his, closed)


# dyadic ends: interval ends land on atoms, cell ends and segment ends
ENDS = [k / 8 for k in range(-2, 19)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ENDS[2:-2]), max_size=4, unique=True),
       st.sampled_from([(), ((0.0, 0.5, 2.0), (0.75, 1.25, 0.3))]),
       st.booleans(),
       st.lists(st.tuples(st.sampled_from(ENDS), st.sampled_from(ENDS),
                          st.booleans()), max_size=6))
def test_mass_of_intervals_matches_one_interval_at_a_time(
        locs, cells, segment, bounds):
    m = FiniteMeasure(atoms=[(x, 0.1 + x) for x in locs], cells=cells,
                      segments=[make_segment("exp2", 1.5, 2.0)] if segment else [],
                      domain=Interval(-0.25, 2.25))
    assert (interval_mass(m, bounds).hex()
            == loop_mass_of_intervals(m, bounds).hex())


#: interval ends on, next to, inside and far past the segments below: past
#: 2000 an exp2 mass of ends outside a segment overflows to nan
SEG_ENDS = [-math.inf, -2000.0, -1.0, 0.0, 0.25, 1.0, math.nextafter(1.0, 2.0),
            1.5, 2.0, math.nextafter(3.0, 0.0), 3.0, 3.5, 8.0, 9.0, 2000.0,
            math.inf]
SEG_END = st.sampled_from(SEG_ENDS) | st.floats(-3.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.booleans(),
       st.sampled_from([None, (3.0, 8.0), (3.0, math.inf)]),
       st.lists(st.tuples(SEG_END, SEG_END, st.booleans()), max_size=8))
def test_segment_mass_of_intervals_matches_the_interval_loop(
        exp2_unit, middle, last, bounds):
    # [lo, hi] and [lo, inf) segments, one of them under a name of its
    # own; intervals inside, across and off them, empty and reversed
    segments = [make_segment("exp2", 0.0, 1.0)] if exp2_unit else []
    if middle:
        segments.append(AnalyticSegment("mid", 1.5, 3.0, _exp2_mass))
    if last is not None:
        segments.append(make_segment("exp2", *last))
    m = FiniteMeasure(atoms=[(0.5, 0.25), (3.0, 0.5), (9.0, 1.0)],
                      cells=[(-1.0, 0.0, 0.5)], segments=segments,
                      domain=Interval(-5.0, math.inf))
    assert (interval_mass(m, bounds).hex()
            == loop_mass_of_intervals(m, bounds).hex())


def test_lebesgue_helper():
    m = lebesgue(-1.0, 1.0)
    assert m.total_mass() == 2.0
    assert m.mass_of_intervals([-0.5], [0.25], [False]) == pytest.approx(0.75)
