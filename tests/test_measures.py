import math

import numpy as np
import pytest

from measure_limits import (
    FiniteMeasure,
    Interval,
    MalformedObjectError,
    lebesgue,
    make_segment,
    point_mass,
)

from helpers import riemann_mass

LN2 = math.log(2.0)


def test_total_mass_shrinking_density():
    # density n on [0, 1/n] keeps unit mass for every n
    for n in (1, 3, 17, 64):
        m = FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))],
                          domain=Interval(0.0, 1.0))
        assert m.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_empty_measure():
    assert FiniteMeasure(domain=Interval(0.0, 1.0)).total_mass() == 0.0


def test_total_mass_exp2_segment():
    # closed-form antiderivative oracle: -2^-s/ln 2 over [0, inf)
    m = FiniteMeasure(segments=[make_segment("exp2", 0.0, math.inf)],
                      domain=Interval(0.0, math.inf))
    assert m.total_mass() == pytest.approx(1.0 / LN2, abs=1e-12)


def test_segment_mass_matches_riemann_oracle():
    seg = make_segment("exp2", 0.0, math.inf)
    for a, b in [(0.0, 1.0), (0.25, 2.5), (3.0, 8.0)]:
        exact = float(seg.mass(a, b))
        approx = riemann_mass(lambda s: np.exp2(-s), a, b)
        assert abs(exact - approx) <= 1e-6 * abs(exact)


def test_segment_mass_consistent_with_cdf_difference():
    seg = make_segment("exp2", 0.0, math.inf)
    for a, b in [(0.0, 0.5), (1.0, 1.0009765625), (10.0, 10.25)]:
        by_cdf = float(np.asarray(seg.cdf(b)) - np.asarray(seg.cdf(a)))
        assert float(seg.mass(a, b)) == pytest.approx(by_cdf, rel=1e-9)


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
    with pytest.raises(MalformedObjectError):
        make_segment("nope", 0.0, 1.0)


def test_atoms_may_sit_inside_cells():
    m = FiniteMeasure(atoms=[(0.5, 2.0)], cells=[(0.0, 1.0, 1.0)],
                      domain=Interval(0.0, 1.0))
    assert m.total_mass() == 3.0
    assert m.mass_of_interval(0.25, 0.75) == pytest.approx(2.5)


def test_mass_of_interval_endpoint_flags():
    m = point_mass(0.5, 1.0, Interval(0.0, 1.0))
    assert m.mass_of_interval(0.5, 0.7, lo_closed=True) == 1.0
    assert m.mass_of_interval(0.5, 0.7, lo_closed=False) == 0.0
    assert m.mass_of_interval(0.2, 0.5, hi_closed=True) == 1.0
    assert m.mass_of_interval(0.2, 0.5, hi_closed=False) == 0.0


def test_lebesgue_helper():
    m = lebesgue(-1.0, 1.0)
    assert m.total_mass() == 2.0
    assert m.mass_of_interval(-0.5, 0.25) == pytest.approx(0.75)
