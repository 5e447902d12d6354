import math

import pytest

from measure_limits import (
    DomainMismatchError,
    FiniteMeasure,
    Interval,
    PiecewiseFn,
    lebesgue,
    point_mass,
)

from helpers import common_refinement

DOM = Interval(0.0, 1.0)


def test_union_of_breakpoints():
    f = PiecewiseFn([0.0, 1.0], [1.0], 5.0, DOM)
    g = PiecewiseFn([0.5, 1.0], [2.0], 5.0, DOM)
    p = common_refinement([f, g])
    assert list(p.edges) == [0.0, 0.5, 1.0]


def test_atom_and_cell_listed_separately():
    n = 8
    mu = point_mass(0.0, 1.0, DOM)
    mu_n = FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))], domain=DOM)
    p = common_refinement([mu, mu_n])
    assert list(p.atoms) == [0.0]
    assert 1.0 / n in list(p.edges)


def test_self_refinement_is_own_breakpoints():
    f = PiecewiseFn([0.25, 0.5, 0.75], [1.0, 2.0], 0.0, DOM)
    p = common_refinement([f, f])
    # own breakpoints plus the finite domain endpoints
    assert list(p.edges) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_domain_mismatch_rejected():
    f = PiecewiseFn([0.0, 1.0], [1.0], 0.0, DOM)
    g = PiecewiseFn([0.0, 1.0], [1.0], 0.0, Interval(0.0, 2.0))
    with pytest.raises(DomainMismatchError):
        common_refinement([f, g])


def test_unbounded_domain_edges_include_infinity():
    dom = Interval(0.0, math.inf)
    f = PiecewiseFn([3.0, 4.0], [-8.0], 0.0, dom)
    m = FiniteMeasure(cells=[(0.0, 1.0, 1.0)], domain=dom)
    p = common_refinement([f, m])
    assert p.edges[-1] == math.inf
    assert p.edges[0] == 0.0


def test_cell_masses_split_exactly():
    m = lebesgue(0.0, 1.0)
    f = PiecewiseFn([0.25, 0.75], [1.0], 0.0, DOM)
    p = common_refinement([f, m])
    masses = m.continuous_cell_masses(p.edges)
    assert masses.sum() == pytest.approx(1.0, abs=1e-15)
    assert masses[1] == pytest.approx(0.5, abs=1e-15)
