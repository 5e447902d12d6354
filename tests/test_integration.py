import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    DomainMismatchError,
    FiniteMeasure,
    Interval,
    PiecewiseFn,
    Ramp,
    UndefinedIntegralError,
    UnsupportedScenarioError,
    constant_fn,
    integrate,
    lebesgue,
    make_segment,
    point_mass,
    weak_gap_bank,
    zero_fn,
)

from measure_limits import refinement
from measure_limits.integration import (
    _ramp_integrals, integral_series, tv_series,
)

from helpers import (
    loop_integrate,
    part,
    rand_atomic_measure,
    rand_measure,
    rand_step_fn,
)
from test_functions import step_fns

LN2 = math.log(2.0)
DOM = Interval(0.0, 1.0)


def exp2_measure():
    return FiniteMeasure(segments=[make_segment("exp2", 0.0, math.inf)],
                         domain=Interval(0.0, math.inf))


def comb_cliff(n):
    dom = Interval(0.0, math.inf)
    return PiecewiseFn([float(n), float(n + 1)], [-(2.0 ** n)], 0.0, dom)


def test_cliff_integral_is_constant():
    mu = exp2_measure()
    for n in range(1, 21):
        assert integrate(comb_cliff(n), mu) == pytest.approx(-1.0 / (2 * LN2),
                                                             abs=1e-12)


def test_zero_function_integrates_to_zero():
    assert integrate(zero_fn(DOM), lebesgue(0.0, 1.0)) == 0.0
    assert integrate(zero_fn(Interval(0.0, math.inf)), exp2_measure()) == 0.0


def test_default_value_covers_unlisted_region():
    # f = 7 everywhere via default, no explicit cells
    mu = exp2_measure()
    f = constant_fn(7.0, Interval(0.0, math.inf))
    assert integrate(f, mu) == pytest.approx(7.0 / LN2, rel=1e-14)


def test_integration_against_atoms_uses_point_values():
    m = point_mass(0.5, 2.0, DOM)
    f = PiecewiseFn([0.5, 1.0], [3.0], -1.0, DOM)
    assert integrate(f, m) == 6.0  # half-open cell owns its left edge


def test_one_sided_divergence_gives_signed_infinity():
    f = PiecewiseFn([0.0, 0.5], [-math.inf], 1.0, DOM)
    assert integrate(f, lebesgue(0.0, 1.0)) == -math.inf


def test_both_sides_divergent_raises():
    f = PiecewiseFn([0.0, 0.5, 1.0], [-math.inf, math.inf], 0.0, DOM)
    with pytest.raises(UndefinedIntegralError):
        integrate(f, lebesgue(0.0, 1.0))


def test_zero_mass_region_kills_infinite_value():
    f = PiecewiseFn([0.0, 0.5], [math.inf], 0.0, DOM)
    m = FiniteMeasure(cells=[(0.5, 1.0, 2.0)], domain=DOM)
    assert integrate(f, m) == 0.0


def test_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        integrate(zero_fn(DOM), lebesgue(0.0, 2.0))


@pytest.mark.parametrize("budget", [1, refinement.CHUNK_EDGES])
@pytest.mark.parametrize("k", [1, 3])
def test_series_yield_the_indices_before_a_domain_mismatch(budget, k):
    # the k-th of four measures lives on a wider domain; one family pass
    # checks every row's domains and raises at that index
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 3.0], 0.0, DOM)
    m = lebesgue(0.0, 1.0)
    ms = [m] * (k - 1) + [lebesgue(0.0, 2.0)] + [m] * (4 - k)
    with mock.patch.object(refinement, "CHUNK_EDGES", budget):
        for series, before in ((integral_series([f] * 4, ms), 2.0),
                               (tv_series(ms, m), 0.0)):
            assert [next(series) for _ in range(k - 1)] == [before] * (k - 1)
            with pytest.raises(DomainMismatchError):
                next(series)


def test_one_point_domain_without_atoms_integrates_to_zero():
    # the one-index pairing has a single edge and no cell there
    point = Interval(1.0, 1.0)
    assert integrate(constant_fn(2.0, point), FiniteMeasure(domain=point)) == 0.0


@settings(max_examples=120, deadline=None)
@given(step_fns())
def test_part_identity_exact_under_integration(f):
    m = lebesgue(0.0, 1.0)
    whole = integrate(f, m)
    pos = integrate(part(f, "positive"), m)
    neg = integrate(part(f, "negative"), m)
    assert whole == pos - neg  # bitwise: same products in the same order


@settings(max_examples=80, deadline=None)
@given(step_fns(), step_fns())
def test_monotonicity(f, g):
    m = lebesgue(0.0, 1.0)
    # build h = max(f, g) pointwise on the merged grid
    edges = np.unique(np.concatenate([f.breakpoints, g.breakpoints,
                                      [0.0, 1.0]]))
    vals = [max(f(x), g(x)) for x in edges[:-1]]
    h = PiecewiseFn(edges, vals, max(f.default, g.default), DOM)
    assert integrate(f, m) <= integrate(h, m) + 1e-12


def test_additive_over_disjoint_supports():
    m = lebesgue(0.0, 1.0)
    f = PiecewiseFn([0.0, 0.25], [4.0], 0.0, DOM)
    g = PiecewiseFn([0.5, 0.75], [-2.0], 0.0, DOM)
    combined = PiecewiseFn([0.0, 0.25, 0.5, 0.75], [4.0, 0.0, -2.0], 0.0, DOM)
    assert integrate(combined, m) == pytest.approx(
        integrate(f, m) + integrate(g, m), abs=1e-15)


def test_total_mass_equals_integral_of_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rand_measure(rng, DOM)
        assert integrate(constant_fn(1.0, DOM), m) == pytest.approx(
            m.total_mass(), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(step_fns(min_value=-20.0, max_value=20.0))
def test_against_the_cell_loop_oracle(f):
    m = lebesgue(0.0, 1.0)
    assert integrate(f, m) == loop_integrate(f, m)


def test_cell_loop_oracle_on_analytic_segment():
    mu = exp2_measure()
    f = comb_cliff(5)
    assert integrate(f, mu) == loop_integrate(f, mu)


# -- total variation ---------------------------------------------------------

def test_tv_identical_is_zero():
    m = lebesgue(0.0, 1.0)
    assert next(tv_series([m], m)) == 0.0


def test_tv_mutually_singular_unit_masses():
    mu = point_mass(0.0, 1.0, DOM)
    for n in (1, 4, 32):
        mu_n = FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))], domain=DOM)
        assert next(tv_series([mu_n], mu)) == 2.0


def test_tv_single_atom_difference():
    a = point_mass(0.0, 0.3, DOM)
    b = point_mass(0.0, 0.5, DOM)
    assert next(tv_series([a], b)) == pytest.approx(0.2, abs=1e-15)


def test_tv_symmetry_and_triangle_on_random_atomic_triples():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rand_atomic_measure(rng, DOM)
        b = rand_atomic_measure(rng, DOM)
        c = rand_atomic_measure(rng, DOM)
        ab, ba = next(tv_series([a], b)), next(tv_series([b], a))
        assert ab == ba
        assert next(tv_series([a], c)) <= ab + next(tv_series([b], c)) + 1e-12


# -- weak-gap bank ------------------------------------------------------------

def test_weak_gap_constant_family_is_zero():
    m = lebesgue(0.0, 1.0)
    seq = (m,) * 8
    bank = [constant_fn(1.0, DOM), Ramp((0.0, 1.0), (1.0, 0.0))]
    series = weak_gap_bank(seq, m, bank)
    assert series == (0.0,) * 8


def test_weak_gap_lipschitz_bound_for_shrinking_densities():
    mu = point_mass(0.0, 1.0, DOM)
    seq = tuple(FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))], domain=DOM)
                for n in range(1, 17))
    bank = [Ramp((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))]
    series = weak_gap_bank(seq, mu, bank)
    for n, g in enumerate(series, start=1):
        assert g <= 1.0 / (2 * n) + 1e-12


def test_weak_gap_witnesses_nonconvergence():
    dom = Interval(0.0, 2.0)
    seq = tuple(point_mass(1.0 / n, 1.0, dom) for n in range(1, 33))
    limit = point_mass(1.0, 1.0, dom)
    ramp = Ramp((0.0, 1.0), (1.0, 0.0))  # min(1, max(0, 1-x))
    series = weak_gap_bank(seq, limit, [ramp])
    assert series[-1] == pytest.approx(1.0 - 1.0 / 32, abs=1e-12)


def test_unbounded_bank_function_rejected():
    m = lebesgue(0.0, 1.0)
    seq = (m,) * 2
    bad = PiecewiseFn([0.0, 1.0], [math.inf], 0.0, DOM)
    with pytest.raises(UnsupportedScenarioError):
        weak_gap_bank(seq, m, [bad])


# -- ramps --------------------------------------------------------------------

def test_ramp_integration_exact_linear():
    # integral of (1 - s) over [0, 1] with density 2 is 2 * 1/2 = 1
    m = FiniteMeasure(cells=[(0.0, 1.0, 2.0)], domain=DOM)
    r = Ramp((0.0, 1.0), (1.0, 0.0))
    assert next(_ramp_integrals([r], [m])) == pytest.approx(1.0, abs=1e-15)


def test_ramp_integration_splits_at_nodes():
    m = lebesgue(0.0, 1.0)
    r = Ramp((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))  # hat, area 1/2
    assert next(_ramp_integrals([r], [m])) == pytest.approx(0.5, abs=1e-15)


def test_ramp_against_atoms():
    m = point_mass(0.25, 2.0, DOM)
    r = Ramp((0.0, 1.0), (0.0, 1.0))
    assert next(_ramp_integrals([r], [m])) == pytest.approx(0.5, abs=1e-15)


def test_ramp_varying_over_segment_rejected():
    mu = exp2_measure()
    r = Ramp((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(UnsupportedScenarioError):
        next(_ramp_integrals([r], [mu]))
    # constant-over-segment ramps are fine
    flat = Ramp((0.0, 1.0), (2.0, 2.0))
    assert next(_ramp_integrals([flat], [mu])) == pytest.approx(2.0 / LN2,
                                                                rel=1e-14)


def test_constant_ramp_over_an_exp2_segment_off_zero():
    # the segment term is the ramp's value times the segment's mass of
    # [1, 2], (2^-1 - 2^-2) / ln 2, as the step-function passes read it
    mu = FiniteMeasure(segments=[make_segment("exp2", 1.0, 2.0)],
                       domain=Interval(0.0, 3.0))
    one = Ramp((0.0, 3.0), (1.0, 1.0))
    assert next(_ramp_integrals([one], [mu])) == pytest.approx(0.25 / LN2,
                                                               rel=1e-14)
    assert next(_ramp_integrals([one], [mu])) == integrate(
        constant_fn(1.0, mu.domain), mu)
