import math

import numpy as np
import pytest

from measure_limits import (
    EpiCertificate,
    EpiSchedule,
    FiniteMeasure,
    FnSequence,
    Interval,
    PiecewiseFn,
    constant_fn,
    epi_integral,
    epi_limit_exists,
    lebesgue,
    point_mass,
    zero_fn,
)
from measure_limits import gallery
from measure_limits.xreal import ScheduleError

from helpers import constant_seq, epi_estimate, negated, rand_step_fn
from helpers import scan_columns

LN2 = math.log(2.0)
DOM = Interval(0.0, 1.0)


def sched_for(n_max, wstart=None):
    return EpiSchedule.default(n_max, wstart)


# -- schedules ----------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ScheduleError):
        EpiSchedule(((4, 0.5), (2, 0.25)), 8)     # N not increasing
    with pytest.raises(ScheduleError):
        EpiSchedule(((2, 0.25), (4, 0.5)), 8)     # delta not decreasing
    with pytest.raises(ScheduleError):
        EpiSchedule(((2, 0.5), (16, 0.25)), 8)    # exhausts the index range
    with pytest.raises(ScheduleError):
        EpiSchedule((), 8)


def test_default_schedule_caps_at_window():
    s = EpiSchedule.default(20, 13)
    ns = [n for n, _ in s.steps]
    assert ns[-1] == 13 and ns == sorted(set(ns))
    assert all(n <= 13 for n in ns)
    s2 = EpiSchedule.default(4)
    assert s2.steps[-1][0] <= 4


# -- pointwise evaluation -----------------------------------------------------

def test_constant_sequence_recovers_constant():
    seq = constant_seq(constant_fn(2.5, DOM), 8)
    est = epi_estimate(seq, 0.3, sched_for(8), True)
    assert est.value == 2.5
    assert epi_estimate(seq, 0.3, sched_for(8), False).value == 2.5


def test_comb_cliff_certificate_matches_the_stripped_scan():
    sc = gallery.build("dyadic_comb", n_max=8)
    bare = FnSequence(sc.f_seq.fns)
    for s in (0.0, 0.7, 3.2):
        # the cliffs march off every ball: the scan reads the certified 0
        est = epi_estimate(bare, s, sched_for(8), True)
        cert = epi_estimate(sc.f_seq, s, sched_for(8), True)
        assert est.value == cert.value == 0.0
        assert est.certainty == "window" and est.stabilized


def test_staircase_liminf_at_origin_is_minus_infinity():
    sc = gallery.build("staircase", n_max=16)
    est = epi_estimate(sc.f_seq, 0.0, sched_for(16), True)
    assert est.value == -math.inf and est.certainty == "exact"
    # windowed scan bottoms out at the truncated staircase floor
    bare = epi_estimate(FnSequence(sc.f_seq.fns), 0.0, sched_for(16), True)
    assert bare.value <= -(50.0)


def test_spike_window_scan_blows_up_at_origin():
    sc = gallery.build("twin_spikes", n_max=32)
    bare = FnSequence(sc.f_seq.fns)
    lo = epi_estimate(bare, 0.0, sched_for(32), True)
    hi = epi_estimate(bare, 0.0, sched_for(32), False)
    assert lo.value <= -32.0 + 1e-9
    assert hi.value >= 32.0 - 1e-9
    assert lo.certainty == "window"


def test_comb_teeth_liminf_tracks_exponential_envelope():
    sc = gallery.build("dyadic_comb", n_max=12)
    sched = sc.resolved_schedule()
    bare = FnSequence(sc.g_seq.fns)
    for s in (0.0, 0.5, 1.25, 1.9):
        est = epi_estimate(sc.g_seq, s, sched, True)
        assert est.value == pytest.approx(-(2.0 ** (s - 1.0)) / LN2, abs=2e-3)
        # windowed scan agrees within the final ball's envelope oscillation
        delta = sched.steps[-1][1]
        assert epi_estimate(bare, s, sched, True).value == pytest.approx(
            est.value, rel=2.0 ** delta - 1.0 + 1e-6)


def test_comb_teeth_limsup_is_zero():
    sc = gallery.build("dyadic_comb", n_max=12)
    sched = sc.resolved_schedule()
    bare = FnSequence(sc.g_seq.fns)
    for s in (0.0, 0.5, 1.25, 1.9):
        est = epi_estimate(sc.g_seq, s, sched, False)
        assert est.value == 0.0
        # plain teeth reach 0 in every ball
        assert epi_estimate(bare, s, sched, False).value == 0.0


def test_liminf_of_negation_mirrors_limsup():
    rng = np.random.default_rng(9)
    sched = sched_for(6)
    for _ in range(25):
        fns = [rand_step_fn(rng, DOM) for _ in range(6)]
        seq = FnSequence(tuple(fns))
        neg = FnSequence(tuple(negated(f) for f in fns))
        pts = rng.uniform(0, 1, 5)
        a = scan_columns(neg, pts, sched, True).tolist()
        b = scan_columns(seq, pts, sched, False).tolist()
        assert a == [[-x for x in row] for row in b]


def test_constant_in_n_step_fn_envelope():
    f = PiecewiseFn([0.0, 0.4, 1.0], [2.0, -1.0], 0.0, DOM)
    seq = constant_seq(f, 8)
    sched = sched_for(8)
    # interior of a cell: the cell value
    assert epi_estimate(seq, 0.2, sched, True).value == 2.0
    # breakpoint: min of adjacent cell values (oracle: neighborhood scan)
    assert epi_estimate(seq, 0.4, sched, True).value == -1.0
    assert epi_estimate(seq, 0.4, sched, False).value == 2.0


def test_schedule_exhaustion_reported():
    seq = constant_seq(zero_fn(DOM), 4)
    with pytest.raises(ScheduleError):
        epi_estimate(seq, 0.5, EpiSchedule(((2, 0.5), (8, 0.25)), 4), True)


# -- existence ----------------------------------------------------------------

def test_exists_spikes_fail_only_at_origin():
    sc = gallery.build("twin_spikes", n_max=32)
    grid = [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0]
    rep = epi_limit_exists(sc.f_seq, grid, sc.resolved_schedule(), 1e-9,
                           sc.limit_measure)
    fails = [p for p, ok in zip(rep.points, rep.point_ok) if not ok]
    assert fails == [0.0]
    assert rep.exception_mass == 0.0 and rep.mass_exact


def test_exists_constant_everywhere():
    seq = constant_seq(constant_fn(3.0, DOM), 8)
    rep = epi_limit_exists(seq, [0.0, 0.5, 1.0], sched_for(8), 1e-9,
                           lebesgue(0.0, 1.0))
    assert all(rep.point_ok) and rep.exception_mass == 0.0


def test_exists_comb_failure_mass_is_exact():
    sc = gallery.build("dyadic_comb", n_max=10)
    rep = epi_limit_exists(sc.g_seq, sc.resolved_grid(), sc.resolved_schedule(),
                           1e-9, sc.limit_measure)
    assert rep.mass_exact
    assert rep.exception_mass == pytest.approx(0.75 / LN2, abs=1e-9)


def test_exists_sampled_mass_isolated_vs_runs():
    # without certificates the mass estimate is sample-based
    dom = DOM
    fns = [PiecewiseFn([0.0, 0.5], [float(n % 2)], 0.0, dom) for n in range(8)]
    seq = FnSequence(tuple(fns))
    m = lebesgue(0.0, 1.0)
    rep = epi_limit_exists(seq, [0.1, 0.25, 0.4, 0.7, 0.9], sched_for(8),
                           1e-9, m)
    fails = [p for p, ok in zip(rep.points, rep.point_ok) if not ok]
    # oscillation lives on [0, 0.5); 0.7 also fails because its second-last
    # ball still grazes the oscillating region (conservative stabilization)
    assert fails == [0.1, 0.25, 0.4, 0.7]
    assert not rep.mass_exact
    assert 0.3 <= rep.exception_mass <= 0.75


def test_exists_counts_an_atom_on_a_shared_midpoint_once():
    # 0 and 1 fail, so each takes the half of [0, 1] next to it; the atom
    # on their shared midpoint belongs to one of the two halves
    dom = Interval(0.0, 2.0)
    fns = [PiecewiseFn([0.0, 1.0], [(-1.0) ** n], 0.0, dom) for n in range(8)]
    rep = epi_limit_exists(FnSequence(tuple(fns)), [0.0, 1.0, 2.0],
                           sched_for(8), 1e-9, point_mass(0.5, 1.0, dom))
    assert rep.point_ok[:2] == (False, False)
    assert rep.exception_mass == 1.0


#: cells of mass 1 and 1e-16 and an atom of 1e-16: the cells alone round
#: to 1.0, and adding the atom to that rounded sum leaves 1.0
TIES = FiniteMeasure(atoms=[(2.5, 1e-16)],
                     cells=[(0.0, 1.0, 1.0), (1.0, 2.0, 1e-16)],
                     domain=Interval(0.0, 3.0))


def test_certified_exception_mass_is_one_exactly_rounded_sum():
    dom = TIES.domain
    seq = FnSequence((zero_fn(dom),) * 4,
                     epi_liminf_cert=EpiCertificate(zero_fn(dom)),
                     epi_limsup_cert=EpiCertificate(constant_fn(1.0, dom)))
    rep = epi_limit_exists(seq, [0.5], sched_for(4), 1e-9, TIES)
    assert rep.mass_exact
    assert rep.exception_mass == math.fsum([1.0, 1e-16, 1e-16]) > 1.0


@pytest.mark.parametrize("m", [
    FiniteMeasure(cells=[(0.0, 0.5, 1.0)], domain=DOM),
    point_mass(0.25, 0.5, DOM),
])
def test_certified_cells_and_atoms_judge_infinities_alike(m):
    # liminf -inf against limsup 1.0 on [0, 0.5) disagrees at every
    # tolerance, on a cell as at an atom: an infinity is close only to
    # itself, also at tol = inf
    seq = FnSequence((zero_fn(DOM),) * 4,
                     epi_liminf_cert=EpiCertificate(
                         PiecewiseFn([0.0, 0.5], [-math.inf], 0.0, DOM)),
                     epi_limsup_cert=EpiCertificate(
                         PiecewiseFn([0.0, 0.5], [1.0], 0.0, DOM)))
    for tol in (1.0, math.inf):
        rep = epi_limit_exists(seq, [0.75], sched_for(4), tol, m)
        assert rep.mass_exact and rep.exception_mass == 0.5


def test_sampled_exception_mass_is_one_exactly_rounded_sum():
    # 0.25, 0.5 and 0.75 fail as a run and 3.5 alone: the run's middle
    # interval holds the cell's 1.0 and the atom at 0.5, the lone point
    # the atom at 3.5; rounding the run's interval first would drop both
    dom = Interval(0.0, 4.0)
    fns = [PiecewiseFn([0.0, 1.0, 3.0, 4.0], [(-1.0) ** n, 0.0, (-1.0) ** n],
                       0.0, dom) for n in range(8)]
    m = FiniteMeasure(atoms=[(0.5, 1e-16), (3.5, 1e-16)],
                      cells=[(0.375, 0.625, 4.0)], domain=dom)
    rep = epi_limit_exists(FnSequence(tuple(fns)), [0.25, 0.5, 0.75, 2.0, 3.5],
                           sched_for(8), 1e-9, m)
    assert rep.point_ok == (False, False, False, True, False)
    assert not rep.mass_exact
    assert rep.exception_mass == math.fsum([1.0, 1e-16, 1e-16]) > 1.0


# -- integrals ----------------------------------------------------------------

def test_epi_integral_comb_values():
    sc = gallery.build("dyadic_comb", n_max=10)
    sched, grid = sc.resolved_schedule(), sc.resolved_grid()
    v, cert = epi_integral(sc.g_seq, sc.limit_measure, "liminf", sched, grid)
    assert cert == "exact"
    assert v == pytest.approx(-1.0 / LN2, abs=1e-9)
    v, _ = epi_integral(sc.f_seq, sc.limit_measure, "liminf", sched, grid)
    assert v == 0.0
    v, _ = epi_integral(sc.g_seq, sc.limit_measure, "limsup", sched, grid)
    assert v == 0.0


def test_epi_integral_atom_override():
    sc = gallery.build("staircase", n_max=16)
    v, cert = epi_integral(sc.f_seq, sc.limit_measure, "liminf",
                           sc.resolved_schedule(), sc.resolved_grid())
    assert v == -math.inf and cert == "exact"


def test_epi_integral_window_path_tagged():
    rng = np.random.default_rng(31)
    fns = [rand_step_fn(rng, DOM) for _ in range(8)]
    seq = FnSequence(tuple(fns))
    v, cert = epi_integral(seq, lebesgue(0.0, 1.0), "liminf", sched_for(8),
                           np.linspace(0, 1, 17))
    assert cert == "window"
    assert math.isfinite(v)
