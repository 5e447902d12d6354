"""Cross-cutting structural invariants, mostly randomized.

These are the properties the limit-theorem machinery leans on; the
acceptance suite re-runs the headline ones at full scale.
"""

import math

import numpy as np
import pytest

from measure_limits import (
    FnSequence,
    Interval,
    PiecewiseFn,
    Scenario,
    integrate,
    lebesgue,
)
from measure_limits.epilimits import EpiSchedule
from measure_limits.integration import tv_series
from measure_limits.fatou import fatou_report
from measure_limits.tails import curve_of

from helpers import (
    epi_estimate,
    fatou_random_scenario,
    masses_extrema,
    part,
    rand_atomic_measure,
    rand_measure,
    rand_step_fn,
    range_on,
)

DOM = Interval(0.0, 1.0)


def random_seq(rng, n_max=8):
    fns = [rand_step_fn(rng, DOM) for _ in range(n_max)]
    return FnSequence(tuple(fns))


def abs_tail_curve(seq, measures, k_grid, window_start: int):
    """The scenario's tail curve of the |f_n|, aggregated over the
    trailing window from window_start."""
    sc = Scenario("random", measures, measures[0], seq, k_grid=k_grid)
    return curve_of(sc.abs_tail_curve.table, sc.n_max, k_grid, window_start)


def test_tail_rows_nonincreasing_in_level():
    rng = np.random.default_rng(41)
    grid = tuple(2.0 ** j for j in range(-1, 6))
    for _ in range(20):
        seq = random_seq(rng)
        measures = (rand_measure(rng, DOM),) * 8
        curve = abs_tail_curve(seq, measures, grid, 5)
        assert np.all(np.diff(curve.table, axis=1) <= 1e-12)


def test_sup_curve_dominates_window_curve():
    rng = np.random.default_rng(42)
    grid = tuple(2.0 ** j for j in range(-1, 6))
    for _ in range(20):
        seq = random_seq(rng)
        measures = (rand_measure(rng, DOM),) * 8
        curve = abs_tail_curve(seq, measures, grid, 6)
        assert np.all(curve.sup_curve >= curve.limsup_curve - 1e-15)


def test_epi_liminf_below_limsup_at_random_points():
    rng = np.random.default_rng(43)
    sched = EpiSchedule.default(8)
    checked = 0
    for _ in range(40):
        seq = random_seq(rng)
        for s in rng.uniform(0.0, 1.0, 25):
            lo = epi_estimate(seq, float(s), sched, True)
            hi = epi_estimate(seq, float(s), sched, False)
            assert lo.value <= hi.value + 1e-12
            checked += 1
    assert checked == 1000


def test_integrate_part_identity_random():
    rng = np.random.default_rng(44)
    for _ in range(50):
        f = rand_step_fn(rng, DOM)
        m = rand_measure(rng, DOM)
        assert integrate(f, m) == (integrate(part(f, "positive"), m)
                                   - integrate(part(f, "negative"), m))


def test_tv_triangle_inequality_random_triples():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a, b, c = (rand_atomic_measure(rng, DOM) for _ in range(3))
        assert next(tv_series([a], c)) <= (next(tv_series([a], b))
                                           + next(tv_series([b], c)) + 1e-12)
        assert next(tv_series([a], b)) == next(tv_series([b], a))


def test_uniform_gap_never_positive_random():
    rng = np.random.default_rng(46)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        masses = tuple(float(x) for x in rng.uniform(-1, 1, k))
        lo, hi = masses_extrema(masses)
        assert lo <= 0.0
        assert hi >= -lo


def test_randomized_fatou_scenarios_hold():
    rng = np.random.default_rng(47)
    for i in range(25):
        rep = fatou_report(fatou_random_scenario(rng, n_max=10, name=f"p{i}"))
        assert rep.gap >= -1e-9
        assert rep.conclusion == "holds"


def test_windowed_liminf_rows_monotone_toward_certified_direction():
    # per-j inner infima over a fixed tail [N_j, n_max] grow as the ball
    # shrinks once the index threshold saturates
    rng = np.random.default_rng(48)
    n_max = 6
    sched = EpiSchedule(((2, 0.5), (4, 0.25), (6, 0.125)), n_max)
    for _ in range(20):
        seq = random_seq(rng, n_max)
        for s in rng.uniform(0, 1, 5):
            lo = epi_estimate(seq, float(s), sched, True)
            # same index tail, smaller ball: inf can only rise
            tail_vals = [min(range_on(seq.fns[n - 1], s - d, s + d, False, False)[0]
                             for n in range(6, n_max + 1))
                         for _, d in sched.steps]
            assert all(b >= a - 1e-12 for a, b in zip(tail_vals, tail_vals[1:]))


def test_canonicalization_eval_preserving_kilopoint():
    rng = np.random.default_rng(49)
    for _ in range(5):
        f = rand_step_fn(rng, DOM, max_cells=8)
        g = PiecewiseFn(f.breakpoints, f.values, f.default, f.domain)
        xs = rng.uniform(0.0, 1.0, 1000)
        assert [f(x) for x in xs] == [g(x) for x in xs]
