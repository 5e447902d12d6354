"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the suite is the contract.  Run as

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from measure_limits import (
    FnSequence,
    Scenario,
    Tolerances,
    epi_integral,
    first_shift,
    integrate,
    lebesgue,
    uniform_report,
    verdict,
)
from measure_limits import gallery
from measure_limits.integration import tv_series
from measure_limits.epilimits import EpiSchedule
from measure_limits.fatou import (
    dct_report,
    fatou_report,
    minorant_check,
    weakened_minorant_probe,
)
from measure_limits.gallery import staircase_tail_formula
from measure_limits.tails import curve_of

from helpers import (
    epi_estimate,
    fatou_random_scenario,
    masses_extrema,
    part,
    rand_atomic_measure,
    rand_measure,
    rand_step_fn,
)
from test_uniform import enumerate_subset_extrema
from measure_limits import Interval, PiecewiseFn

LN2 = math.log(2.0)


def _report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_staircase_conformance():
    t0 = time.perf_counter()
    sc = gallery.build("staircase", n_max=64)
    residual = 52.0 * 2.0 ** -50
    tol = 1e-9 + residual
    ks = [0.5] + [float(k) for k in range(1, 11)]
    table = replace(sc, k_grid=tuple(ks)).neg_tail_curve.table
    ok = True
    for n in range(1, 65):
        for j, k in enumerate(ks):
            got = table[n - 1, j]
            ok &= abs(got - staircase_tail_formula(k)) <= tol
        ok &= abs(integrate(sc.f_seq.fns[n - 1], sc.measures[n - 1]) + 2.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(f"1 staircase tails+integrals ({elapsed:.2f}s)", ok)


def test_criterion_2_dyadic_comb_conformance():
    t0 = time.perf_counter()
    sc = gallery.build("dyadic_comb", n_max=20)
    mu = sc.limit_measure
    half = 1.0 / (2.0 * LN2)
    ok = True
    for n in range(1, 21):
        ok &= abs(integrate(sc.f_seq.fns[n - 1], mu) + half) <= 1e-9
        ok &= abs(integrate(sc.g_seq.fns[n - 1], mu) + 1.0 / LN2) <= 1e-6
    sched, grid = sc.resolved_schedule(), sc.resolved_grid()
    v, cert = epi_integral(sc.g_seq, mu, "liminf", sched, grid)
    ok &= cert == "exact" and abs(v + 1.0 / LN2) <= 1e-6
    fat = fatou_report(sc)
    ok &= fat.conclusion == "violated"
    ok &= fat.lhs == 0.0 and abs(fat.rhs + half) <= 1e-9
    weak = weakened_minorant_probe(sc)
    ok &= weak.holds
    ok &= abs(weak.epi_integral + 1.0 / LN2) <= 1e-6
    ok &= abs(weak.liminf_of_integrals + 1.0 / LN2) <= 1e-6
    minor = minorant_check(sc)
    ok &= (not minor.chain_ok) and minor.epi_integral == 0.0
    ok &= abs(minor.liminf_of_integrals + 1.0 / LN2) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(f"2 dyadic comb closed forms ({elapsed:.2f}s)", ok)


def test_criterion_3_twin_spikes_conformance():
    sc = gallery.build("twin_spikes", n_max=100)
    curve = sc.neg_tail_curve
    ok = bool(np.all(np.abs(curve.sup_curve - 1.0) <= 1e-12))
    ok &= bool(np.all(np.abs(curve.limsup_curve - 1.0) <= 1e-12))
    ok &= max(sc.k_grid) == 50.0
    ok &= not verdict(curve, "aui").passes
    # the grid is sorted, so the last column is K = max(k_grid)
    ok &= first_shift(curve.table[:, -1], 1e-6, 50) is None
    dct = dct_report(replace(sc, tolerances=Tolerances(tol=1e-12)))
    ok &= dct.conclusion == "holds"
    ok &= abs(dct.lim_lo) <= 1e-12 and abs(dct.lim_hi) <= 1e-12
    ok &= abs(dct.limit_integral) <= 1e-12
    ok &= dct.equality_without_condition
    rep = uniform_report(sc)
    ok &= all(abs(g - 1.0) <= 1e-12 for g in rep.series.sup_gaps)
    _report("3 twin spikes diagnostics", ok)


def test_criterion_4_randomized_fatou_property():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    violated = 0
    for i in range(200):
        sc = fatou_random_scenario(rng, n_max=12, name=f"acc4_{i}")
        rep = fatou_report(sc)
        worst = min(worst, rep.gap if rep.gap is not None else 0.0)
        violated += rep.conclusion == "violated"
    ok = worst >= -1e-9 and violated == 0
    _report(f"4 randomized Fatou property (worst gap {worst:.2e})", ok)


def test_criterion_5_uniform_gap_oracle_equivalence():
    # the bound holds the src Hahn sums; the exhaustive subset oracle
    # (up to 2^15 subsets per draw) is timed apart and only printed
    hahn_s = oracle_s = 0.0
    rng = np.random.default_rng(5150)
    scale = 2.0 ** -30
    ok = True
    for _ in range(200):
        k = int(rng.integers(1, 16))
        ints = rng.integers(-(2 ** 30), 2 ** 30, size=k)
        masses = tuple(float(v) * scale for v in ints)
        t0 = time.perf_counter()
        lo, hi = enumerate_subset_extrema(list(masses))
        t1 = time.perf_counter()
        inf_gap, sup_gap = masses_extrema(masses)
        # the positive Hahn mass is the negative one of the mirrored gap
        pos, negm = -masses_extrema([-x for x in masses])[0], -inf_gap
        hahn_s += time.perf_counter() - t1
        oracle_s += t1 - t0
        ok &= inf_gap == lo
        ok &= sup_gap == max(hi, -lo)
        ok &= max(pos, negm) <= pos + negm
    print(f"\nsubset enumeration oracle: {oracle_s:.2f}s")
    ok &= hahn_s < 5.0
    _report(f"5 Hahn vs enumeration bit-equal ({hahn_s:.2f}s)", ok)


def test_criterion_6_shift_equivalence_on_fixtures():
    ok = True
    # uniformly integrable family: asymptotic verdict true, shift exists (0)
    sc = gallery.build("staircase", n_max=64)
    aui = verdict(sc.neg_tail_curve, "aui").passes
    shift = first_shift(sc.neg_tail_curve.table[:, -1], 1e-6, 50)
    ok &= aui is True and shift == 0
    # spikes: verdict false, shift absent
    sc = gallery.build("twin_spikes", n_max=100)
    aui = verdict(sc.neg_tail_curve, "aui").passes
    shift = first_shift(sc.neg_tail_curve.table[:, -1], 1e-6, 50)
    ok &= aui is False and shift is None
    # one bad leading index: verdict true, shift exactly 1
    sc = gallery.build("staircase_late_start", n_max=65)
    aui = verdict(sc.neg_tail_curve, "aui").passes
    shift = first_shift(sc.neg_tail_curve.table[:, -1], 1e-6, 50)
    ok &= aui is True and shift == 1
    _report("6 verdict/shift equivalence on fixtures", ok)


def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(777)
    dom = Interval(0.0, 1.0)
    ok = True

    # tail-curve monotonicity in K and sup >= windowed aggregate
    grid = tuple(2.0 ** j for j in range(-1, 7))
    for _ in range(25):
        fns = [rand_step_fn(rng, dom) for _ in range(8)]
        seq = FnSequence(tuple(fns))
        measures = (rand_measure(rng, dom),) * 8
        sc = Scenario("random", measures, measures[0], seq, k_grid=grid)
        curve = curve_of(sc.abs_tail_curve.table, 8, grid, 5)
        ok &= bool(np.all(np.diff(curve.table, axis=1) <= 1e-12))
        ok &= bool(np.all(curve.sup_curve >= curve.limsup_curve - 1e-15))

    # epi liminf <= limsup at 1000 random sample points
    sched = EpiSchedule.default(8)
    count = 0
    for _ in range(40):
        fns = [rand_step_fn(rng, dom) for _ in range(8)]
        seq = FnSequence(tuple(fns))
        for s in rng.uniform(0.0, 1.0, 25):
            lo = epi_estimate(seq, float(s), sched, True).value
            hi = epi_estimate(seq, float(s), sched, False).value
            ok &= lo <= hi + 1e-12
            count += 1
    ok &= count == 1000

    # integrate positive/negative-part identity, bit-for-bit
    for _ in range(50):
        f = rand_step_fn(rng, dom)
        m = rand_measure(rng, dom)
        ok &= integrate(f, m) == (integrate(part(f, "positive"), m)
                                  - integrate(part(f, "negative"), m))

    # total-variation triangle inequality on 100 random atomic triples
    for _ in range(100):
        a, b, c = (rand_atomic_measure(rng, dom) for _ in range(3))
        ok &= next(tv_series([a], c)) <= (next(tv_series([a], b))
                                          + next(tv_series([b], c)) + 1e-12)

    # uniform Fatou gap never positive
    for _ in range(100):
        k = int(rng.integers(1, 14))
        masses = tuple(float(x) for x in rng.uniform(-1, 1, k))
        ok &= masses_extrema(masses)[0] <= 0.0

    _report("7 invariant suite", ok)
