import math

import numpy as np
import pytest

from measure_limits import (
    FiniteMeasure,
    FnSequence,
    Interval,
    NotIntegrableError,
    PiecewiseFn,
    Scenario,
    UnsupportedScenarioError,
    constant_fn,
    lebesgue,
    make_segment,
    point_mass,
    uniform_report,
    zero_fn,
)
from measure_limits import gallery
from measure_limits.refinement import family_pairing
from measure_limits.uniform import (
    _condition_series,
    _gap_rows,
    _signed_masses,
    trend_vanishing,
)

from helpers import constant_seq, gap_extrema, masses_extrema

DOM = Interval(-1.0, 1.0)


def enumerate_subset_extrema(masses):
    """Exhaustive subset-sum oracle, independent of the Hahn shortcut."""
    best_lo, best_hi = 0.0, 0.0
    k = len(masses)
    for bits in range(1, 1 << k):
        s = math.fsum(masses[i] for i in range(k) if bits >> i & 1)
        best_lo = min(best_lo, s)
        best_hi = max(best_hi, s)
    return best_lo, best_hi


def gap_masses(f_n, m_n, f, m) -> tuple[list, list]:
    """(cell masses, atom masses) of one index's signed gap, as the
    set-uniform report's Hahn sums read them."""
    p = next(family_pairing(_gap_rows([f_n], [m_n], f, m)))
    gaps = _signed_masses(p)
    # the index's cells, then its atoms up to the next offset
    atoms = int(p.offsets[0] + p.n_cells[0])
    return gaps[:atoms].tolist(), gaps[atoms:p.offsets[1]].tolist()


def spike_gap(n):
    dom = DOM
    m = lebesgue(-1.0, 1.0)
    f_n = PiecewiseFn([-1.0 / n, 0.0, 1.0 / n], [-float(n), float(n)], 0.0, dom)
    return f_n, m, zero_fn(dom), m


def test_identical_inputs_give_zero_measure():
    m = lebesgue(-1.0, 1.0)
    f = PiecewiseFn([-0.5, 0.5], [2.0], 0.0, DOM)
    cells, _ = gap_masses(f, m, f, m)
    assert all(v == 0.0 for v in cells)
    assert gap_extrema(f, m, f, m) == (0.0, 0.0)


def test_spike_gap_masses():
    gap = spike_gap(4)
    cells, _ = gap_masses(*gap)
    nonzero = sorted(v for v in cells if v != 0.0)
    assert nonzero == [-1.0, 1.0]
    assert gap_extrema(*gap) == (-1.0, 1.0)


def test_single_atom_gap():
    dom = Interval(0.0, 1.0)
    m = point_mass(0.0, 0.5, dom)
    f_n = PiecewiseFn([0.0, 0.5], [2.0], 0.0, dom)
    f = PiecewiseFn([0.0, 0.5], [1.0], 0.0, dom)
    _, atoms = gap_masses(f_n, m, f, m)
    assert atoms == [0.5]
    assert gap_extrema(f_n, m, f, m)[1] == 0.5


def test_uniform_shift_gap():
    # f_n = f - 1/n against a mass-2 measure: inf gap is -2/n
    dom = Interval(0.0, 1.0)
    m = FiniteMeasure(cells=[(0.0, 1.0, 2.0)], domain=dom)
    f = zero_fn(dom)
    for n in (1, 5, 25):
        f_n = constant_fn(-1.0 / n, dom)
        lo, hi = gap_extrema(f_n, m, f, m)
        assert lo == pytest.approx(-2.0 / n, abs=1e-15)
        assert hi == pytest.approx(2.0 / n, abs=1e-15)


def test_pos_neg_asymmetric_cells():
    lo, hi = masses_extrema([0.3, -0.7])
    assert lo == -0.7
    assert hi == 0.7
    # the positive Hahn mass is the negative one of the mirrored gap
    pos, neg = -masses_extrema([-0.3, 0.7])[0], -lo
    assert (pos, neg) == (0.3, 0.7)
    assert max(pos, neg) <= pos + neg  # tv dominates the one-sided sup


def test_hahn_matches_enumeration_bitwise():
    rng = np.random.default_rng(99)
    scale = 2.0 ** -30
    for _ in range(60):
        k = int(rng.integers(1, 13))
        ints = rng.integers(-(2 ** 30), 2 ** 30, size=k)
        masses = tuple(float(i) * scale for i in ints)
        lo, hi = enumerate_subset_extrema(list(masses))
        assert masses_extrema(masses) == (lo, max(hi, -lo))


def test_inf_gap_never_positive():
    rng = np.random.default_rng(5)
    for _ in range(200):
        masses = tuple(rng.uniform(-1, 1, size=rng.integers(1, 10)))
        lo, hi = masses_extrema(masses)
        assert lo <= 0.0
        assert hi >= abs(lo)


def test_non_integrable_input_rejected():
    dom = Interval(0.0, 1.0)
    m = lebesgue(0.0, 1.0)
    bad = PiecewiseFn([0.0, 0.5], [math.inf], 0.0, dom)
    sc = Scenario("bad", (m,) * 4, m, constant_seq(bad, 4),
                  limit_fn=zero_fn(dom), certificate="tv")
    with pytest.raises(NotIntegrableError):
        uniform_report(sc)


def test_mismatched_segments_rejected():
    dom = Interval(0.0, math.inf)
    mu = FiniteMeasure(segments=[make_segment("exp2", 0.0, math.inf)],
                       domain=dom)
    half = FiniteMeasure(segments=[make_segment("exp2", 0.0, 5.0)],
                         cells=[(5.0, 6.0, 1.0)], domain=dom)
    f = zero_fn(dom)
    with pytest.raises(UnsupportedScenarioError):
        gap_extrema(f, mu, f, half)
    # identical segments factor out a common density: accepted
    lo, _ = gap_extrema(constant_fn(-1.0, dom), mu, f, mu)
    assert lo == pytest.approx(-1.0 / math.log(2.0), rel=1e-12)


# -- set-wise conditions --------------------------------------------------------

def test_condition_series_identity():
    seq = constant_seq(zero_fn(DOM), 6)
    m = lebesgue(-1.0, 1.0)
    assert _condition_series(seq, zero_fn(DOM), m, 1e-3) == ([0.0] * 6,
                                                             [0.0] * 6)


def test_condition_fixed_offset_cell():
    dom = Interval(0.0, 1.0)
    eps = 1e-3
    f = zero_fn(dom)
    f_n = PiecewiseFn([0.0, 0.25], [-2 * eps], 0.0, dom)
    seq = constant_seq(f_n, 4)
    m = lebesgue(0.0, 1.0)
    assert _condition_series(seq, f, m, eps)[0] == [0.25] * 4
    sym = PiecewiseFn([0.0, 0.25], [2 * eps], 0.0, dom)
    assert _condition_series(constant_seq(sym, 4), f, m, eps)[1] == [0.25] * 4


def test_condition_shrinking_support():
    dom = Interval(0.0, 1.0)
    eps = 1e-3
    m = lebesgue(0.0, 1.0)
    seq = FnSequence(tuple(PiecewiseFn([0.0, 1.0 / n], [-2 * eps], 0.0, dom)
                           for n in range(1, 9)))
    out = _condition_series(seq, zero_fn(dom), m, eps)[0]
    assert out == pytest.approx([1.0 / n for n in range(1, 9)], abs=1e-15)


def test_condition_series_are_exactly_rounded_over_cells_and_atoms():
    # cells of mass 1 and 1e-16 and an atom of 1e-16, all below f - eps
    # and far from f: one sum of the three terms, not the atom added to
    # the cells' rounded sum
    dom = Interval(0.0, 3.0)
    m = FiniteMeasure(atoms=[(2.5, 1e-16)],
                      cells=[(0.0, 1.0, 1.0), (1.0, 2.0, 1e-16)], domain=dom)
    want = math.fsum([1.0, 1e-16, 1e-16])
    assert want > 1.0
    seq = constant_seq(constant_fn(-1.0, dom), 2)
    assert _condition_series(seq, zero_fn(dom), m, 0.5) == ([want] * 2,
                                                            [want] * 2)


def test_trend_heuristic():
    assert trend_vanishing([1.0 / n for n in range(1, 33)], 25, 1e-6)
    assert not trend_vanishing([1.0] * 32, 25, 1e-6)
    assert trend_vanishing([0.0] * 32, 25, 1e-6)


# -- full reports ----------------------------------------------------------------

def test_uniform_report_identity_scenario():
    dom = Interval(0.0, 1.0)
    m = lebesgue(0.0, 1.0)
    f = PiecewiseFn([0.0, 0.5], [1.0], 0.0, dom)
    seq = constant_seq(f, 12)
    sc = Scenario("id", (m,) * 12, m, seq, limit_fn=f,
                  certificate="tv")
    rep = uniform_report(sc)
    assert all(g == 0.0 for g in rep.series.inf_gaps)
    assert all(g == 0.0 for g in rep.series.sup_gaps)
    assert rep.fatou.gap_trend_vanishing and rep.dct.gap_trend_vanishing
    assert rep.fatou.consistent and rep.dct.consistent


def test_uniform_report_spikes_consistent_failure():
    sc = gallery.build("twin_spikes", n_max=40)
    rep = uniform_report(sc)
    assert all(g == pytest.approx(1.0, abs=1e-12) for g in rep.series.sup_gaps)
    assert not rep.dct.gap_trend_vanishing
    assert not rep.dct.conditions_predict_vanishing
    assert rep.fatou.consistent and rep.dct.consistent
    assert rep.fatou.tv_vanishing and rep.dct.tv_vanishing  # identical measures


def test_uniform_report_vanishing_offset():
    from measure_limits import Tolerances
    dom = Interval(0.0, 1.0)
    m = lebesgue(0.0, 1.0)
    seq = FnSequence(tuple(constant_fn(1.0 / n, dom) for n in range(1, 17)))
    # epsilon must be resolvable inside the window (1/n < eps there),
    # otherwise the in-measure condition cannot be observed yet
    sc = Scenario("off", (m,) * 16, m, seq,
                  limit_fn=zero_fn(dom), certificate="tv",
                  tolerances=Tolerances(eps_cond=0.1))
    rep = uniform_report(sc)
    assert rep.series.sup_gaps == pytest.approx(
        tuple(1.0 / n for n in range(1, 17)), abs=1e-15)
    assert rep.dct.gap_trend_vanishing
    assert rep.fatou.consistent and rep.dct.consistent


def test_uniform_report_requires_limit_fn():
    sc = gallery.build("vanishing_mass")
    with pytest.raises(UnsupportedScenarioError):
        uniform_report(sc)


def test_infinite_value_on_null_cell_is_killed():
    dom = Interval(0.0, 1.0)
    # f_n is +inf on [0, 0.5), which carries no mass: still L1, and the
    # signed gap must treat the null region as 0, not NaN
    m = FiniteMeasure(cells=[(0.5, 1.0, 1.0)], domain=dom)
    f_n = PiecewiseFn([0.0, 0.5, 1.0], [math.inf, 2.0], 0.0, dom)
    cells, _ = gap_masses(f_n, m, zero_fn(dom), m)
    assert all(v == v for v in cells)  # no NaN
    _, hi = gap_extrema(f_n, m, zero_fn(dom), m)
    assert hi == pytest.approx(1.0, abs=1e-15)


def test_uniform_series_csv_layout():
    sc = gallery.build("twin_spikes", n_max=12)
    rep = uniform_report(sc)
    lines = rep.series.to_csv().strip().splitlines()
    assert lines[0] == "n,inf_gap,sup_gap,cond_i,cond_ii"
    assert len(lines) == 13
    assert lines[1].startswith("1,")
