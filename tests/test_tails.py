import math
from dataclasses import replace

import numpy as np
import pytest

from measure_limits import (
    FiniteMeasure,
    FnSequence,
    Interval,
    MalformedObjectError,
    PiecewiseFn,
    Scenario,
    first_shift,
    lebesgue,
    verdict,
    zero_fn,
)
from measure_limits import gallery

from helpers import (
    check_tail_table,
    constant_seq,
    loop_tail_table,
    neg_parts,
    part,
    zero_seq,
)

DOM = Interval(0.0, 1.0)


def neg_curve(fixture: str, n_max: int, k_grid=None):
    """A fixture's negative-part tail curve, at its own K grid or at
    k_grid, as its checks read it."""
    sc = gallery.build(fixture, n_max=n_max)
    return replace(sc, k_grid=tuple(k_grid or sc.k_grid)).neg_tail_curve


def abs_curve(seq, measures, k_grid):
    """The tail curve of the |f_n| at k_grid, as a scenario of the family
    reads it."""
    return Scenario("tails", tuple(measures), measures[0], seq,
                    k_grid=tuple(k_grid)).abs_tail_curve


def tail_at(seq, measures, n, k):
    """Tail of index n at level k, read off a one-level tail curve."""
    return float(abs_curve(seq, measures, (k,)).table[n - 1, 0])


def test_staircase_tail_closed_form():
    table = neg_curve("staircase", 16, (2.5, 3.0)).table
    # ceil(3) = 3: (3+1)/2^2 = 1
    for n in (1, 5, 16):
        assert table[n - 1, 1] == pytest.approx(1.0, abs=1e-12)
        assert table[n - 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_spike_tail_is_one_below_index():
    curve = neg_curve("twin_spikes", 50, (5.0, 10.0, 10.5, 40.0))
    for n, j in [(10, 0), (10, 1), (40, 3)]:
        assert curve.table[n - 1, j] == pytest.approx(1.0, abs=1e-15)
    assert curve.table[10 - 1, 2] == 0.0


def test_tail_zero_above_uniform_bound():
    seq = constant_seq(PiecewiseFn([0.0, 1.0], [-3.0], 0.0, DOM), 4)
    measures = (lebesgue(0.0, 1.0),) * 4
    assert tail_at(seq, measures, 2, 3.5) == 0.0


def test_tail_against_the_cell_loop_oracle():
    sc = gallery.build("staircase", n_max=16)
    ks = np.sort(np.random.default_rng(23).uniform(0.5, 12.0, 25)).tolist()
    table = replace(sc, k_grid=tuple(ks)).neg_tail_curve.table
    assert table.tolist() == loop_tail_table(neg_parts(sc), sc.measures, ks)


def test_curve_monotone_and_sup_dominates_window():
    curve = neg_curve("staircase", 16)
    assert np.all(np.diff(curve.table, axis=1) <= 1e-12)
    assert np.all(curve.sup_curve >= curve.limsup_curve - 1e-15)


def test_zero_family_has_zero_curve():
    seq = zero_seq(DOM, 6)
    measures = (lebesgue(0.0, 1.0),) * 6
    curve = abs_curve(seq, measures, (1.0, 2.0))
    assert np.all(curve.table == 0.0)


def test_verdict_threshold_and_k_star():
    grid = tuple(float(k) for k in range(1, 21))
    curve = neg_curve("staircase", 16, grid)
    v = verdict(curve, "ui", tol=1e-2)
    # (13)/2^11 < 1e-2 at K = 12
    assert v.passes and v.k_star == 12.0


def test_verdict_empty_tail_family():
    seq = constant_seq(PiecewiseFn([0.0, 1.0], [-0.25], 0.0, DOM), 4)
    measures = (lebesgue(0.0, 1.0),) * 4
    curve = abs_curve(seq, measures, (0.5, 1.0))
    v = verdict(curve, "ui", tol=1e-9)
    assert v.passes and v.k_star == 0.5


def test_spikes_fail_aui_on_capped_grid():
    curve = neg_curve("twin_spikes", 50)
    assert not verdict(curve, "aui").passes
    assert not verdict(curve, "ui").passes


def top_level_shift(seq, measures, tol, k_max, n_shift_max):
    """First shift of the tails at level k_max, read off a tail curve."""
    curve = abs_curve(seq, measures, (k_max,))
    return first_shift(curve.table[:, -1], tol, n_shift_max)


def test_first_shift_first_index_offender():
    bad = PiecewiseFn([0.0, 1.0], [math.inf], 0.0, DOM)
    fns = [bad] + [zero_fn(DOM)] * 5
    seq = FnSequence(tuple(fns))
    measures = (lebesgue(0.0, 1.0),) * 6
    assert top_level_shift(seq, measures, 1e-6, 4.0, 5) == 1


def test_first_shift_zero_for_uniform_family():
    curve = neg_curve("staircase", 16)
    assert first_shift(curve.table[:, -1], 1e-6, 10) == 0


def test_first_shift_absent_for_spikes():
    curve = neg_curve("twin_spikes", 50)
    assert first_shift(curve.table[:, -1], 1e-6, 50) is None


def test_first_shift_never_empties_the_range():
    seq = constant_seq(PiecewiseFn([0.0, 1.0], [-5.0], 0.0, DOM), 3)
    measures = (lebesgue(0.0, 1.0),) * 3
    # tails never vanish at k=2 < 5, and N must stay < n_max
    assert top_level_shift(seq, measures, 1e-6, 2.0, 99) is None


def test_table_check_staircase_holds_without_shift():
    curve = neg_curve("staircase", 16)
    res = check_tail_table(curve.table, curve.k_grid, curve.window_start, 1e-6)
    assert res.status == "holds" and res.shift == 0


def test_table_check_inverse_rows_hold():
    grid = (1.0, 2.0, 4.0, 8.0, 1024.0)
    table = np.array([[1.0 / k for k in grid]] * 6)
    res = check_tail_table(table, grid, 4, tol=1e-2)
    assert res.status == "holds"


def test_table_check_not_triggered_for_constant_one():
    grid = (1.0, 2.0, 4.0)
    table = np.ones((8, 3))
    res = check_tail_table(table, grid, 5, tol=0.5)
    assert res.status == "not_triggered"


def test_table_check_rejects_rising_rows():
    grid = (1.0, 2.0)
    table = np.array([[0.5, 0.7]])
    with pytest.raises(MalformedObjectError):
        check_tail_table(table, grid, 1, tol=1e-6)


def test_curve_csv_layout():
    seq = zero_seq(DOM, 2)
    measures = (lebesgue(0.0, 1.0),) * 2
    curve = abs_curve(seq, measures, (1.0, 2.0))
    lines = curve.to_csv().strip().splitlines()
    assert lines[0] == "K,n=1,n=2,sup,limsup_window"
    assert len(lines) == 3


def test_single_function_family_as_constant_sequence():
    # u.i. of one function w.r.t. a family: the constant-sequence special case
    f = PiecewiseFn([0.0, 0.5], [-4.0], 0.0, DOM)
    measures = FiniteMeasure(cells=[(0.0, 1.0, 1.0)], domain=DOM)
    seq = constant_seq(part(f, "negative"), 5)
    curve = abs_curve(seq, (measures,) * 5, (1.0, 4.0, 8.0))
    assert verdict(curve, "ui").passes  # vanishes once K > 4
    assert curve.sup_curve[0] == pytest.approx(2.0)


def test_comb_negative_part_curves_flat_below_window_power():
    from measure_limits import gallery
    import math as _m
    sc = gallery.build("dyadic_comb", n_max=20)
    curve = sc.neg_tail_curve
    # window starts at 13 and the grid tops out at 4096 = 2^12 < 2^13, so
    # both aggregates sit at the constant cliff mass 1/(2 ln 2)
    level = 1.0 / (2.0 * _m.log(2.0))
    assert np.all(np.abs(curve.sup_curve - level) <= 1e-12)
    assert np.all(np.abs(curve.limsup_curve - level) <= 1e-12)
    assert curve.window_start == 13
