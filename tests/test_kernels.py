import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measure_limits.kernels import comp_sum, pos_neg_dot

from helpers import loop_comp_sum, loop_pos_neg_dot, loop_tail_dot, tail_row


def test_comp_sum_cancellation():
    # alternating huge/tiny terms defeat naive accumulation
    xs = np.array([1e16, 1.0, -1e16, 1.0] * 100)
    assert comp_sum(xs) == 200.0


def test_pos_neg_dot_splits_parts():
    v = np.array([2.0, -3.0, 0.0, 5.0])
    m = np.array([1.0, 2.0, 9.0, 0.5])
    assert pos_neg_dot(v, m) == (4.5, 6.0)


def test_zero_mass_kills_infinities():
    v = np.array([math.inf, -math.inf])
    m = np.array([0.0, 0.0])
    assert pos_neg_dot(v, m) == (0.0, 0.0)


def test_infinite_values_make_their_part_infinite():
    v = np.array([math.inf, -math.inf, 1.0])
    m = np.array([1.0, 2.0, 3.0])
    assert pos_neg_dot(v, m) == (math.inf, math.inf)
    assert pos_neg_dot(v[1:], m[1:]) == (3.0, math.inf)


def test_tail_dot_threshold_inclusive():
    v = np.array([-2.0, 1.0, 2.0, -5.0])
    m = np.array([1.0, 1.0, 1.0, 1.0])
    assert tail_row(v, m, [2.0]).tolist() == [9.0]
    assert tail_row(np.array([math.inf]), np.array([0.5]), [7.0]).tolist() == [math.inf]
    # the row follows the grid as given: unsorted, repeated or empty
    assert tail_row(v, m, [5.0, 1.0, 2.0, 1.0, 6.0]).tolist() == [5.0, 10.0, 9.0, 10.0, 0.0]
    assert tail_row(v, m, []).shape == (0,)


def test_dispatch_validates_shapes():
    with pytest.raises(ValueError):
        pos_neg_dot([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        tail_row([1.0], [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        tail_row([1.0], [1.0], 1.0)
    assert comp_sum([0.1] * 10) == pytest.approx(1.0, abs=1e-15)


def test_determinism_repeated_runs():
    rng = np.random.default_rng(3)
    v = rng.uniform(-5, 5, size=5_000)
    m = rng.uniform(0, 2, size=5_000)
    first = pos_neg_dot(v, m)
    for _ in range(3):
        assert pos_neg_dot(v, m) == first


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.5, -2.5]),
    st.floats(allow_nan=False))
_MASSES = st.one_of(st.sampled_from([0.0, 1.0, 0.25]),
                    st.floats(min_value=0.0, allow_infinity=False))


@st.composite
def pairings(draw):
    cells = draw(st.lists(st.tuples(_VALUES, _MASSES), max_size=30))
    values = [v for v, _ in cells]
    masses = [m for _, m in cells]
    level = st.one_of(st.floats(min_value=0.0), st.just(math.nan))
    if values:
        # thresholds equal to some |v| probe the inclusive comparison
        level = st.one_of(level, st.sampled_from([abs(v) for v in values]))
    return values, masses, draw(st.lists(level, max_size=8))


def _outcome(fn, *args):
    """fn(*args), or the type of the error math.fsum raised: a sum past the
    double range (OverflowError) or inf + -inf (ValueError)."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _fold(s: float, has_inf: bool) -> float:
    return math.inf if has_inf else s


def _loop_row(values, masses, ks):
    return [_fold(*loop_tail_dot(values, masses, k)) for k in ks]


@settings(max_examples=400, deadline=None)
@given(pairings())
# a finite tail past the double range: in cell order math.fsum meets the
# overflowed product first and returns inf, in |v| order it raises
@example(([1e308, 1e300, 1e308], [1.0, 1e10, 1.0], [1.0]))
# tiny terms after a large one: a plain float sum drops them
@example(([1.0] + [1e-16] * 10, [1.0] * 11, [1e-16]))
@example(([-1.0] + [-1e-16] * 10, [1.0] * 11, [1e-16]))
def test_kernels_match_the_cell_loops_bit_for_bit(case):
    values, masses, ks = case
    v, m = np.array(values, dtype=np.float64), np.array(masses, dtype=np.float64)

    assert _same(_outcome(comp_sum, v), _outcome(loop_comp_sum, values))

    got = _outcome(pos_neg_dot, v, m)
    want = _outcome(loop_pos_neg_dot, values, masses)
    if isinstance(want, type):
        assert got is want
    else:
        assert _same(got[0], _fold(want[0], want[2]))
        assert _same(got[1], _fold(want[1], want[3]))

    got = _outcome(lambda: tail_row(v, m, ks).tolist())
    want = _outcome(_loop_row, values, masses, ks)
    if isinstance(want, type):
        assert got is want
    else:
        assert len(got) == len(ks)
        assert all(_same(g, w) for g, w in zip(got, want))
