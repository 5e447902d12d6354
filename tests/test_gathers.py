"""The comb path's index gathers and kept arrays against the cell loops
and copies they stand in for.

The ragged kernels gather their terms by index and form products only on
the gathered cells; each of their runs must be the cell loop of its
slice (``helpers.loop_pos_neg_dot``, ``helpers.loop_tail_dot``, or
``math.fsum`` of the selected entries).  ``measures._exp2_mass`` takes
one expm1 per block whose widths share one bit pattern;
``helpers.exp2_mass`` takes one per cell.  ``PiecewiseFn`` keeps
read-only breakpoints that own their data, and a read-only value table
that owns its data and is given as ``table[1:-1]``, when canonical form
leaves them as they are; ``helpers.piecewise_oracle`` copies every
input.  Every result
must agree bit for bit, NaN and the sign of zero included, and so must
every error, message and all.  The comb builder's canonical arrays are
checked in ``test_fast_paths``.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measure_limits import Interval, PiecewiseFn
from measure_limits.kernels import (
    _TREE_MIN, pos_neg_dots, ragged_sums, sign_sums, tail_dots,
)
from measure_limits.measures import _EXP2_BLOCK, _exp2_mass

from helpers import exp2_mass, loop_pos_neg_dot, loop_tail_dot, piecewise_oracle

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
            5e-324, -5e-324]


def drain(results) -> list:
    """Every result as bytes, ended by the error's type and message."""
    out = []
    try:
        for r in results:
            out.append(np.asarray(r, dtype=np.float64).tobytes())
    except Exception as exc:  # the error itself is compared
        out.append((type(exc), str(exc)))
    return out


@st.composite
def ragged_cells(draw):
    """(values, masses, offsets): runs of cells whose values alternate in
    sign or with zero, as the comb's do, or fall anywhere, with NaN,
    infinities, signed zeros and near-overflow values mixed in, and masses
    that are often zero, -0.0 or NaN; sizes on both sides of the tree's
    cut and runs that may be empty."""
    n = draw(st.sampled_from([0, 1, 2, 7, 64, _TREE_MIN + 5, 2 * _TREE_MIN]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    layout = draw(st.sampled_from(["alternating", "comb", "any"]))
    if layout == "alternating":
        values = np.abs(values) * np.where(np.arange(n) % 2, -1.0, 1.0)
    elif layout == "comb":
        values = -np.abs(values)
        values[1::2] = 0.0
    share = draw(st.sampled_from([0.0, 0.0, 0.01, 0.3]))
    odd = rng.random(n) < share
    values[odd] = rng.choice(SPECIALS, size=int(odd.sum()))
    masses = rng.uniform(0.0, 2.0, size=n)
    for x, p in ((0.0, draw(st.sampled_from([0.0, 0.1, 0.5]))),
                 (-0.0, draw(st.sampled_from([0.0, 0.05]))),
                 (math.nan, draw(st.sampled_from([0.0, 0.0, 0.01])))):
        masses[rng.random(n) < p] = x
    cuts = rng.integers(0, n + 1, size=draw(st.integers(0, 4)))
    offsets = np.concatenate(([0], np.sort(cuts), [n])).astype(np.intp)
    return values, masses, offsets


def per_run(fn, offsets, *arrays):
    """fn of each run's slices of the arrays, one run after another."""
    b = np.asarray(offsets).tolist()
    for lo, hi in zip(b, b[1:]):
        yield fn(*(a[lo:hi] for a in arrays))


def fsum(xs: np.ndarray) -> float:
    return math.fsum(xs.tolist()) + 0.0


def loop_dots(v: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    pos, neg, pos_inf, neg_inf = loop_pos_neg_dot(v.tolist(), m.tolist())
    return math.inf if pos_inf else pos, math.inf if neg_inf else neg


def loop_row(v: np.ndarray, m: np.ndarray, ks) -> list[float]:
    return [math.inf if has_inf else s for s, has_inf
            in (loop_tail_dot(v.tolist(), m.tolist(), k) for k in ks)]


@settings(max_examples=200, deadline=None)
@given(ragged_cells())
@example((np.array([-1.0, 0.0] * 3000), np.ones(6000),
          np.array([0, 6000])))
@example((np.array([math.inf, -math.inf, 1.0, math.nan]),
          np.array([1.0, 0.0, 1.0, 1.0]), np.array([0, 2, 4])))
@example((np.array([1e308, 1e308, -0.0]), np.array([2.0, 2.0, 1.0]),
          np.array([0, 3])))
def test_gathered_kernels_match_the_cell_loops(cells):
    values, masses, offsets = cells
    assert drain(pos_neg_dots(values, masses, offsets)) == drain(
        per_run(loop_dots, offsets, values, masses))
    ks = [0.0, 1.0, math.inf, math.nan, *np.abs(values[:2]).tolist()]
    assert drain(tail_dots(values, masses, offsets, ks)) == drain(
        per_run(lambda v, m: loop_row(v, m, ks), offsets, values, masses))
    for mask in (np.ones(values.size, dtype=bool), values > 0.0,
                 ~(values >= 0.0), masses != 0.0,
                 np.arange(values.size) % 2 == 0):
        assert drain(ragged_sums(masses, offsets, mask)) == drain(
            per_run(lambda x, keep: fsum(x[keep]), offsets, masses, mask))
    assert drain(ragged_sums(masses, offsets)) == drain(
        per_run(fsum, offsets, masses))
    assert drain(sign_sums(values, offsets)) == drain(per_run(
        lambda x: (fsum(x[x > 0.0]), fsum(x[x < 0.0])), offsets, values))


#: Cell widths of dyadic grids, so that b - a repeats one bit pattern.
WIDTHS = [2.0 ** -20, 2.0 ** -3, 1.0, 64.0]


@st.composite
def exp2_cells(draw):
    """(a, b): cells of one width over one to three 2^16-cell blocks, with
    other widths at drawn places inside blocks and at their edges, and
    ends that are NaN, infinite or zeros of either sign."""
    n = draw(st.sampled_from([1, 7, _EXP2_BLOCK - 1, _EXP2_BLOCK,
                              _EXP2_BLOCK + 1, 2 * _EXP2_BLOCK + 3,
                              3 * _EXP2_BLOCK]))
    h = draw(st.sampled_from(WIDTHS))
    start = draw(st.sampled_from([0.0, -4.0, 3.0, 1000.0]))
    a = start + np.arange(n) * h
    b = start + np.arange(1, n + 1) * h
    if draw(st.booleans()):
        # zero widths, which other spots may give the other sign
        a[:] = 0.0
        b[:] = -0.0
    edges = [0, _EXP2_BLOCK - 1, _EXP2_BLOCK, n - 1]
    spots = draw(st.lists(st.one_of(st.sampled_from(edges),
                                    st.integers(0, n - 1)), max_size=3))
    for i in spots:
        i = min(i, n - 1)
        kind = draw(st.sampled_from(["width", "inf", "nan", "-0", "+0"]))
        if kind == "width":
            b[i] = a[i] + draw(st.sampled_from(WIDTHS + [0.0, 3.0]))
        elif kind == "inf":
            b[i] = math.inf
        elif kind == "nan":
            a[i] = math.nan
        else:
            # widths of -0.0 and 0.0: same value, other bit patterns
            a[i], b[i] = (0.0, -0.0) if kind == "-0" else (-0.0, 0.0)
    return a, b


@settings(max_examples=60, deadline=None)
@given(exp2_cells(), st.booleans())
def test_exp2_masses_match_one_expm1_per_cell(cells, strided):
    a, b = cells
    if strided:
        # ends as strided views, as the comb builder passes them
        a, b = np.repeat(a, 2)[::2], np.repeat(b, 2)[::2]
    with np.errstate(invalid="ignore"):
        got, want = _exp2_mass(a, b), exp2_mass(a, b)
    assert got.tobytes() == want.tobytes()


HOLDERS = ["list", "writeable", "frozen", "frozen view"]


def held(xs, holder: str, ends=(7.0, 7.0)):
    """xs as a list, a writeable array, a read-only array that owns its
    data, or the read-only view ``table[1:-1]`` of such a table with the
    given ends."""
    if holder == "list":
        return list(xs)
    view = holder == "frozen view"
    a = np.array([ends[0]] * view + list(xs) + [ends[1]] * view)
    a.flags.writeable = holder == "writeable"
    return a[1:-1] if view else a


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([k / 8 for k in range(9)]), min_size=2,
                max_size=8, unique=True), st.data())
def test_kept_arrays_match_the_copying_oracle(bps, data):
    vals = data.draw(st.lists(st.sampled_from([1.0, 0.0, -0.0, 2.0]),
                              min_size=len(bps) - 1, max_size=len(bps) - 1))
    default = data.draw(st.sampled_from([0.0, -0.0, 1.0, 3.0]))
    want_bp, want_vals, want_default = piecewise_oracle(
        sorted(bps), vals, default, Interval(0.0, 1.0))
    # the table's right ends, and three wrong ones: a wrong end value, a
    # wrong default and a -0.0 or negated default
    end = (want_vals[-1] if want_bp.size and want_bp[-1] == 1.0
           else want_default)
    right = (want_default, end)
    ends = data.draw(st.sampled_from(
        [right, (want_default, 7.0), (7.0, end), (-want_default, end)]))
    holders = [data.draw(st.sampled_from(HOLDERS)) for _ in range(2)]
    bp_in, vals_in = held(sorted(bps), holders[0]), held(vals, holders[1], ends)
    f = PiecewiseFn(bp_in, vals_in, default, Interval(0.0, 1.0))
    assert f.breakpoints.tobytes() == want_bp.tobytes()
    assert f.values.tobytes() == want_vals.tobytes()
    table = [want_default, *want_vals, end] if want_bp.size else [end]
    assert f.table.tobytes() == np.asarray(table).tobytes()
    # the breakpoints are kept exactly when they are read-only, own their
    # data and are canonical: no cell stripped or merged; the values are
    # kept in their table exactly when that table is read-only, owns its
    # data and holds the right ends, and the values are canonical with no
    # -0.0
    canonical = want_bp.size == len(bps)
    keep_table = (holders[1] == "frozen view" and canonical
                  and ends == right and not np.signbit(vals + list(ends)).any())
    assert f.values.base is f.table
    # a view is compared through its table
    vals_held = vals_in if getattr(vals_in, "base", None) is None else vals_in.base
    for stored, given_in, keep in (
            (f.breakpoints, bp_in, holders[0] == "frozen" and canonical),
            (f.table, vals_held, keep_table)):
        assert not stored.flags.writeable and stored.base is None
        assert (stored is given_in) == keep
        if isinstance(given_in, np.ndarray) and not keep:
            assert not np.shares_memory(stored, given_in)
