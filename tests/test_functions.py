import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measure_limits import (
    DomainMismatchError,
    EpiCertificate,
    Interval,
    MalformedObjectError,
    PiecewiseFn,
    Ramp,
    constant_fn,
    dominates,
    zero_fn,
)
from measure_limits.functions import LazyFamily

from helpers import negated, part, piecewise_oracle, range_on

DOM = Interval(0.0, 1.0)


def step_fns(domain=DOM, min_value=-50.0, max_value=50.0):
    finite = st.floats(min_value, max_value, allow_nan=False)

    @st.composite
    def build(draw):
        n_cells = draw(st.integers(0, 5))
        if n_cells == 0:
            return PiecewiseFn((), (), draw(finite), domain)
        bps = draw(st.lists(
            st.floats(domain.lo, domain.hi, allow_nan=False),
            min_size=n_cells + 1, max_size=n_cells + 1, unique=True))
        vals = draw(st.lists(finite, min_size=n_cells, max_size=n_cells))
        return PiecewiseFn(sorted(bps), vals, draw(finite), domain)

    return build()


def test_construction_validation():
    with pytest.raises(MalformedObjectError):
        PiecewiseFn([0.0, 0.0], [1.0], 0.0, DOM)       # non-increasing
    with pytest.raises(MalformedObjectError):
        PiecewiseFn([0.0, 1.0], [1.0, 2.0], 0.0, DOM)  # count mismatch
    with pytest.raises(MalformedObjectError):
        PiecewiseFn([0.0, 1.0], [math.nan], 0.0, DOM)
    with pytest.raises(MalformedObjectError):
        PiecewiseFn([-1.0, 0.5], [1.0], 0.0, DOM)      # outside domain


def test_half_open_cells_and_right_endpoint():
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 2.0], -7.0, DOM)
    assert f(0.0) == 1.0
    assert f(0.5) == 2.0
    assert f(1.0) == 2.0  # domain endpoint belongs to the last cell
    g = PiecewiseFn([0.0, 0.5], [1.0], -7.0, DOM)
    assert g(0.5) == -7.0
    assert g(0.75) == -7.0
    with pytest.raises(DomainMismatchError):
        f(1.5)


def test_left_limit_and_envelopes():
    # the table's entry c is f after c breakpoints; the last breakpoint is
    # the closed end, so the end entry is the last cell's value
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 3.0], 0.0, DOM)
    assert f.table.tolist() == [0.0, 1.0, 3.0, 3.0]
    # f(x) against the left limit f(x-), which domain.lo has not
    xs = [0.5, 0.25, 0.0, 1.0]
    assert EpiCertificate(f).values_at(xs, True).tolist() == [1.0, 1.0, 1.0, 3.0]
    assert EpiCertificate(f).values_at(xs, False).tolist() == [3.0, 1.0, 1.0, 3.0]
    # the first override at a point wins
    pinned = EpiCertificate(f, ((0.5, -2.0), (0.5, 9.0)))
    assert pinned.values_at(xs, True).tolist() == [-2.0, 1.0, 1.0, 3.0]
    with pytest.raises(DomainMismatchError, match=r"^1.5 outside domain \[0.0, 1.0\]$"):
        EpiCertificate(f).values_at([0.5, 1.5, -1.0], True)


TABLE_DOMAINS = [DOM, Interval(0.0, math.inf), Interval(-math.inf, 1.0),
                 Interval(0.5, 0.5)]
TABLE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.0, math.inf])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_DOMAINS),
       st.lists(st.sampled_from([k / 4 for k in range(5)]), unique=True,
                max_size=5),
       st.lists(TABLE_VALUES, min_size=4, max_size=4), TABLE_VALUES)
@example(DOM, [0.0, 0.5, 1.0], [1.0, 3.0, 0.0, 0.0], 0.0)
@example(DOM, [], [0.0] * 4, 1.0)
@example(Interval(0.5, 0.5), [], [0.0] * 4, -0.0)
def test_table_is_default_values_and_end(domain, bps, vals, default):
    # entry c is the value after c breakpoints: the default, the stored
    # values, then the last cell's value if the last breakpoint is a
    # closed finite domain.hi and the default otherwise; one entry, the
    # default, for a function without breakpoints
    bps = sorted(x for x in bps if domain.contains(x))
    vals = vals[:max(len(bps) - 1, 0)]
    f = PiecewiseFn(bps, vals, default, domain)
    want_bp, want_vals, want_default = piecewise_oracle(bps, vals, default,
                                                        domain)
    if want_bp.size:
        end = want_vals[-1] if want_bp[-1] == domain.hi else want_default
        want = [want_default, *want_vals, end]
    else:
        want = [want_default]
    assert f.table.tobytes() == np.asarray(want).tobytes()
    assert f.values.tobytes() == want_vals.tobytes()
    for x in {*bps, domain.lo, domain.hi, 0.3}:
        if domain.contains(x):
            c = sum(b <= x for b in want_bp)
            assert type(f(x)) is float and f(x).hex() == float(want[c]).hex()


def test_part_examples():
    f = PiecewiseFn((), (), -3.0, DOM)
    assert part(f, "negative")(0.3) == 3.0
    assert part(f, "positive")(0.3) == 0.0
    g = PiecewiseFn([0.0, 1.0], [5.0], 0.0, DOM)
    assert part(g, "negative")(0.5) == 0.0  # nonnegative fn has zero neg part


def test_part_spike_negative_half():
    n = 4
    dom = Interval(-1.0, 1.0)
    f = PiecewiseFn([-1.0 / n, 0.0, 1.0 / n], [-4.0, 4.0], 0.0, dom)
    neg = part(f, "negative")
    assert neg(-0.1) == 4.0
    assert neg(0.1) == 0.0
    assert neg(-0.5) == 0.0


@settings(max_examples=150)
@given(step_fns(), st.floats(0.0, 1.0))
def test_part_identity_pointwise(f, x):
    pos, neg = part(f, "positive"), part(f, "negative")
    assert pos(x) - neg(x) == f(x)
    assert pos(x) * neg(x) == 0.0
    assert pos(x) >= 0.0 and neg(x) >= 0.0


@settings(max_examples=100)
@given(step_fns(), st.floats(0.0, 1.0))
def test_canonicalization_preserves_evaluation(f, x):
    g = PiecewiseFn(f.breakpoints, f.values, f.default, f.domain)
    assert g(x) == f(x)
    assert g.breakpoints.size == f.breakpoints.size  # idempotent


def test_canonicalization_merges_and_strips():
    f = PiecewiseFn([0.0, 0.2, 0.4, 0.6, 1.0], [0.0, 2.0, 2.0, 0.0], 0.0, DOM)
    assert list(f.breakpoints) == [0.2, 0.6]
    assert list(f.values) == [2.0]
    g = PiecewiseFn([0.1, 0.9], [0.0], 0.0, DOM)
    assert g.breakpoints.size == 0


def test_canonicalization_without_merges_keeps_the_arrays():
    bp = np.array([-0.0, 0.25, 0.5, 1.0])
    vals = np.array([1.0, -0.0, 2.0])
    f = PiecewiseFn(bp, vals, 0.0, DOM)
    assert f.breakpoints.tobytes() == bp.tobytes()
    # a -0.0 value is stored as 0.0; breakpoints keep their bytes
    assert f.values.tobytes() == np.array([1.0, 0.0, 2.0]).tobytes()
    assert vals.tobytes() == np.array([1.0, -0.0, 2.0]).tobytes()
    # the caller's arrays are copied, not frozen
    assert bp.flags.writeable and vals.flags.writeable
    assert not np.shares_memory(f.breakpoints, bp)
    # equal neighbours still merge, and a merged -0.0 cell or a -0.0
    # default is stored as 0.0 as well
    h = PiecewiseFn(bp, [-0.0, 0.0, 2.0], -0.0, DOM)
    assert h.breakpoints.tolist() == [0.5, 1.0]
    assert h.values.tolist() == [2.0]
    assert math.copysign(1.0, h.default) == 1.0
    k = PiecewiseFn(bp, [-0.0, 0.0, 2.0], 1.0, DOM)
    assert k.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert np.signbit(k.values).tolist() == [False, False]
    assert np.signbit(negated(k).values).tolist() == [False, True]


def frozen(xs) -> np.ndarray:
    a = np.array(xs, dtype=np.float64)
    a.flags.writeable = False
    return a


def test_frozen_owning_arrays_without_negative_zero_are_shared():
    # values given as the inside of a frozen table [default, values, end]
    bp, table = frozen([0.0, 0.25, 0.5, 1.0]), frozen([0.0, 1.0, 0.0, 2.0, 2.0])
    f = PiecewiseFn(bp, table[1:-1], 0.0, DOM)
    assert f.breakpoints is bp and f.table is table and f.values.base is table
    # a function built from another one's arrays shares them too
    g = PiecewiseFn(f.breakpoints, f.values, 0.0, DOM)
    assert g.breakpoints is bp and g.table is table


def test_frozen_arrays_that_need_a_change_are_copied():
    bp = frozen([0.0, 0.25, 0.5, 1.0])
    # a -0.0 value is stored as 0.0 in a new table; the breakpoints are kept
    table = frozen([0.0, 1.0, -0.0, 2.0, 2.0])
    f = PiecewiseFn(bp, table[1:-1], 0.0, DOM)
    assert f.breakpoints is bp and f.table is not table
    assert f.table.tobytes() == np.array([0.0, 1.0, 0.0, 2.0, 2.0]).tobytes()
    assert table.tobytes() == np.array([0.0, 1.0, -0.0, 2.0, 2.0]).tobytes()
    # so is a table whose ends are not the default and the end value: the
    # end is the last cell's value, as the last breakpoint is domain.hi
    for ends in ((0.0, 0.0), (-0.0, 2.0), (5.0, 2.0)):
        wrong = frozen([ends[0], 1.0, 0.0, 2.0, ends[1]])
        k = PiecewiseFn(bp, wrong[1:-1], 0.0, DOM)
        assert k.table.tobytes() == np.array([0.0, 1.0, 0.0, 2.0, 2.0]).tobytes()
    # values that own their data are written into a new table
    vals = frozen([1.0, 0.0, 2.0])
    assert not np.shares_memory(PiecewiseFn(bp, vals, 0.0, DOM).table, vals)
    # a read-only view does not own its data, so it is copied
    base = frozen([-1.0, 0.0, 0.25, 0.5, 1.0])
    view = base[1:]
    assert not view.flags.writeable
    g = PiecewiseFn(view, frozen([1.0, 3.0, 2.0]), 0.0, DOM)
    assert g.breakpoints is not view
    assert not np.shares_memory(g.breakpoints, base)
    assert g.breakpoints.tobytes() == view.tobytes()
    # stripped or merged cells give new arrays of the kept entries
    h = PiecewiseFn(bp, frozen([0.0, 2.0, 2.0]), 0.0, DOM)
    assert h.breakpoints.tolist() == [0.25, 1.0]
    assert h.values.tolist() == [2.0]
    assert not np.shares_memory(h.breakpoints, bp)
    for fn in (f, g, h):
        for a in (fn.breakpoints, fn.table):
            assert not a.flags.writeable and a.base is None
        assert fn.values.base is fn.table


def test_dominates_examples():
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 2.0], 0.0, DOM)
    zero = zero_fn(DOM)
    one = PiecewiseFn((), (), 1.0, DOM)
    assert dominates((f,), (f,))
    assert dominates((f, one), (zero, zero))
    assert not dominates((zero,), (one,))
    # the failing index need not be the first
    assert not dominates((f, zero), (zero, one))
    assert dominates((), ())


def test_dominates_subcell_violation_is_found():
    upper = PiecewiseFn([0.0, 1.0], [1.0], 0.0, DOM)
    lower = PiecewiseFn([0.4, 0.6], [5.0], 0.0, DOM)
    assert not dominates((upper,), (lower,))
    # a violation at the closed end domain.hi alone
    top = PiecewiseFn([0.5, 1.0], [2.0], 0.0, DOM)
    assert not dominates((zero_fn(DOM),), (top,))
    assert dominates((top,), (PiecewiseFn([0.5, 1.0], [1.0], 0.0, DOM),))


def test_dominates_on_a_one_point_domain_compares_defaults():
    point = Interval(2.0, 2.0)
    lo, hi = (PiecewiseFn((), (), v, point) for v in (-1.0, 3.0))
    assert dominates((hi, lo), (lo, lo))
    assert not dominates((hi, lo), (lo, hi))


def test_dominates_raises_at_the_first_mismatched_index():
    f = PiecewiseFn([0.0, 0.5], [2.0], 0.0, DOM)
    other = zero_fn(Interval(0.0, 2.0))
    with pytest.raises(DomainMismatchError,
                       match="dominance check requires a shared domain"):
        dominates((f, f, f), (f, other, zero_fn(DOM)))
    # an earlier failing index returns before the mismatch is read
    assert not dominates((zero_fn(DOM), f), (f, other))


def test_range_on_matches_dense_sampling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_cells = int(rng.integers(1, 6))
        bps = np.sort(rng.choice(np.linspace(0, 1, 41), n_cells + 1,
                                 replace=False))
        vals = rng.uniform(-5, 5, n_cells)
        f = PiecewiseFn(bps, vals, float(rng.uniform(-5, 5)), DOM)
        a, b = sorted(rng.uniform(0, 1, 2))
        if b - a < 1e-3:
            continue
        lo, hi = range_on(f, a, b, False, False)
        xs = np.linspace(a + 1e-9, b - 1e-9, 2000)
        sampled = np.asarray([f(x) for x in xs])
        assert lo <= float(np.min(sampled)) + 1e-12
        assert hi >= float(np.max(sampled)) - 1e-12
        # sampling at cell interiors must reach the exact extrema
        mids = [(max(p, a) + min(q, b)) / 2
                for p, q in zip([a] + list(bps) + [b], list(bps) + [b, b])
                if min(q, b) > max(p, a)]
        vals_at = [f(x) for x in mids if a < x < b]
        if vals_at:
            assert lo == min(min(vals_at), lo)


def test_ramp_evaluation_and_bounds():
    r = Ramp((0.0, 1.0), (1.0, 0.0))
    assert r(-5.0) == 1.0 and r(2.0) == 0.0 and r(0.5) == 0.5
    with pytest.raises(MalformedObjectError):
        Ramp((0.0, 1.0), (math.inf, 0.0))
    with pytest.raises(MalformedObjectError):
        Ramp((1.0, 0.0), (0.0, 1.0))


def test_infinite_values_allowed_in_cells():
    f = PiecewiseFn([0.0, 1.0], [-math.inf], 0.0, DOM)
    assert f(0.5) == -math.inf
    assert not f.is_bounded()
    assert abs(f)(0.5) == math.inf


def test_lazy_family_builds_only_what_is_read():
    built = []
    family = LazyFamily(lambda n: built.append(n) or constant_fn(n, DOM),
                        range(1, 6))
    part = family[1:4]
    assert (len(family), len(part), built) == (5, 3, [])
    assert [f.default for f in part] == [2.0, 3.0, 4.0]
    assert family[-1].default == 5.0
    # nothing read is kept: a second read builds again
    assert [f.default for f in part[::2]] == [2.0, 4.0]
    assert built == [2, 3, 4, 5, 2, 4]
    with pytest.raises(IndexError):
        family[5]
    # an IndexError raised by the builder is an error, not the family's end
    with pytest.raises(IndexError):
        list(LazyFamily(lambda n: [][n], range(1, 3)))
