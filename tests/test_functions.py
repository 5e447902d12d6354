import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    DomainMismatchError,
    Interval,
    MalformedObjectError,
    PiecewiseFn,
    Ramp,
    dominates,
    part,
    tail_restrict,
    zero_fn,
)

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
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 3.0], 0.0, DOM)
    assert f.left_limit(0.5) == 1.0
    assert f.lower_envelope(0.5) == 1.0
    assert f.upper_envelope(0.5) == 3.0
    assert f.lower_envelope(0.25) == 1.0


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


def test_tail_restrict_examples():
    f = PiecewiseFn([0.0, 0.5, 1.0], [-1.0, -3.0], 0.0, DOM)
    t = tail_restrict(f, 2.5)
    assert t(0.25) == 0.0
    assert t(0.75) == 3.0
    # boundary level included
    g = PiecewiseFn((), (), -2.0, DOM)
    assert tail_restrict(g, 2.0)(0.5) == 2.0
    # above the sup: identically zero
    assert tail_restrict(f, 99.0)(0.75) == 0.0
    with pytest.raises(ValueError):
        tail_restrict(f, 0.0)


@settings(max_examples=100)
@given(step_fns(), st.floats(0.1, 40.0), st.floats(0.0, 10.0),
       st.floats(0.0, 1.0))
def test_tail_restrict_monotone_in_level(f, k, bump, x):
    lo, hi = tail_restrict(f, k), tail_restrict(f, k + bump)
    assert hi(x) <= lo(x)


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
    bp = np.array([0.0, 0.25, 0.5, 1.0])
    vals = np.array([1.0, -0.0, 2.0])
    f = PiecewiseFn(bp, vals, 0.0, DOM)
    assert f.breakpoints.tobytes() == bp.tobytes()
    assert f.values.tobytes() == vals.tobytes()
    # the caller's arrays are copied, not frozen; a function's own
    # read-only arrays are shared
    assert bp.flags.writeable and vals.flags.writeable
    assert not np.shares_memory(f.breakpoints, bp)
    g = PiecewiseFn(f.breakpoints, f.values, 0.0, DOM)
    assert np.shares_memory(g.breakpoints, f.breakpoints)
    assert np.shares_memory(g.values, f.values)
    # equal neighbours still merge
    h = PiecewiseFn(bp, [1.0, 1.0, 2.0], 0.0, DOM)
    assert h.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert h.values.tolist() == [1.0, 2.0]


def test_dominates_examples():
    f = PiecewiseFn([0.0, 0.5, 1.0], [1.0, 2.0], 0.0, DOM)
    ok, witness = dominates(f, f)
    assert ok and witness is None
    zero = zero_fn(DOM)
    one = PiecewiseFn((), (), 1.0, DOM)
    ok, witness = dominates(zero, one)
    assert not ok
    assert witness.upper_value == 0.0 and witness.lower_value == 1.0


def test_dominates_subcell_violation_is_found():
    upper = PiecewiseFn([0.0, 1.0], [1.0], 0.0, DOM)
    lower = PiecewiseFn([0.4, 0.6], [5.0], 0.0, DOM)
    ok, witness = dominates(upper, lower)
    assert not ok
    assert witness.lo == 0.4 and witness.hi == 0.6


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
        lo, hi = f.range_on(a, b, False, False)
        xs = np.linspace(a + 1e-9, b - 1e-9, 2000)
        sampled = f.values_at(xs)
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
    assert r.sup_abs() == 1.0
    with pytest.raises(MalformedObjectError):
        Ramp((0.0, 1.0), (math.inf, 0.0))
    with pytest.raises(MalformedObjectError):
        Ramp((1.0, 0.0), (0.0, 1.0))


def test_infinite_values_allowed_in_cells():
    f = PiecewiseFn([0.0, 1.0], [-math.inf], 0.0, DOM)
    assert f(0.5) == -math.inf
    assert not f.is_bounded()
    assert abs(f)(0.5) == math.inf
