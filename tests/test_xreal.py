import math

import pytest

from measure_limits.xreal import Interval, MalformedObjectError, close


def test_interval_validation():
    with pytest.raises(MalformedObjectError):
        Interval(1.0, 0.0)
    iv = Interval(0.0, math.inf)
    assert iv.contains(1e300)
    assert not iv.contains(-0.1)


VALUES = [-math.inf, -1e300, -1.0, -0.0, 0.0, 1e-10, 0.5, 1.0, 1e300, math.inf]


@pytest.mark.parametrize("tol", [1e-9, 0.5, 2.0])
def test_close_matches_the_hand_written_comparisons(tol):
    # the comparisons that close replaced, for every pair of non-NaN values
    for a in VALUES:
        for b in VALUES:
            if math.isinf(a) or math.isinf(b):
                want = a == b
            else:
                want = abs(a - b) <= tol
            same_inf = math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0)
            atom_ok = same_inf or (math.isfinite(a) and math.isfinite(b)
                                   and abs(b - a) <= tol)
            assert close(a, b, tol) == close(b, a, tol) == want == atom_ok
    assert not close(math.inf, -math.inf, math.inf)
    assert not close(math.nan, 0.0, 1.0)
