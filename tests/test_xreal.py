import math

import pytest

from measure_limits.xreal import Interval, MalformedObjectError


def test_interval_validation():
    with pytest.raises(MalformedObjectError):
        Interval(1.0, 0.0)
    iv = Interval(0.0, math.inf)
    assert iv.contains(1e300)
    assert not iv.contains(-0.1)
    assert not iv.bounded
    assert Interval(0.0, 1.0).bounded
