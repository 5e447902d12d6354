"""Extended-real arithmetic and interval domains.

Extended reals are plain floats (``math.inf`` / ``-math.inf`` are legal
values); this module supplies the conventions the rest of the package
relies on:

* ``0 * inf == 0`` inside integration (mass zero kills any value),
* an integral whose positive and negative parts both diverge raises
  ``UndefinedIntegralError`` (``integral_of_parts``).  Other
  ``inf - inf`` differences are not trapped: a Fatou gap between two
  equal infinities is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

class MeasureLimitsError(Exception):
    """Base class for all package errors."""


class MalformedObjectError(MeasureLimitsError):
    """A measure or function violates its structural invariants."""


class DomainMismatchError(MeasureLimitsError):
    """Two objects that must share a domain do not."""


class UndefinedIntegralError(MeasureLimitsError):
    """Both the positive and the negative part of an integral diverge."""


class NotIntegrableError(MeasureLimitsError):
    """An operation requires an absolutely integrable input and got none."""


class UnsupportedScenarioError(MeasureLimitsError):
    """The requested computation is rejected rather than approximated."""


class ScheduleError(MeasureLimitsError):
    """An epigraphical-limit schedule is inconsistent with the index range."""


class ScenarioFormatError(MeasureLimitsError):
    """A scenario document failed validation; message carries the field path."""


def integral_of_parts(pos: float, neg: float, undefined: str) -> float:
    """pos - neg for a positive- and a negative-part integral.

    Either part may be +inf, which makes the integral +inf or -inf.
    Raises UndefinedIntegralError with the message ``undefined`` when
    both parts diverge.
    """
    if math.isinf(pos) and math.isinf(neg):
        raise UndefinedIntegralError(undefined)
    if math.isinf(pos):
        return math.inf
    if math.isinf(neg):
        return -math.inf
    return pos - neg


def require_not_nan(x: float, what: str) -> float:
    if math.isnan(x):
        raise MalformedObjectError(f"{what} is NaN")
    return x


@dataclass(frozen=True)
class Interval:
    """A closed interval of the real line; either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise MalformedObjectError(f"invalid interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, lo: float, hi: float) -> bool:
        return self.lo <= lo and hi <= self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)
