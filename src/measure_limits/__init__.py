"""Executable diagnostics for limit theorems on sequences of finite measures."""

__version__ = "0.1.0"

from .xreal import (
    Interval,
    MeasureLimitsError,
    MalformedObjectError,
    DomainMismatchError,
    NotIntegrableError,
    UndefinedIntegralError,
    UnsupportedScenarioError,
    ScheduleError,
    ScenarioFormatError,
)
from .functions import (
    PiecewiseFn, FnSequence, EpiCertificate, Ramp,
    dominates, zero_fn, constant_fn,
)
from .measures import (
    FiniteMeasure, AnalyticSegment, lebesgue, point_mass, make_segment,
)
from .integration import integrate, weak_gap_bank
from .tails import (
    TailCurve, UiVerdict, verdict, first_shift,
    DEFAULT_K_GRID, default_window_start,
)
from .epilimits import (
    EpiSchedule, epi_limit_exists, epi_integral,
)
from .fatou import (
    Scenario, Tolerances, GapReport, seq_liminf, seq_limsup, fatou_report,
    minorant_check, weakened_minorant_probe, majorant_check, dct_report,
)
from .uniform import uniform_report, UniformGapSeries
from .scenario import ScenarioDoc, parse_scenario, canonical_json, doc_hash
from .runner import run_checks, ReportDoc

__all__ = [name for name in dir() if not name.startswith("_")]
