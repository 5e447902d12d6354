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
    part, tail_restrict, dominates, zero_fn, constant_fn,
)
from .measures import (
    FiniteMeasure, MeasureSequence, SignedCellMeasure, AnalyticSegment,
    total_mass, lebesgue, point_mass, make_segment, constant_measures,
)
from .refinement import Partition, common_refinement
from .integration import (
    integrate, tail_integral_raw, tv_norm_diff, integrate_ramp, weak_gap_bank,
)
from .tails import (
    TailCurve, UiVerdict, tail_integral, tail_curve, verdict, shift_search,
    check_tail_table, DEFAULT_K_GRID, default_window_start,
)
from .epilimits import (
    EpiSchedule, EpiEstimate, epi_liminf, epi_limsup, epi_limit_exists,
    epi_integral,
)
from .fatou import (
    Scenario, Tolerances, GapReport, seq_liminf, seq_limsup, fatou_report,
    minorant_check, weakened_minorant_probe, majorant_check, dct_report,
    bounded_minorant_shift_probe, with_constant_offset,
)
from .uniform import (
    signed_gap, uniform_fatou_gap, uniform_sup_gap, condition_undershoot,
    conv_in_measure, uniform_report, UniformGapSeries, hahn_masses,
)
from .scenario import ScenarioDoc, parse_scenario, canonical_json, doc_hash
from .runner import run_checks, ReportDoc

__all__ = [name for name in dir() if not name.startswith("_")]
