"""Check execution and report assembly for scenario documents.

Each requested check runs against the built scenario and yields a verdict
record; an exception a check raises becomes its ``error`` verdict
instead of aborting the run.  Reports serialize canonically so identical
inputs hash identically.  Checks run one after another and share the
scenario's memoized computations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from . import __version__
from .fatou import (
    Scenario,
    dct_report,
    fatou_report,
    majorant_check,
    minorant_check,
    neg_part_shift,
    weakened_minorant_probe,
)
from .integration import default_bank, weak_gap_bank
from .tails import verdict
from .uniform import trend_vanishing
from .xreal import ScenarioFormatError

if TYPE_CHECKING:
    from .scenario import ScenarioDoc

PASS = "pass"
FAIL = "fail"

_EXIT_VIOLATED = {"fail", "violated"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    payload: dict
    curves: dict  # curve name -> curve, rendered by its to_csv()


@dataclass(frozen=True)
class ReportDoc:
    scenario_name: str
    scenario_hash: str
    results: tuple[CheckResult, ...]

    def to_dict(self, curve_files: Optional[dict] = None) -> dict:
        checks = {}
        for r in self.results:
            entry = {"verdict": r.verdict}
            entry.update(r.payload)
            refs = {k: v for k, v in (curve_files or {}).items() if k in r.curves}
            if refs:
                entry["curves"] = refs
            checks[r.name] = entry
        return {
            "tool": "measure-limits",
            "version": __version__,
            "scenario": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "checks": checks,
        }

    @property
    def exit_code(self) -> int:
        if any(r.verdict == "error" for r in self.results):
            return 1
        if any(r.verdict in _EXIT_VIOLATED for r in self.results):
            return 2
        return 0


def _vd(v) -> str:
    return PASS if v else FAIL


def _check_ui(sc: Scenario) -> CheckResult:
    curve = sc.neg_tail_curve
    v = verdict(curve, "ui", sc.tolerances.ui_tol)
    return CheckResult("ui", _vd(v.passes),
                       {"k_star": v.k_star, "tol": sc.tolerances.ui_tol,
                        "family": "negative_parts"},
                       {"ui_tail_curve": curve})


def _check_aui(sc: Scenario) -> CheckResult:
    curve = sc.neg_tail_curve
    v = verdict(curve, "aui", sc.tolerances.ui_tol)
    return CheckResult("aui", _vd(v.passes),
                       {"k_star": v.k_star, "tol": sc.tolerances.ui_tol,
                        "window_start": curve.window_start,
                        "family": "negative_parts"},
                       {"aui_tail_curve": curve})


def _check_shift(sc: Scenario) -> CheckResult:
    n = neg_part_shift(sc)
    return CheckResult("shift", _vd(n is not None),
                       {"shift": n, "k_max": max(sc.k_grid)}, {})


def _check_fatou(sc: Scenario) -> CheckResult:
    rep = fatou_report(sc)
    aui = rep.diagnostics["aui_negative_parts"]
    payload = {
        "lhs": rep.lhs, "lhs_certainty": rep.lhs_certainty,
        "rhs": rep.rhs, "rhs_stabilized": rep.rhs_stabilized,
        "gap": rep.gap, "window_start": sc.window_start,
        "aui_negative_parts": aui.passes,
        "weak_convergence": rep.diagnostics["weak_convergence"],
    }
    if "zero_limit_measure" in rep.diagnostics:  # lhs is 0 by fiat
        payload["zero_limit_measure"] = True
    return CheckResult("fatou", rep.conclusion, payload, {})


def _chain(name: str, rep) -> CheckResult:
    """A minorant or majorant report, its fields as the payload."""
    return CheckResult(name, "holds" if rep.holds else "violated",
                       asdict(rep), {})


def _check_dct(sc: Scenario) -> CheckResult:
    rep = dct_report(sc)
    return CheckResult("dct", rep.conclusion, {
        "limit_exists_ae": rep.limit_exists_ae,
        "exception_mass": rep.exception_mass,
        "mass_exact": rep.mass_exact,
        "aui_full_family": rep.aui_full.passes,
        "hypotheses_ok": rep.hypotheses_ok,
        "lim_lo": rep.lim_lo, "lim_hi": rep.lim_hi,
        "limit_integral": rep.limit_integral,
        "limit_certainty": rep.limit_certainty,
        "equal": rep.equal,
        "equality_without_condition": rep.equality_without_condition,
    }, {})


def _check_uniform(sc: Scenario, which: str) -> CheckResult:
    rep = sc.uniform_report
    if which == "uniform_fatou":
        consistent, observed, predicted = (
            rep.fatou_consistent, rep.fatou_gap_vanishing, rep.fatou_predicted)
    else:
        consistent, observed, predicted = (
            rep.dct_consistent, rep.sup_gap_vanishing, rep.dct_predicted)
    # both sides are trends judged over the trailing window; when they
    # disagree, the window cannot tell which one misjudged the limit
    v = ("inconclusive" if not consistent
         else "holds" if observed else "violated")
    payload = {
        "gap_trend_vanishing": observed,
        "conditions_predict_vanishing": predicted,
        "consistent": consistent,
        "aui_negative_parts": rep.aui_neg,
        "aui_full_family": rep.aui_full,
        "tv_vanishing": rep.tv_vanishing,
        "undershoot_vanishing": rep.undershoot_vanishing,
        "in_measure_vanishing": rep.in_measure_vanishing,
    }
    if not consistent:
        payload["disagreement"] = ("observed gap trend contradicts the "
                                   "two-condition characterization")
    return CheckResult(which, v, payload, {f"{which}_series": rep.series})


def _check_weak_gap(sc: Scenario) -> CheckResult:
    # a finite window of bank gaps neither proves nor refutes weak
    # convergence, so the verdict is the certificate's
    bank = default_bank(sc.limit_measure)
    gaps = weak_gap_bank(sc.measures, sc.limit_measure, bank)
    w = sc.window_start
    v = PASS if sc.certificate in ("tv", "builder") else "inconclusive"
    return CheckResult("weak_gap", v, {
        "bank_size": len(bank),
        "certificate": sc.certificate,
        "max_gap_window": max(gaps[w - 1:]),
        "trend_vanishing": trend_vanishing(gaps, w, sc.tolerances.ui_tol),
        "note": "bank gaps over a finite window are evidence only; the "
                "verdict is the convergence certificate's",
    }, {})


# every check, in the order the `$.checks` error lists them; the lambdas
# look up the report functions at call time, so perfbench's tracer sees them
_CHECKS = {
    "ui": _check_ui,
    "aui": _check_aui,
    "shift": _check_shift,
    "fatou": _check_fatou,
    "minorant": lambda sc: _chain("minorant", minorant_check(sc)),
    "weakened_minorant": lambda sc: _chain("weakened_minorant",
                                           weakened_minorant_probe(sc)),
    "majorant": lambda sc: _chain("majorant", majorant_check(sc)),
    "dct": _check_dct,
    "uniform_fatou": lambda sc: _check_uniform(sc, "uniform_fatou"),
    "uniform_dct": lambda sc: _check_uniform(sc, "uniform_dct"),
    "weak_gap": _check_weak_gap,
}


def run_checks(doc: ScenarioDoc, checks: Optional[tuple[str, ...]] = None
               ) -> ReportDoc:
    """Execute the requested checks; a check that raises reads 'error'."""
    names = tuple(checks if checks is not None else doc.checks)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ScenarioFormatError(f"unknown checks {unknown}; "
                                  f"known: {sorted(_CHECKS)}")
    sc = doc.scenario

    def one(name: str) -> CheckResult:
        # module errors, math.fsum's OverflowError (finite products whose
        # sum passes the double range) and any other failure of one check
        # are its error verdict; the other checks still run
        try:
            return _CHECKS[name](sc)
        except Exception as exc:
            return CheckResult(name, "error",
                               {"error": f"{type(exc).__name__}: {exc}"}, {})

    return ReportDoc(doc.name, doc.hash(), tuple(one(n) for n in names))
