"""Check execution and report assembly for scenario documents.

Each requested check runs against the built scenario and yields a verdict
record; module errors become per-check ``error`` verdicts instead of
aborting the run.  Reports serialize canonically so identical inputs hash
identically.  Checks run one after another and share the scenario's
memoized computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import __version__
from .fatou import (
    Scenario,
    dct_report,
    fatou_report,
    majorant_check,
    minorant_check,
    neg_part_shift,
    neg_tail_curve,
    weakened_minorant_probe,
)
from .functions import PiecewiseFn, Ramp, constant_fn
from .integration import weak_gap_bank
from .scenario import KNOWN_CHECKS, ScenarioDoc, canonical_json
from .tails import verdict
from .uniform import trend_vanishing, uniform_report
from .xreal import MeasureLimitsError, ScenarioFormatError

PASS = "pass"
FAIL = "fail"

_EXIT_OK = {"pass", "holds", "inconclusive", "not_applicable"}
_EXIT_VIOLATED = {"fail", "violated"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    payload: dict
    curves: dict  # curve name -> CSV text


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
            if curve_files:
                refs = {k: v for k, v in curve_files.items()
                        if k.startswith(r.name)}
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

    def to_json(self, curve_files: Optional[dict] = None) -> str:
        return canonical_json(self.to_dict(curve_files))

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
    v = verdict(neg_tail_curve(sc), "ui", sc.tolerances.ui_tol)
    curve = neg_tail_curve(sc)
    return CheckResult("ui", _vd(v.passes),
                       {"k_star": v.k_star, "tol": v.tol,
                        "family": "negative_parts"},
                       {"ui_tail_curve": curve.to_csv()})


def _check_aui(sc: Scenario) -> CheckResult:
    curve = neg_tail_curve(sc)
    v = verdict(curve, "aui", sc.tolerances.ui_tol)
    return CheckResult("aui", _vd(v.passes),
                       {"k_star": v.k_star, "tol": v.tol,
                        "window_start": curve.window_start,
                        "family": "negative_parts"},
                       {"aui_tail_curve": curve.to_csv()})


def _check_shift(sc: Scenario) -> CheckResult:
    n = neg_part_shift(sc)
    return CheckResult("shift", _vd(n is not None),
                       {"shift": n, "k_max": max(sc.k_grid)}, {})


def _check_fatou(sc: Scenario) -> CheckResult:
    rep = fatou_report(sc)
    aui = rep.diagnostics["aui_negative_parts"]
    return CheckResult("fatou", rep.conclusion, {
        "lhs": rep.lhs, "lhs_certainty": rep.lhs_certainty,
        "rhs": rep.rhs, "rhs_stabilized": rep.rhs_stabilized,
        "gap": rep.gap, "window_start": rep.window_start,
        "aui_negative_parts": aui.passes,
        "weak_convergence": rep.diagnostics["weak_convergence"],
    }, {})


def _minorant_payload(rep) -> dict:
    return {
        "dominance_ok": rep.dominance_ok,
        "epi_integral": rep.epi_integral,
        "epi_certainty": rep.epi_certainty,
        "finite_ok": rep.finite_ok,
        "liminf_of_integrals": rep.liminf_of_integrals,
        "chain_ok": rep.chain_ok,
    }


def _check_minorant(sc: Scenario) -> CheckResult:
    rep = minorant_check(sc)
    return CheckResult("minorant", "holds" if rep.holds else "violated",
                       _minorant_payload(rep), {})


def _check_weakened_minorant(sc: Scenario) -> CheckResult:
    rep = weakened_minorant_probe(sc)
    return CheckResult("weakened_minorant", "holds" if rep.holds else "violated",
                       _minorant_payload(rep), {})


def _check_majorant(sc: Scenario) -> CheckResult:
    rep = majorant_check(sc)
    return CheckResult("majorant", "holds" if rep.holds else "violated", {
        "dominance_ok": rep.dominance_ok,
        "limsup_of_integrals": rep.limsup_of_integrals,
        "epi_liminf_integral": rep.epi_liminf_integral,
        "finite_ok": rep.finite_ok,
        "chain_ok": rep.chain_ok,
    }, {})


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
    rep = uniform_report(sc)
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
    return CheckResult(which, v, payload, {f"{which}_series": rep.series.to_csv()})


def _check_uniform_fatou(sc: Scenario) -> CheckResult:
    return _check_uniform(sc, "uniform_fatou")


def _check_uniform_dct(sc: Scenario) -> CheckResult:
    return _check_uniform(sc, "uniform_dct")


def default_bank(sc: Scenario):
    """Constant witness plus unit-bounded bumps at the limit measure's
    structural points: 1-Lipschitz hats on atom/cell measures, indicator
    steps when analytic segments are present (ramps have no closed-form
    first moment against a CDF)."""
    dom = sc.limit_measure.domain
    bank = [constant_fn(1.0, dom)]
    stepped = bool(sc.limit_measure.segments)
    for c in sc.limit_measure.piece_edges()[:6]:
        c = float(c)
        if stepped:
            hi = min(c + 1.0, dom.hi)
            if hi > c:
                bank.append(PiecewiseFn([c, hi], [1.0], 0.0, dom))
        else:
            bank.append(Ramp((c - 1.0, c, c + 1.0), (0.0, 1.0, 0.0)))
    return bank


def _check_weak_gap(sc: Scenario) -> CheckResult:
    series = weak_gap_bank(sc.measures, sc.limit_measure, default_bank(sc),
                           sc.certificate)
    w = sc.window_start
    vanishing = trend_vanishing(series.gaps, w, sc.tolerances.ui_tol)
    witnessed = not vanishing and min(series.gaps[w - 1:]) > 100 * sc.tolerances.ui_tol
    if witnessed:
        v = "violated"
    elif sc.certificate in ("tv", "builder"):
        v = "pass"
    else:
        v = "inconclusive"
    return CheckResult("weak_gap", v, {
        "bank_size": series.bank_size,
        "certificate": series.certificate,
        "max_gap_window": max(series.gaps[w - 1:]),
        "trend_vanishing": vanishing,
        "note": "bank gaps witness non-convergence only; convergence needs "
                "a certificate",
    }, {})


# each scenario.KNOWN_CHECKS name is served by the function `_check_<name>`
_CHECKS = {name: globals()[f"_check_{name}"] for name in KNOWN_CHECKS}


def run_checks(doc: ScenarioDoc, checks: Optional[tuple[str, ...]] = None
               ) -> ReportDoc:
    """Execute the requested checks; failed modules yield 'error' verdicts."""
    names = tuple(checks if checks is not None else doc.checks)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ScenarioFormatError(f"unknown checks {unknown}; "
                                  f"known: {sorted(_CHECKS)}")
    sc = doc.build_scenario()

    def one(name: str) -> CheckResult:
        try:
            return _CHECKS[name](sc)
        except MeasureLimitsError as exc:
            return CheckResult(name, "error",
                               {"error": f"{type(exc).__name__}: {exc}"}, {})

    return ReportDoc(doc.name, doc.hash(), tuple(one(n) for n in names))
