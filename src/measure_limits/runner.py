"""Check execution and report assembly for scenario documents.

Each requested check runs against the built scenario and yields a verdict
record; an exception a check raises becomes its ``error`` verdict
instead of aborting the run.  A check backed by a report (``fatou``, the
minorant and majorant chains, ``dct`` and the uniform checks) writes the
report as it is: the report's fields are the payload and its conclusion
is the verdict.  Reports serialize canonically so identical inputs hash
identically.  Checks run one after another and share the
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


def _check_tail(sc: Scenario, kind: str) -> CheckResult:
    curve = sc.neg_tail_curve
    v = verdict(curve, kind, sc.tolerances.ui_tol)
    payload = {"k_star": v.k_star, "tol": sc.tolerances.ui_tol,
               "family": "negative_parts"}
    if kind == "aui":
        payload["window_start"] = curve.window_start
    return CheckResult(kind, _vd(v.passes), payload,
                       {f"{kind}_tail_curve": curve})


def _check_shift(sc: Scenario) -> CheckResult:
    n = neg_part_shift(sc)
    return CheckResult("shift", _vd(n is not None),
                       {"shift": n, "k_max": max(sc.k_grid)}, {})


# payload keys that a report writes only when they are set
_UNSET = {"zero_limit_measure": False, "disagreement": None}


def _report(name: str, rep, **curves) -> CheckResult:
    """A report as its check's result: the report's conclusion is the
    verdict, and its other fields, less those not set, are the payload."""
    payload = {k: v for k, v in asdict(rep).items() if k != "conclusion"
               and (k not in _UNSET or v is not _UNSET[k])}
    return CheckResult(name, rep.conclusion, payload, curves)


def _check_uniform(sc: Scenario, which: str) -> CheckResult:
    rep = sc.uniform_report
    return _report(which, rep.fatou if which == "uniform_fatou" else rep.dct,
                   **{f"{which}_series": rep.series})


def _check_weak_gap(sc: Scenario) -> CheckResult:
    # a finite window of bank gaps neither proves nor refutes weak
    # convergence, so the verdict is the certificate's
    bank = default_bank(sc.limit_measure)
    gaps = weak_gap_bank(sc.measures, sc.limit_measure, bank)
    w = sc.window_start
    return CheckResult("weak_gap", PASS if sc.certified else "inconclusive", {
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
    "ui": lambda sc: _check_tail(sc, "ui"),
    "aui": lambda sc: _check_tail(sc, "aui"),
    "shift": _check_shift,
    "fatou": lambda sc: _report("fatou", fatou_report(sc)),
    "minorant": lambda sc: _report("minorant", minorant_check(sc)),
    "weakened_minorant": lambda sc: _report("weakened_minorant",
                                            weakened_minorant_probe(sc)),
    "majorant": lambda sc: _report("majorant", majorant_check(sc)),
    "dct": lambda sc: _report("dct", dct_report(sc)),
    "uniform_fatou": lambda sc: _check_uniform(sc, "uniform_fatou"),
    "uniform_dct": lambda sc: _check_uniform(sc, "uniform_dct"),
    "weak_gap": _check_weak_gap,
}


def check_results(sc: Scenario, names) -> tuple[CheckResult, ...]:
    """The named checks' results on one scenario, in order; a check that
    raises reads 'error'.  ``run_checks`` and ``gallery.run`` both read
    their verdicts here."""

    def one(name: str) -> CheckResult:
        # module errors, math.fsum's OverflowError (finite products whose
        # sum passes the double range) and any other failure of one check
        # are its error verdict; the other checks still run
        try:
            return _CHECKS[name](sc)
        except Exception as exc:
            return CheckResult(name, "error",
                               {"error": f"{type(exc).__name__}: {exc}"}, {})

    return tuple(one(n) for n in names)


def run_checks(doc: ScenarioDoc, checks: Optional[tuple[str, ...]] = None
               ) -> ReportDoc:
    """Execute the requested checks on the document's scenario."""
    names = tuple(checks if checks is not None else doc.checks)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ScenarioFormatError(f"unknown checks {unknown}; "
                                  f"known: {sorted(_CHECKS)}")
    return ReportDoc(doc.name, doc.hash(), check_results(doc.scenario, names))
