import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from measure_limits import (
    ScenarioFormatError,
    canonical_json,
    doc_hash,
    parse_scenario,
    run_checks,
    runner,
)
from measure_limits import fatou
from measure_limits.fatou import (
    DctReport,
    GapReport,
    MajorantReport,
    MinorantReport,
)
from measure_limits.uniform import UniformCheck, UniformGapSeries, UniformReport

MINIMAL = """
{
  "name": "point-vs-constant",
  "space": {"lo": 0.0, "hi": 1.0},
  "n_max": 2,
  "measures": {"explicit": [
    {"atoms": [[0.5, 1.0]]},
    {"atoms": [[0.5, 1.0]]}
  ]},
  "limit_measure": {"atoms": [[0.5, 1.0]]},
  "functions": {"explicit": [
    {"breakpoints": [], "values": [], "default": 2.0},
    {"breakpoints": [], "values": [], "default": 2.0}
  ]},
  "checks": ["fatou"],
  "convergence_certificate": {"kind": "tv"}
}
"""


def test_minimal_document_parses_and_runs():
    doc = parse_scenario(MINIMAL)
    assert doc.name == "point-vs-constant"
    report = run_checks(doc)
    assert report.results[0].name == "fatou"
    assert report.results[0].verdict == "holds"
    assert report.exit_code == 0


def test_builder_document_resolves_gallery():
    text = json.dumps({
        "name": "comb-via-builder",
        "space": {"lo": 0.0, "hi": "inf"},
        "n_max": 10,
        "measures": {"builder": "dyadic_comb"},
        "limit_measure": {"segments": [{"name": "exp2", "lo": 0.0, "hi": "inf"}]},
        "functions": {"builder": "dyadic_comb"},
        "checks": ["fatou"],
        "convergence_certificate": {"kind": "tv"},
    })
    doc = parse_scenario(text)
    sc = doc.scenario
    assert sc.n_max == 10
    assert sc.f_seq.epi_liminf_cert is not None  # builder carries certificates
    report = run_checks(doc)
    assert report.results[0].verdict == "violated"
    assert report.exit_code == 2


def test_builder_document_inherits_tuned_grid():
    text = json.dumps({
        "name": "spikes-via-builder",
        "space": {"lo": -1.0, "hi": 1.0},
        "n_max": 60,
        "measures": {"builder": "twin_spikes"},
        "limit_measure": {"cells": [[-1.0, 1.0, 1.0]]},
        "functions": {"builder": "twin_spikes"},
        "checks": ["aui"],
        "convergence_certificate": {"kind": "tv"},
    })
    doc = parse_scenario(text)
    sc = doc.scenario
    # fixture grid is capped at n_max/2 so the finite index range cannot
    # masquerade as a vanishing tail
    assert max(sc.k_grid) == 30.0
    report = run_checks(doc)
    assert report.results[0].verdict == "fail"


def test_overlapping_cells_rejected_with_both_named():
    text = json.dumps({
        "name": "bad",
        "space": {"lo": 0.0, "hi": 3.0},
        "n_max": 1,
        "measures": {"explicit": [{"cells": [[0.0, 2.0, 1.0], [1.0, 3.0, 1.0]]}]},
        "limit_measure": {"atoms": [[0.0, 1.0]]},
        "functions": {"explicit": [{"breakpoints": [], "values": [],
                                    "default": 0.0}]},
    })
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(text)
    msg = str(err.value)
    assert "$.measures.explicit[0]" in msg
    assert "[0.0, 2.0)" in msg and "[1.0, 3.0)" in msg


@pytest.mark.parametrize("name", ["gauss", [], {"a": 1}])
def test_unknown_builder_and_segment_rejected(name):
    base = {
        "name": "x", "space": {"lo": 0.0, "hi": 1.0}, "n_max": 1,
        "limit_measure": {"atoms": [[0.5, 1.0]]},
        "functions": {"explicit": [{"breakpoints": [], "values": [],
                                    "default": 0.0}]},
    }
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps({**base, "measures": {"builder": "missing"}}))
    assert "unknown builder" in str(err.value)
    # one check of a segment name, also for a name that is not a string
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps({
            **base,
            "measures": {"explicit": [{"segments": [
                {"name": name, "lo": 0.0, "hi": 1.0}]}]},
        }))
    assert str(err.value) == (
        f"$.measures.explicit[0].segments[0].name: unknown segment "
        f"{name!r}; known: ['exp2']")


@pytest.mark.parametrize("n_max, params, path", [
    (23, None, "$.n_max"),
    (8, {"n_max": 23}, "$.functions.params.n_max"),
])
def test_comb_size_limit_is_a_field_error(n_max, params, path):
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                      / "comb_fatou.json").read_text(encoding="utf-8"))
    doc["n_max"] = n_max
    if params is not None:
        doc["functions"] = {"builder": "dyadic_comb", "params": params}
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value) == (
        f"{path}: builder 'dyadic_comb' builds at most n_max=22 "
        "(memory budget), got 23")


def test_json_error_reports_line_and_column():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario("{\n  \"name\": oops\n}")
    assert "line 2" in str(err.value)


def test_field_errors_carry_paths():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps({
            "name": "x", "space": {"lo": 1.0, "hi": 0.0}, "n_max": 1,
            "measures": {"explicit": []}, "limit_measure": {},
            "functions": {"explicit": []},
        }))
    assert "$.space" in str(err.value)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps({
            "name": "x", "space": {"lo": 0.0, "hi": 1.0}, "n_max": 1,
            "measures": {"explicit": [{"atoms": []}]},
            "limit_measure": {"atoms": []},
            "functions": {"explicit": [{"breakpoints": [0.0, 1.0], "values": [],
                                        "default": 0.0}]},
        }))
    assert "$.functions.explicit[0]" in str(err.value)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps({
            "name": "x", "space": {"lo": 0.0, "hi": 1.0}, "n_max": 1,
            "measures": {"explicit": [{"atoms": []}]},
            "limit_measure": {"atoms": []},
            "functions": {"explicit": [{"breakpoints": [], "values": [],
                                        "default": 0.0}]},
            "checks": ["nope"],
        }))
    assert "$.checks[0]" in str(err.value)


def test_roundtrip_identity():
    doc = parse_scenario(MINIMAL)
    emitted = canonical_json(doc.raw)
    doc2 = parse_scenario(emitted)
    assert doc2.raw == doc.raw
    assert canonical_json(doc2.raw) == emitted
    assert doc2.hash() == doc.hash()


def test_seventeen_digit_floats_roundtrip():
    x = 0.1 + 0.2  # classic non-representable decimal
    text = json.dumps({
        "name": "r", "space": {"lo": 0.0, "hi": 1.0}, "n_max": 1,
        "measures": {"explicit": [{"atoms": [[x, 1.0]]}]},
        "limit_measure": {"atoms": [[x, 1.0]]},
        "functions": {"explicit": [{"breakpoints": [], "values": [],
                                    "default": 0.0}]},
    })
    doc = parse_scenario(text)
    doc2 = parse_scenario(canonical_json(doc.raw))
    assert doc2.raw["measures"]["explicit"][0]["atoms"][0][0] == x


def test_infinity_encoding():
    assert canonical_json({"a": math.inf, "b": -math.inf}) == \
        '{"a":"inf","b":"-inf"}'


def test_nan_has_no_canonical_encoding():
    with pytest.raises(ValueError, match="NaN"):
        canonical_json({"a": [1.0, math.nan]})
    with pytest.raises(ValueError, match="NaN"):
        canonical_json({"a": np.float64("nan")})


def test_any_exception_of_a_check_is_its_error_verdict(monkeypatch):
    def broken(sc):
        raise KeyError("missing")

    monkeypatch.setitem(runner._CHECKS, "ui", broken)
    report = run_checks(parse_scenario(MINIMAL), ("ui", "fatou"))
    ui, fatou = report.results
    assert (ui.verdict, ui.payload) == ("error", {"error": "KeyError: 'missing'"})
    assert fatou.verdict == "holds"
    assert report.exit_code == 1


def test_report_hash_stability():
    doc = parse_scenario(MINIMAL)
    r1 = run_checks(doc)
    r2 = run_checks(doc)
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())
    assert r1.scenario_hash == doc_hash(doc.raw)


MINOR = MinorantReport(True, -1.0, "exact", True, 0.0, True)
WEAK = MinorantReport(True, -1.0, "window", True, 0.0, False)
MAJOR = MajorantReport(True, 1.0, 2.0, True, True)
EVIDENCE = {"kind": "tv", "certified": True, "tv_window_max": 0.0,
            "tv_last": 0.0}
GAP = GapReport(2.0, "exact", 2.0, True, 0.0, "holds", 1, True, EVIDENCE,
                False)
ZERO_MASS_GAP = dataclasses.replace(GAP, lhs=0.0, gap=2.0,
                                    zero_limit_measure=True)
DCT = DctReport(True, 0.0, True, False, True, 2.0, 2.0, 2.0, "exact", True,
                "holds", True)
SERIES = UniformGapSeries((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
AGREE = UniformCheck(True, True, True, True, True, True, True, True, "holds",
                     None)
DISAGREE = UniformCheck(False, True, False, True, True, True, True, True,
                        "inconclusive", "observed gap trend contradicts the "
                        "two-condition characterization")
UNIFORM = UniformReport(SERIES, AGREE, DISAGREE)


@pytest.mark.parametrize(
    "name, module, function, report, written, unset, curves", [
        ("minorant", runner, "minorant_check", MINOR, MINOR, (), {}),
        ("weakened_minorant", runner, "weakened_minorant_probe", WEAK, WEAK,
         (), {}),
        ("majorant", runner, "majorant_check", MAJOR, MAJOR, (), {}),
        ("fatou", runner, "fatou_report", GAP, GAP, ("zero_limit_measure",),
         {}),
        ("fatou", runner, "fatou_report", ZERO_MASS_GAP, ZERO_MASS_GAP, (),
         {}),
        ("dct", runner, "dct_report", DCT, DCT, (), {}),
        # the uniform checks read the scenario's memo, which calls the
        # report function that the fatou module names
        ("uniform_fatou", fatou, "uniform_report", UNIFORM, AGREE,
         ("disagreement",), {"uniform_fatou_series": SERIES}),
        ("uniform_dct", fatou, "uniform_report", UNIFORM, DISAGREE, (),
         {"uniform_dct_series": SERIES}),
    ])
def test_chain_checks_look_up_their_report_function_when_they_run(
        monkeypatch, name, module, function, report, written, unset, curves):
    # a report function replaced on its module after import (as a tracer
    # does) is the one the registry calls; the payload is the written
    # report's fields less its conclusion, which is the verdict, and a key
    # written only when set is there exactly when it is set
    calls = []

    def spy(sc):
        calls.append(sc)
        return report

    monkeypatch.setattr(module, function, spy)
    sc = parse_scenario(MINIMAL).scenario
    result = runner._CHECKS[name](sc)
    want = dataclasses.asdict(written)
    want.pop("conclusion", None)
    for key in unset:
        assert want.pop(key) in (False, None)
    assert calls == [sc]
    assert result.name == name
    assert result.verdict == written.conclusion
    assert result.payload == want
    assert result.curves == curves
    if isinstance(written, (MinorantReport, MajorantReport)):
        assert result.verdict == ("holds" if written.holds else "violated")


def test_dct_reads_error_when_the_majorant_check_raises(monkeypatch):
    # dct_report checks the majorant whenever a g family exists, even
    # when the full family is a.u.i. and the majorant cannot change the
    # verdict, so the majorant's error is the dct check's
    doc = json.loads(MINIMAL)
    doc["g_functions"] = doc["functions"]
    text = json.dumps(doc)
    dct = run_checks(parse_scenario(text), ("dct",)).results[0]
    assert dct.verdict == "holds" and dct.payload["aui_full_family"] is True

    def broken(sc):
        raise KeyError("majorant")

    monkeypatch.setattr(fatou, "majorant_check", broken)
    dct, = run_checks(parse_scenario(text), ("dct",)).results
    assert (dct.verdict, dct.payload) == ("error",
                                          {"error": "KeyError: 'majorant'"})


def test_unknown_check_requested():
    doc = parse_scenario(MINIMAL)
    with pytest.raises(ScenarioFormatError):
        run_checks(doc, ("bogus",))


def test_missing_pieces_become_error_verdicts():
    doc = parse_scenario(MINIMAL)  # no g_functions, no limit_function
    report = run_checks(doc, ("minorant", "uniform_fatou"))
    verdicts = {r.name: r.verdict for r in report.results}
    assert verdicts == {"minorant": "error", "uniform_fatou": "error"}
    assert report.exit_code == 1


def test_uniform_trend_disagreement_is_inconclusive():
    # the gap integrals -1/n shrink monotonically while the undershoot
    # masses alternate 0.5, 0.4, ...: the window heuristics disagree, which
    # a finite window cannot resolve, so the verdict is no error
    n_max = 12
    fns = []
    for n in range(1, n_max + 1):
        b = 0.5 if n % 2 else 0.4
        fns.append({"breakpoints": [0.0, b], "values": [-1.0 / (n * b)],
                    "default": 0.0})
    doc = parse_scenario(json.dumps({
        "name": "trend-disagreement",
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": n_max,
        "measures": {"explicit": [{"cells": [[0.0, 1.0, 1.0]]}] * n_max},
        "limit_measure": {"cells": [[0.0, 1.0, 1.0]]},
        "functions": {"explicit": fns},
        "limit_function": {"breakpoints": [], "values": [], "default": 0.0},
        "checks": ["uniform_fatou"],
        "convergence_certificate": {"kind": "tv"},
    }))
    report = run_checks(doc)
    (result,) = report.results
    assert result.verdict == "inconclusive"
    assert result.payload["consistent"] is False
    assert result.payload["gap_trend_vanishing"]
    assert not result.payload["conditions_predict_vanishing"]
    assert report.exit_code == 0


def test_staircase_builder_doc_all_pass_exit_zero():
    text = json.dumps({
        "name": "staircase-via-builder",
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": 32,
        "measures": {"builder": "staircase"},
        "limit_measure": {"atoms": [[0.0, 1.0]]},
        "functions": {"builder": "staircase"},
        "checks": ["ui", "fatou"],
        "convergence_certificate": {"kind": "builder"},
    })
    report = run_checks(parse_scenario(text))
    verdicts = {r.name: r.verdict for r in report.results}
    assert verdicts == {"ui": "pass", "fatou": "holds"}
    assert report.exit_code == 0


def test_empty_checks_list_reports_nothing_exit_zero():
    doc = parse_scenario(MINIMAL)
    report = run_checks(doc, ())
    assert report.results == ()
    assert report.exit_code == 0


def test_document_schedule_reaches_the_scenario(tmp_path, capsys):
    from measure_limits.cli import main
    doc = {
        "name": "staircase-schedule",
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": 16,
        "measures": {"builder": "staircase"},
        "limit_measure": {"atoms": [[0.0, 1.0]]},
        "functions": {"builder": "staircase"},
        "schedule": {"N": [2, 8, 16], "delta": [0.5, 0.25, 0.125]},
        "checks": ["fatou"],
        "convergence_certificate": {"kind": "builder"},
    }
    sched = parse_scenario(json.dumps(doc)).scenario.resolved_schedule()
    assert sched.steps == ((2, 0.5), (8, 0.25), (16, 0.125))
    assert sched.n_max == 16
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(src), "--out", str(tmp_path / "r.json")]) == 0
    # an index range that ends before the schedule's last threshold
    capsys.readouterr()
    assert main(["check", str(src), "--nmax", "12"]) == 1
    err = capsys.readouterr().err
    assert "error: $.schedule: schedule exhausts the index range" in err
