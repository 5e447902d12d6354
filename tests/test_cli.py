import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from measure_limits import gallery, runner
from measure_limits.cli import main

from reachability import load_docs

COMB_DOC = {
    "name": "comb-cli",
    "space": {"lo": 0.0, "hi": "inf"},
    "n_max": 8,
    "measures": {"builder": "dyadic_comb"},
    "limit_measure": {"segments": [{"name": "exp2", "lo": 0.0, "hi": "inf"}]},
    "functions": {"builder": "dyadic_comb"},
    "g_functions": {"builder": "dyadic_comb"},
    "checks": ["fatou", "aui"],
    "convergence_certificate": {"kind": "tv"},
}

HOLDS_DOC = {
    "name": "flat-cli",
    "space": {"lo": 0.0, "hi": 1.0},
    "n_max": 4,
    "measures": {"explicit": [{"cells": [[0.0, 1.0, 1.0]]}] * 4},
    "limit_measure": {"cells": [[0.0, 1.0, 1.0]]},
    "functions": {"explicit": [{"breakpoints": [], "values": [],
                                "default": -1.0}] * 4},
    "checks": ["fatou", "ui"],
    "convergence_certificate": {"kind": "tv"},
}


def write(tmp_path: Path, doc: dict) -> Path:
    p = tmp_path / f"{doc['name']}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_check_exit_zero_for_holding_scenario(tmp_path, capsys):
    path = write(tmp_path, HOLDS_DOC)
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"]["fatou"]["verdict"] == "holds"
    assert report["checks"]["ui"]["verdict"] == "pass"
    assert report["scenario"] == "flat-cli"


def test_check_exit_two_for_violated_scenario(tmp_path):
    path = write(tmp_path, COMB_DOC)
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["checks"]["fatou"]["verdict"] == "violated"


def test_check_exit_one_for_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "absent.json")]) == 1


def test_check_exit_one_for_invalid_document(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["check", str(p)]) == 1


def test_check_selects_subset_of_checks(tmp_path):
    path = write(tmp_path, COMB_DOC)
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--checks", "aui", "--out", str(out)])
    assert code == 0  # aui passes on the capped grid at n_max=8
    report = json.loads(out.read_text())
    assert list(report["checks"]) == ["aui"]


def test_check_writes_curve_files(tmp_path):
    path = write(tmp_path, COMB_DOC)
    out = tmp_path / "report.json"
    curves = tmp_path / "curves"
    main(["check", str(path), "--out", str(out), "--curves-dir", str(curves)])
    report = json.loads(out.read_text())
    ref = report["checks"]["aui"]["curves"]["aui_tail_curve"]
    csv_text = (curves / ref).read_text()
    assert csv_text.startswith("K,n=1")


def test_check_nmax_override(tmp_path):
    doc = dict(COMB_DOC)
    doc["checks"] = ["fatou"]
    path = write(tmp_path, doc)
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--nmax", "6", "--out", str(out)])
    assert code == 2
    # deeper override: a bad nmax must fail validation, not crash
    assert main(["check", str(path), "--nmax", "0"]) == 1


def test_check_nmax_above_the_comb_limit_names_the_field(capsys):
    comb = Path(__file__).resolve().parent.parent / "scenarios" / "comb_fatou.json"
    assert main(["check", str(comb), "--nmax", "23"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: $.n_max: builder 'dyadic_comb' builds at most "
                   "n_max=22 (memory budget), got 23\n")


def test_check_overrides_apply_before_the_one_validation(tmp_path, capsys):
    from measure_limits import doc_hash
    # an override replaces its field, even an invalid value of it, and the
    # rest of the document is read as written (-0.0 stays a float)
    doc = dict(HOLDS_DOC, n_max="four", tolerances={"tol": -1.0},
               space={"lo": -0.0, "hi": 1.0})
    src = write(tmp_path, doc)
    assert main(["check", str(src)]) == 1
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--tol", "1e-6", "--nmax", "4",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scenario_hash"] == doc_hash(
        dict(doc, n_max=4, tolerances={"tol": 1e-6}))
    capsys.readouterr()
    assert main(["check", str(src), "--tol", "nan", "--nmax", "4"]) == 1
    err = capsys.readouterr().err
    assert "$.tolerances.tol: not a number: nan" in err
    assert "Traceback" not in err


def test_check_nmax_cuts_explicit_families_to_their_first_entries(
        tmp_path, capsys):
    # an explicit family lists exactly n_max entries; under --nmax N it
    # lists at least N and is cut to its first N, as a builder family is
    doc = dict(HOLDS_DOC, functions={"explicit": [
        {"breakpoints": [], "values": [], "default": -float(n)}
        for n in range(1, 5)]})
    src, out = write(tmp_path, doc), tmp_path / "report.json"
    assert main(["check", str(src), "--nmax", "2", "--out", str(out)]) == 0
    cut = dict(doc, name="cut", n_max=2,
               measures={"explicit": doc["measures"]["explicit"][:2]},
               functions={"explicit": doc["functions"]["explicit"][:2]})
    want = tmp_path / "want.json"
    assert main(["check", str(write(tmp_path, cut)), "--out", str(want)]) == 0
    assert (json.loads(out.read_text())["checks"]
            == json.loads(want.read_text())["checks"])
    capsys.readouterr()
    assert main(["check", str(src), "--nmax", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: $.measures.explicit: expected at least n_max=5 entries\n")
    assert main(["check", str(write(tmp_path, dict(doc, n_max=3)))]) == 1
    assert capsys.readouterr().err == (
        "error: $.measures.explicit: expected exactly n_max=3 entries\n")


@pytest.mark.parametrize("limit, lhs, flag", [
    ({}, 0.0, True),
    (HOLDS_DOC["limit_measure"], -1.0, None),
])
def test_check_flags_a_zero_mass_limit_measure(tmp_path, limit, lhs, flag):
    # against the zero measure the left side is 0 by fiat, not computed,
    # and the report says so; a limit measure with mass carries no flag
    doc = dict(HOLDS_DOC, limit_measure=limit, checks=["fatou"])
    out = tmp_path / "report.json"
    assert main(["check", str(write(tmp_path, doc)), "--out", str(out)]) == 0
    fatou = json.loads(out.read_text())["checks"]["fatou"]
    assert fatou["verdict"] == "holds"
    assert (fatou["lhs"], fatou.get("zero_limit_measure")) == (lhs, flag)


def test_gallery_list(capsys):
    assert main(["gallery", "list"]) == 0
    out = capsys.readouterr().out
    assert "staircase" in out and "dyadic_comb" in out


def test_gallery_run_single(tmp_path):
    out = tmp_path / "conf.json"
    code = main(["gallery", "run", "flat_negative", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fixtures"][0]["failures"] == 0


def test_gallery_run_violating_fixture_exits_two(tmp_path):
    out = tmp_path / "conf.json"
    code = main(["gallery", "run", "dyadic_comb", "--out", str(out)])
    assert code == 2  # conformance clean, but a violated verdict is present
    payload = json.loads(out.read_text())
    assert payload["fixtures"][0]["failures"] == 0


def test_gallery_unknown_fixture():
    assert main(["gallery", "run", "nope"]) == 1


NAN = float("nan")


#: why a row's value is rejected, where it is not a NaN
REASONS = {"$.sample_grid[1]": "5.0 is not a finite point of the space",
           "$.sample_grid": "must hold at least one point",
           "$.checks[0]": "unknown check ['ui']; known: ['ui', 'aui', ",
           "$.limit_measure.segments[0]": "bad segment bounds [2.0, 1.0]"}


@pytest.mark.parametrize("field, value, path", [
    ("K_grid", [NAN], "$.K_grid[0]"),
    ("sample_grid", [NAN, 0.5], "$.sample_grid[0]"),
    ("tolerances", {"ui_tol": NAN}, "$.tolerances.ui_tol"),
    ("limit_measure", {"cells": [[0.0, 1.0, NAN]]}, "$.limit_measure.cells[0][2]"),
    ("schedule", {"N": [1], "delta": [NAN]}, "$.schedule.delta[0]"),
    ("functions", {"explicit": [{"breakpoints": [0.0, 0.5, 1.0],
                                 "values": [NAN, 1.0]}] * 4},
     "$.functions.explicit[0].values[0]"),
    # a sample point off the space would reach the epi-limit scans
    ("sample_grid", [0.5, 5.0], "$.sample_grid[1]"),
    # an empty grid would pass the epi-limit existence check unscanned
    ("sample_grid", [], "$.sample_grid"),
    # a check name that is not a string, which a dict lookup cannot hash
    ("checks", [["ui"]], "$.checks[0]"),
    ("limit_measure", {"segments": [{"name": "exp2", "lo": 2, "hi": 1}]},
     "$.limit_measure.segments[0]"),
])
def test_check_rejects_nan_with_the_field_path(tmp_path, capsys, field, value,
                                               path):
    doc = dict(HOLDS_DOC, **{"checks": ["ui", "shift", "fatou"],
                             field: value})
    src = write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: {REASONS.get(path, 'not a number: nan')}" in err
    assert "Traceback" not in err
    assert not out.exists()


BIG = 10 ** 400  # a JSON integer past the double range


@pytest.mark.parametrize("field, value, path", [
    ("functions", {"explicit": [{"breakpoints": [0.0, 0.5, 1.0],
                                 "values": [BIG, 1.0]}] * 4},
     "$.functions.explicit[0].values[0]"),
    ("functions", {"explicit": [{"breakpoints": [0.0, BIG],
                                 "values": [1.0]}] * 4},
     "$.functions.explicit[0].breakpoints[1]"),
    ("limit_measure", {"atoms": [[0.5, BIG]]},
     "$.limit_measure.atoms[0][1]"),
    ("K_grid", [1.0, BIG], "$.K_grid[1]"),
    ("sample_grid", [0.5, -BIG], "$.sample_grid[1]"),
    ("space", {"lo": -BIG, "hi": 1.0}, "$.space.lo"),
    ("tolerances", {"tol": BIG}, "$.tolerances.tol"),
    ("schedule", {"N": [1], "delta": [BIG]}, "$.schedule.delta[0]"),
])
def test_check_rejects_an_integer_past_the_double_range(tmp_path, capsys,
                                                        field, value, path):
    doc = dict(HOLDS_DOC, **{field: value})
    src = write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: integer too large for a double" in err
    assert not out.exists()


def test_check_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    src = tmp_path / "long.json"
    src.write_text('{"name": "long", "n_max": 1' + "0" * 5000 + "}",
                   encoding="utf-8")
    assert main(["check", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: $: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("params, message", [
    ({"bogus": 1}, "$.measures.params: unknown fields ['bogus']"),
    ({"n_max": NAN}, "$.measures.params.n_max: expected an integer, got nan"),
    ({"n_max": 8.0}, "$.measures.params.n_max: expected an integer, got 8.0"),
    ({"n_max": True}, "$.measures.params.n_max: expected an integer, got True"),
    ({"n_max": 0}, "$.measures.params.n_max: must be >= 1"),
])
def test_check_rejects_bad_builder_params_with_the_field_path(
        tmp_path, capsys, params, message):
    doc = dict(COMB_DOC, measures={"builder": "dyadic_comb", "params": params})
    src = write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_check_reports_an_undecodable_file_as_unreadable(tmp_path, capsys):
    src = tmp_path / "doc.json"
    src.write_bytes(b'\xff\xfe{"a":1}')
    assert main(["check", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {src}: ")
    assert err.count("\n") == 1


def test_check_rejects_a_builder_family_off_the_space(tmp_path, capsys):
    path = (Path(__file__).resolve().parent.parent / "scenarios"
            / "spikes_uniform.json")
    doc = dict(json.loads(path.read_text(encoding="utf-8")),
               space={"lo": -5, "hi": 5})
    out = tmp_path / "report.json"
    assert main(["check", str(write(tmp_path, doc)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: $.measures.builder: builder 'twin_spikes' lives on "
        "[-1.0, 1.0], not on $.space [-5.0, 5.0]\n")
    assert not out.exists()


def test_check_rejects_a_family_built_on_demand_off_the_space(tmp_path,
                                                              capsys):
    # the comb's g family builds its members when read; its domain is
    # checked on its first member before any check runs
    doc = dict(HOLDS_DOC, g_functions={"builder": "dyadic_comb"},
               checks=["minorant"])
    out = tmp_path / "report.json"
    assert main(["check", str(write(tmp_path, doc)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: $.g_functions.builder: builder 'dyadic_comb' lives on "
        "[0.0, inf], not on $.space [0.0, 1.0]\n")
    assert not out.exists()


def test_check_runs_on_an_exp2_segment_below_zero(tmp_path):
    # exp2 on [-2, -1] has mass (2^2 - 2^1) / ln 2; f = -1 integrates to
    # minus that against every measure
    seg = {"segments": [{"name": "exp2", "lo": -2.0, "hi": -1.0}]}
    doc = dict(HOLDS_DOC, space={"lo": -2.0, "hi": 1.0},
               measures={"explicit": [seg] * 4}, limit_measure=seg,
               checks=["fatou", "ui", "weak_gap"])
    out = tmp_path / "report.json"
    assert main(["check", str(write(tmp_path, doc)), "--out", str(out)]) == 0
    fatou = json.loads(out.read_text())["checks"]["fatou"]
    assert fatou["verdict"] == "holds"
    assert fatou["lhs"] == fatou["rhs"] == pytest.approx(-2.0 / math.log(2.0))


@pytest.mark.parametrize("field, value", [
    ("space", {"lo": 0.0, "hi": 1.0, "typo": NAN}),
    ("convergence_certificate", {"kind": "tv", "typo": 1}),
    ("schedule", {"N": [1], "delta": [0.5], "typo": 1}),
])
def test_check_rejects_unknown_fields_with_the_field_path(tmp_path, capsys,
                                                          field, value):
    src = write(tmp_path, dict(HOLDS_DOC, **{field: value}))
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: $.{field}: unknown fields ['typo']\n")
    assert not out.exists()


def test_check_reports_a_sum_past_the_double_range_as_an_error(tmp_path,
                                                               capsys):
    # each product is finite, but their sum overflows inside math.fsum
    doc = load_docs().generate(1, 0)
    big = {"breakpoints": [0.0, 0.5, 1.0], "values": [1.5e308, 1.5e308],
           "default": 0.0}
    doc["functions"] = {"explicit": [big] * doc["n_max"]}
    doc["checks"] = ["fatou"]
    src = write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    fatou = report["checks"]["fatou"]
    assert fatou == {"verdict": "error",
                     "error": "OverflowError: intermediate overflow in fsum"}


def test_check_names_the_field_of_an_unknown_limit_measure_builder(tmp_path,
                                                                   capsys):
    doc = dict(COMB_DOC, limit_measure={"builder": "nope"})
    src = write(tmp_path, doc)
    assert main(["check", str(src)]) == 1
    err = capsys.readouterr().err
    assert "error: $.limit_measure.builder: unknown builder 'nope'; known: [" in err
    assert "Traceback" not in err


def test_check_rejects_a_name_that_would_leave_the_curves_dir(tmp_path,
                                                              capsys):
    doc = dict(HOLDS_DOC, name="../escaped/x")
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    curves = tmp_path / "curves" / "inner"
    assert main(["check", str(src), "--curves-dir", str(curves)]) == 1
    assert "error: $.name: " in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


def test_check_rejects_a_name_with_a_nul_character(tmp_path, capsys):
    # the name prefixes the curve files, and no path may hold a NUL
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(dict(HOLDS_DOC, name="a\u0000b")),
                   encoding="utf-8")
    curves = tmp_path / "curves"
    assert main(["check", str(src), "--curves-dir", str(curves)]) == 1
    err = capsys.readouterr().err
    assert "error: $.name: must not contain a NUL character" in err
    assert "Traceback" not in err
    assert not curves.exists()


@pytest.mark.parametrize("argv", [
    ["check", "DOC", "--out", "BLOCKER/report.json"],
    ["check", "DOC", "--curves-dir", "BLOCKER/curves"],
    ["gallery", "run", "flat_negative", "--out", "BLOCKER/conf.json"],
])
def test_an_unwritable_output_path_exits_one(tmp_path, capsys, argv):
    # a regular file where a parent directory should be
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    src = write(tmp_path, HOLDS_DOC)
    argv = [a.replace("DOC", str(src)).replace("BLOCKER", str(blocker))
            for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {blocker}/" in err
    assert "Traceback" not in err


def test_weak_gap_is_inconclusive_without_a_certificate(tmp_path, capsys):
    # mu_n = exp2 on [0, inf) + an atom at 1 - 1/(n + 1) converges weakly
    # to exp2 + the atom at 1; the bank's indicator at 1 keeps a gap of 1
    # at every index, which a finite window cannot read as a violation
    exp2 = {"name": "exp2", "lo": 0.0, "hi": "inf"}
    n_max = 12
    doc = {
        "name": "moving-atom",
        "space": {"lo": 0.0, "hi": "inf"},
        "n_max": n_max,
        "measures": {"explicit": [
            {"atoms": [[1.0 - 1.0 / (n + 1), 1.0]], "segments": [exp2]}
            for n in range(1, n_max + 1)]},
        "limit_measure": {"atoms": [[1.0, 1.0]], "segments": [exp2]},
        "functions": {"explicit": [{"default": 0.0}] * n_max},
        "checks": ["weak_gap"],
        "convergence_certificate": {"kind": "none"},
    }
    out = tmp_path / "report.json"
    assert main(["check", str(write(tmp_path, doc)), "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["checks"]["weak_gap"]
    assert entry["verdict"] == "inconclusive"
    assert entry["max_gap_window"] == 1.0
    assert "weak_gap: inconclusive" in capsys.readouterr().err


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_every_infinite_probe_report_is_strict_json(tmp_path, capsys):
    # the 40 probe documents with one +inf or -inf cell value of seeds
    # 1-10; an inf - inf Fatou gap is written as null, never as nan
    docs = load_docs()
    out = tmp_path / "report.json"
    null_gaps = 0
    for seed in range(1, 11):
        for i, inf in enumerate(docs.INF_PROBE):
            src = write(tmp_path, docs.generate(seed, i, inf))
            out.unlink(missing_ok=True)
            # a check that meets an undefined integral reads error: exit 1
            assert main(["check", str(src), "--out", str(out)]) in (0, 1, 2)
            report = json.loads(out.read_text(encoding="utf-8"),
                                parse_constant=_reject_constant)
            null_gaps += report["checks"]["fatou"]["gap"] is None
    assert null_gaps == 15


def test_check_reports_a_too_deeply_nested_document_as_an_error(tmp_path,
                                                                capsys):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["check", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: arrays and objects nest too deeply\n"


def test_a_nan_in_a_check_report_is_an_error(tmp_path, capsys, monkeypatch):
    # canonical JSON has no NaN: nothing is written, neither the report
    # nor the curves
    def nan_ui(sc):
        return runner.CheckResult("ui", "pass", {"k_star": math.nan},
                                  {"ui_tail_curve": SimpleNamespace(
                                      to_csv=lambda: "K\n")})

    monkeypatch.setitem(runner._CHECKS, "ui", nan_ui)
    out, curves = tmp_path / "report.json", tmp_path / "curves"
    argv = ["check", str(write(tmp_path, HOLDS_DOC)), "--out", str(out),
            "--curves-dir", str(curves)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot serialize NaN")
    assert "Traceback" not in err
    assert not out.exists() and not curves.exists()


def test_a_nan_in_a_gallery_report_is_an_error(tmp_path, capsys, monkeypatch):
    run = gallery.run

    def nan_run(fixture):
        return dataclasses.replace(run(fixture), elapsed_s=math.nan)

    monkeypatch.setattr(gallery, "run", nan_run)
    out = tmp_path / "conf.json"
    assert main(["gallery", "run", "flat_negative", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot serialize NaN")
    assert not out.exists()
