import json
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from measure_limits import MalformedObjectError, Scenario
from measure_limits import gallery, runner
from measure_limits.cli import main
from measure_limits.scenario import canonical_json, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("fixture_id", sorted(gallery.FIXTURES))
def test_fixture_conformance(fixture_id):
    rep = gallery.run(fixture_id)
    bad = [q for q in rep.quantities if not q.ok]
    assert not bad, [f"{q.id}: {q.value} != {q.expected}" for q in bad]


@pytest.mark.parametrize("fixture_id", sorted(gallery.FIXTURES))
def test_every_row_reads_a_field_that_its_check_prints(fixture_id):
    # a row names a check that its fixture requests and a field of that
    # check's result, a memoized series of the scenario, or a function of
    # the scenario whose docstring says why no check computes it; every
    # requested check is read, and each fixture has at least 3 rows
    fx = gallery.FIXTURES[fixture_id]
    assert len(fx.rows) >= 3
    assert len({row.id for row in fx.rows}) == len(fx.rows)
    results = {r.name: r for r in
               runner.check_results(fx.build(), fx.checks)}
    assert "error" not in {r.verdict for r in results.values()}
    for row in fx.rows:
        if isinstance(row.check, str):
            assert row.check in fx.checks, row.id
            result = results[row.check]
            assert row.key in {"verdict", *result.payload, *result.curves}, \
                row.id
        elif row.check is None:
            assert isinstance(getattr(Scenario, row.key), cached_property)
        else:
            assert "check" in row.check.__doc__, row.id
    assert {row.check for row in fx.rows} >= set(fx.checks)


def test_a_row_without_its_field_fails_the_fixture(monkeypatch):
    # a payload key that the check does not print, a check the fixture
    # does not request and a check that reads 'error' each fail their row
    fx = gallery.FIXTURES["vanishing_mass"]
    rows = (gallery.Row("typo", "fatou", "no_such_key", 0.0, None, ""),
            gallery.Row("unrequested", "dct", "verdict", "holds", None, ""),
            gallery.Row("errored", "minorant", "verdict", "holds", None, ""))
    monkeypatch.setitem(gallery.FIXTURES, "vanishing_mass", replace(
        fx, checks=(*fx.checks, "minorant"), rows=fx.rows + rows))
    rep = gallery.run("vanishing_mass")
    assert [q.id for q in rep.quantities if not q.ok] == [
        "typo", "unrequested", "errored"]
    assert rep.quantities[-2].value is None


def test_the_comb_requests_only_its_own_checks():
    assert gallery.FIXTURES["dyadic_comb"].checks == (
        "fatou", "minorant", "weakened_minorant")


@pytest.mark.parametrize("fixture_id, n_max, path, checks", [
    ("dyadic_comb", 14, "comb_fatou.json",
     ("fatou", "minorant", "weakened_minorant")),
    ("twin_spikes", 60, "spikes_uniform.json",
     ("aui", "shift", "uniform_fatou", "uniform_dct")),
])
def test_gallery_rows_read_what_check_prints(tmp_path, fixture_id, n_max,
                                             path, checks):
    # the fixture and the scenario file share their builder, size and
    # (default) tolerances, so the checks' payloads are equal field for
    # field, and every row that reads a printed field reads the value
    # that `check` prints
    out = tmp_path / "report.json"
    main(["check", str(SCENARIOS / path), "--out", str(out)])
    printed = json.loads(out.read_text())["checks"]
    doc = parse_scenario((SCENARIOS / path).read_text())
    fx = gallery.FIXTURES[fixture_id]
    sc = gallery.build(fixture_id, n_max=n_max)
    assert sc.tolerances == doc.scenario.tolerances
    ours = {r.name: r for r in runner.check_results(sc, fx.checks)}
    theirs = {r.name: r for r in runner.run_checks(doc).results}
    for name in checks:
        entry = {"verdict": ours[name].verdict, **ours[name].payload}
        assert json.loads(canonical_json(entry)) == printed[name]
        assert {c: v.to_csv() for c, v in ours[name].curves.items()} == \
            {c: v.to_csv() for c, v in theirs[name].curves.items()}
    rep = gallery.run(fixture_id, n_max=n_max)
    read = [(row.quantity(printed[row.check], sc), q)
            for row, q in zip(fx.rows, rep.quantities)
            if row.check in checks and row.key in printed[row.check]]
    assert len(read) >= 4
    for mine, q in read:
        assert mine == q


def test_staircase_builds_probability_measures():
    sc = gallery.build("staircase", n_max=64)
    for n in (1, 13, 64):
        assert sc.measures[n - 1].total_mass() == pytest.approx(1.0,
                                                                abs=1e-15)


def test_spike_values_at_build_time():
    sc = gallery.build("twin_spikes", n_max=100)
    f50 = sc.f_seq.fns[49]
    assert f50(0.01) == 50.0
    assert f50(-0.01) == -50.0
    assert f50(0.5) == 0.0


def test_comb_dyadic_cell_count():
    sc = gallery.build("dyadic_comb", n_max=4)
    g3 = sc.g_seq.fns[2]
    depressed = np.sum((g3.values < 0) & (g3.values > -4))
    assert depressed == 8
    # teeth cover [0, 2): first cell starts at 0, alternating
    assert g3.breakpoints[0] == 0.0


def test_comb_memory_budget_guard():
    with pytest.raises(MalformedObjectError):
        gallery.build("dyadic_comb", n_max=23)


def test_unknown_fixture_rejected():
    with pytest.raises(MalformedObjectError):
        gallery.build("nope")
    with pytest.raises(MalformedObjectError):
        gallery.run("nope")


def test_runs_are_deterministic():
    a = gallery.run("staircase", n_max=16)
    b = gallery.run("staircase", n_max=16)
    assert [(q.id, q.value) for q in a.quantities] == \
           [(q.id, q.value) for q in b.quantities]


def test_conformance_report_verdict_surface():
    rep = gallery.run("dyadic_comb", n_max=10)
    assert rep.verdicts.get("fatou_conclusion") == "violated"
    rep2 = gallery.run("flat_negative")
    assert "violated" not in rep2.verdicts.values()


def test_twin_spikes_below_f50_names_the_needed_n_max():
    # two rows read f_50's point values; a shorter family is an input
    # error that says how long the family must be, not a bare IndexError
    with pytest.raises(MalformedObjectError, match="n_max=40 must be >= 50"):
        gallery.run("twin_spikes", n_max=40)
    assert gallery.run("twin_spikes", n_max=50).failures == 0
