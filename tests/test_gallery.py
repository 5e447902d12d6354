import math

import numpy as np
import pytest

from measure_limits import MalformedObjectError
from measure_limits import gallery


@pytest.mark.parametrize("fixture_id", sorted(gallery.FIXTURES))
def test_fixture_conformance(fixture_id):
    rep = gallery.run(fixture_id)
    bad = [q for q in rep.quantities if not q.ok]
    assert not bad, [f"{q.id}: {q.value} != {q.expected}" for q in bad]


def test_every_expected_value_is_exercised():
    # no dead expectations: each fixture publishes at least 3 quantities
    for fid in gallery.FIXTURES:
        rep = gallery.run(fid) if fid not in ("dyadic_comb", "twin_spikes") \
            else None
        if rep is not None:
            assert len(rep.quantities) >= 3


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
