"""How much work one ``check`` does, counted per call.

Every per-document quantity that several checks read is computed once per
scenario: the set-uniform report, the total-variation series and the
negative-part tail curve that the shift check reads.  The counts pin that
sharing, so a change that computes one of them twice fails here even when
the report bytes stay the same.  The ``dyadic_comb`` fixture's count of
``values_at`` searches pins that the values of g_n's up to 2M cells are
copied, not searched, and its counts of large ``np.unique`` calls and of
``math.fsum`` fallbacks pin that its 2M-edge refinements are merged, not
sorted again, and that its kernel sums are certified in numpy.  The
pass counts pin that every per-index series of a check is one ragged
family pass (``refinement.family_pairing``) with one kernel call, not one
refinement per index.
"""

import json
import sys

import numpy as np
import pytest

from measure_limits import (
    PiecewiseFn, gallery, integration, kernels, refinement, scenario, tails,
    uniform,
)
from measure_limits.cli import main
from measure_limits.runner import _CHECKS

from helpers import fatou_random_document

N_MAX = 12


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every measure_limits module that binds it;
    the returned list grows by one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("measure_limits")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_check_computes_each_shared_quantity_once(tmp_path, monkeypatch,
                                                      capsys):
    doc = fatou_random_document(np.random.default_rng(0), n_max=N_MAX)
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    bodies = count_calls(monkeypatch, uniform, "_uniform_report_body")
    tv = count_calls(monkeypatch, integration, "tv_series")
    curves = count_calls(monkeypatch, tails, "tail_curve")
    tail_rows = count_calls(monkeypatch, kernels, "tail_dots")
    hahn = count_calls(monkeypatch, kernels, "sign_sums")
    refinements = count_calls(monkeypatch, refinement, "common_refinement")
    passes = count_calls(monkeypatch, refinement, "_pair_chunk")

    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 2
    verdicts = {k: v["verdict"]
                for k, v in json.loads(out.read_text())["checks"].items()}
    assert set(verdicts) == set(doc["checks"])
    assert "error" not in verdicts.values()

    assert len(bodies) == 1
    assert len(tv) == 1
    # the negative-part and the full-family tail curve, once each
    assert len(curves) == 2
    # one kernel call per tail curve, for all its rows, and one for the
    # Hahn masses of all the signed gaps
    assert len(tail_rows) == 2
    assert len(hahn) == 1
    # no index is refined on its own; one ragged pass each for the f and
    # g integrals, the negative-part and full-family tail curves, the L1
    # checks of the f_n, the signed gaps, both condition series, the TV
    # series and the weak-gap bank's constant witness against the limit
    # measure and each mu_n, plus the limit function's one-index L1 check
    assert len(refinements) == 0
    assert len(passes) == 10


@pytest.mark.parametrize("flags", [[], ["--tol", "1e-4"]])
def test_one_check_parses_each_spec_once(tmp_path, monkeypatch, flags):
    # validation keeps what it parses, and building the scenario reuses it:
    # 12 f_n, 12 g_n and the limit function; 12 mu_n and the limit measure;
    # a --tol or --nmax override is applied before that one validation
    doc = fatou_random_document(np.random.default_rng(0), n_max=N_MAX)
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    fns = count_calls(monkeypatch, scenario, "parse_fn_spec")
    measures = count_calls(monkeypatch, scenario, "parse_measure_spec")
    assert main(["check", str(src), "--out", str(tmp_path / "r.json")]
                + flags) == 2
    assert len(fns) == 2 * N_MAX + 1
    assert len(measures) == N_MAX + 1


@pytest.mark.parametrize("fixture, passes", [
    # the closed-form tail check is one 64-row curve, and the shift is
    # read off the negative-part curve the verdicts already computed; the
    # epi certificates' integrals and the TV spot checks are one-index
    # passes
    ("staircase", 11),
    ("staircase_late_start", 1),
    ("twin_spikes", 13),
])
def test_gallery_run_pairs_each_family_in_one_pass(monkeypatch, fixture,
                                                   passes):
    refinements = count_calls(monkeypatch, refinement, "common_refinement")
    chunks = count_calls(monkeypatch, refinement, "_pair_chunk")
    assert gallery.run(fixture).failures == 0
    assert len(refinements) == 0
    assert len(chunks) == passes


def test_known_checks_and_the_runner_registry_agree():
    assert tuple(_CHECKS) == scenario.KNOWN_CHECKS


def test_comb_fixture_reads_own_cells_without_a_search(monkeypatch):
    # g_n's refinements and dominance checks copy g_n's own cell values;
    # the searches left are f_n's cliff against g_n's cells in the 20
    # dominance checks (the epi certificates are read by family passes)
    original = PiecewiseFn.values_at
    calls = []

    def counted(self, points):
        calls.append(1)
        return original(self, points)

    monkeypatch.setattr(PiecewiseFn, "values_at", counted)
    assert gallery.run("dyadic_comb").failures == 0
    assert len(calls) == 20


def test_comb_fixture_merges_and_sums_without_fallback(monkeypatch):
    # g_n's up to 2,097,154 breakpoints are merged with the measure's and
    # the domain's few edges, never sorted again; every large kernel sum
    # is certified by the numpy tree and none goes to math.fsum
    original_unique = np.unique
    large_uniques = []

    def counted_unique(ar, *args, **kwargs):
        if np.asarray(ar).size > 1024:
            large_uniques.append(np.asarray(ar).size)
        return original_unique(ar, *args, **kwargs)

    original_tree = kernels._tree_sum
    trees = []

    def counted_tree(x):
        trees.append(original_tree(x))
        return trees[-1]

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(kernels, "_tree_sum", counted_tree)
    assert gallery.run("dyadic_comb").failures == 0
    assert large_uniques == []
    assert trees and None not in trees
