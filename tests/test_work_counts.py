"""How much work one ``check`` does, counted per call.

Every per-document quantity that several checks read is computed once per
scenario: the set-uniform report, the total-variation series, the
negative-part tail curve that the shift check reads, and one two-sided
epi scan per family.  Quantities of one family share its pass: the f
integrals and the negative parts' tail rows, the L1 norms and the tail
rows of the |f_n|.  The counts pin that sharing, so a change that
computes one of them twice fails here even when the report bytes stay
the same.  The ``dyadic_comb`` fixture's count of
large ``np.searchsorted`` calls pins that the values of g_n's up to 2M
cells are sliced from g_n's own table, not searched, and its counts of
large ``np.unique`` calls and of ``math.fsum`` fallbacks pin that its
2M-edge refinements are merged, not sorted again, and that its kernel
sums are certified in numpy.  The pass counts pin that every per-index
series of a check, and each dominance check, is one ragged family pass
(``refinement.family_pairing``) with one kernel call, not one refinement
per index.  The ``PiecewiseFn`` construction counts of a
gallery run pin that every f_n is built once, also where f and g are the
same family.  A ``check`` builds the CLI parser only on a process's first
call, renders curve CSVs only when ``--curves-dir`` asks for them, and
emits its report without ``json.dumps``.  A pass over the comb's f
family takes one exp2 mass call for all its indices.  The comb's g
family is built on demand: a ``gallery run all`` builds each g_n once,
in the one walk that gives the g integrals and the dominance f_n >= g_n,
plus g_3 for its cell count, and a document that cuts the family to
``n_max`` builds no g_n past it.  A large g_n is read in one walk over
its cell blocks, which starts only after the index before it is done
and whose exp2 masses serve both its depths and its integral, so each
of its cells' masses is computed once.  The comb's largest passes are
held to bounds on the memory that ``tracemalloc`` traces: building the
scenario, building g_20, integrating g_20, checking f_20 >= g_20 and one
whole comb run.
"""

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from measure_limits import (
    PiecewiseFn, dominates, epilimits, gallery, integration, kernels,
    measures, refinement, scenario, tails, uniform,
)
from measure_limits.cli import main
from measure_limits.functions import LazyFamily
from measure_limits.tails import TailCurve
from measure_limits.uniform import UniformGapSeries

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
    bodies = count_calls(monkeypatch, uniform, "uniform_report")
    tv = count_calls(monkeypatch, integration, "tv_series")
    curves = count_calls(monkeypatch, tails, "curve_of")
    tail_rows = count_calls(monkeypatch, kernels, "tail_dots")
    hahn = count_calls(monkeypatch, kernels, "sign_sums")
    passes = count_calls(monkeypatch, refinement, "_pair_chunk")
    scans = count_calls(monkeypatch, epilimits, "epi_scan")
    unions = []
    union_edges = epilimits.union_edges
    monkeypatch.setattr(epilimits, "union_edges",
                        lambda pieces: unions.append(1) or union_edges(pieces))
    builds = count_builds(monkeypatch)

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
    # one ragged pass for the f integrals and the negative parts' tail
    # rows, one for the L1 norms and tail rows of the |f_n|, one each for
    # the g integrals, the signed gaps, both condition series, the TV
    # series, the weak-gap bank's constant witness against the limit
    # measure and each mu_n and the dominance checks f_n >= g_n and
    # g_n >= |f_n|, plus the limit function's one-index L1 check
    assert len(passes) == 10
    # one two-sided epi scan of f (its epi-liminf integral and the sample
    # grid) and one of g (both its epi integrals); each scans the last two
    # schedule steps, and each step unions the breakpoints of its tail once
    # for the min and the max envelope
    assert len(scans) == 2
    assert len(unions) == 4
    # 12 f_n, 12 g_n and the limit function parsed, the 12 |f_n| and the
    # limit function's absolute value, and the weak-gap bank's constant
    # witness; no negative part is built, since its tail rows are read off
    # f_n's own refinement, and the scans keep their envelopes as arrays
    assert len(builds) == 39


def write_doc(tmp_path):
    doc = fatou_random_document(np.random.default_rng(0), n_max=N_MAX)
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    return src


def count_method(monkeypatch, cls, name: str) -> list:
    """A list that grows by one entry per call of ``cls.name``."""
    original = getattr(cls, name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_second_check_builds_no_parser(tmp_path, monkeypatch):
    src = write_doc(tmp_path)
    argv = ["check", str(src), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    parsers = count_method(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(argv) == 2
    assert parsers == []


@pytest.mark.parametrize("flags, csvs", [
    ([], 0),
    # the ui and aui tail curves and the two uniform gap series
    (["--curves-dir", "curves"], 4),
])
def test_curve_csvs_are_rendered_only_when_written(tmp_path, monkeypatch,
                                                   flags, csvs):
    src = write_doc(tmp_path)
    monkeypatch.chdir(tmp_path)
    tails_csv = count_method(monkeypatch, TailCurve, "to_csv")
    series_csv = count_method(monkeypatch, UniformGapSeries, "to_csv")
    assert main(["check", str(src), "--out", "r.json"] + flags) == 2
    assert len(tails_csv) + len(series_csv) == csvs
    assert len(list(tmp_path.glob("curves/*.csv"))) == csvs


def test_canonical_emission_calls_no_json_dumps(tmp_path, monkeypatch):
    src = write_doc(tmp_path)
    dumps = []
    original = json.dumps
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **k: dumps.append(1) or original(*a, **k))
    out = tmp_path / "r.json"
    assert main(["check", str(src), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["scenario"] == "random-doc"
    assert scenario.canonical_json({"é\n": ["ü\"", None, 1.5]}) == (
        '{"é\\n":["ü\\"",null,1.5]}')
    assert dumps == []


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
    # read off the negative-part curve the verdicts already computed, from
    # the pass that also gives the f integrals (and in twin_spikes the tail
    # rows of |f_n| come from the pass of the L1 norms); the epi
    # certificates' integrals are one-index passes, and the TV spot checks
    # read the scenario's TV series, one pass; each dominance check the
    # fixture reads is one pass (f_n >= g_n in both, g_n >= |f_n| in
    # twin_spikes' majorant)
    ("staircase", 9),
    ("staircase_late_start", 1),
    ("twin_spikes", 13),
])
def test_gallery_run_pairs_each_family_in_one_pass(monkeypatch, fixture,
                                                   passes):
    chunks = count_calls(monkeypatch, refinement, "_pair_chunk")
    assert gallery.run(fixture).failures == 0
    assert len(chunks) == passes


def count_builds(monkeypatch) -> list:
    """A list that grows by one entry per ``PiecewiseFn`` built."""
    return count_method(monkeypatch, PiecewiseFn, "__init__")


@pytest.mark.parametrize("fixture, builds", [
    # f_n and g_n share one family in both fixtures: 100 and 64 functions
    # built once each, their absolute values, and the certificates, limit
    # functions and bank steps; no negative part is built
    ("twin_spikes", 204),
    ("staircase", 68),
    # the zero minorant is one function repeated, not 32, and certifies
    # itself
    ("shrinking_plateau", 36),
])
def test_gallery_run_builds_each_function_once(monkeypatch, fixture, builds):
    calls = count_builds(monkeypatch)
    assert gallery.run(fixture).failures == 0
    assert len(calls) == builds


def test_comb_fixture_reads_own_cells_without_a_search(monkeypatch):
    # the one-index passes over g_n (its integrals, tail curves and
    # dominance rows) slice g_n's cell values from its own table; only
    # small sides are searched, such as f_n's two breakpoints against
    # g_n's edges
    original = np.searchsorted
    large = []

    def counted(a, v, *args, **kwargs):
        if np.size(a) > 1024 and np.size(v) > 1024:
            large.append((np.size(a), np.size(v)))
        return original(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    assert gallery.run("dyadic_comb").failures == 0
    assert large == []


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


def test_comb_f_family_takes_one_segment_mass_call_per_pass(monkeypatch):
    # the 20 f_n share one chunk, and the exp2 segment of every index
    # covers that index's cells, so the segments form one run of one
    # mass_fn: one call of the registered exp2 mass over all the cells of
    # the chunk; the segments take the counted function when built
    calls = count_calls(monkeypatch, measures, "_exp2_mass")
    sc = gallery.build("dyadic_comb")
    calls.clear()
    chunks = count_calls(monkeypatch, refinement, "_pair_chunk")
    assert len(list(integration.integral_series(sc.f_seq.fns,
                                                sc.measures))) == 20
    assert len(chunks) == 1
    assert len(calls) == 1


def traced_peak_mib(fn) -> float:
    """The peak of the memory that ``tracemalloc`` traces while fn runs,
    above what is traced when it starts, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_comb_passes_stay_within_their_memory_bounds():
    # building the scenario builds no g_n: it holds the 20 f_n and the
    # certificate; building g_20 writes its two 16 MiB arrays as one
    # block, with the exp2 masses of its depressed cells, and keeps them
    # without a copy; integrating the whole g_20 holds its 2^21-cell
    # refinement, masses and the gathered kernel terms, and reads g_20's
    # values as a slice of its own table; a whole run reads each g_n past
    # CHUNK_EDGES breakpoints one cell block at a time and holds none of
    # them whole; the bounds sit just above the 1.2, 40.5, 40.0, 32.0 and
    # 5.2 MiB measured when they were set
    build = traced_peak_mib(lambda: gallery.build("dyadic_comb"))
    sc = gallery.build("dyadic_comb")
    assert build < 3
    assert traced_peak_mib(lambda: sc.g_seq.fns[-1]) < 41
    f, g, mu = sc.f_seq.fns[-1], sc.g_seq.fns[-1], sc.measures[-1]
    assert traced_peak_mib(
        lambda: list(integration.integral_series([g], [mu]))) < 41
    assert traced_peak_mib(lambda: dominates([f], [g])) < 33
    del sc, f, g
    assert traced_peak_mib(lambda: gallery.run("dyadic_comb")) < 6


def test_comb_g_pass_starts_each_g_n_after_the_last_is_done(monkeypatch):
    # each g_n is sized by its stated breakpoint count, so a block of
    # indices closes before the next g_n is made: g_1 to g_14 are built
    # whole as their blocks of indices reach them, g_15 to g_20 are each
    # read in one walk over their cell blocks, and when g_20's first cell
    # block is made, nothing of g_19 or of its passes is held
    original = gallery._comb_g_blocks
    order, held = [], []

    def recording(n, seg, masses, size):
        order.append(n)
        for k, b in enumerate(original(n, seg, masses, size)):
            if (n, k) == (20, 0):
                held.append(tracemalloc.get_traced_memory()[0])
            yield b

    monkeypatch.setattr(gallery, "_comb_g_blocks", recording)
    sc = gallery.build("dyadic_comb")
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert sc.f_dominates_g and len(sc.g_integral_series) == 20
    finally:
        tracemalloc.stop()
    assert order == list(range(1, 21))
    # g_20's first block alone: its edges, masses and table, 1.5 MiB
    assert (held[0] - base) / 2 ** 20 < 2


def test_comb_run_computes_a_large_g_n_exp2_cells_once(monkeypatch):
    # the one walk over a large g_n's blocks computes each cell's exp2
    # mass once, for its depths and its integral; g_1 to g_14 are built
    # whole with the masses of their depressed cells, and their ragged
    # passes compute all their cells' masses again
    cells = []
    original = measures._exp2_mass

    def counted(a, b):
        cells.append(np.size(a))
        return original(a, b)

    monkeypatch.setattr(measures, "_exp2_mass", counted)
    sc = gallery.build("dyadic_comb")
    cells.clear()
    assert sc.g_integral_series and sc.f_dominates_g
    assert sum(cells) == sum(2 ** (n + 1) + min(n, 2) + (n < 15) * 2 ** n
                             for n in range(1, 21))


def record_comb_g_builds(monkeypatch) -> list:
    """The index of every g_n that the comb's g family builds, in order."""
    built = []

    def recording(build, indices):
        return LazyFamily(lambda n: built.append(n) or build(n), indices)

    monkeypatch.setattr(gallery, "LazyFamily", recording)
    return built


def test_gallery_run_builds_each_comb_g_once(tmp_path, monkeypatch):
    # the g integrals and the dominance f_n >= g_n read each g_n in one
    # walk, and the depressed-cell count reads g_3 once more
    built = record_comb_g_builds(monkeypatch)
    out = tmp_path / "gallery.json"
    # exit 2: the comb's violated Fatou verdict
    assert main(["gallery", "run", "all", "--out", str(out)]) == 2
    assert built == [*range(1, 21), 3]


COMB = Path(__file__).resolve().parent.parent / "scenarios" / "comb_fatou.json"


@pytest.mark.parametrize("g_params, flags, n_max", [
    (None, [], 14),
    (None, ["--nmax", "8"], 8),
    # a family of 14 cut to the document's 8 builds none of the other 6
    ({"n_max": 14}, ["--nmax", "8"], 8),
])
def test_comb_document_builds_no_g_past_n_max(tmp_path, monkeypatch,
                                              g_params, flags, n_max):
    # the domain check reads g_1, and the two g passes of the minorant
    # checks one g_n per index
    doc = json.loads(COMB.read_text(encoding="utf-8"))
    if g_params is not None:
        doc["g_functions"]["params"] = g_params
    src = tmp_path / "comb.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    built = record_comb_g_builds(monkeypatch)
    assert main(["check", str(src), "--out", str(tmp_path / "r.json")]
                + flags) == 2
    assert built == [1, *range(1, n_max + 1)]
