"""Outside-in tracer: spans around calls into measure_limits' public functions.

`Tracer.install` replaces each traced function wherever callers reach it:
the defining module's attribute, every `from .x import name` binding in
the other package modules, and class attributes for methods.  Nothing in
the package changes on disk, and a process that never calls `install`
runs the program untouched, so timed runs carry no wrappers.

A span is (id, name, start, end, parent, op id, thread id, extra).  The
runner executes checks on pool threads, and in Python 3.11 contextvars do
not follow `ThreadPoolExecutor`, so a span that opens on an empty
non-main thread stack takes the open `run_checks` span as parent and the
current op id.  The benchmark runs a single-client closed loop, so one op
is in flight at a time.

Self time is a span's duration minus the union of its child spans; the
union matters under `run_checks`, whose children overlap on two threads.
Targets that a later version of the package no longer has are skipped and
listed in `missing`, so the tracer never breaks a run.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name, extra); `extra` reads a number off the
# call's arguments or result after the clock has stopped.
SPAN_TARGETS = (
    ("kernels", "comp_sum", "kernels.comp_sum", "len_arg0"),
    ("kernels", "pos_neg_dot", "kernels.pos_neg_dot", "len_arg0"),
    ("kernels", "tail_dot", "kernels.tail_dot", "len_arg0"),
    ("refinement", "common_refinement", "refinement.common_refinement", "n_cells"),
    ("refinement", "refined_values_masses", "refinement.refined_values_masses", None),
    ("measures", "FiniteMeasure.continuous_cell_masses",
     "measures.continuous_cell_masses", "edges_cells"),
    ("measures", "MeasureSequence.measure", "measures.measure", None),
    ("functions", "FnSequence.fn", "functions.fn", None),
    ("functions", "PiecewiseFn.range_on", "functions.range_on", None),
    ("functions", "dominates", "functions.dominates", None),
    ("epilimits", "epi_liminf", "epilimits.epi_liminf", "exact"),
    ("epilimits", "epi_limsup", "epilimits.epi_limsup", "exact"),
    ("epilimits", "epi_integral", "epilimits.epi_integral", None),
    ("epilimits", "epi_limit_exists", "epilimits.epi_limit_exists", None),
    ("integration", "integrate", "integration.integrate", None),
    ("integration", "tv_norm_diff", "integration.tv_norm_diff", None),
    ("integration", "weak_gap_bank", "integration.weak_gap_bank", None),
    ("tails", "tail_curve", "tails.tail_curve", None),
    ("tails", "shift_search", "tails.shift_search", None),
    ("fatou", "fatou_report", "fatou.fatou_report", None),
    ("fatou", "minorant_check", "fatou.minorant_check", None),
    ("fatou", "weakened_minorant_probe", "fatou.weakened_minorant_probe", None),
    ("fatou", "majorant_check", "fatou.majorant_check", None),
    ("fatou", "dct_report", "fatou.dct_report", None),
    ("uniform", "uniform_report", "uniform.uniform_report", None),
    ("uniform", "signed_gap", "uniform.signed_gap", None),
    ("runner", "run_checks", "runner.run_checks", None),
    ("scenario", "parse_scenario", "scenario.parse_scenario", None),
    ("scenario", "ScenarioDoc.build_scenario", "scenario.build_scenario", None),
    ("scenario", "canonical_json", "scenario.canonical_json", "len_result"),
    ("gallery", "run", "gallery.run", None),
    ("cli", "main", "cli.main", None),
)
DISPATCH = "runner.run_checks"
# spans named after their first argument as well: `gallery.run.<fixture>`
NAMED_BY_ARG0 = ("gallery.run",)
GALLERY_SPLIT = ("dyadic_comb", "twin_spikes")
# the runner's table of check functions; each entry gets a span
# `runner.check.<name>`, so that `run_checks`' self time is only what no
# traced callee covers
CHECK_TABLE = ("runner", "_CHECKS", "runner.check")
# sequences whose `builder` calls get a span of their own (layer `builders`)
BUILDER_TARGETS = (
    ("functions", "FnSequence", "functions.fn.build"),
    ("measures", "MeasureSequence", "measures.measure.build"),
)
INIT_COUNTER = ("functions", "PiecewiseFn")
PACKAGE = "measure_limits"

LAYERS = ("cli", "gallery", "scenario", "runner", "fatou", "uniform",
          "epilimits", "tails", "integration", "functions", "builders",
          "measures", "refinement", "kernels")

_EXTRA = {
    None: lambda args, result: 0,
    "len_arg0": lambda args, result: len(args[0]),
    "n_cells": lambda args, result: result.n_cells,
    "edges_cells": lambda args, result: len(args[1]) - 1,
    "exact": lambda args, result: int(getattr(result, "certainty", None) == "exact"),
    "len_result": lambda args, result: len(result),
}


_FAILED = object()


def _safe(extra, args, result) -> float:
    if result is _FAILED:
        return 0
    try:
        return extra(args, result)
    except Exception:
        return 0


def layer_of(name: str) -> str:
    return "builders" if name.endswith(".build") else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.op = 0
        self.missing: list[str] = []
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._dispatch = 0
        self._inits: dict[int, int] = defaultdict(int)
        self._init_lock = threading.Lock()
        self._ops: list[dict] = []      # finished ops: column arrays
        self._names: dict[str, int] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, attr, span, extra in SPAN_TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, leaf = self._resolve(mod, attr)
            if owner is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(owner, leaf)
            wrapped = self._wrap(span, orig, _EXTRA[extra], span == DISPATCH,
                                 span in NAMED_BY_ARG0)
            setattr(owner, leaf, wrapped)
            if owner is mod:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
        mod_name, attr, span = CHECK_TABLE
        table = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                table[key] = self._wrap(f"{span}.{key}", fn, _EXTRA[None], False)
        else:
            self.missing.append(f"{mod_name}.{attr}")
        for mod_name, cls_name, span in BUILDER_TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            cls = getattr(mod, cls_name, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{cls_name}.builder")
                continue
            cls.__init__ = self._wrap_builder_init(cls.__init__, span)
        mod = sys.modules.get(f"{PACKAGE}.{INIT_COUNTER[0]}")
        cls = getattr(mod, INIT_COUNTER[1], None)
        if cls is None:
            self.missing.append(".".join(INIT_COUNTER) + ".__init__")
        else:
            cls.__init__ = self._wrap_counter(cls.__init__)

    @staticmethod
    def _resolve(mod, attr: str):
        owner = mod
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            return None, None
        return owner, leaf

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main:
            return self._dispatch
        return 0

    def _wrap(self, name: str, fn, extra, dispatch: bool,
              by_arg0: bool = False):
        clock = time.perf_counter
        spans = self._spans
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            span = f"{name}.{args[0]}" if by_arg0 and args else name
            if dispatch:
                outer, tracer._dispatch = tracer._dispatch, sid
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if dispatch:
                    tracer._dispatch = outer
                spans.append((sid, span, t0, t1, parent, tracer.op, get_ident(),
                              _safe(extra, args, result)))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_builder_init(self, init, span: str):
        tracer = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            builder = getattr(obj, "builder", None)
            if callable(builder):
                obj.builder = tracer._wrap(span, builder, _EXTRA[None], False)

        return __init__

    def _wrap_counter(self, init):
        counts = self._inits
        lock = self._init_lock
        tracer = self

        def __init__(obj, *args, **kwargs):
            with lock:
                counts[tracer.op] += 1
            init(obj, *args, **kwargs)

        return __init__

    # -- per-op bookkeeping ------------------------------------------------

    def end_op(self, keep: bool = True) -> None:
        """Close the current op: move its spans into compact columns, or
        drop them when `keep` is false (the untimed warm-up op)."""
        spans = self._spans[:]
        del self._spans[:]
        inits = self._inits.pop(self.op, 0)
        if not keep:
            return
        codes = np.asarray([self._names.setdefault(s[1], len(self._names))
                            for s in spans], dtype=np.int32)
        cols = {
            "sid": np.asarray([s[0] for s in spans], dtype=np.int64),
            "name": codes,
            "t0": np.asarray([s[2] for s in spans]),
            "t1": np.asarray([s[3] for s in spans]),
            "parent": np.asarray([s[4] for s in spans], dtype=np.int64),
            "tid": np.asarray([s[6] for s in spans], dtype=np.int64),
            "extra": np.asarray([s[7] for s in spans], dtype=np.float64),
        }
        parent_idx = _parent_index(cols)
        cols["self"] = _self_times(cols, parent_idx)
        layers = [layer_of(name) for name in _span_names(self._names, codes)]
        self._ops.append({"op": self.op, "inits": inits,
                          "incl": _inclusive_by_layer(cols, parent_idx, layers),
                          **cols})

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write every span as a tab-separated line, gzip-compressed;
        returns the number of spans written."""
        names = {code: name for name, code in self._names.items()}
        n = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\tthread\n")
            for op in self._ops:
                rows = zip(op["sid"].tolist(), op["name"].tolist(),
                           op["t0"].tolist(), op["t1"].tolist(),
                           op["parent"].tolist(), op["tid"].tolist())
                fh.writelines(f"{sid}\t{names[code]}\t{t0!r}\t{t1!r}\t{parent}"
                              f"\t{op['op']}\t{tid}\n"
                              for sid, code, t0, t1, parent, tid in rows)
                n += op["sid"].size
        return n

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of the per-layer metrics over every traced op."""
        ops = self._ops
        n_ops = max(len(ops), 1)
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "self": 0.0, "incl": 0.0, "extra": 0.0})
        layer_self: dict[str, float] = defaultdict(float)
        names = {code: name for name, code in self._names.items()}
        layer_incl: dict[str, float] = defaultdict(float)
        inits = threads = 0.0
        for op in ops:
            inits += op["inits"]
            for layer, secs in op["incl"].items():
                layer_incl[layer] += secs
            for code in np.unique(op["name"]):
                sel = op["name"] == code
                a = agg[names[int(code)]]
                a["calls"] += int(sel.sum())
                a["self"] += float(op["self"][sel].sum())
                a["incl"] += float((op["t1"][sel] - op["t0"][sel]).sum())
                a["extra"] += float(op["extra"][sel].sum())
                layer_self[layer_of(names[int(code)])] += float(op["self"][sel].sum())
            threads += _pool_threads(op, names)

        def per_op(name: str, key: str) -> float:
            return agg[name][key] / n_ops if name in agg else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        elements = 0.0
        for k in ("comp_sum", "pos_neg_dot", "tail_dot"):
            name = f"kernels.{k}"
            m[f"{name}.calls"] = per_op(name, "calls")
            m[f"{name}.elements"] = per_op(name, "extra")
            m[f"{name}.self_s"] = per_op(name, "self")
            elements += per_op(name, "extra")
        m["kernels.bytes_computed"] = elements * 16
        name = "refinement.common_refinement"
        m[f"{name}.calls"] = per_op(name, "calls")
        m[f"{name}.cells"] = per_op(name, "extra")
        m[f"{name}.self_s"] = per_op(name, "self")
        m["refinement.refined_values_masses.self_s"] = per_op(
            "refinement.refined_values_masses", "self")
        m["measures.continuous_cell_masses.cells"] = per_op(
            "measures.continuous_cell_masses", "extra")
        m["measures.continuous_cell_masses.self_s"] = per_op(
            "measures.continuous_cell_masses", "self")
        m["measures.measure.calls"] = per_op("measures.measure", "calls")
        m["measures.measure.builds"] = per_op("measures.measure.build", "calls")
        m["functions.fn.calls"] = per_op("functions.fn", "calls")
        m["functions.fn.builds"] = per_op("functions.fn.build", "calls")
        fn_calls = agg["functions.fn"]["calls"]
        m["functions.fn.hit_ratio"] = ratio(
            fn_calls - agg["functions.fn.build"]["calls"], fn_calls)
        m["functions.fn.build_s"] = per_op("functions.fn.build", "self")
        for k in ("range_on", "dominates"):
            m[f"functions.{k}.calls"] = per_op(f"functions.{k}", "calls")
            m[f"functions.{k}.self_s"] = per_op(f"functions.{k}", "self")
        m["functions.piecewise_fn.inits"] = inits / n_ops
        for k in ("epi_liminf", "epi_limsup"):
            m[f"epilimits.{k}.calls"] = per_op(f"epilimits.{k}", "calls")
            m[f"epilimits.{k}.self_s"] = per_op(f"epilimits.{k}", "self")
        for k in ("epi_integral", "epi_limit_exists"):
            m[f"epilimits.{k}.self_s"] = per_op(f"epilimits.{k}", "self")
        m["epilimits.exact_ratio"] = ratio(
            agg["epilimits.epi_liminf"]["extra"] + agg["epilimits.epi_limsup"]["extra"],
            agg["epilimits.epi_liminf"]["calls"] + agg["epilimits.epi_limsup"]["calls"])
        for k in ("integrate", "tv_norm_diff", "weak_gap_bank"):
            m[f"integration.{k}.calls"] = per_op(f"integration.{k}", "calls")
            m[f"integration.{k}.self_s"] = per_op(f"integration.{k}", "self")
        for k in ("tail_curve", "shift_search"):
            m[f"tails.{k}.calls"] = per_op(f"tails.{k}", "calls")
            m[f"tails.{k}.self_s"] = per_op(f"tails.{k}", "self")
        for k in ("fatou_report", "minorant_check", "weakened_minorant_probe",
                  "majorant_check", "dct_report"):
            m[f"fatou.{k}.s"] = per_op(f"fatou.{k}", "incl")
        m["uniform.uniform_report.s"] = per_op("uniform.uniform_report", "incl")
        m["uniform.signed_gap.self_s"] = per_op("uniform.signed_gap", "self")
        m["runner.run_checks.self_s"] = per_op("runner.run_checks", "self")
        m["runner.checks.self_s"] = sum(
            (per_op(n, "self") for n in agg if n.startswith("runner.check.")), 0.0)
        m["runner.threads"] = threads / n_ops
        for k in ("parse_scenario", "build_scenario", "canonical_json"):
            m[f"scenario.{k}.self_s"] = per_op(f"scenario.{k}", "self")
        m["scenario.bytes_out"] = per_op("scenario.canonical_json", "extra")
        m["gallery.run.s"] = sum(
            (per_op(n, "incl") for n in agg if n.startswith("gallery.run.")), 0.0)
        for fid in GALLERY_SPLIT:
            m[f"gallery.run.{fid}.s"] = per_op(f"gallery.run.{fid}", "incl")
        m["cli.main.self_s"] = per_op("cli.main", "self")
        total_self = sum(layer_self.values())
        for layer in LAYERS:
            m[f"layer.{layer}.share"] = ratio(layer_self.get(layer, 0.0), total_self)
            m[f"layer.{layer}.incl_share"] = ratio(layer_incl.get(layer, 0.0),
                                                   total_self)
        return m


def _span_names(names: dict[str, int], codes: np.ndarray) -> list[str]:
    by_code = {code: name for name, code in names.items()}
    return [by_code[c] for c in codes.tolist()]


def _parent_index(cols: dict) -> np.ndarray:
    """Row of each span's parent within the op, or -1 for a root."""
    n = cols["sid"].size
    order = np.argsort(cols["sid"])
    sids = cols["sid"][order]
    pos = np.searchsorted(sids, cols["parent"])
    found = (pos < n) & (sids[np.minimum(pos, n - 1)] == cols["parent"])
    parent_idx = np.full(n, -1)
    parent_idx[found] = order[pos[found]]
    return parent_idx


def _self_times(cols: dict, parent_idx: np.ndarray) -> np.ndarray:
    """Duration minus the union of child spans, per span."""
    dur = cols["t1"] - cols["t0"]
    covered = np.zeros(dur.size)
    kids = np.nonzero(parent_idx >= 0)[0]
    # children on one thread run one after another, so their durations add
    np.add.at(covered, parent_idx[kids], dur[kids])
    # where children come from several threads, take the union instead
    child_tids: dict[int, set] = defaultdict(set)
    for k, p in zip(kids.tolist(), parent_idx[kids].tolist()):
        child_tids[p].add(int(cols["tid"][k]))
    for p, tids in child_tids.items():
        if len(tids) < 2:
            continue
        members = kids[parent_idx[kids] == p]
        lo_p, hi_p = cols["t0"][p], cols["t1"][p]
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(zip(cols["t0"][members].tolist(),
                                 cols["t1"][members].tolist())):
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[p] = total
    return np.maximum(dur - covered, 0.0)


def _inclusive_by_layer(cols: dict, parent_idx: np.ndarray,
                        layers: list[str]) -> dict[str, float]:
    """Seconds inside each layer, callees included: the durations of the
    spans that have no ancestor of their own layer."""
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    n = len(layers)
    above = [0] * n          # layers present among each span's ancestors
    out: dict[str, float] = defaultdict(float)
    dur = (cols["t1"] - cols["t0"]).tolist()
    parents = parent_idx.tolist()
    # a parent's id is always smaller than its children's
    for i in np.argsort(cols["sid"]).tolist():
        p = parents[i]
        if p >= 0:
            above[i] = above[p] | bit.get(layers[p], 0)
        if not above[i] & bit.get(layers[i], 0):
            out[layers[i]] += dur[i]
    return dict(out)


def _pool_threads(op: dict, names: dict) -> int:
    """Distinct non-main threads whose root spans hang under run_checks."""
    codes = [c for c, name in names.items() if name == DISPATCH]
    if not codes:
        return 0
    dispatch_sids = op["sid"][op["name"] == codes[0]]
    under = np.isin(op["parent"], dispatch_sids)
    main_tids = np.unique(op["tid"][op["name"] == codes[0]])
    tids = np.unique(op["tid"][under])
    return int(np.setdiff1d(tids, main_tids).size)
