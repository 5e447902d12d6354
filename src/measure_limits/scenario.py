"""Declarative scenario documents, validation, and report emission.

Scenario files are plain JSON (UTF-8, no comments, no expression
language): functions are explicit piecewise lists, measures are explicit
atom/cell/named-CDF-segment lists, and anything richer comes from a named
gallery builder.  Emission is canonical -- sorted keys, floats at 17
significant digits, infinities as the strings "inf"/"-inf" -- so
documents and reports hash stably and diff cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .epilimits import EpiSchedule
from .fatou import Scenario, Tolerances
from .functions import FnSequence, PiecewiseFn
from .measures import CDF_REGISTRY, FiniteMeasure, MeasureSequence, make_segment
from .xreal import Interval, MalformedObjectError, ScenarioFormatError

KNOWN_CHECKS = ("ui", "aui", "shift", "fatou", "minorant", "weakened_minorant",
                "majorant", "dct", "uniform_fatou", "uniform_dct", "weak_gap")
CERTIFICATE_KINDS = ("tv", "builder", "none")


# -- canonical JSON ---------------------------------------------------------

def _canon(value: Any, out: list[str]) -> None:
    if type(value).__module__ == "numpy":
        value = value.item() if hasattr(value, "item") else value
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if math.isinf(value):
            out.append('"inf"' if value > 0 else '"-inf"')
        else:
            out.append(format(value, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, k in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(k), ensure_ascii=False))
            out.append(":")
            _canon(value[k], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value: Any) -> str:
    out: list[str] = []
    _canon(value, out)
    return "".join(out)


def doc_hash(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# -- validation helpers -----------------------------------------------------

def _fail(path: str, msg: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{path}: {msg}")


def _get(d: dict, key: str, path: str, required: bool = False, default=None):
    if key not in d:
        if required:
            raise _fail(path, f"missing required field {key!r}")
        return default
    return d[key]


def _as_float(v, path: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise _fail(path, f"not a number: {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v):
        raise _fail(path, f"not a number: {v!r}")
    return float(v)


def _as_float_list(v, path: str) -> list[float]:
    if not isinstance(v, list):
        raise _fail(path, "expected an array of numbers")
    return [_as_float(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _fail(path, f"expected an integer, got {v!r}")
    return v


# -- function / measure specs ----------------------------------------------

def parse_fn_spec(spec, path: str, domain: Interval) -> PiecewiseFn:
    if not isinstance(spec, dict):
        raise _fail(path, "expected an object with breakpoints/values/default")
    bp = _as_float_list(_get(spec, "breakpoints", path, default=[]),
                        f"{path}.breakpoints")
    vals = _as_float_list(_get(spec, "values", path, default=[]),
                          f"{path}.values")
    default = _as_float(_get(spec, "default", path, default=0.0),
                        f"{path}.default")
    unknown = set(spec) - {"breakpoints", "values", "default"}
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")
    if bp != sorted(bp):
        raise _fail(f"{path}.breakpoints", "must be sorted ascending")
    try:
        return PiecewiseFn(bp, vals, default, domain)
    except MalformedObjectError as exc:
        raise _fail(path, str(exc)) from None


def parse_measure_spec(spec, path: str, domain: Interval) -> FiniteMeasure:
    if not isinstance(spec, dict):
        raise _fail(path, "expected an object with atoms/cells/segments")
    unknown = set(spec) - {"atoms", "cells", "segments"}
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")
    atoms = []
    for i, entry in enumerate(_get(spec, "atoms", path, default=[]) or []):
        p = f"{path}.atoms[{i}]"
        row = _as_float_list(entry, p)
        if len(row) != 2:
            raise _fail(p, "expected [location, weight]")
        atoms.append((row[0], row[1]))
    cells = []
    for i, entry in enumerate(_get(spec, "cells", path, default=[]) or []):
        p = f"{path}.cells[{i}]"
        row = _as_float_list(entry, p)
        if len(row) != 3:
            raise _fail(p, "expected [lo, hi, density]")
        cells.append((row[0], row[1], row[2]))
    segments = []
    for i, entry in enumerate(_get(spec, "segments", path, default=[]) or []):
        p = f"{path}.segments[{i}]"
        if not isinstance(entry, dict):
            raise _fail(p, "expected {name, lo, hi}")
        name = _get(entry, "name", p, required=True)
        if name not in CDF_REGISTRY:
            raise _fail(f"{p}.name",
                        f"unknown CDF {name!r}; known: {sorted(CDF_REGISTRY)}")
        lo = _as_float(_get(entry, "lo", p, required=True), f"{p}.lo")
        hi = _as_float(_get(entry, "hi", p, required=True), f"{p}.hi")
        segments.append(make_segment(name, lo, hi))
    try:
        return FiniteMeasure(atoms, cells, segments, domain)
    except MalformedObjectError as exc:
        raise _fail(path, str(exc)) from None


# -- scenario documents ------------------------------------------------------

@dataclass(frozen=True)
class ScenarioDoc:
    """Validated scenario file contents; ``raw`` is the canonical dict."""

    name: str
    raw: dict
    checks: tuple[str, ...]
    certificate: str

    def canonical(self) -> str:
        return canonical_json(self.raw)

    def hash(self) -> str:
        return doc_hash(self.raw)

    def build_scenario(self) -> Scenario:
        return _build_scenario(self)


def _builder_ref(spec, path: str) -> Optional[tuple[str, dict]]:
    if isinstance(spec, dict) and "builder" in spec:
        unknown = set(spec) - {"builder", "params"}
        if unknown:
            raise _fail(path, f"unknown fields {sorted(unknown)}")
        params = _get(spec, "params", path, default={}) or {}
        if not isinstance(params, dict):
            raise _fail(f"{path}.params", "expected an object")
        # every gallery builder takes the family size and nothing else
        unknown = set(params) - {"n_max"}
        if unknown:
            raise _fail(f"{path}.params", f"unknown fields {sorted(unknown)}")
        if ("n_max" in params
                and _as_int(params["n_max"], f"{path}.params.n_max") < 1):
            raise _fail(f"{path}.params.n_max", "must be >= 1")
        return str(spec["builder"]), dict(params)
    return None


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse and fully validate a scenario document.

    Raises ScenarioFormatError with a field path (or JSON line/column) on
    the first problem found.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise _fail("$", "scenario document must be a JSON object")
    allowed = {"name", "space", "n_max", "measures", "limit_measure",
               "functions", "g_functions", "limit_function", "K_grid",
               "schedule", "sample_grid", "tolerances", "checks",
               "convergence_certificate"}
    unknown = set(data) - allowed
    if unknown:
        raise _fail("$", f"unknown fields {sorted(unknown)}")

    name = _get(data, "name", "$", required=True)
    if not isinstance(name, str) or not name:
        raise _fail("$.name", "expected a nonempty string")

    space = _get(data, "space", "$", required=True)
    if not isinstance(space, dict):
        raise _fail("$.space", "expected {lo, hi}")
    lo = _as_float(_get(space, "lo", "$.space", required=True), "$.space.lo")
    hi = _as_float(_get(space, "hi", "$.space", required=True), "$.space.hi")
    if not lo < hi:
        raise _fail("$.space", f"need lo < hi, got [{lo}, {hi}]")
    domain = Interval(lo, hi)

    n_max = _as_int(_get(data, "n_max", "$", required=True), "$.n_max")
    if n_max < 1:
        raise _fail("$.n_max", "must be >= 1")

    checks_raw = _get(data, "checks", "$", default=[])
    if not isinstance(checks_raw, list):
        raise _fail("$.checks", "expected an array of check names")
    checks = []
    for i, c in enumerate(checks_raw):
        if c not in KNOWN_CHECKS:
            raise _fail(f"$.checks[{i}]",
                        f"unknown check {c!r}; known: {list(KNOWN_CHECKS)}")
        checks.append(c)

    cert_spec = _get(data, "convergence_certificate", "$",
                     default={"kind": "none"})
    if not isinstance(cert_spec, dict) or "kind" not in cert_spec:
        raise _fail("$.convergence_certificate", "expected {kind}")
    certificate = cert_spec["kind"]
    if certificate not in CERTIFICATE_KINDS:
        raise _fail("$.convergence_certificate.kind",
                    f"must be one of {list(CERTIFICATE_KINDS)}")

    # validate the structured fields eagerly so errors carry paths
    _validate_family(data, "measures", domain, n_max, parse_measure_spec)
    _validate_family(data, "functions", domain, n_max, parse_fn_spec)
    if data.get("g_functions") is not None:
        _validate_family(data, "g_functions", domain, n_max, parse_fn_spec)
    lm = _get(data, "limit_measure", "$", required=True)
    if _builder_ref(lm, "$.limit_measure") is None:
        parse_measure_spec(lm, "$.limit_measure", domain)
    if data.get("limit_function") is not None:
        parse_fn_spec(data["limit_function"], "$.limit_function", domain)
    if data.get("K_grid") is not None:
        grid = _as_float_list(data["K_grid"], "$.K_grid")
        if not grid or any(k <= 0 for k in grid) or grid != sorted(grid):
            raise _fail("$.K_grid", "must be positive and sorted ascending")
    if data.get("sample_grid") is not None:
        _as_float_list(data["sample_grid"], "$.sample_grid")
    if data.get("schedule") is not None:
        _parse_schedule(data["schedule"], "$.schedule", n_max)
    if data.get("tolerances") is not None:
        _parse_tolerances(data["tolerances"], "$.tolerances")

    return ScenarioDoc(name, data, tuple(checks), certificate)


def _validate_family(data: dict, key: str, domain: Interval, n_max: int,
                     item_parser) -> None:
    spec = _get(data, key, "$", required=(key != "g_functions"))
    path = f"$.{key}"
    if _builder_ref(spec, path) is not None:
        ref, _ = _builder_ref(spec, path)
        from . import gallery
        if ref not in gallery.FIXTURES:
            raise _fail(f"{path}.builder",
                        f"unknown builder {ref!r}; known: {sorted(gallery.FIXTURES)}")
        return
    if not isinstance(spec, dict) or "explicit" not in spec:
        raise _fail(path, "expected {explicit: [...]} or {builder: ...}")
    items = spec["explicit"]
    if not isinstance(items, list) or len(items) != n_max:
        raise _fail(f"{path}.explicit",
                    f"expected exactly n_max={n_max} entries")
    for i, item in enumerate(items):
        item_parser(item, f"{path}.explicit[{i}]", domain)


def _parse_schedule(spec, path: str, n_max: int) -> EpiSchedule:
    if not isinstance(spec, dict):
        raise _fail(path, "expected {N: [...], delta: [...]}")
    ns = _get(spec, "N", path, required=True)
    ds = _get(spec, "delta", path, required=True)
    if not isinstance(ns, list) or not isinstance(ds, list) or len(ns) != len(ds):
        raise _fail(path, "N and delta must be arrays of equal length")
    steps = tuple((_as_int(n, f"{path}.N[{i}]"),
                   _as_float(d, f"{path}.delta[{i}]"))
                  for i, (n, d) in enumerate(zip(ns, ds)))
    try:
        return EpiSchedule(steps, n_max)
    except Exception as exc:
        raise _fail(path, str(exc)) from None


def _parse_tolerances(spec, path: str) -> Tolerances:
    if not isinstance(spec, dict):
        raise _fail(path, "expected an object")
    unknown = set(spec) - {"tol", "stab_tol", "ui_tol", "eps_cond"}
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")
    kwargs = {}
    for k in ("tol", "stab_tol", "ui_tol", "eps_cond"):
        if k in spec:
            v = _as_float(spec[k], f"{path}.{k}")
            if not v > 0:
                raise _fail(f"{path}.{k}", "must be positive")
            kwargs[k] = v
    return Tolerances(**kwargs)


def _resolve_family(sc_doc_raw: dict, key: str, domain: Interval, n_max: int,
                    gallery_cache: dict, kind: str):
    spec = sc_doc_raw.get(key)
    ref = _builder_ref(spec, f"$.{key}") if spec is not None else None
    if ref is not None:
        builder_name, params = ref
        from . import gallery
        params.setdefault("n_max", n_max)
        cache_key = (builder_name, tuple(sorted(params.items())))
        if cache_key not in gallery_cache:
            gallery_cache[cache_key] = gallery.build(builder_name, **params)
        base = gallery_cache[cache_key]
        gallery_cache.setdefault("__base__", base)
        source = {"measures": base.measures, "functions": base.f_seq,
                  "g_functions": base.g_seq,
                  "limit_measure": base.limit_measure}[key]
        if source is None:
            raise _fail(f"$.{key}", f"builder {builder_name!r} has no {key}")
        return source
    if key == "limit_measure":
        return parse_measure_spec(spec, "$.limit_measure", domain)
    items = spec["explicit"]
    if kind == "measure":
        parsed = [parse_measure_spec(x, f"$.{key}.explicit[{i}]", domain)
                  for i, x in enumerate(items)]
        return MeasureSequence(n_max, lambda n: parsed[n - 1])
    parsed = [parse_fn_spec(x, f"$.{key}.explicit[{i}]", domain)
              for i, x in enumerate(items)]
    return FnSequence(n_max, lambda n: parsed[n - 1])


def _build_scenario(doc: ScenarioDoc) -> Scenario:
    data = doc.raw
    space = data["space"]
    domain = Interval(_as_float(space["lo"], "$.space.lo"),
                      _as_float(space["hi"], "$.space.hi"))
    n_max = data["n_max"]
    cache: dict = {}
    measures = _resolve_family(data, "measures", domain, n_max, cache, "measure")
    f_seq = _resolve_family(data, "functions", domain, n_max, cache, "fn")
    g_seq = None
    if data.get("g_functions") is not None:
        g_seq = _resolve_family(data, "g_functions", domain, n_max, cache, "fn")
    limit_measure = _resolve_family(data, "limit_measure", domain, n_max,
                                    cache, "measure")
    limit_fn = None
    if data.get("limit_function") is not None:
        limit_fn = parse_fn_spec(data["limit_function"], "$.limit_function",
                                 domain)
    # sequences may come from different builders than n_max implies; clamp
    for fam in (measures, f_seq, g_seq):
        if fam is not None and fam.n_max < n_max:
            raise _fail("$.n_max",
                        f"n_max={n_max} exceeds the built family range {fam.n_max}")
        if fam is not None:
            fam.n_max = n_max
    # a builder-backed document inherits the fixture's tuned analysis
    # parameters unless the document pins its own
    base = cache.get("__base__")
    kwargs: dict = {}
    if data.get("K_grid") is not None:
        kwargs["k_grid"] = tuple(_as_float_list(data["K_grid"], "$.K_grid"))
    elif base is not None:
        kwargs["k_grid"] = base.k_grid
    if data.get("schedule") is not None:
        kwargs["schedule"] = _parse_schedule(data["schedule"], "$.schedule",
                                             n_max)
    if data.get("sample_grid") is not None:
        kwargs["sample_grid"] = tuple(
            _as_float_list(data["sample_grid"], "$.sample_grid"))
    elif base is not None and base.sample_grid is not None:
        kwargs["sample_grid"] = base.sample_grid
    if data.get("tolerances") is not None:
        kwargs["tolerances"] = _parse_tolerances(data["tolerances"],
                                                 "$.tolerances")
    if base is not None and base.minorant_sup_bound is not None:
        kwargs["minorant_sup_bound"] = base.minorant_sup_bound
    return Scenario(
        name=doc.name,
        measures=measures,
        limit_measure=limit_measure,
        f_seq=f_seq,
        g_seq=g_seq,
        limit_fn=limit_fn,
        certificate=doc.certificate,
        **kwargs,
    )
