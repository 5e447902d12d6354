"""Declarative scenario documents, validation, and report emission.

Scenario files are plain JSON (UTF-8, no comments, no expression
language): functions are explicit piecewise lists, measures are explicit
atom/cell/named-segment lists, and anything richer comes from a named
gallery builder.  Emission is canonical -- sorted keys, floats at 17
significant digits, infinities as the strings "inf"/"-inf" -- so
documents and reports hash stably and diff cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from . import gallery
from .epilimits import EpiSchedule
from .fatou import Scenario, Tolerances
from .functions import FnSequence, LazyFamily, PiecewiseFn
from .measures import FiniteMeasure, segment_factory
from .runner import _CHECKS
from .xreal import Interval, MalformedObjectError, ScenarioFormatError

CERTIFICATE_KINDS = ("tv", "builder", "none")


# -- canonical JSON ---------------------------------------------------------

_encode_str = json.encoder.encode_basestring


def _canon(value: Any, out: list[str]) -> None:
    # exact types first; a str is written as json.dumps(s, ensure_ascii=False)
    t = type(value)
    if t is float:
        if value - value == 0.0:
            out.append("%.17g" % value)
        elif value != value:
            raise ValueError("cannot serialize NaN in canonical JSON")
        else:
            out.append('"inf"' if value > 0 else '"-inf"')
    elif t is str:
        out.append(_encode_str(value))
    elif t is dict:
        sep = "{"
        for k in sorted(value):
            out.append(f"{sep}{_encode_str(str(k))}:")
            sep = ","
            _canon(value[k], out)
        out.append("}" if value else "{}")
    elif t is list or t is tuple:
        sep = "["
        for v in value:
            out.append(sep)
            sep = ","
            _canon(v, out)
        out.append("]" if value else "[]")
    elif t is int:
        out.append(str(value))
    elif value is None or t is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif t.__module__ == "numpy" and hasattr(value, "item"):
        _canon(value.item(), out)
    else:
        # a subclass of a JSON type is written as its base type
        for base in (str, int, float, dict, list, tuple):
            if isinstance(value, base):
                return _canon(base(value), out)
        raise TypeError(f"cannot serialize {t.__name__}")


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


def _only(spec: dict, fields, path: str) -> None:
    unknown = set(spec) - set(fields)
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")


def _as_float(v, path: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise _fail(path, f"not a number: {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        raise _fail(path, f"not a number: {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise _fail(path, "integer too large for a double") from None


def _as_float_list(v, path: str) -> list[float]:
    if not isinstance(v, list):
        raise _fail(path, "expected an array of numbers")
    if set(map(type, v)) <= {float} and not any(map(math.isnan, v)):
        return v  # already a list of non-NaN floats
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
    _only(spec, ("breakpoints", "values", "default"), path)
    if bp != sorted(bp):
        raise _fail(f"{path}.breakpoints", "must be sorted ascending")
    try:
        return PiecewiseFn(bp, vals, default, domain)
    except MalformedObjectError as exc:
        raise _fail(path, str(exc)) from None


def parse_measure_spec(spec, path: str, domain: Interval) -> FiniteMeasure:
    if not isinstance(spec, dict):
        raise _fail(path, "expected an object with atoms/cells/segments")
    _only(spec, ("atoms", "cells", "segments"), path)
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
        try:
            factory = segment_factory(_get(entry, "name", p, required=True))
        except MalformedObjectError as exc:
            raise _fail(f"{p}.name", str(exc)) from None
        lo = _as_float(_get(entry, "lo", p, required=True), f"{p}.lo")
        hi = _as_float(_get(entry, "hi", p, required=True), f"{p}.hi")
        try:
            segments.append(factory(lo, hi))
        except MalformedObjectError as exc:
            raise _fail(p, str(exc)) from None
    try:
        return FiniteMeasure(atoms, cells, segments, domain)
    except MalformedObjectError as exc:
        raise _fail(path, str(exc)) from None


# -- scenario documents ------------------------------------------------------

@dataclass(frozen=True)
class BuilderRef:
    """A gallery builder and its sorted keyword pairs (``n_max`` included)."""

    name: str
    params: tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class ScenarioDoc:
    """A scenario document, parsed once: ``raw`` is the canonical dict,
    ``checks`` the check names it requests and ``scenario`` the scenario
    that validation built from it, builder families included.  Every
    ``run_checks`` on the document shares that scenario and its memo."""

    name: str
    raw: dict
    checks: tuple[str, ...]
    scenario: Scenario

    def hash(self) -> str:
        return doc_hash(self.raw)


def _builder_ref(spec, path: str, n_max: int) -> Optional[BuilderRef]:
    if not (isinstance(spec, dict) and "builder" in spec):
        return None
    _only(spec, ("builder", "params"), path)
    params = _get(spec, "params", path, default={}) or {}
    if not isinstance(params, dict):
        raise _fail(f"{path}.params", "expected an object")
    # every gallery builder takes the family size and nothing else
    _only(params, ("n_max",), f"{path}.params")
    if ("n_max" in params
            and _as_int(params["n_max"], f"{path}.params.n_max") < 1):
        raise _fail(f"{path}.params.n_max", "must be >= 1")
    name = str(spec["builder"])
    if name not in gallery.FIXTURES:
        raise _fail(f"{path}.builder",
                    f"unknown builder {name!r}; known: {sorted(gallery.FIXTURES)}")
    size, limit = params.get("n_max", n_max), gallery.FIXTURES[name].max_n
    if limit is not None and size > limit:
        raise _fail(f"{path}.params.n_max" if "n_max" in params else "$.n_max",
                    f"builder {name!r} builds at most n_max={limit} "
                    f"(memory budget), got {size}")
    return BuilderRef(name, tuple(sorted({"n_max": n_max, **params}.items())))


def parse_scenario(text: str, tol: Optional[float] = None,
                   n_max: Optional[int] = None) -> ScenarioDoc:
    """Parse and fully validate a scenario document, and build its
    scenario.

    ``tol`` and ``n_max``, when given, replace the document's
    ``tolerances.tol`` and ``n_max`` before validation, so the document is
    decoded and validated once.  Builder scenarios are built after every
    field is validated, and their families cut to ``n_max``, as explicit
    families are under an ``n_max`` override.  Raises ScenarioFormatError
    with a field path (or JSON line/column) on the first problem found;
    a gallery builder raises its own errors.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise _fail("$", "arrays and objects nest too deeply") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise _fail("$", str(exc)) from None
    if not isinstance(data, dict):
        raise _fail("$", "scenario document must be a JSON object")
    tols = data.get("tolerances")
    # a tolerances value that is not an object fails validation below
    if tol is not None and (tols is None or isinstance(tols, dict)):
        data["tolerances"] = {**(tols or {}), "tol": tol}
    cut = n_max is not None
    if cut:
        data["n_max"] = n_max
    allowed = {"name", "space", "n_max", "measures", "limit_measure",
               "functions", "g_functions", "limit_function", "K_grid",
               "schedule", "sample_grid", "tolerances", "checks",
               "convergence_certificate"}
    _only(data, allowed, "$")

    name = _get(data, "name", "$", required=True)
    if not isinstance(name, str) or not name:
        raise _fail("$.name", "expected a nonempty string")
    # the name prefixes curve file names, which must stay in their directory
    # and be paths that the OS accepts
    if "/" in name:
        raise _fail("$.name", "must not contain '/'")
    if "\0" in name:
        raise _fail("$.name", "must not contain a NUL character")

    space = _get(data, "space", "$", required=True)
    if not isinstance(space, dict):
        raise _fail("$.space", "expected {lo, hi}")
    _only(space, ("lo", "hi"), "$.space")
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
    for i, c in enumerate(checks_raw):
        # a dict lookup hashes its key, so a list entry is turned away first
        if not isinstance(c, str) or c not in _CHECKS:
            raise _fail(f"$.checks[{i}]",
                        f"unknown check {c!r}; known: {list(_CHECKS)}")

    cert_spec = _get(data, "convergence_certificate", "$",
                     default={"kind": "none"})
    if not isinstance(cert_spec, dict) or "kind" not in cert_spec:
        raise _fail("$.convergence_certificate", "expected {kind}")
    _only(cert_spec, ("kind",), "$.convergence_certificate")
    certificate = cert_spec["kind"]
    if certificate not in CERTIFICATE_KINDS:
        raise _fail("$.convergence_certificate.kind",
                    f"must be one of {list(CERTIFICATE_KINDS)}")

    measures = _parse_family(data, "measures", domain, n_max,
                             parse_measure_spec, cut)
    functions = _parse_family(data, "functions", domain, n_max, parse_fn_spec,
                              cut)
    g_functions = None
    if data.get("g_functions") is not None:
        g_functions = _parse_family(data, "g_functions", domain, n_max,
                                    parse_fn_spec, cut)
    limit_measure = _parse_family(data, "limit_measure", domain, n_max,
                                  parse_measure_spec, cut)
    limit_fn = None
    if data.get("limit_function") is not None:
        limit_fn = parse_fn_spec(data["limit_function"], "$.limit_function",
                                 domain)
    k_grid = None
    if data.get("K_grid") is not None:
        grid = _as_float_list(data["K_grid"], "$.K_grid")
        if not grid or any(k <= 0 for k in grid) or grid != sorted(grid):
            raise _fail("$.K_grid", "must be positive and sorted ascending")
        k_grid = tuple(grid)
    sample_grid = None
    if data.get("sample_grid") is not None:
        sample_grid = tuple(_as_float_list(data["sample_grid"], "$.sample_grid"))
        # an empty grid would let the existence check pass unscanned
        if not sample_grid:
            raise _fail("$.sample_grid", "must hold at least one point")
        for i, x in enumerate(sample_grid):
            if not (math.isfinite(x) and domain.contains(x)):
                raise _fail(f"$.sample_grid[{i}]",
                            f"{x} is not a finite point of the space")
    schedule = None
    if data.get("schedule") is not None:
        schedule = _parse_schedule(data["schedule"], "$.schedule", n_max)
    tolerances = Tolerances()
    if data.get("tolerances") is not None:
        tolerances = _parse_tolerances(data["tolerances"], "$.tolerances")

    built: dict[BuilderRef, Scenario] = {}
    measures = _resolve("measures", measures, built, domain)
    f_seq = _resolve("functions", functions, built, domain)
    g_seq = _resolve("g_functions", g_functions, built, domain)
    limit_measure = _resolve("limit_measure", limit_measure, built, domain)
    measures = _window(measures, n_max)
    f_seq = _window(f_seq, n_max)
    if g_seq is not None:
        g_seq = _window(g_seq, n_max)
    # a builder-backed document inherits the fixture's tuned analysis
    # parameters unless the document pins its own; the first family built
    # is the base
    kwargs: dict = {}
    base = next(iter(built.values()), None)
    if base is not None:
        kwargs.update(k_grid=base.k_grid, sample_grid=base.sample_grid)
    if k_grid is not None:
        kwargs["k_grid"] = k_grid
    if sample_grid is not None:
        kwargs["sample_grid"] = sample_grid
    scenario = Scenario(name=name, measures=measures,
                        limit_measure=limit_measure, f_seq=f_seq, g_seq=g_seq,
                        limit_fn=limit_fn, schedule=schedule,
                        tolerances=tolerances, certificate=certificate,
                        **kwargs)
    return ScenarioDoc(name, data, tuple(checks_raw), scenario)


def _parse_family(data: dict, key: str, domain: Interval, n_max: int,
                  parse_item, cut: bool):
    """A builder reference, or else the parsed explicit entries: a tuple
    of measures, an ``FnSequence``, or the single limit measure.  An
    explicit family lists exactly n_max entries, or at least n_max when
    ``cut``, and ``_window`` takes the first n_max."""
    spec = _get(data, key, "$", required=True)
    path = f"$.{key}"
    ref = _builder_ref(spec, path, n_max)
    if ref is not None:
        return ref
    if key == "limit_measure":
        return parse_item(spec, path, domain)
    if not isinstance(spec, dict) or "explicit" not in spec:
        raise _fail(path, "expected {explicit: [...]} or {builder: ...}")
    items = spec["explicit"]
    if not isinstance(items, list) or not (
            n_max <= len(items) if cut else n_max == len(items)):
        size = "at least" if cut else "exactly"
        raise _fail(f"{path}.explicit", f"expected {size} n_max={n_max} entries")
    entries = tuple(parse_item(item, f"{path}.explicit[{i}]", domain)
                    for i, item in enumerate(items))
    return entries if key == "measures" else FnSequence(entries)


def _parse_schedule(spec, path: str, n_max: int) -> EpiSchedule:
    if not isinstance(spec, dict):
        raise _fail(path, "expected {N: [...], delta: [...]}")
    _only(spec, ("N", "delta"), path)
    ns, ds = (_get(spec, k, path, required=True) for k in ("N", "delta"))
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
    _only(spec, ("tol", "stab_tol", "ui_tol", "eps_cond"), path)
    kwargs = {}
    for k in ("tol", "stab_tol", "ui_tol", "eps_cond"):
        if k in spec:
            v = _as_float(spec[k], f"{path}.{k}")
            if not v > 0:
                raise _fail(f"{path}.{k}", "must be positive")
            kwargs[k] = v
    return Tolerances(**kwargs)


# the Scenario field that serves each family key of a builder-backed document
_SCENARIO_FIELD = {"measures": "measures", "functions": "f_seq",
                   "g_functions": "g_seq", "limit_measure": "limit_measure"}


def _resolve(key: str, entry, built: dict, domain: Interval):
    """The family of the fixture a builder reference names, built once per
    reference, whose members must live on ``domain``; parsed entries (or
    None) as they are."""
    if not isinstance(entry, BuilderRef):
        return entry
    if entry not in built:
        built[entry] = gallery.build(entry.name, **dict(entry.params))
    family = getattr(built[entry], _SCENARIO_FIELD[key])
    if family is None:
        raise _fail(f"$.{key}", f"builder {entry.name!r} has no {key}")
    members = family.fns if isinstance(family, FnSequence) else family
    if isinstance(members, LazyFamily):  # on its first member's domain
        members = tuple(members[:1])
    for m in members if isinstance(members, tuple) else (members,):
        if m.domain != domain:
            raise _fail(f"$.{key}.builder",
                        f"builder {entry.name!r} lives on [{m.domain.lo}, "
                        f"{m.domain.hi}], not on $.space [{domain.lo}, "
                        f"{domain.hi}]")
    return family


def _window(family, n_max: int):
    """The first n_max members of a family of measures or functions; a
    family may be longer than n_max, never shorter.  A family built on
    demand is cut without building a member."""
    size = len(family) if isinstance(family, tuple) else family.n_max
    if size < n_max:
        raise _fail("$.n_max",
                    f"n_max={n_max} exceeds the built family range {size}")
    if isinstance(family, tuple):
        return family[:n_max]
    return replace(family, fns=family.fns[:n_max])
