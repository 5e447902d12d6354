"""Fixture gallery: named measure/function families with closed-form
expected values, and a conformance runner that checks those values.

A fixture is a builder, the checks it requests and a table of
expectation rows.  ``run`` builds the scenario, gets the checks' results
from ``runner.check_results``, the code that ``check`` runs, and reads
each row off one of them: a verdict, a payload key or a curve.  The few
quantities that no check computes are small functions of the scenario,
each saying why.  Every row carries a note naming its derivation (a
closed-form series, a mass difference, a direct construction).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .epilimits import epi_limit_exists
from .fatou import HOLDS, VIOLATED, Scenario, Tolerances
from .functions import (
    EpiCertificate,
    FnSequence,
    LazyFamily,
    PiecewiseFn,
    constant_fn,
    whole,
    zero_fn,
)
from .measures import FiniteMeasure, lebesgue, make_segment, point_mass
from .refinement import CHUNK_EDGES, Block, BlockedFn
from .runner import PASS, check_results
from .tails import default_window_start
from .xreal import Interval, MalformedObjectError, close

LN2 = math.log(2.0)
_STAIR_STEPS = 50


def _family(builder: Callable[[int], object], n_max: int) -> tuple:
    """(builder(1), ..., builder(n_max))."""
    return tuple(builder(n) for n in range(1, n_max + 1))


def _constant_seq(c: PiecewiseFn, n_max: int) -> FnSequence:
    """n_max copies of c, certified as their own epi-limits."""
    return FnSequence((c,) * n_max, epi_liminf_cert=EpiCertificate(c),
                      epi_limsup_cert=EpiCertificate(c))


# --------------------------------------------------------------------------
# conformance machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Quantity:
    id: str
    value: object
    expected: object
    tol: Optional[float]
    ok: bool
    note: str


@dataclass(frozen=True)
class ConformanceReport:
    fixture: str
    quantities: tuple[Quantity, ...]
    elapsed_s: float

    @property
    def failures(self) -> int:
        return sum(1 for q in self.quantities if not q.ok)

    @property
    def verdicts(self) -> dict:
        return {q.id: q.value for q in self.quantities
                if isinstance(q.value, str) and q.value in
                ("holds", "violated", "inconclusive")}


_MISSING = object()


@dataclass(frozen=True)
class Row:
    """One expected value of a fixture, read off one source.

    ``check`` names one of the fixture's checks, and ``key`` a field that
    ``check`` prints for it: ``verdict``, a payload key or a curve.  With
    ``check`` None, ``key`` names a memoized series of the scenario, which
    the checks compute and print only a window statistic of.  A quantity
    that no check computes names a function of the scenario instead, and
    ``key`` an attribute of its result (None: the result itself).
    ``read`` maps the field to the quantity, which must equal ``expected``
    (``tol`` None) or be ``close`` to it within ``tol``; a tolerance that
    scales with the family is a function of the scenario.  A field that
    is not there fails the row.
    """

    id: str
    check: Union[None, str, Callable[[Scenario], object]]
    key: Optional[str]
    expected: object
    tol: Union[None, float, Callable[[Scenario], float]]
    note: str
    read: Optional[Callable[[object], object]] = None

    def quantity(self, source, sc: Scenario) -> Quantity:
        value = (source.get(self.key, _MISSING) if isinstance(source, dict)
                 else source if self.key is None
                 else getattr(source, self.key, _MISSING))
        tol = self.tol(sc) if callable(self.tol) else self.tol
        if value is _MISSING:
            return Quantity(self.id, None, self.expected, tol, False, self.note)
        value = self.read(value) if self.read else value
        if tol is None:
            ok = value == self.expected
        else:
            value, ok = float(value), close(value, self.expected, tol)
        return Quantity(self.id, value, self.expected, tol, bool(ok), self.note)


_passes = PASS.__eq__  # a pass/fail verdict as a flag
_holds = HOLDS.__eq__  # a holds/violated verdict as a flag


def _off(c: float) -> Callable:
    """The read of a series that should be c throughout."""
    return lambda xs: max(abs(x - c) for x in xs)


# --------------------------------------------------------------------------
# fixture: staircase
# --------------------------------------------------------------------------

def _staircase_scenario(n_max: int = 64) -> Scenario:
    """Shrinking uniform densities collapsing onto a point mass at 0, with
    geometric staircase integrands.

    The staircase on [0, 1/n) takes value -i on the i-th dyadic slice, so
    every tail integral is the same geometric series no matter the index.
    The countable staircase is truncated after 50 steps; the remainder of
    the series is folded into one residual cell (value -(50+2), mass
    2^-50 under mu_n), which keeps every displayed integral exact up to
    the 5e-14 residual bound.
    """
    dom = Interval(0.0, 1.0)
    steps = np.arange(0, _STAIR_STEPS + 1)

    def f_builder(n: int) -> PiecewiseFn:
        bp = np.append((1.0 - np.exp2(-steps)) / n, 1.0 / n)
        vals = np.append(-np.arange(1.0, _STAIR_STEPS + 1), -(_STAIR_STEPS + 2.0))
        return PiecewiseFn(bp, vals, 0.0, dom)

    def m_builder(n: int) -> FiniteMeasure:
        return FiniteMeasure(cells=[(0.0, 1.0 / n, float(n))], domain=dom)

    f_seq = FnSequence(
        _family(f_builder, n_max),
        epi_liminf_cert=EpiCertificate(zero_fn(dom), ((0.0, -math.inf),)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom)))
    return Scenario(
        name="staircase",
        measures=_family(m_builder, n_max),
        limit_measure=point_mass(0.0, 1.0, dom),
        f_seq=f_seq,
        g_seq=f_seq,
        limit_fn=zero_fn(dom),
        certificate="builder",
    )


def staircase_tail_formula(k: float) -> float:
    """Geometric-series oracle: sum_{i>=ceil(K)} i/2^i = (ceil(K)+1)/2^(ceil(K)-1)."""
    c = math.ceil(k)
    return (c + 1.0) / 2.0 ** (c - 1.0)


def _staircase_tail_deviation(sc: Scenario) -> float:
    """The largest distance of the staircase's negative-part tails from
    ``staircase_tail_formula`` at K = 0.5, 1, ..., 10.  No check compares
    a tail curve with a closed form, and this grid is not the scenario's,
    so the curve is computed here."""
    ks = [0.5] + [float(k) for k in range(1, 11)]
    table = replace(sc, k_grid=tuple(ks)).neg_tail_curve.table
    return max(abs(table[n - 1, j] - staircase_tail_formula(k))
               for n in range(1, sc.n_max + 1) for j, k in enumerate(ks))


_STAIRCASE_ROWS = (
    Row("tail_matches_closed_form", _staircase_tail_deviation, None, 0.0,
        1e-9 + (_STAIR_STEPS + 2.0) * 2.0 ** -_STAIR_STEPS,
        "geometric series sum_{i>=ceil(K)} i/2^i"),
    Row("integral_is_minus_two", None, "f_integral_series", 0.0, 1e-9,
        "series sum i/2^i = 2, residual folded into last cell", _off(-2.0)),
    Row("ui_passes", "ui", "verdict", True, None,
        "sup curve vanishes on the dyadic grid", _passes),
    Row("aui_passes", "aui", "verdict", True, None,
        "windowed curve vanishes on the dyadic grid", _passes),
    Row("shift_is_zero", "shift", "shift", 0, None,
        "tails are index-independent"),
    Row("fatou_conclusion", "fatou", "verdict", HOLDS, None, "-inf <= -2"),
    Row("fatou_lhs_is_minus_inf", "fatou", "lhs", -math.inf, None,
        "staircase floors sink without bound at the atom"),
    Row("fatou_rhs", "fatou", "rhs", -2.0, 1e-9, "constant integral series"),
    Row("minorant_self_fails", "minorant", "verdict", False, None,
        "no minorant certificate exists for this family", _holds),
    Row("minorant_epi_side", "minorant", "epi_integral", 0.0, 1e-12,
        "upper epi-limit vanishes at the atom"),
    Row("minorant_chain_rhs", "minorant", "liminf_of_integrals", -2.0, 1e-9,
        "constant integral series"),
    Row("weakened_self_infinite", "weakened_minorant", "finite_ok", False,
        None, "lower epi-limit integral is -inf at the atom"),
    Row("tv_to_limit_is_two", None, "tv_series", 0.0, 1e-12,
        "mutually singular unit masses",
        lambda tv: _off(2.0)(tv[n - 1] for n in (1, 7, len(tv)))),
    Row("weak_gap_window_within_lipschitz_bound", "weak_gap",
        "max_gap_window", 0.0, lambda sc: 1.0 / (2.0 * sc.window_start) + 1e-12,
        "mean of |s| over [0,1/n] is 1/(2n), so at most 1/(2 window_start) "
        "in the window"),
)


def _staircase_late_start_scenario(n_max: int = 65) -> Scenario:
    """Staircase family with one non-integrable function prepended, so
    uniform integrability only holds after discarding the first index."""
    base = _staircase_scenario(n_max - 1)
    dom = Interval(0.0, 1.0)
    bad = PiecewiseFn([0.0, 1.0], [-math.inf], 0.0, dom)
    return Scenario(
        name="staircase_late_start",
        measures=(lebesgue(0.0, 1.0), *base.measures),
        limit_measure=base.limit_measure,
        f_seq=FnSequence((bad, *base.f_seq.fns)),
        certificate="builder",
    )


_LATE_START_ROWS = (
    Row("aui_passes", "aui", "verdict", True, None,
        "trailing window never sees the bad index", _passes),
    Row("ui_fails", "ui", "verdict", False, None,
        "index 1 has an infinite tail at every level", _passes),
    Row("shift_is_one", "shift", "shift", 1, None,
        "dropping one index restores the staircase family"),
)


# --------------------------------------------------------------------------
# fixture: twin_spikes
# --------------------------------------------------------------------------

def _twin_spikes_scenario(n_max: int = 100) -> Scenario:
    """Antisymmetric spikes +-n on [-1/n, 1/n] under Lebesgue measure.

    Integrals vanish identically while the tail functional of either part
    sticks at 1, so no shift ever restores uniform integrability; the
    limit of integrals still agrees with the integral of the limit.
    """
    dom = Interval(-1.0, 1.0)

    def f_builder(n: int) -> PiecewiseFn:
        return PiecewiseFn([-1.0 / n, 0.0, 1.0 / n], [-float(n), float(n)],
                           0.0, dom)

    f_seq = FnSequence(
        _family(f_builder, n_max),
        epi_liminf_cert=EpiCertificate(zero_fn(dom), ((0.0, -math.inf),)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom), ((0.0, math.inf),)))
    # verdicts are grid-relative: capping the grid at n_max/2 keeps every
    # trailing-window tail away from the finite-range cutoff
    cap = float(n_max // 2)
    grid = tuple(sorted({k for k in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
                         if k < cap} | {cap}))
    return Scenario(
        name="twin_spikes",
        measures=(lebesgue(-1.0, 1.0),) * n_max,
        limit_measure=lebesgue(-1.0, 1.0),
        f_seq=f_seq,
        g_seq=f_seq,
        limit_fn=zero_fn(dom),
        k_grid=grid,
        certificate="tv",
    )


def _f50(sc: Scenario) -> PiecewiseFn:
    """twin_spikes' f_50, whose point values are its construction: checks
    integrate it and evaluate none of its values."""
    if sc.n_max < 50:
        raise MalformedObjectError(
            f"twin_spikes reads f_50: n_max={sc.n_max} must be >= 50")
    return sc.f_seq.fns[49]


_TWIN_SPIKES_ROWS = (
    Row("f50_at_+0.01", _f50, None, 50.0, 0.0, "direct construction",
        lambda f: f(0.01)),
    Row("f50_at_-0.01", _f50, None, -50.0, 0.0, "direct construction",
        lambda f: f(-0.01)),
    Row("tail_curves_all_one", "aui", "aui_tail_curve", 0.0, 1e-12,
        "spike mass n * (1/n) = 1 whenever n >= K",
        lambda c: _off(1.0)([*c.sup_curve, *c.limsup_curve])),
    Row("aui_fails", "aui", "verdict", False, None,
        "curve is constantly 1 on the grid", _passes),
    Row("shift_absent", "shift", "shift", None, None,
        "every trailing family repeats the same tails"),
    Row("integrals_zero", None, "f_integral_series", 0.0, 1e-12,
        "antisymmetric spikes cancel exactly", _off(0.0)),
    Row("dct_conclusion", "dct", "verdict", HOLDS, None, "0 = 0"),
    Row("dct_limit_integral", "dct", "limit_integral", 0.0, 1e-12,
        "epi-limit vanishes off a single point"),
    Row("dct_exception_mass", "dct", "exception_mass", 0.0, 0.0,
        "limit fails to exist only on a Lebesgue-null point"),
    Row("dct_equality_without_condition", "dct", "equality_without_condition",
        True, None, "equality holds although no shift is integrable"),
    Row("minorant_self_holds", "minorant", "verdict", True, None,
        "both sides vanish for the self-minorant", _holds),
    Row("minorant_epi_side", "minorant", "epi_integral", 0.0, 1e-12,
        "upper epi-limit is 0 off the origin"),
    Row("uniform_sup_gap_is_one", "uniform_dct", "uniform_dct_series", 0.0,
        1e-12, "each Hahn side carries mass 1",
        lambda s: _off(1.0)(s.sup_gaps)),
    Row("uniform_inf_gap_is_minus_one", "uniform_fatou",
        "uniform_fatou_series", 0.0, 1e-12, "negative spike carries mass 1",
        lambda s: _off(-1.0)(s.inf_gaps)),
    Row("undershoot_mass_is_1_over_n", "uniform_fatou", "uniform_fatou_series",
        0.0, 1e-12, "undershoot set is [-1/n, 0)",
        lambda s: max(abs(u - 1.0 / n)
                      for n, u in enumerate(s.cond_undershoot, 1))),
    Row("uniform_fatou_consistent", "uniform_fatou", "consistent", True, None,
        "stalled gaps match the failing tail condition"),
    Row("uniform_dct_consistent", "uniform_dct", "consistent", True, None,
        "stalled gaps match the failing tail condition"),
    Row("fatou_conclusion", "fatou", "verdict", HOLDS, None, "0 <= 0"),
)


# --------------------------------------------------------------------------
# fixture: dyadic_comb
# --------------------------------------------------------------------------

#: The input bound of the comb: g_n has 2^(n+1) + 2 breakpoints, and
#: ``fns[n]`` writes two arrays of that many doubles, 64 MiB each at
#: n = 22; a run reads a large g_n in cell blocks and holds none whole.
_COMB_MAX_N = 22
_COMB_CERT_CELLS = 4096


def _comb_domain() -> tuple[Interval, FiniteMeasure]:
    dom = Interval(0.0, math.inf)
    mu = FiniteMeasure(segments=[make_segment("exp2", 0.0, math.inf)],
                       domain=dom)
    return dom, mu


def _comb_g_blocks(n: int, seg, masses: bool, size: int) -> Iterator[Block]:
    """g_n's cells in blocks of ``size`` dyadic cells, the last one ending
    with the cells from 2.0 for n <= 2, or from the cliff's ends.  A
    depressed cell, at an even k 2^-n, sinks by the envelope 2^(s-1)/ln 2
    averaged by the measure, (2^-n / (2 ln 2)) / mass; with ``masses`` all
    the cells' exp2 masses are made, and serve both, else only these."""
    h, dyadic = 2.0 ** -n, 2 ** (n + 1)
    tail = [2.0, 3.0] if n == 2 else [2.0] if n == 1 else [n, n + 1.0]
    for j in range(0, dyadic, size):
        last = j + size >= dyadic
        lo = np.arange(j, dyadic + len(tail) if last else j + size,
                       dtype=np.float64)
        lo *= h
        if last:
            lo[dyadic - j:] = tail
        end = math.inf if last else (j + size) * h
        # the default 0.0 before the block's cells and after g_n's last
        table = np.zeros(lo.size + 1)
        even = slice(j & 1, dyadic - j, 2)  # the cells at an even k
        if masses:
            ms = seg.mass_fn(lo, np.append(lo[1:], end))
            depth = (h / (2.0 * LN2)) / ms[even]
        else:  # each ends where the next cell starts
            a, b = lo[even], lo[(j & 1) + 1:dyadic - j + 1:2]
            depth = seg.mass_fn(a, b if b.size == a.size else np.append(b, end))
            np.divide(h / (2.0 * LN2), depth, out=depth)
        table[1 + lo.searchsorted(n):1 + lo.searchsorted(n + 1)] = -(2.0 ** n)
        table[1:][even] -= depth
        yield Block(lo[0], end, lo, table,
                    *((ms, seg.mass_fn) if masses else ()))


def _dyadic_comb_scenario(n_max: int = 20) -> Scenario:
    """Geometric cliffs -2^n marching right on an exponentially decaying
    measure, with comb-shaped depressions on alternating dyadic cells.

    The cliff contributes the same integral at every index; the comb
    depression doubles it.  Depression depths are measure-averages of the
    exponential envelope per cell, which keeps all integrals closed-form
    while the pointwise values stay within one cell's oscillation of the
    envelope.

    g_n is written as numpy arrays, never as Python lists, and canonical:
    for n > 2 the last dyadic cell and [2, n) are one zero cell, so g_n has
    2^(n+1) + 2 breakpoints.  The g family is a ``LazyFamily``, which
    holds no g_n.  A g_n of at most ``CHUNK_EDGES`` breakpoints is built
    whole, as one block whose frozen arrays ``PiecewiseFn`` keeps; a
    larger one is a ``BlockedFn``, which states its size, and whose cell
    blocks ``Scenario.g_pass`` reads in one walk for its integral and its
    dominance, each block's exp2 masses serving its depths and its
    integral.  ``fns[n]`` builds it whole, 16 MiB per array at n = 20 (a
    run builds g_3 to count its cells).
    """
    if n_max > _COMB_MAX_N:
        raise MalformedObjectError(
            f"comb functions above n={_COMB_MAX_N} exceed the memory budget")
    dom, mu = _comb_domain()
    seg = mu.segments[0]

    def f_builder(n: int) -> PiecewiseFn:
        return PiecewiseFn([float(n), float(n + 1)], [-(2.0 ** n)], 0.0, dom)

    def g_member(n: int) -> PiecewiseFn | BlockedFn:
        g = BlockedFn(dom, 2 ** (n + 1) + min(n, 2),
                      lambda masses, size: _comb_g_blocks(n, seg, masses, size))
        return g if g.n_breakpoints > CHUNK_EDGES else whole(g)

    fine_bp = np.arange(_COMB_CERT_CELLS + 1) * (2.0 / _COMB_CERT_CELLS)
    fine_vals = -(((2.0 / _COMB_CERT_CELLS) / (2.0 * LN2))
                  / seg.mass_fn(fine_bp[:-1], fine_bp[1:]))
    g_liminf_cert = EpiCertificate(PiecewiseFn(fine_bp, fine_vals, 0.0, dom))

    f_seq = FnSequence(
        _family(f_builder, n_max),
        epi_liminf_cert=EpiCertificate(zero_fn(dom)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom)))
    g_seq = FnSequence(
        LazyFamily(g_member, range(1, n_max + 1)),
        epi_liminf_cert=g_liminf_cert,
        epi_limsup_cert=EpiCertificate(zero_fn(dom)))
    return Scenario(
        name="dyadic_comb",
        measures=(mu,) * n_max,
        limit_measure=mu,
        f_seq=f_seq,
        g_seq=g_seq,
        limit_fn=zero_fn(dom),
        sample_grid=tuple(np.linspace(0.0, 4.0, 65)),
        certificate="tv",
    )


def _g3_depressed_cells(sc: Scenario) -> int:
    """The comb's g_3 cells between its cliff and 0, its depressions: a
    count of the construction that no check reads.  It builds g_3 once
    more."""
    g3 = sc.g_seq.fns[2]
    return int(np.sum((g3.values < 0) & (g3.values > -4)))


def _comb_certificate_deviation(sc: Scenario) -> float:
    """The largest distance of the comb's g epi-liminf certificate from
    the exponential envelope -2^(s-1)/ln 2 at 32 points of [0, 2): checks
    integrate the certificate and evaluate it nowhere."""
    pts = np.linspace(0.0, 1.9375, 32)
    ests = sc.g_seq.epi_liminf_cert.values_at(pts, True).tolist()
    # Python floats, so that the bits do not hang on numpy's power
    return max(abs(est + 2.0 ** (s - 1.0) / LN2)
               for s, est in zip(pts.tolist(), ests))


def _g_limit_exists(sc: Scenario):
    """Where the comb's g family has an epi-limit, and the mass where it
    has none: the ``dct`` check asks this of the f family only."""
    return epi_limit_exists(sc.g_seq, sc.resolved_grid(),
                            sc.resolved_schedule(), sc.tolerances.tol,
                            sc.limit_measure)


_COMB_ROWS = (
    Row("f_integral", None, "f_integral_series", 0.0, 1e-9,
        "mass difference: 2^n * (2^-n - 2^-(n+1)) / ln 2",
        _off(-1.0 / (2.0 * LN2))),
    Row("g_integral", None, "g_integral_series", 0.0, 1e-6,
        "comb depression adds another 1/(2 ln 2)", _off(-1.0 / LN2)),
    Row("g3_depressed_cell_count", _g3_depressed_cells, None, 8, None,
        "2^3 alternating dyadic cells"),
    Row("fatou_conclusion", "fatou", "verdict", VIOLATED, None,
        "0 > -1/(2 ln 2) with certified sides"),
    Row("fatou_lhs", "fatou", "lhs", 0.0, 1e-12, "cliffs march off every ball"),
    Row("fatou_rhs", "fatou", "rhs", -1.0 / (2.0 * LN2), 1e-9,
        "constant integral series"),
    Row("fatou_aui_diag_fails", "fatou", "aui_negative_parts", False, None,
        "negative-part tails stick at 1/(2 ln 2)"),
    Row("minorant_dominance", "minorant", "dominance_ok", True, None,
        "depressions only push values down"),
    Row("minorant_chain_fails", "minorant", "chain_ok", False, None,
        "0 vs -1/ln 2"),
    Row("minorant_epi_side", "minorant", "epi_integral", 0.0, 1e-12,
        "comb gaps reach up to 0 everywhere"),
    Row("minorant_rhs", "minorant", "liminf_of_integrals", -1.0 / LN2, 1e-6,
        "constant comb integrals"),
    Row("weakened_minorant_holds", "weakened_minorant", "verdict", True, None,
        "-1/ln 2 <= -1/ln 2", _holds),
    Row("weakened_epi_side", "weakened_minorant", "epi_integral", -1.0 / LN2,
        1e-6, "depression envelope integrates like a constant density"),
    Row("g_epi_liminf_pointwise", _comb_certificate_deviation, None, 0.0, 2e-3,
        "certificate tracks the exponential envelope per cell"),
    Row("g_limit_exception_mass", _g_limit_exists, "exception_mass",
        0.75 / LN2, 1e-6, "mass difference over [0, 2)"),
    Row("g_exception_mass_exact", _g_limit_exists, "mass_exact", True, None,
        "both certificates present"),
)


# --------------------------------------------------------------------------
# classic baselines
# --------------------------------------------------------------------------

def _shrinking_plateau_scenario(n_max: int = 32) -> Scenario:
    """Classic strict-inequality family n * 1[0,1/n) under Lebesgue measure."""
    dom = Interval(0.0, 1.0)

    def f_builder(n: int) -> PiecewiseFn:
        return PiecewiseFn([0.0, 1.0 / n], [float(n)], 0.0, dom)

    f_seq = FnSequence(
        _family(f_builder, n_max),
        epi_liminf_cert=EpiCertificate(zero_fn(dom)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom), ((0.0, math.inf),)))
    return Scenario(
        name="shrinking_plateau",
        measures=(lebesgue(0.0, 1.0),) * n_max,
        limit_measure=lebesgue(0.0, 1.0),
        f_seq=f_seq,
        g_seq=_constant_seq(zero_fn(dom), n_max),
        limit_fn=zero_fn(dom),
        certificate="tv",
    )


_SHRINKING_PLATEAU_ROWS = (
    Row("fatou_conclusion", "fatou", "verdict", HOLDS, None, "0 <= 1"),
    Row("fatou_lhs", "fatou", "lhs", 0.0, 1e-12,
        "plateaus slide off every ball"),
    Row("fatou_rhs", "fatou", "rhs", 1.0, 1e-12, "n * (1/n) = 1 exactly"),
    Row("minorant_holds", "minorant", "verdict", True, None,
        "zero minorant, chain 0 <= 0", _holds),
    Row("shift_is_zero", "shift", "shift", 0, None,
        "negative parts vanish identically"),
)


def _fading_plateau_scenario(n_max: int = 32) -> Scenario:
    """Plateaus (1 - 1/n) on [0,1] rising to 1 under a constant majorant."""
    dom = Interval(0.0, 1.0)
    one = constant_fn(1.0, dom)
    f_seq = FnSequence(
        _family(lambda n: PiecewiseFn([0.0, 1.0], [1.0 - 1.0 / n], 0.0, dom),
                n_max),
        epi_liminf_cert=EpiCertificate(one),
        epi_limsup_cert=EpiCertificate(one))
    return Scenario(
        name="fading_plateau",
        measures=(lebesgue(0.0, 1.0),) * n_max,
        limit_measure=lebesgue(0.0, 1.0),
        f_seq=f_seq,
        g_seq=_constant_seq(one, n_max),
        limit_fn=one,
        # the integral series 1 - 1/n crawls to its limit; equality can
        # only be asserted at the window's own resolution
        tolerances=Tolerances(tol=2.0 / default_window_start(n_max)),
        certificate="tv",
    )


_FADING_PLATEAU_ROWS = (
    Row("majorant_holds", "majorant", "verdict", True, None,
        "constant majorant, chain 1 <= 1 < inf", _holds),
    Row("limit_integral", "dct", "limit_integral", 1.0, 1e-12,
        "constant limit function"),
    Row("dct_conclusion", "dct", "verdict", HOLDS, None,
        "series converges to the limit integral"),
    Row("hypotheses_ok", "dct", "hypotheses_ok", True, None,
        "limit exists everywhere; majorant certified"),
)


def _flat_negative_scenario(n_max: int = 16) -> Scenario:
    """Constant family f_n = g_n = -1; every diagnostic is trivial."""
    dom = Interval(0.0, 1.0)
    neg_one = constant_fn(-1.0, dom)
    seq = _constant_seq(neg_one, n_max)
    return Scenario(
        name="flat_negative",
        measures=(lebesgue(0.0, 1.0),) * n_max,
        limit_measure=lebesgue(0.0, 1.0),
        f_seq=seq,
        g_seq=seq,
        limit_fn=neg_one,
        certificate="tv",
    )


_FLAT_NEGATIVE_ROWS = (
    Row("shift_is_zero", "shift", "shift", 0, None, "bounded constant family"),
    Row("minorant_holds", "minorant", "verdict", True, None,
        "self-minorant, chain -1 <= -1", _holds),
    Row("fatou_conclusion", "fatou", "verdict", HOLDS, None, "-1 <= -1"),
    Row("fatou_gap", "fatou", "gap", 0.0, 1e-12, "identical constant sides"),
)


def _vanishing_mass_scenario(n_max: int = 32) -> Scenario:
    """Measures with total mass 1/n collapsing to the zero measure."""
    dom = Interval(0.0, 1.0)
    return Scenario(
        name="vanishing_mass",
        measures=_family(
            lambda n: FiniteMeasure(cells=[(0.0, 1.0, 1.0 / n)], domain=dom),
            n_max),
        limit_measure=FiniteMeasure(domain=dom),
        f_seq=_constant_seq(constant_fn(-1.0, dom), n_max),
        certificate="builder",
    )


_VANISHING_MASS_ROWS = (
    Row("fatou_conclusion", "fatou", "verdict", HOLDS, None,
        "zero limit measure edge"),
    Row("fatou_lhs", "fatou", "lhs", 0.0, 0.0, "integral against zero measure"),
    Row("edge_recorded", "fatou", "zero_limit_measure", True, None,
        "degenerate scenario is flagged, not silent"),
)


# --------------------------------------------------------------------------
# the fixtures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    summary: str
    build: Callable[..., Scenario]
    checks: tuple[str, ...]  # the checks that its rows read
    rows: tuple[Row, ...]
    max_n: Optional[int] = None  # the largest n_max its builder accepts


FIXTURES: dict[str, Fixture] = {
    "staircase": Fixture(
        "collapsing densities vs point mass; staircase integrands with "
        "uniformly integrable negative parts and no minorant certificate",
        _staircase_scenario, ("ui", "aui", "shift", "fatou", "minorant",
                              "weakened_minorant", "weak_gap"),
        _STAIRCASE_ROWS),
    "staircase_late_start": Fixture(
        "staircase family with one non-integrable index prepended",
        _staircase_late_start_scenario, ("ui", "aui", "shift"),
        _LATE_START_ROWS),
    "twin_spikes": Fixture(
        "antisymmetric +-n spikes on Lebesgue measure: integrals converge "
        "without any uniform integrability",
        _twin_spikes_scenario, ("aui", "shift", "dct", "minorant",
                                "uniform_fatou", "uniform_dct", "fatou"),
        _TWIN_SPIKES_ROWS),
    "dyadic_comb": Fixture(
        "geometric cliffs plus dyadic comb depressions on an "
        "exponentially decaying measure",
        _dyadic_comb_scenario, ("fatou", "minorant", "weakened_minorant"),
        _COMB_ROWS, _COMB_MAX_N),
    "shrinking_plateau": Fixture(
        "classic strict-inequality plateau family",
        _shrinking_plateau_scenario, ("fatou", "minorant", "shift"),
        _SHRINKING_PLATEAU_ROWS),
    "fading_plateau": Fixture(
        "plateaus rising to a constant limit under a constant majorant",
        _fading_plateau_scenario, ("majorant", "dct"), _FADING_PLATEAU_ROWS),
    "flat_negative": Fixture(
        "constant -1 family; all diagnostics trivial",
        _flat_negative_scenario, ("shift", "minorant", "fatou"),
        _FLAT_NEGATIVE_ROWS),
    "vanishing_mass": Fixture(
        "mass draining to the zero measure: degenerate-limit edge case",
        _vanishing_mass_scenario, ("fatou",), _VANISHING_MASS_ROWS),
}


def _fixture(fixture_id: str) -> Fixture:
    try:
        return FIXTURES[fixture_id]
    except KeyError:
        raise MalformedObjectError(
            f"unknown fixture {fixture_id!r}; known: {sorted(FIXTURES)}") from None


def build(fixture_id: str, **params) -> Scenario:
    """Instantiate a fixture's scenario (unknown ids raise)."""
    return _fixture(fixture_id).build(**params)


def run(fixture_id: str, **params) -> ConformanceReport:
    """Build a fixture's scenario, run its checks as ``check`` runs them
    and read every row."""
    fx = _fixture(fixture_id)
    t0 = time.perf_counter()
    sc = fx.build(**params)
    sources: dict = {None: sc}
    for r in check_results(sc, fx.checks):
        sources[r.name] = {"verdict": r.verdict, **r.payload, **r.curves}
    qs = []
    for row in fx.rows:
        if callable(row.check) and row.check not in sources:
            sources[row.check] = row.check(sc)
        qs.append(row.quantity(sources.get(row.check, {}), sc))
    return ConformanceReport(fixture_id, tuple(qs), time.perf_counter() - t0)
