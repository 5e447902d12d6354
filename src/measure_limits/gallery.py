"""Fixture gallery: named measure/function families with closed-form
expected values, plus a conformance runner that recomputes every quantity
and compares it against its expectation.

Every expected value in a fixture table carries a note naming its
derivation (a closed-form series, a CDF difference, a direct
construction); no expectation is asserted that the suite does not
exercise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .epilimits import epi_limit_exists
from .fatou import (
    HOLDS,
    VIOLATED,
    Scenario,
    bounded_minorant_shift_probe,
    dct_report,
    fatou_report,
    majorant_check,
    minorant_check,
    weakened_minorant_probe,
)
from .functions import (
    EpiCertificate,
    FnSequence,
    LazyFamily,
    PiecewiseFn,
    constant_fn,
    zero_fn,
)
from .integration import default_bank, weak_gap_bank
from .measures import FiniteMeasure, lebesgue, make_segment, point_mass
from .tails import first_shift, verdict
from .xreal import (
    Interval,
    MalformedObjectError,
    UnsupportedScenarioError,
    close,
)

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


# --------------------------------------------------------------------------
# fixture: dyadic_comb
# --------------------------------------------------------------------------

#: The memory budget of the comb: g_n holds two arrays of 2^(n+1) + 2
#: doubles, 64 MiB each at n = 22, and a run holds two g_n at a time.
_COMB_MAX_N = 22
_COMB_CERT_CELLS = 4096


def _comb_domain() -> tuple[Interval, FiniteMeasure]:
    dom = Interval(0.0, math.inf)
    mu = FiniteMeasure(segments=[make_segment("exp2", 0.0, math.inf)],
                       domain=dom)
    return dom, mu


def _comb_depths(seg, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Depression depth per cell [a, b) of a dyadic grid, all b[0] - a[0]
    long: the exponential envelope 2^(s-1)/ln 2 averaged by the measure,
    i.e. (len/(2 ln 2)) / mass, written over the masses."""
    depths = seg.mass_fn(a, b)
    return np.divide((b[0] - a[0]) / (2.0 * LN2), depths, out=depths)


def _dyadic_comb_scenario(n_max: int = 20) -> Scenario:
    """Geometric cliffs -2^n marching right on an exponentially decaying
    measure, with comb-shaped depressions on alternating dyadic cells.

    The cliff contributes the same integral at every index; the comb
    depression doubles it.  Depression depths are measure-averages of the
    exponential envelope per cell, which keeps all integrals closed-form
    while the pointwise values stay within one cell's oscillation of the
    envelope.

    g_n is built as numpy arrays, never as Python lists, and canonical:
    for n > 2 the last dyadic cell and [2, n) are one zero cell, so g_n has
    2^(n+1) + 2 breakpoints.  The breakpoints and the value table, 16 MiB
    each at n = 20, are written once and frozen, so ``PiecewiseFn`` keeps
    them.  The g family is a ``LazyFamily``, which holds no g_n: a run
    builds each one once in ``Scenario.g_pass`` (and g_3 again to count
    its cells), and holds at most g_19 and g_20, 48 MiB, for n_max = 20.
    """
    if n_max > _COMB_MAX_N:
        raise MalformedObjectError(
            f"comb functions above n={_COMB_MAX_N} exceed the memory budget")
    dom, mu = _comb_domain()
    seg = mu.segments[0]

    def f_builder(n: int) -> PiecewiseFn:
        return PiecewiseFn([float(n), float(n + 1)], [-(2.0 ** n)], 0.0, dom)

    def g_builder(n: int) -> PiecewiseFn:
        h = 2.0 ** -n
        n_cells = 2 ** (n + 1)
        # the dyadic edges of [0, 2), 2.0 only for n <= 2, then the cliff
        tail = [float(n), float(n + 1)] if n > 2 else [3.0] if n == 2 else []
        n_dyadic = n_cells + (n <= 2)
        bp = np.arange(n_dyadic + len(tail), dtype=np.float64)
        bp[:n_dyadic] *= h
        bp[n_dyadic:] = tail
        # g_n's value table, the default 0.0 at both ends (no finite hi)
        table = np.zeros(bp.size + 1)
        vals = table[1:-1]
        if n < 2:
            vals[bp[:n_cells] >= n] = -(2.0 ** n)
        else:
            vals[-1] = -(2.0 ** n)
        # each depressed cell ends at the next dyadic edge
        vals[0:n_cells:2] -= _comb_depths(seg, bp[0:n_cells:2], bp[1:n_cells:2])
        bp.flags.writeable = table.flags.writeable = False
        return PiecewiseFn(bp, table[1:-1], 0.0, dom)

    fine_bp = np.arange(_COMB_CERT_CELLS + 1) * (2.0 / _COMB_CERT_CELLS)
    fine_vals = -_comb_depths(seg, fine_bp[:-1], fine_bp[1:])
    g_liminf_cert = EpiCertificate(PiecewiseFn(fine_bp, fine_vals, 0.0, dom))

    f_seq = FnSequence(
        _family(f_builder, n_max),
        epi_liminf_cert=EpiCertificate(zero_fn(dom)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom)))
    g_seq = FnSequence(
        LazyFamily(g_builder, range(1, n_max + 1)),
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
        certificate="tv",
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


def _num(qid: str, value: float, expected: float, tol: float, note: str) -> Quantity:
    return Quantity(qid, float(value), float(expected), tol,
                    bool(close(value, expected, tol)), note)


def _flag(qid: str, value, expected, note: str) -> Quantity:
    return Quantity(qid, value, expected, None, bool(value == expected), note)


def _run_staircase(sc: Scenario) -> list[Quantity]:
    residual = (_STAIR_STEPS + 2.0) * 2.0 ** -_STAIR_STEPS
    qs = []

    ks = [0.5] + [float(k) for k in range(1, 11)]
    table = replace(sc, k_grid=tuple(ks)).neg_tail_curve.table
    dev = max(abs(table[n - 1, j] - staircase_tail_formula(k))
              for n in range(1, sc.n_max + 1) for j, k in enumerate(ks))
    qs.append(_num("tail_matches_closed_form", dev, 0.0, 1e-9 + residual,
                   "geometric series sum_{i>=ceil(K)} i/2^i"))

    dev = max(abs(v + 2.0) for v in sc.f_integral_series)
    qs.append(_num("integral_is_minus_two", dev, 0.0, 1e-9,
                   "series sum i/2^i = 2, residual folded into last cell"))

    curve = sc.neg_tail_curve
    qs.append(_flag("ui_passes", verdict(curve, "ui").passes, True,
                    "sup curve vanishes on the dyadic grid"))
    qs.append(_flag("aui_passes", verdict(curve, "aui").passes, True,
                    "windowed curve vanishes on the dyadic grid"))
    qs.append(_flag("shift_is_zero",
                    first_shift(curve.table[:, -1], 1e-6, sc.n_max - 1), 0,
                    "tails are index-independent"))

    rep = fatou_report(sc)
    qs.append(_flag("fatou_conclusion", rep.conclusion, HOLDS,
                    "-inf <= -2"))
    qs.append(_flag("fatou_lhs_is_minus_inf", rep.lhs, -math.inf,
                    "staircase floors sink without bound at the atom"))
    qs.append(_num("fatou_rhs", rep.rhs, -2.0, 1e-9, "constant integral series"))

    minor = minorant_check(sc)
    qs.append(_flag("minorant_self_fails", minor.holds, False,
                    "no minorant certificate exists for this family"))
    qs.append(_num("minorant_epi_side", minor.epi_integral, 0.0, 1e-12,
                   "upper epi-limit vanishes at the atom"))
    qs.append(_num("minorant_chain_rhs", minor.liminf_of_integrals, -2.0, 1e-9,
                   "constant integral series"))

    weak = weakened_minorant_probe(sc)
    qs.append(_flag("weakened_self_infinite", weak.finite_ok, False,
                    "lower epi-limit integral is -inf at the atom"))

    dev = max(abs(sc.tv_series[n - 1] - 2.0) for n in (1, 7, sc.n_max))
    qs.append(_num("tv_to_limit_is_two", dev, 0.0, 1e-12,
                   "mutually singular unit masses"))

    gaps = weak_gap_bank(sc.measures, sc.limit_measure,
                         default_bank(sc.limit_measure))
    ok = all(g <= 1.0 / (2.0 * n) + 1e-12 for n, g in enumerate(gaps, start=1))
    qs.append(_flag("weak_gap_within_lipschitz_bound", ok, True,
                    "mean of |s| over [0,1/n] is 1/(2n)"))
    return qs


def _run_staircase_late_start(sc: Scenario) -> list[Quantity]:
    curve = sc.neg_tail_curve
    return [
        _flag("aui_passes", verdict(curve, "aui").passes, True,
              "trailing window never sees the bad index"),
        _flag("ui_fails", verdict(curve, "ui").passes, False,
              "index 1 has an infinite tail at every level"),
        _flag("shift_is_one",
              first_shift(curve.table[:, -1], 1e-6, 50), 1,
              "dropping one index restores the staircase family"),
    ]


def _run_twin_spikes(sc: Scenario) -> list[Quantity]:
    qs = []
    f50 = sc.f_seq.fns[49]
    qs.append(_num("f50_at_+0.01", f50(0.01), 50.0, 0.0, "direct construction"))
    qs.append(_num("f50_at_-0.01", f50(-0.01), -50.0, 0.0, "direct construction"))

    curve = sc.neg_tail_curve
    dev = max(float(np.max(np.abs(curve.sup_curve - 1.0))),
              float(np.max(np.abs(curve.limsup_curve - 1.0))))
    qs.append(_num("tail_curves_all_one", dev, 0.0, 1e-12,
                   "spike mass n * (1/n) = 1 whenever n >= K"))
    qs.append(_flag("aui_fails", verdict(curve, "aui").passes, False,
                    "curve is constantly 1 on the grid"))
    qs.append(_flag("shift_absent",
                    first_shift(curve.table[:, -1], 1e-6, 50), None,
                    "every trailing family repeats the same tails"))

    dev = max(abs(v) for v in sc.f_integral_series)
    qs.append(_num("integrals_zero", dev, 0.0, 1e-12,
                   "antisymmetric spikes cancel exactly"))

    dct = dct_report(sc, equality_tol=1e-12)
    qs.append(_flag("dct_conclusion", dct.conclusion, HOLDS, "0 = 0"))
    qs.append(_num("dct_limit_integral", dct.limit_integral, 0.0, 1e-12,
                   "epi-limit vanishes off a single point"))
    qs.append(_num("dct_exception_mass", dct.exception_mass, 0.0, 0.0,
                   "limit fails to exist only on a Lebesgue-null point"))
    qs.append(_flag("dct_equality_without_condition",
                    dct.equality_without_condition, True,
                    "equality holds although no shift is integrable"))

    minor = minorant_check(sc)
    qs.append(_flag("minorant_self_holds", minor.holds, True,
                    "both sides vanish for the self-minorant"))
    qs.append(_num("minorant_epi_side", minor.epi_integral, 0.0, 1e-12,
                   "upper epi-limit is 0 off the origin"))

    rep = sc.uniform_report
    qs.append(_num("uniform_sup_gap_is_one",
                   max(abs(g - 1.0) for g in rep.series.sup_gaps), 0.0, 1e-12,
                   "each Hahn side carries mass 1"))
    qs.append(_num("uniform_inf_gap_is_minus_one",
                   max(abs(g + 1.0) for g in rep.series.inf_gaps), 0.0, 1e-12,
                   "negative spike carries mass 1"))
    dev = max(abs(rep.series.cond_undershoot[n - 1] - 1.0 / n)
              for n in range(1, sc.n_max + 1))
    qs.append(_num("undershoot_mass_is_1_over_n", dev, 0.0, 1e-12,
                   "undershoot set is [-1/n, 0)"))
    qs.append(_flag("uniform_verdicts_consistent",
                    rep.fatou.consistent and rep.dct.consistent, True,
                    "stalled gaps match the failing tail condition"))

    fat = fatou_report(sc)
    qs.append(_flag("fatou_conclusion", fat.conclusion, HOLDS, "0 <= 0"))

    try:
        bounded_minorant_shift_probe(sc)
        rejected = False
    except UnsupportedScenarioError:
        rejected = True
    qs.append(_flag("shift_probe_rejects_unbounded_minorants", rejected, True,
                    "self-minorants are unbounded above"))
    return qs


def _run_dyadic_comb(sc: Scenario) -> list[Quantity]:
    mu = sc.limit_measure
    qs = []

    half = 1.0 / (2.0 * LN2)
    dev = max(abs(v + half) for v in sc.f_integral_series)
    qs.append(_num("f_integral", dev, 0.0, 1e-9,
                   "CDF difference: 2^n * (2^-n - 2^-(n+1)) / ln 2"))

    dev = max(abs(v + 1.0 / LN2) for v in sc.g_integral_series)
    qs.append(_num("g_integral", dev, 0.0, 1e-6,
                   "comb depression adds another 1/(2 ln 2)"))

    g3 = sc.g_seq.fns[2]
    depressed = int(np.sum((g3.values < 0) & (g3.values > -4)))
    qs.append(_flag("g3_depressed_cell_count", depressed, 8,
                    "2^3 alternating dyadic cells"))

    rep = fatou_report(sc)
    qs.append(_flag("fatou_conclusion", rep.conclusion, VIOLATED,
                    "0 > -1/(2 ln 2) with certified sides"))
    qs.append(_num("fatou_lhs", rep.lhs, 0.0, 1e-12, "cliffs march off every ball"))
    qs.append(_num("fatou_rhs", rep.rhs, -half, 1e-9, "constant integral series"))
    qs.append(_flag("fatou_aui_diag_fails",
                    rep.aui_negative_parts, False,
                    "negative-part tails stick at 1/(2 ln 2)"))

    minor = minorant_check(sc)
    qs.append(_flag("minorant_dominance", minor.dominance_ok, True,
                    "depressions only push values down"))
    qs.append(_flag("minorant_chain_fails", minor.chain_ok, False,
                    "0 vs -1/ln 2"))
    qs.append(_num("minorant_epi_side", minor.epi_integral, 0.0, 1e-12,
                   "comb gaps reach up to 0 everywhere"))
    qs.append(_num("minorant_rhs", minor.liminf_of_integrals, -1.0 / LN2, 1e-6,
                   "constant comb integrals"))

    weak = weakened_minorant_probe(sc)
    qs.append(_flag("weakened_minorant_holds", weak.holds, True,
                    "-1/ln 2 <= -1/ln 2"))
    qs.append(_num("weakened_epi_side", weak.epi_integral, -1.0 / LN2, 1e-6,
                   "depression envelope integrates like a constant density"))

    pts = np.linspace(0.0, 1.9375, 32)
    ests = sc.g_seq.epi_liminf_cert.values_at(pts, True).tolist()
    # Python floats, so that the bits do not hang on numpy's power
    env_dev = max(abs(est + 2.0 ** (s - 1.0) / LN2)
                  for s, est in zip(pts.tolist(), ests))
    qs.append(_num("g_epi_liminf_pointwise", env_dev, 0.0, 2e-3,
                   "certificate tracks the exponential envelope per cell"))

    exists = epi_limit_exists(sc.g_seq, sc.resolved_grid(),
                              sc.resolved_schedule(), 1e-9, mu)
    qs.append(_num("g_limit_exception_mass", exists.exception_mass,
                   0.75 / LN2, 1e-6, "CDF difference over [0, 2)"))
    qs.append(_flag("g_exception_mass_exact", exists.mass_exact, True,
                    "both certificates present"))
    return qs


def _run_shrinking_plateau(sc: Scenario) -> list[Quantity]:
    rep = fatou_report(sc)
    probe = bounded_minorant_shift_probe(sc)
    return [
        _flag("fatou_conclusion", rep.conclusion, HOLDS, "0 <= 1"),
        _num("fatou_lhs", rep.lhs, 0.0, 1e-12, "plateaus slide off every ball"),
        _num("fatou_rhs", rep.rhs, 1.0, 1e-12, "n * (1/n) = 1 exactly"),
        _flag("shift_probe_applicable", probe.applicable, True,
              "zero minorant is bounded and certified"),
        _flag("shift_probe_zero", probe.shift, 0,
              "negative parts vanish identically"),
    ]


def _run_fading_plateau(sc: Scenario) -> list[Quantity]:
    # the integral series 1 - 1/n crawls to its limit; equality can only be
    # asserted at the window's own resolution
    dct = dct_report(sc, equality_tol=2.0 / sc.window_start)
    return [
        _flag("majorant_holds", majorant_check(sc).holds, True,
              "constant majorant, chain 1 <= 1 < inf"),
        _num("limit_integral", dct.limit_integral, 1.0, 1e-12,
             "constant limit function"),
        _flag("dct_conclusion", dct.conclusion, HOLDS,
              "series converges to the limit integral"),
        _flag("hypotheses_ok", dct.hypotheses_ok, True,
              "limit exists everywhere; majorant certified"),
    ]


def _run_flat_negative(sc: Scenario) -> list[Quantity]:
    probe = bounded_minorant_shift_probe(sc)
    rep = fatou_report(sc)
    return [
        _flag("shift_probe_zero", probe.shift, 0, "bounded constant family"),
        _flag("fatou_conclusion", rep.conclusion, HOLDS, "-1 <= -1"),
        _num("fatou_gap", rep.gap, 0.0, 1e-12, "identical constant sides"),
    ]


def _run_vanishing_mass(sc: Scenario) -> list[Quantity]:
    rep = fatou_report(sc)
    return [
        _flag("fatou_conclusion", rep.conclusion, HOLDS,
              "zero limit measure edge"),
        _num("fatou_lhs", rep.lhs, 0.0, 0.0, "integral against zero measure"),
        _flag("edge_recorded", rep.zero_limit_measure, True,
              "degenerate scenario is flagged, not silent"),
    ]


@dataclass(frozen=True)
class Fixture:
    summary: str
    build: Callable[..., Scenario]
    run: Callable[[Scenario], list[Quantity]]
    max_n: Optional[int] = None  # the largest n_max its builder accepts


FIXTURES: dict[str, Fixture] = {
    "staircase": Fixture(
        "collapsing densities vs point mass; staircase integrands with "
        "uniformly integrable negative parts and no minorant certificate",
        _staircase_scenario, _run_staircase),
    "staircase_late_start": Fixture(
        "staircase family with one non-integrable index prepended",
        _staircase_late_start_scenario, _run_staircase_late_start),
    "twin_spikes": Fixture(
        "antisymmetric +-n spikes on Lebesgue measure: integrals converge "
        "without any uniform integrability",
        _twin_spikes_scenario, _run_twin_spikes),
    "dyadic_comb": Fixture(
        "geometric cliffs plus dyadic comb depressions on an "
        "exponentially decaying measure",
        _dyadic_comb_scenario, _run_dyadic_comb, _COMB_MAX_N),
    "shrinking_plateau": Fixture(
        "classic strict-inequality plateau family",
        _shrinking_plateau_scenario, _run_shrinking_plateau),
    "fading_plateau": Fixture(
        "plateaus rising to a constant limit under a constant majorant",
        _fading_plateau_scenario, _run_fading_plateau),
    "flat_negative": Fixture(
        "constant -1 family; all diagnostics trivial",
        _flat_negative_scenario, _run_flat_negative),
    "vanishing_mass": Fixture(
        "mass draining to the zero measure: degenerate-limit edge case",
        _vanishing_mass_scenario, _run_vanishing_mass),
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
    """Build a fixture's scenario and check every expected quantity."""
    fx = _fixture(fixture_id)
    t0 = time.perf_counter()
    qs = fx.run(fx.build(**params))
    return ConformanceReport(fixture_id, tuple(qs), time.perf_counter() - t0)
