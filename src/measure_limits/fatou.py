"""Gap reports: the Fatou inequality, minorant/majorant conditions, and
dominated-convergence equality for weakly converging measures.

The left side of the Fatou inequality integrates the epigraphical liminf
against the limit measure; the right side takes the windowed liminf of
the per-index integrals.  A scenario can only be reported ``violated``
when both sides are beyond truncation doubt (exact certificate on the
left, stabilized window on the right); anything weaker caps out at
``inconclusive`` so truncation noise can never masquerade as a
counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .epilimits import EXACT, EpiSchedule, epi_integral, epi_limit_exists
from .functions import FnSequence, PiecewiseFn, dominates, part
from .integration import integral_series, tv_series
from .measures import FiniteMeasure, MeasureSequence
from .tails import (
    DEFAULT_K_GRID,
    TailCurve,
    UiVerdict,
    default_window_start,
    first_shift,
    tail_curve,
    verdict,
)
from .xreal import UnsupportedScenarioError

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Tolerances:
    tol: float = 1e-9          # gap / equality comparisons
    stab_tol: float = 1e-9     # window stabilization
    ui_tol: float = 1e-6       # tail-curve vanishing threshold
    eps_cond: float = 1e-3     # epsilon for the set-wise conditions


@dataclass
class Scenario:
    """Everything a limit-theorem check consumes.

    ``certificate`` states how weak convergence of the measures is
    justified: ``"tv"`` (total-variation distances vanish), ``"builder"``
    (closed-form construction), or ``"none"`` (bank evidence only, so
    hypothesis status stays inconclusive).
    """

    name: str
    measures: MeasureSequence
    limit_measure: FiniteMeasure
    f_seq: FnSequence
    g_seq: Optional[FnSequence] = None
    limit_fn: Optional[PiecewiseFn] = None
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    schedule: Optional[EpiSchedule] = None
    sample_grid: Optional[tuple[float, ...]] = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    certificate: str = "none"
    #: declared uniform upper bound for the minorant family, when known
    #: analytically; finite index windows cannot certify boundedness alone
    minorant_sup_bound: Optional[float] = None

    @property
    def n_max(self) -> int:
        return self.f_seq.n_max

    @property
    def window_start(self) -> int:
        return default_window_start(self.n_max)

    def resolved_schedule(self) -> EpiSchedule:
        return self.schedule or EpiSchedule.default(self.n_max, self.window_start)

    def resolved_grid(self) -> tuple[float, ...]:
        if self.sample_grid is not None:
            return self.sample_grid
        return default_sample_grid(self.limit_measure, self.f_seq)

    # Results that several checks read, each computed once per scenario:
    # scalars, small series and sequences, never per-index cell arrays.
    # ``dataclasses.replace`` makes a scenario with none of them computed.

    @cached_property
    def neg_part_seq(self) -> FnSequence:
        return self.f_seq.map(lambda f: part(f, "negative"))

    @cached_property
    def abs_seq(self) -> FnSequence:
        return self.f_seq.map(abs)

    @cached_property
    def f_integral_series(self) -> list[float]:
        return _integral_series(self.f_seq, self.measures)

    @cached_property
    def g_integral_series(self) -> list[float]:
        return _integral_series(self.g_seq, self.measures)

    @cached_property
    def f_dominates_g(self):
        """(ok, first bad index, witness) for f_n >= g_n."""
        return _dominance_all(self.f_seq, self.g_seq)

    @cached_property
    def g_dominates_abs_f(self):
        """(ok, first bad index, witness) for g_n >= |f_n|."""
        return _dominance_all(self.g_seq, self.abs_seq)

    @cached_property
    def f_epi_liminf(self) -> tuple[float, str]:
        """Epi-liminf integral of the f family against the limit measure,
        with its certainty tag; likewise the two g-family sides below."""
        return self._epi_integral(self.f_seq, "liminf")

    @cached_property
    def g_epi_liminf(self) -> tuple[float, str]:
        return self._epi_integral(self.g_seq, "liminf")

    @cached_property
    def g_epi_limsup(self) -> tuple[float, str]:
        return self._epi_integral(self.g_seq, "limsup")

    def _epi_integral(self, seq: FnSequence, which: str) -> tuple[float, str]:
        return epi_integral(seq, self.limit_measure, which,
                            self.resolved_schedule(), self.resolved_grid(),
                            self.tolerances.stab_tol)

    @cached_property
    def neg_tail_curve(self) -> TailCurve:
        return tail_curve(self.neg_part_seq, self.measures, self.k_grid,
                          self.window_start, self.tolerances.stab_tol)

    @cached_property
    def abs_tail_curve(self) -> TailCurve:
        return tail_curve(self.abs_seq, self.measures, self.k_grid,
                          self.window_start, self.tolerances.stab_tol)

    @cached_property
    def tv_series(self) -> tuple[float, ...]:
        """Total-variation distances ||mu_n - mu|| for n = 1..n_max."""
        return tuple(tv_series((self.measures.measure(n)
                                for n in range(1, self.n_max + 1)),
                               self.limit_measure))

    @cached_property
    def uniform_report(self):
        """The set-uniform report that ``uniform.uniform_report`` returns."""
        # uniform imports this module, so it is imported here, on first use
        from .uniform import _uniform_report_body
        return _uniform_report_body(self)


def default_sample_grid(m: FiniteMeasure, seq: FnSequence,
                        points: int = 65) -> tuple[float, ...]:
    """Deterministic sample grid: structural points of the limit measure
    and the first function, plus a uniform fill of their finite hull."""
    anchors = [m.piece_edges(), seq.fn(1).breakpoints,
               np.asarray([b for b in (m.domain.lo, m.domain.hi)
                           if math.isfinite(b)])]
    pool = np.unique(np.concatenate(anchors))
    if pool.size == 0:
        pool = np.asarray([0.0])
    lo, hi = float(pool[0]), float(pool[-1])
    if hi == lo:
        hi = lo + 1.0
    grid = np.unique(np.concatenate([pool, np.linspace(lo, hi, points)]))
    grid = grid[(grid >= m.domain.lo) & (grid <= m.domain.hi)]
    return tuple(float(x) for x in grid[:256])


def seq_liminf(values, window_start: int, stab_tol: float = 1e-9
               ) -> tuple[float, bool]:
    """Min over the trailing window, plus a stabilization flag."""
    vals = list(values)
    if not 1 <= window_start <= len(vals):
        raise ValueError(f"window start {window_start} outside 1..{len(vals)}")
    window = vals[window_start - 1:]
    value = min(window)
    top = max(window)
    if math.isinf(value) or math.isinf(top):
        stab = value == top
    else:
        stab = (top - value) <= stab_tol
    return value, stab


def seq_limsup(values, window_start: int, stab_tol: float = 1e-9
               ) -> tuple[float, bool]:
    lo, stab = seq_liminf([-v for v in values], window_start, stab_tol)
    return -lo, stab


def _le(a: float, b: float, tol: float) -> bool:
    """a <= b + tol with infinities compared naturally."""
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a <= b + tol


def _gap(rhs: float, lhs: float) -> float:
    """rhs - lhs; NaN marks the inf - inf case (conclusion uses _le)."""
    if math.isinf(rhs) and math.isinf(lhs) and (rhs > 0) == (lhs > 0):
        return math.nan
    return rhs - lhs


def _integral_series(seq: FnSequence, measures: MeasureSequence) -> list[float]:
    indices = range(1, seq.n_max + 1)
    return list(integral_series((seq.fn(n) for n in indices),
                                (measures.measure(n) for n in indices)))


def _dominance_all(upper: FnSequence, lower: FnSequence):
    for n in range(1, upper.n_max + 1):
        ok, witness = dominates(upper.fn(n), lower.fn(n))
        if not ok:
            return False, n, witness
    return True, None, None


def neg_part_shift(sc: Scenario) -> Optional[int]:
    """Smallest shift N < n_max after which the negative parts' tails at
    the top grid level stay within ``ui_tol``; read off the last column of
    the negative-part tail curve (the grid is sorted, so that column is
    K = max(k_grid))."""
    return first_shift(sc.neg_tail_curve.table[:, -1], sc.tolerances.ui_tol,
                       sc.n_max - 1)


def convergence_evidence(sc: Scenario) -> dict:
    """Hypothesis record for weak convergence of the measure family."""
    ev: dict = {"kind": sc.certificate,
                "certified": sc.certificate in ("tv", "builder")}
    if sc.certificate == "tv":
        series = sc.tv_series[sc.window_start - 1:]
        ev["tv_window_max"] = max(series)
        ev["tv_last"] = series[-1]
    return ev


@dataclass(frozen=True)
class GapReport:
    scenario: str
    lhs: float
    lhs_certainty: str
    rhs: float
    rhs_stabilized: bool
    gap: float
    conclusion: str
    window_start: int
    diagnostics: dict


def fatou_report(sc: Scenario) -> GapReport:
    """Epi-liminf integral vs windowed liminf of integrals, plus the
    hypothesis diagnostics that explain the verdict."""
    t = sc.tolerances
    diagnostics: dict = {"weak_convergence": convergence_evidence(sc)}

    zero_mass = sc.limit_measure.total_mass() == 0.0
    lhs, lhs_cert = sc.f_epi_liminf
    if zero_mass:
        diagnostics["zero_limit_measure"] = True
        lhs, lhs_cert = 0.0, EXACT

    series = sc.f_integral_series
    rhs, rhs_stab = seq_liminf(series, sc.window_start, t.stab_tol)

    diagnostics["aui_negative_parts"] = verdict(sc.neg_tail_curve, "aui", t.ui_tol)
    if sc.g_seq is not None:
        ok, n_bad, witness = sc.f_dominates_g
        diagnostics["dominance"] = {"ok": ok, "index": n_bad, "witness": witness}

    if zero_mass or _le(lhs, rhs, t.tol):
        conclusion = HOLDS
    elif lhs_cert == EXACT and rhs_stab:
        conclusion = VIOLATED
    else:
        conclusion = INCONCLUSIVE
    return GapReport(sc.name, lhs, lhs_cert, rhs, rhs_stab, _gap(rhs, lhs),
                     conclusion, sc.window_start, diagnostics)


@dataclass(frozen=True)
class MinorantReport:
    scenario: str
    variant: str               # "limsup" (the condition) | "liminf" (weakened)
    dominance_ok: bool
    dominance_witness: Optional[tuple]
    epi_integral: float
    epi_certainty: str
    finite_ok: bool
    liminf_of_integrals: float
    stabilized: bool
    chain_ok: bool

    @property
    def holds(self) -> bool:
        return self.dominance_ok and self.finite_ok and self.chain_ok


def _minorant(sc: Scenario, variant: str) -> MinorantReport:
    if sc.g_seq is None:
        raise UnsupportedScenarioError("minorant checks need a minorant family")
    t = sc.tolerances
    ok, n_bad, witness = sc.f_dominates_g
    val, cert = sc.g_epi_limsup if variant == "limsup" else sc.g_epi_liminf
    series = sc.g_integral_series
    rhs, stab = seq_liminf(series, sc.window_start, t.stab_tol)
    return MinorantReport(sc.name, variant, ok, (n_bad, witness) if not ok else None,
                          val, cert, val > -math.inf, rhs, stab,
                          _le(val, rhs, t.tol))


def minorant_check(sc: Scenario) -> MinorantReport:
    """Dominance, finiteness of the epi-limsup integral of the minorants,
    and the chained inequality against the liminf of their integrals."""
    return _minorant(sc, "limsup")


def weakened_minorant_probe(sc: Scenario) -> MinorantReport:
    """Same mechanics with the epi-liminf: demonstrates that weakening the
    condition this way is not sufficient for the Fatou inequality."""
    return _minorant(sc, "liminf")


@dataclass(frozen=True)
class MajorantReport:
    scenario: str
    dominance_ok: bool
    dominance_witness: Optional[tuple]
    limsup_of_integrals: float
    stabilized: bool
    epi_liminf_integral: float
    epi_certainty: str
    finite_ok: bool
    chain_ok: bool

    @property
    def holds(self) -> bool:
        return self.dominance_ok and self.finite_ok and self.chain_ok


def majorant_check(sc: Scenario) -> MajorantReport:
    """Two-sided domination |f_n| <= g_n plus the integral chain that makes
    the dominating family a uniform-integrability certificate."""
    if sc.g_seq is None:
        raise UnsupportedScenarioError("majorant check needs a dominating family")
    t = sc.tolerances
    ok, n_bad, witness = sc.g_dominates_abs_f
    series = sc.g_integral_series
    lhs, stab = seq_limsup(series, sc.window_start, t.stab_tol)
    val, cert = sc.g_epi_liminf
    return MajorantReport(sc.name, ok, (n_bad, witness) if not ok else None,
                          lhs, stab, val, cert, val < math.inf,
                          _le(lhs, val, t.tol))


@dataclass(frozen=True)
class DctReport:
    scenario: str
    limit_exists_ae: bool
    exception_mass: float
    mass_exact: bool
    aui_full: UiVerdict
    majorant: Optional[MajorantReport]
    hypotheses_ok: bool
    lim_lo: float
    lim_hi: float
    stabilized: bool
    limit_integral: float
    limit_certainty: str
    equal: bool
    conclusion: str
    equality_without_condition: bool


def dct_report(sc: Scenario, equality_tol: Optional[float] = None) -> DctReport:
    """Two-sided convergence of integrals to the integral of the limit.

    Requires the epigraphical limit to exist off a mu-null set and either
    the full family to be a.u.i. or a majorant certificate.  When the
    equality holds while the sufficient condition fails, that is recorded
    rather than celebrated: the condition is not necessary.
    """
    t = sc.tolerances
    tol = t.tol if equality_tol is None else equality_tol
    sched = sc.resolved_schedule()
    grid = sc.resolved_grid()
    exists = epi_limit_exists(sc.f_seq, grid, sched, tol, sc.limit_measure,
                              t.stab_tol)
    exists_ok = exists.exception_mass <= t.tol
    aui_full = verdict(sc.abs_tail_curve, "aui", t.ui_tol)
    major = None
    if sc.g_seq is not None:
        major = majorant_check(sc)
    condition_ok = aui_full.passes or (major is not None and major.holds)
    hyp_ok = exists_ok and condition_ok

    series = sc.f_integral_series
    lim_lo, stab_lo = seq_liminf(series, sc.window_start, t.stab_tol)
    lim_hi, stab_hi = seq_limsup(series, sc.window_start, t.stab_tol)
    limit_integral, cert = sc.f_epi_liminf
    equal = (_le(lim_hi, limit_integral, tol) and _le(limit_integral, lim_lo, tol)
             and _le(lim_lo, lim_hi, tol))

    if equal:
        conclusion = HOLDS
    elif hyp_ok and cert == EXACT and stab_lo and stab_hi:
        conclusion = VIOLATED
    else:
        conclusion = INCONCLUSIVE
    return DctReport(sc.name, exists_ok, exists.exception_mass, exists.mass_exact,
                     aui_full, major, hyp_ok, lim_lo, lim_hi,
                     stab_lo and stab_hi, limit_integral, cert, equal, conclusion,
                     equality_without_condition=equal and not condition_ok)


@dataclass(frozen=True)
class ShiftProbeReport:
    scenario: str
    minorant: MinorantReport
    applicable: bool
    shift: Optional[int]
    consistent: bool


def bounded_minorant_shift_probe(sc: Scenario) -> ShiftProbeReport:
    """Minorants uniformly bounded above should force a shift after which
    the negative parts are uniformly integrable; reports that shift.

    Raises when the minorants are unbounded above (outside the result's
    scope); a passing minorant condition with no shift found marks the
    fixture as inconsistent rather than being swallowed.
    """
    if sc.g_seq is None:
        raise UnsupportedScenarioError("shift probe needs a minorant family")
    tops = []
    for n in range(1, sc.g_seq.n_max + 1):
        g = sc.g_seq.fn(n)
        tops.append(max(float(np.max(g.values)) if g.values.size else -math.inf,
                        g.default))
    if max(tops) == math.inf:
        raise UnsupportedScenarioError(
            "minorants are not uniformly bounded from above")
    if sc.minorant_sup_bound is not None:
        if max(tops) > sc.minorant_sup_bound + sc.tolerances.stab_tol:
            raise UnsupportedScenarioError(
                "observed minorant values exceed the declared upper bound")
    elif len(tops) >= 2:
        half = len(tops) // 2
        if max(tops[half:]) > max(tops[:half]) + sc.tolerances.stab_tol:
            raise UnsupportedScenarioError(
                "minorant envelope is still growing with the index; declare "
                "minorant_sup_bound if the family is genuinely bounded above")
    minor = minorant_check(sc)
    if not minor.holds:
        return ShiftProbeReport(sc.name, minor, False, None, True)
    shift = neg_part_shift(sc)
    return ShiftProbeReport(sc.name, minor, True, shift, shift is not None)


def with_constant_offset(sc: Scenario, c: float) -> Scenario:
    """Scenario with f_n + c for every n; used by shift-invariance checks.

    Epi certificates and eventual forms shift along, so exactness of the
    left side survives the offset.
    """
    def shift_fn(f: PiecewiseFn) -> PiecewiseFn:
        return f.map_values(lambda v: v + c, lambda d: d + c)

    def shift_cert(cert):
        if cert is None:
            return None
        from .functions import EpiCertificate
        return EpiCertificate(shift_fn(cert.fn),
                              tuple((loc, v + c) for loc, v in cert.overrides))

    ev = sc.f_seq.eventual_form
    shifted_ev = None
    if ev is not None:
        def shifted_ev(s, r, _ev=ev):  # noqa: F811
            hit = _ev(s, r)
            if hit is None:
                return None
            n0, h = hit
            return n0, shift_fn(h)

    base = sc.f_seq
    offset = FnSequence(base.n_max, lambda n: shift_fn(base.fn(n)),
                        shift_cert(base.epi_liminf_cert),
                        shift_cert(base.epi_limsup_cert), shifted_ev)
    return replace(sc, f_seq=offset, name=f"{sc.name}+{c}")
