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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .epilimits import (
    EXACT, EpiSchedule, epi_integral, epi_limit_exists, epi_window,
)
from .functions import FnSequence, PiecewiseFn, dominance_fails, dominates
from .integration import chunk_integrals, tv_series
from .measures import FiniteMeasure
from .refinement import (
    BlockedFn, FamilyPairing, block_pairings, blocks, reduce_family, replay,
    row_edges,
)
from .tails import (
    DEFAULT_K_GRID,
    TailCurve,
    curve_of,
    default_window_start,
    first_shift,
    tail_rows,
    verdict,
)
from .uniform import UniformReport, uniform_report
from .xreal import UnsupportedScenarioError, close

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
    hypothesis status stays inconclusive).  ``measures[n - 1]`` is mu_n.
    """

    name: str
    measures: tuple[FiniteMeasure, ...]
    limit_measure: FiniteMeasure
    f_seq: FnSequence
    g_seq: Optional[FnSequence] = None
    limit_fn: Optional[PiecewiseFn] = None
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    schedule: Optional[EpiSchedule] = None
    sample_grid: Optional[tuple[float, ...]] = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    certificate: str = "none"

    @property
    def n_max(self) -> int:
        return self.f_seq.n_max

    @property
    def window_start(self) -> int:
        return default_window_start(self.n_max)

    @property
    def certified(self) -> bool:  # the certificate proves weak convergence
        return self.certificate in ("tv", "builder")

    def resolved_schedule(self) -> EpiSchedule:
        return self.schedule or EpiSchedule.default(self.n_max, self.window_start)

    def resolved_grid(self) -> tuple[float, ...]:
        if self.sample_grid is not None:
            return self.sample_grid
        return self._default_grid

    @cached_property
    def _default_grid(self) -> tuple[float, ...]:
        # the epi scans, their cells and dct_report read it
        return default_sample_grid(self.limit_measure, self.f_seq)

    # Results that several checks read, each computed once per scenario:
    # scalars, small series and sequences, never per-index cell arrays.
    # Shared work is memoized too: one family pass per pair of series,
    # each with its own first error, and one epi scan per family.
    # ``dataclasses.replace`` makes a scenario with none of them computed.

    @cached_property
    def abs_seq(self) -> FnSequence:
        return FnSequence(tuple(abs(f) for f in self.f_seq.fns))

    @cached_property
    def f_pass(self) -> list[list]:
        """The integrals and the negative parts' tail rows of one (f_n, mu_n)
        pass; ``abs_pass`` gives the L1 norms and tail rows of |f_n|."""
        return self._pass(self.f_seq.fns, True)

    @cached_property
    def abs_pass(self) -> list[list]:
        return self._pass(self.abs_seq.fns, False)

    def _pass(self, fns, negative: bool) -> list[list]:
        return reduce_family(
            (((f,), (m,)) for f, m in zip(fns, self.measures)),
            chunk_integrals, lambda p: tail_rows(p, self.k_grid, negative))

    @cached_property
    def f_integral_series(self) -> list[float]:
        return list(replay(self.f_pass[0]))

    @cached_property
    def g_integral_series(self) -> list[float]:
        return list(replay(self.g_pass[0]))

    @cached_property
    def f_dominates_g(self) -> bool:
        """f_n >= g_n everywhere, for every index n."""
        return next(replay(self.g_pass[1]))

    @cached_property
    def g_pass(self) -> tuple[list, list]:
        """The g integrals and f_n >= g_n from one walk over the blocks of
        indices that ``family_pairing`` cuts its chunks by, each g_n made
        once and sized before it is built: per block, the integral rows
        (g_n, mu_n) and the dominance rows (f_n, g_n) are refined apart,
        and only the block is held.  A ``BlockedFn`` g_n is a block of its
        own, whose cell blocks both rows read in one walk, each block's
        exp2 masses serving its depths and its integral.  Each quantity's
        results end at its first error, which ``replay`` raises; dominance
        stops at its first failing index."""
        integrals, dominance = [], [True]
        # each index is its integral row and its dominance row
        rows = ((((g,), (m,)), ((f, g), ())) for g, m, f in
                zip(self.g_seq.members, self.measures, self.f_seq.fns))
        for block in blocks(rows, lambda pair: max(map(row_edges, pair))):
            more = not (integrals and isinstance(integrals[-1], Exception))
            ((g,), (m,)), ((f, _), _) = block[0]
            if isinstance(g, BlockedFn) and f.domain == g.domain == m.domain:
                # both rows of g_n in one walk, the dominance row until it
                # fails: read through the integral's parts
                ok = [dominance == [True]]
                walk = [((g,), (m,), m.domain), ((f, g), (), m.domain)][
                    :1 + ok[0]]

                def parts(walk=walk, ok=ok, g=g):
                    for p, *q in block_pairings(walk, g):
                        if q and dominance_fails(q[0]):
                            ok[0] = False
                            del walk[1:]
                        yield p
                    ok.append(True)  # walked to its end
                try:
                    got = next(chunk_integrals(
                        FamilyPairing(*np.empty((2, 0)), (), (), parts)))
                except Exception as exc:
                    got = exc
                integrals += [got][:more]
                if dominance == [True]:
                    dominance = [ok[0] if ok[1:] else got]
                continue
            if more:
                integrals += reduce_family([r for r, _ in block],
                                           chunk_integrals)[0]
            if dominance == [True]:
                try:
                    dominance = [dominates(*zip(*(fg for _, (fg, _) in block)))]
                except Exception as exc:
                    dominance = [exc]
            del block
        return integrals, dominance

    @cached_property
    def g_dominates_abs_f(self) -> bool:
        """g_n >= |f_n| everywhere, for every index n."""
        return dominates(self.g_seq.members, self.abs_seq.fns)

    @cached_property
    def f_epi(self) -> tuple:
        """f's ``epi_window``, also scanned at the sample grid that
        ``dct_report`` reads; ``g_epi`` is g's."""
        return self._epi(self.f_seq, self.resolved_grid())

    @cached_property
    def g_epi(self) -> tuple:
        return self._epi(self.g_seq)

    def _epi(self, seq: FnSequence, *extra) -> tuple:
        return epi_window(seq, self.limit_measure, self.resolved_schedule(),
                          self.resolved_grid(), self.tolerances.stab_tol,
                          *extra)

    @cached_property
    def f_epi_liminf(self) -> tuple[float, str]:
        """Epi-liminf integral of the f family against the limit measure,
        with its certainty tag; likewise the two g-family sides below."""
        return self._epi_integral(self.f_seq, "liminf", lambda: self.f_epi)

    @cached_property
    def g_epi_liminf(self) -> tuple[float, str]:
        return self._epi_integral(self.g_seq, "liminf", lambda: self.g_epi)

    @cached_property
    def g_epi_limsup(self) -> tuple[float, str]:
        return self._epi_integral(self.g_seq, "limsup", lambda: self.g_epi)

    def _epi_integral(self, seq: FnSequence, which: str, window
                      ) -> tuple[float, str]:
        return epi_integral(seq, self.limit_measure, which,
                            self.resolved_schedule(), self.resolved_grid(),
                            self.tolerances.stab_tol, window)

    @cached_property
    def neg_tail_curve(self) -> TailCurve:
        return curve_of(replay(self.f_pass[1]), self.n_max, self.k_grid,
                        self.window_start)

    @cached_property
    def abs_tail_curve(self) -> TailCurve:
        return curve_of(replay(self.abs_pass[1]), self.n_max, self.k_grid,
                        self.window_start)

    @cached_property
    def tv_series(self) -> tuple[float, ...]:
        """Total-variation distances ||mu_n - mu|| for n = 1..n_max."""
        return tuple(tv_series(self.measures, self.limit_measure))

    @cached_property
    def uniform_report(self) -> UniformReport:
        """The set-uniform report, ``uniform.uniform_report(self)``."""
        return uniform_report(self)


def default_sample_grid(m: FiniteMeasure, seq: FnSequence,
                        points: int = 65) -> tuple[float, ...]:
    """Deterministic sample grid: structural points of the limit measure
    and the first function, plus a uniform fill of their finite hull."""
    anchors = [m.piece_edges(), seq.fns[0].breakpoints,
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
    return value, close(value, max(window), stab_tol)


def seq_limsup(values, window_start: int, stab_tol: float = 1e-9
               ) -> tuple[float, bool]:
    lo, stab = seq_liminf([-v for v in values], window_start, stab_tol)
    return -lo, stab


def _le(a: float, b: float, tol: float) -> bool:
    """a <= b + tol with infinities compared naturally."""
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a <= b + tol


def _gap(rhs: float, lhs: float) -> Optional[float]:
    """rhs - lhs; None where both sides are the same infinity and the
    difference is undefined (the conclusion uses _le)."""
    if math.isinf(rhs) and rhs == lhs:
        return None
    return rhs - lhs


def neg_part_shift(sc: Scenario) -> Optional[int]:
    """Smallest shift N < n_max after which the negative parts' tails at
    the top grid level stay within ``ui_tol``; read off the last column of
    the negative-part tail curve (the grid is sorted, so that column is
    K = max(k_grid))."""
    return first_shift(sc.neg_tail_curve.table[:, -1], sc.tolerances.ui_tol,
                       sc.n_max - 1)


def convergence_evidence(sc: Scenario) -> dict:
    """Hypothesis record for weak convergence of the measure family."""
    ev: dict = {"kind": sc.certificate, "certified": sc.certified}
    if sc.certificate == "tv":
        series = sc.tv_series[sc.window_start - 1:]
        ev["tv_window_max"] = max(series)
        ev["tv_last"] = series[-1]
    return ev


@dataclass(frozen=True)
class GapReport:
    lhs: float
    lhs_certainty: str
    rhs: float
    rhs_stabilized: bool
    gap: Optional[float]       # None when both sides are the same infinity
    conclusion: str
    window_start: int
    aui_negative_parts: bool
    weak_convergence: dict     # convergence_evidence
    zero_limit_measure: bool   # the lhs is then 0 by fiat


def fatou_report(sc: Scenario) -> GapReport:
    """Epi-liminf integral vs windowed liminf of integrals, plus the
    hypothesis diagnostics that explain the verdict."""
    t = sc.tolerances
    evidence = convergence_evidence(sc)
    zero_mass = sc.limit_measure.total_mass() == 0.0
    lhs, lhs_cert = sc.f_epi_liminf  # its errors stand even at zero mass
    if zero_mass:
        lhs, lhs_cert = 0.0, EXACT
    rhs, rhs_stab = seq_liminf(sc.f_integral_series, sc.window_start,
                               t.stab_tol)
    aui = verdict(sc.neg_tail_curve, "aui", t.ui_tol).passes
    if zero_mass or _le(lhs, rhs, t.tol):
        conclusion = HOLDS
    elif lhs_cert == EXACT and rhs_stab:
        conclusion = VIOLATED
    else:
        conclusion = INCONCLUSIVE
    return GapReport(lhs, lhs_cert, rhs, rhs_stab, _gap(rhs, lhs),
                     conclusion, sc.window_start, aui, evidence, zero_mass)


class _Chain:
    """A minorant or majorant chain holds when each of its parts does."""

    @property
    def holds(self) -> bool:
        return self.dominance_ok and self.finite_ok and self.chain_ok

    @property
    def conclusion(self) -> str:
        return HOLDS if self.holds else VIOLATED


@dataclass(frozen=True)
class MinorantReport(_Chain):
    dominance_ok: bool
    epi_integral: float
    epi_certainty: str
    finite_ok: bool
    liminf_of_integrals: float
    chain_ok: bool


def _minorant(sc: Scenario, variant: str) -> MinorantReport:
    """``variant`` is "limsup" (the condition) or "liminf" (weakened)."""
    if sc.g_seq is None:
        raise UnsupportedScenarioError("minorant checks need a minorant family")
    t = sc.tolerances
    ok = sc.f_dominates_g
    val, cert = sc.g_epi_limsup if variant == "limsup" else sc.g_epi_liminf
    rhs, _ = seq_liminf(sc.g_integral_series, sc.window_start, t.stab_tol)
    return MinorantReport(ok, val, cert, val > -math.inf, rhs,
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
class MajorantReport(_Chain):
    dominance_ok: bool
    limsup_of_integrals: float
    epi_liminf_integral: float
    finite_ok: bool
    chain_ok: bool


def majorant_check(sc: Scenario) -> MajorantReport:
    """Two-sided domination |f_n| <= g_n plus the integral chain that makes
    the dominating family a uniform-integrability certificate."""
    if sc.g_seq is None:
        raise UnsupportedScenarioError("majorant check needs a dominating family")
    t = sc.tolerances
    ok = sc.g_dominates_abs_f
    lhs, _ = seq_limsup(sc.g_integral_series, sc.window_start, t.stab_tol)
    val, _ = sc.g_epi_liminf
    return MajorantReport(ok, lhs, val, val < math.inf, _le(lhs, val, t.tol))


@dataclass(frozen=True)
class DctReport:
    limit_exists_ae: bool
    exception_mass: float
    mass_exact: bool
    aui_full_family: bool
    hypotheses_ok: bool
    lim_lo: float
    lim_hi: float
    limit_integral: float
    limit_certainty: str
    equal: bool
    conclusion: str
    equality_without_condition: bool


def dct_report(sc: Scenario) -> DctReport:
    """Two-sided convergence of integrals to the integral of the limit.

    Requires the epigraphical limit to exist off a mu-null set and either
    the full family to be a.u.i. or a majorant certificate.  When the
    equality holds while the sufficient condition fails, that is recorded
    rather than celebrated: the condition is not necessary.
    """
    t = sc.tolerances
    exists = epi_limit_exists(sc.f_seq, sc.resolved_grid(),
                              sc.resolved_schedule(), t.tol, sc.limit_measure,
                              t.stab_tol, lambda: sc.f_epi[2])
    exists_ok = exists.exception_mass <= t.tol
    aui_full = verdict(sc.abs_tail_curve, "aui", t.ui_tol).passes
    # the majorant is checked even when a.u.i. already passes, so a
    # majorant check that raises is the dct check's error
    major = majorant_check(sc) if sc.g_seq is not None else None
    condition_ok = aui_full or (major is not None and major.holds)
    hyp_ok = exists_ok and condition_ok

    series = sc.f_integral_series
    lim_lo, stab_lo = seq_liminf(series, sc.window_start, t.stab_tol)
    lim_hi, stab_hi = seq_limsup(series, sc.window_start, t.stab_tol)
    limit_integral, cert = sc.f_epi_liminf
    equal = (_le(lim_hi, limit_integral, t.tol)
             and _le(limit_integral, lim_lo, t.tol) and _le(lim_lo, lim_hi, t.tol))

    if equal:
        conclusion = HOLDS
    elif hyp_ok and cert == EXACT and stab_lo and stab_hi:
        conclusion = VIOLATED
    else:
        conclusion = INCONCLUSIVE
    return DctReport(exists_ok, exists.exception_mass, exists.mass_exact,
                     aui_full, hyp_ok, lim_lo, lim_hi,
                     limit_integral, cert, equal, conclusion,
                     equality_without_condition=equal and not condition_ok)
