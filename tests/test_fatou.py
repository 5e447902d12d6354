import math

import numpy as np
import pytest

from measure_limits import (
    DomainMismatchError,
    EpiCertificate,
    FnSequence,
    Interval,
    PiecewiseFn,
    Scenario,
    UnsupportedScenarioError,
    bounded_minorant_shift_probe,
    constant_fn,
    dct_report,
    fatou_report,
    lebesgue,
    majorant_check,
    minorant_check,
    seq_liminf,
    seq_limsup,
    weakened_minorant_probe,
    zero_fn,
)
from measure_limits import gallery
from measure_limits.fatou import HOLDS, VIOLATED

from helpers import constant_seq, fatou_random_scenario, negated
from helpers import with_constant_offset

LN2 = math.log(2.0)
DOM = Interval(0.0, 1.0)


# -- windowed liminf/limsup ----------------------------------------------------

def test_seq_liminf_constant_stabilizes():
    v, stab = seq_liminf([3.0] * 10, 5)
    assert v == 3.0 and stab


def test_seq_liminf_comb_series():
    v, stab = seq_liminf([-1.0 / (2 * LN2)] * 20, 13)
    assert v == -1.0 / (2 * LN2) and stab


def test_seq_liminf_alternating_not_stabilized():
    v, stab = seq_liminf([0.0, 1.0] * 6, 7)
    assert v == 0.0 and not stab


def test_seq_limsup_mirrors():
    v, stab = seq_limsup([0.0, 1.0] * 6, 7)
    assert v == 1.0 and not stab
    v, stab = seq_limsup([-math.inf] * 4, 2)
    assert v == -math.inf and stab


# -- the Fatou gap -------------------------------------------------------------

def test_comb_scenario_certified_violation():
    sc = gallery.build("dyadic_comb", n_max=12)
    rep = fatou_report(sc)
    assert rep.conclusion == VIOLATED
    assert rep.lhs == 0.0 and rep.lhs_certainty == "exact"
    assert rep.rhs == pytest.approx(-1.0 / (2 * LN2), abs=1e-9)
    assert rep.rhs_stabilized
    assert rep.gap == pytest.approx(-1.0 / (2 * LN2), abs=1e-9)
    assert not rep.aui_negative_parts


def test_classic_plateau_strict_inequality():
    sc = gallery.build("shrinking_plateau", n_max=24)
    rep = fatou_report(sc)
    assert rep.conclusion == HOLDS
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_staircase_holds_with_infinite_lhs():
    sc = gallery.build("staircase", n_max=24)
    rep = fatou_report(sc)
    assert rep.conclusion == HOLDS
    assert rep.lhs == -math.inf
    assert rep.rhs == pytest.approx(-2.0, abs=1e-9)
    assert rep.gap == math.inf


def test_violation_requires_exact_certainty():
    # same comb functions, certificates stripped: the truncated epi estimate
    # cannot prove a violation, so the verdict degrades to inconclusive
    sc = gallery.build("dyadic_comb", n_max=12)
    bare_f = FnSequence(sc.f_seq.fns)
    sc2 = Scenario(name="comb_bare", measures=sc.measures,
                   limit_measure=sc.limit_measure, f_seq=bare_f,
                   sample_grid=sc.sample_grid, certificate="tv")
    rep = fatou_report(sc2)
    assert rep.conclusion in ("inconclusive", "holds")
    if rep.conclusion == "inconclusive":
        assert rep.lhs_certainty == "window"


def test_zero_limit_measure_edge_flagged():
    sc = gallery.build("vanishing_mass", n_max=16)
    rep = fatou_report(sc)
    assert rep.conclusion == HOLDS
    assert rep.lhs == 0.0
    assert rep.zero_limit_measure is True


def test_random_scenarios_never_negative_gap():
    rng = np.random.default_rng(1234)
    for i in range(30):
        sc = fatou_random_scenario(rng, n_max=12, name=f"rand{i}")
        rep = fatou_report(sc)
        assert rep.gap >= -1e-9
        assert rep.conclusion == HOLDS


# -- minorant / majorant machinery ----------------------------------------------

def test_minorant_self_spikes_holds():
    sc = gallery.build("twin_spikes", n_max=40)
    rep = minorant_check(sc)
    assert rep.holds
    assert rep.epi_integral == 0.0
    assert rep.liminf_of_integrals == 0.0


def test_minorant_comb_second_inequality_fails():
    sc = gallery.build("dyadic_comb", n_max=12)
    rep = minorant_check(sc)
    assert rep.dominance_ok and rep.finite_ok and not rep.chain_ok
    assert rep.epi_integral == 0.0
    assert rep.liminf_of_integrals == pytest.approx(-1.0 / LN2, abs=1e-6)


def test_minorant_staircase_chain_fails():
    sc = gallery.build("staircase", n_max=24)
    rep = minorant_check(sc)
    assert not rep.holds and not rep.chain_ok
    assert rep.epi_integral == 0.0
    assert rep.liminf_of_integrals == pytest.approx(-2.0, abs=1e-9)


def test_weakened_probe_comb_holds_while_fatou_fails():
    sc = gallery.build("dyadic_comb", n_max=12)
    weak = weakened_minorant_probe(sc)
    assert weak.holds
    assert weak.epi_integral == pytest.approx(-1.0 / LN2, abs=1e-6)
    assert weak.liminf_of_integrals == pytest.approx(-1.0 / LN2, abs=1e-6)
    assert fatou_report(sc).conclusion == VIOLATED


def test_weakened_probe_zero_minorants_trivial():
    n_max = 8
    sc = gallery.build("shrinking_plateau", n_max=n_max)
    rep = weakened_minorant_probe(sc)
    assert rep.holds and rep.epi_integral == 0.0


def test_weakened_probe_staircase_infinite():
    sc = gallery.build("staircase", n_max=24)
    rep = weakened_minorant_probe(sc)
    assert not rep.finite_ok and not rep.holds


def test_majorant_and_dct_on_fading_plateau():
    sc = gallery.build("fading_plateau", n_max=32)
    rep = majorant_check(sc)
    assert rep.holds
    assert rep.epi_liminf_integral == pytest.approx(1.0, abs=1e-12)
    dct = dct_report(sc, equality_tol=2.0 / sc.window_start)
    assert dct.conclusion == HOLDS and dct.hypotheses_ok


def test_dct_spikes_equality_without_condition():
    sc = gallery.build("twin_spikes", n_max=40)
    dct = dct_report(sc, equality_tol=1e-12)
    assert dct.conclusion == HOLDS
    assert dct.equality_without_condition
    assert not dct.aui_full_family
    assert dct.limit_exists_ae and dct.exception_mass == 0.0


def test_dct_zero_family_trivially_passes():
    seq = FnSequence((zero_fn(DOM),) * 8, EpiCertificate(zero_fn(DOM)),
                     EpiCertificate(zero_fn(DOM)))
    sc = Scenario("zeros", (lebesgue(0.0, 1.0),) * 8,
                  lebesgue(0.0, 1.0), seq, g_seq=constant_seq(zero_fn(DOM), 8),
                  certificate="tv")
    dct = dct_report(sc)
    assert dct.conclusion == HOLDS and not dct.equality_without_condition


# -- bounded-minorant shift probe -----------------------------------------------

def test_probe_rejects_growing_minorants():
    sc = gallery.build("twin_spikes", n_max=40)
    with pytest.raises(UnsupportedScenarioError):
        bounded_minorant_shift_probe(sc)


def test_probe_flat_family_shift_zero():
    sc = gallery.build("flat_negative")
    rep = bounded_minorant_shift_probe(sc)
    assert rep.applicable and rep.shift == 0 and rep.consistent


def test_probe_plateau_with_zero_minorant():
    sc = gallery.build("shrinking_plateau", n_max=16)
    rep = bounded_minorant_shift_probe(sc)
    assert rep.applicable and rep.shift == 0


def test_g_family_on_another_domain_fails_dominance_not_fatou():
    # the Fatou report reads no dominance, so only the checks that do fail
    f = PiecewiseFn([0.0, 0.5, 1.0], [-2.0, 1.0], 0.0, DOM)
    g = zero_fn(Interval(0.0, 2.0))
    m = lebesgue(0.0, 1.0)
    sc = Scenario("mixed", (m,) * 12, m,
                  FnSequence((f,) * 12, EpiCertificate(f), EpiCertificate(f)),
                  g_seq=FnSequence((g,) * 12), certificate="tv")
    assert fatou_report(sc).conclusion == HOLDS
    for check in (minorant_check, majorant_check):
        with pytest.raises(DomainMismatchError,
                           match="dominance check requires a shared domain"):
            check(sc)


# -- structural properties -------------------------------------------------------

def test_offset_invariance_mass_preserving():
    # stabilizing family on a fixed probability measure
    f = PiecewiseFn([0.0, 0.5, 1.0], [-2.0, 1.0], 0.0, DOM)
    seq = FnSequence((f,) * 12, EpiCertificate(f), EpiCertificate(f))
    m = lebesgue(0.0, 1.0)
    sc = Scenario("const", (m,) * 12, m, seq, certificate="tv")
    base = fatou_report(sc)
    for c in (-3.0, 0.25, 10.0):
        rep = fatou_report(with_constant_offset(sc, c))
        assert rep.conclusion == base.conclusion == HOLDS
        assert rep.lhs == pytest.approx(base.lhs + c * 1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(base.rhs + c * 1.0, abs=1e-12)


def test_antisymmetry_brackets_limit():
    # quickly-stabilizing family: f_n = f for n >= 3
    dom = DOM
    f = PiecewiseFn([0.0, 0.5, 1.0], [2.0, -1.0], 0.0, dom)
    fns = [zero_fn(dom), zero_fn(dom)] + [f] * 10
    seq = FnSequence(tuple(fns),
                     epi_liminf_cert=EpiCertificate(f),
                     epi_limsup_cert=EpiCertificate(f))
    neg_seq = FnSequence(tuple(negated(g) for g in fns),
                         epi_liminf_cert=EpiCertificate(negated(f)),
                         epi_limsup_cert=EpiCertificate(negated(f)))
    m = lebesgue(0.0, 1.0)
    sc = Scenario("stab", (m,) * 12, m, seq, certificate="tv")
    sc_neg = Scenario("stab_neg", (m,) * 12, m, neg_seq,
                      certificate="tv")
    rep, rep_neg = fatou_report(sc), fatou_report(sc_neg)
    assert rep.gap >= -1e-12 and rep_neg.gap >= -1e-12
    dct = dct_report(sc)
    assert dct.conclusion == HOLDS  # both one-sided gaps vanish
