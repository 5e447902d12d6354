"""The two-sided envelope epi-limit scan against the scalar ``range_on``
oracle.

The engine in ``measure_limits.epilimits`` scans the last two schedule
steps of every point of a family at once and in both directions, each
step on the min and max envelopes of its tail;
``helpers.scan_epi_oracle`` scans one point at every step with one scalar
``helpers.range_on`` call per step and index.  The engine's columns must
equal the oracle's last two entries bit for bit in both directions, the
sign of zero included, and the two must reject the same empty balls.
The estimates and stabilized flags read off the columns, alone or through
a scenario's shared scans, must be ``helpers.scan_estimates``: the
oracle's last entry, stabilized when its last two entries are close.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_limits import (
    EpiCertificate,
    EpiSchedule,
    FnSequence,
    Interval,
    PiecewiseFn,
    epi_limit_exists,
    epilimits,
    fatou,
    lebesgue,
    zero_fn,
)
from measure_limits.epilimits import _envelopes, _estimates, epi_scan, epi_window
from measure_limits.fatou import dct_report, fatou_report, majorant_check
from measure_limits.fatou import minorant_check, weakened_minorant_probe
from measure_limits.kernels import pos_neg_dot
from measure_limits.xreal import (
    DomainMismatchError,
    MalformedObjectError,
    close,
    integral_of_parts,
)

from helpers import (
    cert_value_at,
    epi_estimate,
    fatou_random_scenario,
    scan_columns,
    scan_epi_oracle,
    scan_estimates,
)
from strategies import families, step_fns, subset

# dyadic breakpoints and radii: a point of the grid plus or minus a radius
# lands exactly on another grid point, i.e. on a breakpoint
GRID = [k / 16 for k in range(17)]
VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.inf, -math.inf]
DOMAINS = [Interval(0.0, 1.0), Interval(-math.inf, math.inf),
           Interval(0.0, math.inf), Interval(-math.inf, 1.0)]


def grid_fns(domain: Interval):
    return step_fns(domain, GRID, VALUES, 8)


@st.composite
def tails(draw, max_size: int):
    """1 to max_size step functions on one domain."""
    domain = draw(st.sampled_from(DOMAINS))
    return draw(families(max_size, grid_fns(domain)))[0]


@st.composite
def scans(draw):
    """(family, schedule, points): a schedule of 1 to 4 steps over a
    family of 1 to 6 indices, and 1 to 6 points on the grid or off it."""
    fns = draw(tails(6))
    n_max = len(fns)
    n_steps = draw(st.integers(1, min(4, n_max)))
    thresholds = subset(draw, range(1, n_max + 1), n_steps)
    if draw(st.booleans()):
        thresholds[-1] = n_max           # the last step scans f_{n_max} only
    first = draw(st.integers(1, 3))
    sched = EpiSchedule(tuple((n, 2.0 ** -(first + j))
                              for j, n in enumerate(thresholds)), n_max)
    pts = draw(st.lists(
        st.one_of(st.sampled_from(GRID),
                  st.floats(0.0, 1.0, allow_nan=False)),
        min_size=1, max_size=6))
    # a shorter family leaves the schedule's last steps past its end
    seq = FnSequence(tuple(fns[:draw(st.integers(1, n_max))]
                           if draw(st.booleans()) else fns))
    return seq, sched, pts


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(tails(6), st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=4))
def test_envelopes_are_the_pointwise_extremes(fns, extra):
    edges, vals = _envelopes(fns)
    dom = fns[0].domain
    # the cells span the domain, and a closed end reads the last cell
    assert edges[0] == dom.lo and edges[-1] == dom.hi
    assert (edges[1:] > edges[:-1]).all() and vals.shape == (2, edges.size - 1)
    xs = [x for f in fns for x in f.breakpoints.tolist()]
    xs += [dom.lo, dom.hi] + extra + GRID
    for x in xs:
        if dom.contains(x):
            i = min(int(np.searchsorted(edges, x, side="right")) - 1,
                    vals.shape[1] - 1)
            assert bits([vals[0, i]]) == bits([min(f(x) for f in fns)])
            assert bits([vals[1, i]]) == bits([max(f(x) for f in fns)])


@pytest.mark.parametrize("p", [0.5, 0.0])
def test_a_one_point_domain_scans_to_its_defaults_extremes(p):
    dom = Interval(p, p)
    fns = tuple(PiecewiseFn([], [], d, dom) for d in (2.0, -math.inf, 1.0))
    edges, vals = _envelopes(fns)
    assert edges.tolist() == [p] and vals.tolist() == [[-math.inf], [2.0]]
    sched = EpiSchedule(((1, 0.25), (2, 0.125)), 3)
    points, cols, stab, empty = epi_scan(FnSequence(fns), [p], sched, 1e-9)
    assert points.tolist() == [p] and not empty.any()
    # step 1 scans all three indices, step 2 the last two
    assert cols[0].tolist() == [[-math.inf, -math.inf]]
    assert cols[1].tolist() == [[2.0, 1.0]]
    for lower in (True, False):
        assert bits(scan_columns(FnSequence(fns), [p], sched, lower)[0]) == bits(
            scan_epi_oracle(FnSequence(fns), p, sched, lower))


def test_envelope_rejects_a_family_on_two_domains():
    fns = [PiecewiseFn([0.0, 0.5], [1.0], 0.0, DOMAINS[0]),
           PiecewiseFn([0.0, 0.5], [1.0], 0.0, DOMAINS[2])]
    with pytest.raises(DomainMismatchError):
        _envelopes(fns)
    sched = EpiSchedule(((1, 0.25), (2, 0.125)), 2)
    with pytest.raises(DomainMismatchError):
        epi_estimate(FnSequence(tuple(fns)), 0.25, sched, True)


@settings(max_examples=400, deadline=None)
@given(scans())
def test_two_sided_scan_matches_scalar_oracle(family):
    seq, sched, pts = family
    read = EpiSchedule(sched.steps[-2:], sched.n_max)
    for lower in (True, False):
        rows = scan_columns(seq, pts, sched, lower)
        assert rows.shape == (len(pts), min(2, len(sched.steps)))
        for s, row in zip(pts, rows):
            assert bits(row) == bits(scan_epi_oracle(seq, s, read, lower))


@settings(max_examples=300, deadline=None)
@given(scans(), st.sampled_from([0.0, 1e-9, 0.5]))
def test_estimates_of_one_scan_match_the_scalar_oracle(family, stab_tol):
    # values and stabilized flags of both directions, from one scan, are
    # those of the scalar scan per direction
    seq, sched, pts = family
    scan = epi_scan(seq, pts, sched, stab_tol)
    for lower in (True, False):
        want = scan_estimates(seq, pts, sched, lower, stab_tol)
        got = _estimates(seq, pts, sched, lower, lambda: scan)
        assert bits(got[0]) == bits(want[0])
        assert got[1].tolist() == want[1]
        assert got[2] == "window"


@settings(max_examples=150, deadline=None)
@given(scans(), st.booleans(), st.floats(-3.0, 4.0, allow_nan=False))
def test_batched_scan_rejects_the_balls_the_oracle_rejects(family, lower, s):
    # the engine reads the last two steps only: a step before them may
    # reach the family where they do not, and its ball is not checked
    seq, sched, pts = family
    read = EpiSchedule(sched.steps[-2:], sched.n_max)
    try:
        want = bits(scan_epi_oracle(seq, s, read, lower))
    except MalformedObjectError:
        with pytest.raises(MalformedObjectError):
            scan_columns(seq, pts + [s], sched, lower)
        return
    got = scan_columns(seq, pts + [s], sched, lower)
    assert bits(got[-1]) == want[-2:]


def test_scan_on_breakpoints_domain_ends_and_unbounded_domain():
    for dom in (Interval(0.0, 1.0), Interval(-math.inf, math.inf)):
        fns = [PiecewiseFn([0.0, 0.25, 0.5, 1.0], [-0.0, 2.0, -math.inf], 0.0,
                           dom),
               PiecewiseFn([0.25, 0.75], [math.inf], -0.0, dom),
               PiecewiseFn((), (), 1.0, dom)]
        seq = FnSequence(tuple(fns))
        sched = EpiSchedule(((1, 0.25), (2, 0.125), (3, 0.0625)), 3)
        pts = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
        for lower in (True, False):
            rows = scan_columns(seq, pts, sched, lower)
            for s, row in zip(pts, rows):
                want = scan_epi_oracle(seq, s, sched, lower)[-2:]
                assert bits(row) == bits(want)


def test_one_step_schedule_reads_one_column_and_never_stabilizes():
    fns = [PiecewiseFn([0.0, 0.5, 1.0], [-0.0, 2.0], 1.0, DOMAINS[0])] * 3
    seq = FnSequence(tuple(fns))
    sched = EpiSchedule(((2, 0.25),), 3)
    rows = scan_columns(seq, [0.25, 0.75], sched, True)
    assert rows.shape == (2, 1)
    for s, row in zip((0.25, 0.75), rows):
        assert bits(row) == bits(scan_epi_oracle(seq, s, sched, True))
    est = epi_estimate(seq, 0.75, sched, True)
    assert est.value == 2.0 and not est.stabilized


def test_a_step_past_the_family_is_infinite_and_checks_no_ball():
    dom = DOMAINS[0]
    seq = FnSequence((PiecewiseFn([0.0, 0.5], [3.0], 1.0, dom),) * 4)
    sched = EpiSchedule(((2, 0.5), (4, 0.25), (6, 0.125)), 6)
    for lower, inf in ((True, math.inf), (False, -math.inf)):
        rows = scan_columns(seq, [0.25, 0.75], sched, lower)
        assert rows.tolist() == [[3.0, inf], [1.0, inf]]
        for s, row in zip((0.25, 0.75), rows):
            assert bits(row) == bits(scan_epi_oracle(seq, s, sched, lower)[-2:])
    # the last two steps pass the family: a point off the domain is not
    # checked, as the oracle checks no ball of such a step
    past = EpiSchedule(((2, 0.5), (5, 0.25), (6, 0.125)), 6)
    assert scan_columns(seq, [5.0], past, True).tolist() == [[math.inf] * 2]


def test_public_estimates_match_oracle():
    rng = np.random.default_rng(5)
    sc = fatou_random_scenario(rng, n_max=8)
    sched = sc.resolved_schedule()
    for s in sc.resolved_grid()[::7]:
        for est, lower in ((epi_estimate(sc.f_seq, s, sched, True), True),
                           (epi_estimate(sc.f_seq, s, sched, False), False)):
            want = scan_epi_oracle(sc.f_seq, s, sched, lower)
            assert est.certainty == "window"
            assert bits([est.value]) == bits(want[-1:])
            assert est.stabilized == (len(want) >= 2
                                      and close(want[-2], want[-1], 1e-9))


def spike_seq(n_max: int) -> FnSequence:
    dom = Interval(-1.0, 1.0)
    return FnSequence(
        tuple(PiecewiseFn([-1.0 / n, 0.0, 1.0 / n], [-float(n), float(n)],
                          0.0, dom) for n in range(1, n_max + 1)),
        epi_liminf_cert=EpiCertificate(zero_fn(dom), ((0.0, -math.inf),)),
        epi_limsup_cert=EpiCertificate(zero_fn(dom), ((0.0, math.inf),)))


def test_certified_estimate_builds_nothing(monkeypatch):
    # a certificate decides: no scan reads the functions
    calls: list = []

    def counted(*args):
        calls.append(1)
        return epi_scan(*args)

    monkeypatch.setattr(epilimits, "epi_scan", counted)
    seq = spike_seq(16)
    sched = EpiSchedule.default(16)
    est = epi_estimate(seq, 0.0, sched, True)
    assert est.value == -math.inf and est.certainty == "exact"
    assert est.stabilized and calls == []
    rep = epi_limit_exists(seq, [-0.5, 0.0, 0.5], sched, 1e-9,
                           lebesgue(-1.0, 1.0))
    assert rep.mass_exact and calls == []
    # the same functions with the certificates stripped are scanned
    bare = epi_estimate(FnSequence(seq.fns), 0.0, sched, True)
    assert bits([bare.value]) == bits(scan_epi_oracle(seq, 0.0, sched, True)[-1:])
    assert calls


def test_certified_estimate_rejects_balls_outside_the_domain():
    seq = spike_seq(8)
    with pytest.raises(MalformedObjectError):
        epi_estimate(seq, 5.0, EpiSchedule.default(8), True)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(DOMAINS + [Interval(0.5, 0.5)]))
def test_certificate_values_match_the_scalar_envelope(data, domain):
    # points on and between breakpoints, at both domain ends, at +-inf
    # and -0.0, and outside a bounded domain; overrides on a few of them,
    # some repeated, so that the first one at a point must win
    f = data.draw(step_fns(domain, GRID, VALUES, 8))
    pts = GRID + [-0.0, 1 / 32, 0.5, -1.0, 2.0, math.inf, -math.inf]
    locs = data.draw(st.lists(st.sampled_from(pts), max_size=4))
    cert = EpiCertificate(f, tuple(
        zip(locs, data.draw(st.lists(st.sampled_from(VALUES), min_size=len(locs),
                                     max_size=len(locs))))))
    xs = data.draw(st.lists(st.sampled_from(pts), max_size=8))
    for lower in (True, False):
        try:
            want = bits([cert_value_at(cert, x, lower) for x in xs])
        except DomainMismatchError as exc:
            with pytest.raises(DomainMismatchError, match=f"^{re.escape(str(exc))}$"):
                cert.values_at(xs, lower)
            continue
        assert bits(cert.values_at(xs, lower)) == want


def test_epi_integrals_are_computed_once_per_scenario(monkeypatch):
    rng = np.random.default_rng(11)
    sc = fatou_random_scenario(rng, n_max=8)
    sc.g_seq = FnSequence(tuple(
        f.map_values(lambda v: v - 0.5, lambda d: d - 0.5)
        for f in sc.f_seq.fns))
    seen = []
    inner = fatou.epi_integral

    def counted(seq, m, which, *args):
        seen.append((id(seq), which))
        return inner(seq, m, which, *args)

    monkeypatch.setattr(fatou, "epi_integral", counted)
    for report in (fatou_report, minorant_check, weakened_minorant_probe,
                   majorant_check, dct_report):
        report(sc)
    assert sorted(seen) == sorted({(id(sc.f_seq), "liminf"),
                                   (id(sc.g_seq), "liminf"),
                                   (id(sc.g_seq), "limsup")})


def one_direction_integral(seq, m, lower, sched, grid) -> float:
    pts, masses, _ = epi_window(seq, m, sched, grid, 1e-9)
    vals = scan_estimates(seq, pts, sched, lower)[0]
    return integral_of_parts(*pos_neg_dot(vals, masses),
                             "epi integral undefined")


def test_scenario_scans_match_one_direction_paths():
    # a scenario scans f once for its epi-liminf integral and the sample
    # grid, and g once for both its integrals: every value is that of the
    # scalar scan per quantity and direction
    rng = np.random.default_rng(23)
    for _ in range(12):
        sc = fatou_random_scenario(rng, n_max=8)
        sc.g_seq = FnSequence(tuple(
            f.map_values(lambda v: v - 0.5, lambda d: d - 0.5)
            for f in sc.f_seq.fns))
        sched, grid, mu = sc.resolved_schedule(), sc.resolved_grid(), sc.limit_measure
        for (got, cert), seq, lower in ((sc.f_epi_liminf, sc.f_seq, True),
                                        (sc.g_epi_liminf, sc.g_seq, True),
                                        (sc.g_epi_limsup, sc.g_seq, False)):
            assert cert == "window"
            want = one_direction_integral(seq, mu, lower, sched, grid)
            assert bits([got]) == bits([want])
        rep = dct_report(sc)
        alone = epi_limit_exists(sc.f_seq, grid, sched, sc.tolerances.tol, mu)
        assert bits([rep.exception_mass]) == bits([alone.exception_mass])
        lo = scan_estimates(sc.f_seq, sorted(grid), sched, True)
        hi = scan_estimates(sc.f_seq, sorted(grid), sched, False)
        oks = [a and b and close(x, y, sc.tolerances.tol) for x, a, y, b
               in zip(*lo, *hi)]
        assert list(alone.point_ok) == oks
