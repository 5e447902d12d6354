"""Shared family passes against the one-quantity passes they replaced.

A scenario reads the f integrals and the negative parts' tail rows off one
(f_n, mu_n) family pass, and the L1 norms and tail rows of |f_n| off one
(|f_n|, mu_n) pass.  Each quantity must equal its own pass bit for bit
(``helpers.neg_tail_curve_oracle``, ``helpers.l1_series_oracle``) and
raise its own first error, at its own index, with the same type and
message; a failure in one quantity never stops another.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measure_limits import (
    FiniteMeasure,
    FnSequence,
    Interval,
    PiecewiseFn,
    make_segment,
    refinement,
    uniform_report,
    zero_fn,
)
from measure_limits.fatou import Scenario
from measure_limits.integration import chunk_integrals, integral_series
from measure_limits.kernels import tail_dots
from measure_limits.refinement import reduce_family, replay
from measure_limits.runner import _CHECKS
from measure_limits.tails import tail_rows
from measure_limits.xreal import (
    NotIntegrableError,
    UndefinedIntegralError,
    UnsupportedScenarioError,
)

from helpers import (
    fatou_random_scenario,
    l1_series_oracle,
    list_dominates,
    loop_integrate,
    neg_tail_curve_oracle,
    part,
)
from strategies import families, measures, step_fns

DOM = Interval(0.0, 1.0)
# dyadic breakpoints: measure cells and atoms land on function edges
GRID = [k / 8 for k in range(9)]
VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.inf, -math.inf, 1e300, -1e300]
KS = (0.5, 1.0, 2.0, 1e300)


#: 1 to 6 indices of (f_n, mu_n): up to 6 cells of VALUES on the grid,
#: and 1 to 4 grid cells of density 0, 0.5 or 3 with up to 3 grid atoms
FAMILIES = families(6, step_fns(DOM, GRID, VALUES, 6),
                    measures(DOM, GRID, (0.0, 0.5, 3.0), (0.25, 1.0, 1e10),
                             (2, 5), 3))


def bits(v) -> list[str]:
    return [float(x).hex() for x in np.atleast_1d(v)]


def outcome(results) -> tuple[list, object]:
    """The results of a per-index series up to its first error, and that
    error's type and message."""
    values = []
    try:
        for v in results:
            values.append(bits(v))
    except Exception as exc:
        return values, (type(exc).__name__, str(exc))
    return values, None


def own_tail_rows(fns, ms):
    rows = (((f,), (m,)) for f, m in zip(fns, ms))
    return replay(reduce_family(rows, lambda p: tail_dots(
        p.values[0], p.masses[0], p.offsets, KS))[0])


@settings(max_examples=300, deadline=None)
@given(FAMILIES, st.sampled_from([refinement.CHUNK_EDGES, 8]))
def test_shared_passes_match_one_pass_per_quantity(family, chunk_edges):
    # chunks of at most 8 edges put about one index in each pass
    fns, ms = family
    abs_fns = [abs(f) for f in fns]
    with mock.patch.object(refinement, "CHUNK_EDGES", chunk_edges):
        f_pass = reduce_family(
            (((f,), (m,)) for f, m in zip(fns, ms)),
            chunk_integrals, lambda p: tail_rows(p, KS, True))
        abs_pass = reduce_family(
            (((f,), (m,)) for f, m in zip(abs_fns, ms)),
            chunk_integrals, lambda p: tail_rows(p, KS))
        assert outcome(replay(f_pass[0])) == outcome(integral_series(fns, ms))
        neg = [part(f, "negative") for f in fns]
        assert outcome(replay(f_pass[1])) == outcome(own_tail_rows(neg, ms))
        assert outcome(replay(abs_pass[0])) == outcome(integral_series(abs_fns, ms))
        assert outcome(replay(abs_pass[1])) == outcome(own_tail_rows(abs_fns, ms))


#: (f_n, g_n, mu_n) at 1 to 6 indices, drawn as FAMILIES draws its own
G_FAMILIES = families(6, step_fns(DOM, GRID, VALUES, 6),
                      step_fns(DOM, GRID, VALUES, 6),
                      measures(DOM, GRID, (0.0, 0.5, 3.0), (0.25, 1.0, 1e10),
                               (2, 5), 3))


#: an index whose dominance row (f_n = g_n) is the larger, 16 edges
#: against 11, and indices whose integral row is, 7 edges against 2
WIDE_G = PiecewiseFn(GRID[1:-1], [1.0, 2.0] * 3, 0.0, DOM)
FINE_M = FiniteMeasure(atoms=[(0.75, 1.0)], cells=[(0.0, 0.25, 1.0),
                       (0.25, 0.5, 1.0), (0.5, 1.0, 1.0)], domain=DOM)
DOM_M = FiniteMeasure(cells=[(0.0, 1.0, 1.0)], domain=DOM)


@settings(max_examples=300, deadline=None)
@given(G_FAMILIES, st.booleans(), st.sampled_from([refinement.CHUNK_EDGES, 8]))
@example(([], [WIDE_G, zero_fn(DOM)], [DOM_M] * 2), True, 16)
@example(([], [zero_fn(DOM)] * 3, [FINE_M] * 3), True, 16)
def test_the_g_pass_matches_one_loop_per_quantity(family, f_is_g, chunk_edges):
    # the g integrals go on past a failing dominance index, and dominance
    # stands whatever a g integral raises; while neither has failed (f_n =
    # g_n dominates g_n), each block of indices is one chunk of each pass,
    # which the two examples pin: an index is as large as its larger row
    fns, gs, ms = family
    if f_is_g:
        fns = gs
    sc = Scenario("g", tuple(ms), ms[0], FnSequence(tuple(fns)),
                  FnSequence(tuple(gs)))
    chunks = []
    pair_chunk = refinement._pair_chunk

    def spy(rows):
        chunks.append((bool(rows[0][1]), len(rows)))
        return pair_chunk(rows)

    with mock.patch.object(refinement, "CHUNK_EDGES", chunk_edges), \
            mock.patch.object(refinement, "_pair_chunk", spy):
        integrals = outcome(replay(sc.g_pass[0]))
        dominance = sc.f_dominates_g
    with np.errstate(over="ignore"):  # the loop's products 1e300 * 1e10
        assert integrals == outcome(loop_integrate(g, m)
                                    for g, m in zip(gs, ms))
    assert dominance == all(map(list_dominates, fns, gs))
    if integrals[1] is None and dominance:
        assert ([n for integral, n in chunks if integral]
                == [n for integral, n in chunks if not integral])


def test_scenario_curves_and_norms_match_their_own_passes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        sc = fatou_random_scenario(rng, n_max=10)
        want = neg_tail_curve_oracle(sc)
        assert sc.neg_tail_curve.to_csv() == want.to_csv()
        assert bits(sc.neg_tail_curve.table.ravel()) == bits(want.table.ravel())
        assert outcome(replay(sc.abs_pass[0])) == outcome(l1_series_oracle(sc))


def with_fn(sc, k: int, f: PiecewiseFn):
    fns = list(sc.f_seq.fns)
    fns[k] = f
    return dataclasses.replace(sc, f_seq=FnSequence(tuple(fns)))


def test_an_undefined_f_integral_leaves_the_tail_verdicts_intact():
    # f_5 is +inf on one half of the space and -inf on the other, both of
    # positive mass: its integral is undefined, its negative part's tail
    # row is +inf, and every other index keeps its rows
    base = fatou_random_scenario(np.random.default_rng(3), n_max=8)
    sc = with_fn(base, 4, PiecewiseFn([0.0, 0.5, 1.0], [math.inf, -math.inf],
                                      0.0, DOM))
    with pytest.raises(UndefinedIntegralError,
                       match="both positive and negative parts diverge"):
        _CHECKS["fatou"](sc)
    values, error = outcome(replay(sc.f_pass[0]))
    assert len(values) == 4 and error[0] == "UndefinedIntegralError"
    want = neg_tail_curve_oracle(sc)
    assert math.inf in want.table[4]
    for name in ("ui", "aui", "shift"):
        got = _CHECKS[name](sc)
        alone = _CHECKS[name](dataclasses.replace(sc))
        assert got.verdict in ("pass", "fail")
        assert (got.verdict, got.payload, csvs(got)) == (
            alone.verdict, alone.payload, csvs(alone))
    assert sc.neg_tail_curve.to_csv() == want.to_csv()


def csvs(result) -> dict:
    """A check result's curves, rendered as the CLI writes them."""
    return {name: curve.to_csv() for name, curve in result.curves.items()}


def uniform_case(k_inf: int, k_segment: int):
    """A scenario whose f_{k_inf} has an infinite L1 norm and whose
    mu_{k_segment} carries an analytic segment that the limit measure
    lacks, so its signed gap is refused."""
    base = fatou_random_scenario(np.random.default_rng(7), n_max=8)
    sc = with_fn(base, k_inf, PiecewiseFn([0.0, 0.5, 1.0], [math.inf, 1.0],
                                          0.0, DOM))
    ms = list(sc.measures)
    ms[k_segment] = FiniteMeasure(segments=[make_segment("exp2", 0.0, 1.0)],
                                  domain=DOM)
    return dataclasses.replace(sc, measures=tuple(ms), limit_fn=zero_fn(DOM))


def test_an_infinite_l1_norm_raises_at_its_index():
    # the L1 norms and the signed gaps are read index by index: the
    # earlier index raises, whichever quantity fails there
    with pytest.raises(NotIntegrableError,
                       match="f_n is not integrable against its measure"):
        uniform_report(uniform_case(2, 5))
    with pytest.raises(UnsupportedScenarioError, match="identical analytic"):
        uniform_report(uniform_case(5, 2))
    sc = uniform_case(2, 5)
    assert outcome(replay(sc.abs_pass[0]))[0][2] == bits(math.inf)
    # the tail rows of |f_n| read off the same pass are intact
    with pytest.raises(NotIntegrableError):
        _CHECKS["uniform_dct"](sc)
    assert bits(sc.abs_tail_curve.table[2]) == bits([math.inf] * 14)
