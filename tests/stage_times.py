"""Time the stages of the ``dyadic_comb`` fixture in two source trees,
alternating between them, and trace the memory that each stage takes.

Run from the repository root:

    python tests/stage_times.py SRC_A SRC_B [--rounds N]

SRC_A and SRC_B are ``src`` directories, say a checkout of the parent
commit's and this tree's.  Each round starts one fresh worker process per
tree, one after the other (A first in even rounds, B first in odd ones),
and each worker runs every stage twice in process and reports the second
time, after a first run has warmed it up, then runs it a third time
under ``tracemalloc`` for its peak.  A fresh pair per round keeps what
one process happens to get (its heap layout, which pages back its
arrays) from favouring one tree in every round.  The stages:

- ``build``: ``gallery.build("dyadic_comb")``, its 20 f_n, its g family
  (held whole, or built on demand, as the tree does it) and the epi
  certificates;
- ``g_integrals``: the 20 integrals of g_n against the exp2 measure,
  ``integral_series``;
- ``g20_masses``: the exp2 measure's masses of g_20's 2^21 + 1 cells,
  ``continuous_cell_masses``;
- ``g20_dots``: the positive- and negative-part sums over g_20's
  refinement against the measure, ``kernels.pos_neg_dots``;
- ``dominance``: ``dominates(f, g)`` over the two families;
- ``fatou_report``: the Fatou report of a freshly built scenario (the
  build is not timed);
- ``comb_run``: ``gallery.run("dyadic_comb")``, the scenario built and
  every quantity of the fixture checked;
- ``gallery_run_all``: ``gallery run all`` through ``cli.main``, every
  fixture.

It prints one JSON object: per stage the median and quartiles in ms of
each tree, the ratio of the medians (B over A) and the number of rounds
in which B was faster, and likewise for the traced peak in MiB above
what was traced when the stage started.  The name has no ``test_``
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

STAGES = ("build", "g_integrals", "g20_masses", "g20_dots", "dominance",
          "fatou_report", "comb_run", "gallery_run_all")


def _worker(src: str) -> None:
    """Print per stage the second of two in-process times, in seconds, and
    the traced peak of a third run, in MiB, as one JSON object."""
    sys.path.insert(0, str(Path(src).resolve()))
    from measure_limits import cli, dominates, fatou_report, gallery
    from measure_limits.integration import integral_series
    from measure_limits.kernels import pos_neg_dots
    from measure_limits.refinement import family_pairing

    sc = gallery.build("dyadic_comb")
    mu = sc.measures[-1]
    p = next(family_pairing([((sc.g_seq.fns[-1],), (mu,))]))
    edges = np.append(sc.g_seq.fns[-1].breakpoints, np.inf)
    times, peaks = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "gallery.json")
        for k, stage in enumerate(STAGES * 3):
            fresh = (gallery.build("dyadic_comb") if stage == "fatou_report"
                     else None)
            gc.collect()
            traced = k >= 2 * len(STAGES)
            if traced:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            if stage == "build":
                gallery.build("dyadic_comb")
            elif stage == "g_integrals":
                list(integral_series(sc.g_seq.fns, sc.measures))
            elif stage == "g20_masses":
                mu.continuous_cell_masses(edges)
            elif stage == "g20_dots":
                list(pos_neg_dots(p.values[0], p.masses[0], p.offsets))
            elif stage == "dominance":
                dominates(sc.f_seq.fns, sc.g_seq.fns)
            elif stage == "fatou_report":
                fatou_report(fresh)
            elif stage == "comb_run":
                gallery.run("dyadic_comb")
            else:
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["gallery", "run", "all", "--out", out])
            if traced:
                peaks[stage] = (tracemalloc.get_traced_memory()[1]
                                - base) / 2 ** 20
                tracemalloc.stop()
            else:
                times[stage] = time.perf_counter() - t0
            del fresh
    print(json.dumps({"times": times, "peaks": peaks}))


def _summary(a: list[float], b: list[float], scale: float) -> dict:
    def quartiles(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": round(med, 2), "q1": round(q1, 2),
                "q3": round(q3, 2)}

    xs_a = [x * scale for x in a]
    xs_b = [x * scale for x in b]
    return {"a": quartiles(xs_a), "b": quartiles(xs_b),
            "ratio": round(statistics.median(xs_b) / statistics.median(xs_a), 3),
            "b_wins": sum(y < x for x, y in zip(xs_a, xs_b)),
            "rounds": len(xs_a)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", nargs="?")
    parser.add_argument("src_b", nargs="?")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(args.worker)
        return 0
    if not (args.src_a and args.src_b) or args.rounds < 2:
        parser.error("give SRC_A, SRC_B and at least 2 rounds")
    got = {k: {s: ([], []) for s in STAGES} for k in ("times", "peaks")}
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            src = (args.src_a, args.src_b)[side]
            run = json.loads(subprocess.run(
                [sys.executable, __file__, "--worker", src], check=True,
                stdout=subprocess.PIPE, text=True).stdout)
            for k, stages in got.items():
                for stage in STAGES:
                    stages[stage][side].append(run[k][stage])
    print(json.dumps({
        "a": args.src_a, "b": args.src_b,
        "stages_ms": {s: _summary(*got["times"][s], 1e3) for s in STAGES},
        "peaks_mib": {s: _summary(*got["peaks"][s], 1.0) for s in STAGES}},
        indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
