"""The src lines that a standard run of the program never enters, and
the src lines in all, stay within their budgets.

``reachability.unentered`` runs the CLI in process under ``sys.settrace``
(``gallery run all``, both scenario files, 30 seed-77 documents, 12
infinite-value probes, one document with its own schedule and one
``--nmax`` past a document's entries; about 3 s).  A function that no standard run
enters is either a public entry point kept on purpose or dead code, so a
new one needs a reason in CHANGES.md and a raised budget here, or it
goes.  The same holds for a change that makes src longer: it raises
``BUDGET_SRC_LINES`` with a reason in CHANGES.md.  ``tests/helpers.py``
keeps one reference per computation, pinned by ``BUDGET_HELPERS_LINES``:
a fast path is compared with its computation's reference, and a new
reference replaces the old one instead of joining it.
"""

import sys
from pathlib import Path

import reachability

BUDGET_LINES = 2
BUDGET_FUNCTIONS = 1
#: newlines in ``src/measure_limits/*.py``, as ``wc -l`` counts them
BUDGET_SRC_LINES = 4040
#: newlines in ``tests/helpers.py``, as ``wc -l`` counts them
BUDGET_HELPERS_LINES = 878


def test_the_standard_run_leaves_at_most_the_budget_unentered():
    before = sys.gettrace()
    missed = reachability.unentered()
    assert sys.gettrace() is before
    listing = "\n".join(
        f"{lines:5d}  {Path(path).name}:{first}  {name}"
        for (path, first, _, name, _), lines in missed.items())
    assert sum(missed.values()) <= BUDGET_LINES, listing
    assert len(missed) <= BUDGET_FUNCTIONS, listing


def test_src_stays_within_its_line_budget():
    sizes = {path.name: path.read_bytes().count(b"\n")
             for path in sorted(reachability.SRC.glob("*.py"))}
    assert sum(sizes.values()) <= BUDGET_SRC_LINES, sizes


def test_helpers_stay_within_their_line_budget():
    lines = (Path(__file__).parent / "helpers.py").read_bytes().count(b"\n")
    assert lines <= BUDGET_HELPERS_LINES, lines
