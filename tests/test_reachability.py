"""The src lines that a standard run of the program never enters stay
within their budget.

``reachability.unentered`` runs the CLI in process under ``sys.settrace``
(``gallery run all``, both scenario files, 30 seed-77 documents and 12
infinite-value probes; about 3 s).  A function that no standard run
enters is either a public entry point kept on purpose or dead code, so a
new one needs a reason in CHANGES.md and a raised budget here, or it
goes.
"""

import sys
from pathlib import Path

import reachability

BUDGET_LINES = 51
BUDGET_FUNCTIONS = 11


def test_the_standard_run_leaves_at_most_the_budget_unentered():
    before = sys.gettrace()
    missed = reachability.unentered()
    assert sys.gettrace() is before
    listing = "\n".join(
        f"{lines:5d}  {Path(path).name}:{first}  {name}"
        for (path, first, _, name, _), lines in missed.items())
    assert sum(missed.values()) <= BUDGET_LINES, listing
    assert len(missed) <= BUDGET_FUNCTIONS, listing
