"""How much work one ``check`` does, counted per call.

Every per-document quantity that several checks read is computed once per
scenario: the set-uniform report, the total-variation series and the
negative-part tail curve that the shift check reads.  The counts pin that
sharing, so a change that computes one of them twice fails here even when
the report bytes stay the same.
"""

import json
import sys

import numpy as np

from measure_limits import (
    integration, kernels, refinement, scenario, tails, uniform,
)
from measure_limits.cli import main
from measure_limits.runner import _CHECKS

from helpers import fatou_random_document

N_MAX = 12


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every measure_limits module that binds it;
    the returned list grows by one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("measure_limits")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_check_computes_each_shared_quantity_once(tmp_path, monkeypatch,
                                                      capsys):
    doc = fatou_random_document(np.random.default_rng(0), n_max=N_MAX)
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    bodies = count_calls(monkeypatch, uniform, "_uniform_report_body")
    tv = count_calls(monkeypatch, integration, "tv_norm_diff")
    tail = count_calls(monkeypatch, tails, "tail_integral")
    tail_rows = count_calls(monkeypatch, kernels, "tail_dot")
    refinements = count_calls(monkeypatch, refinement, "common_refinement")

    out = tmp_path / "report.json"
    assert main(["check", str(src), "--out", str(out)]) == 2
    verdicts = {k: v["verdict"]
                for k, v in json.loads(out.read_text())["checks"].items()}
    assert set(verdicts) == set(doc["checks"])
    assert "error" not in verdicts.values()

    assert len(bodies) == 1
    assert len(tv) == N_MAX
    assert len(tail) == 0
    # one kernel call per tail-curve row: the negative-part and the
    # full-family curve, one row per index
    assert len(tail_rows) == 2 * N_MAX
    # per index: the f and g integrals, the L1 check of f_n, the signed
    # gap, one for both condition series, the TV distance and the
    # negative-part and full-family tail curves (8 x 12); then the L1
    # check of the limit function and the weak-gap bank's constant
    # witness against the limit measure and each mu_n (1 + 13)
    assert len(refinements) == 110


def test_known_checks_and_the_runner_registry_agree():
    assert tuple(_CHECKS) == scenario.KNOWN_CHECKS
