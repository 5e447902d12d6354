"""Report bytes pinned across changes to the engine.

The hashes are the sha256 of the report that ``measure-limits check``
writes for both shipped scenarios, for five seeded documents of the
randomized Fatou construction, for a one-index document of that
construction, and for a document whose measures carry an exp2 segment on
[0, inf) and an atom at the domain end 0.  A change that alters any report byte, a
verdict or an exit code fails here; update a hash only together with a
stated reason for the new bytes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from measure_limits.cli import main

from helpers import fatou_random_document

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "comb_fatou.json": (
        2, "1e0adeb909952fd057e8a84b7e8cbcc800cf916e788db73dbf112d2e17502cba"),
    "spikes_uniform.json": (
        2, "40130ec9a23c8f38011328959ec30d35bd56b7340d3e3a38a4be83400a3ae770"),
    "seed0": (
        2, "e9131398acc8aa7edf129e118fe9b2507355d5af2b3cd6faab2308edc1def3d0"),
    "seed1": (
        2, "85ec258658f6c1601b80a0e4db641db205113046f72811851918a7fe862b83f1"),
    "seed2": (
        2, "f616a6ed93f1d6bc1c22215614138b4402896f268884f19d087a88b75dcfa06e"),
    "seed3": (
        2, "cc5f50eb7d59241421749a31591082c53dd2cf01cc4386a52f02a21821c5d217"),
    "seed4": (
        2, "4f6d4c4ccd720e7b75019d231e17aa96dc7dc0c42a7a9a34425dee7e2aaa31ac"),
    # dct's sampled exception mass is one exactly rounded sum of all its
    # interval terms: only its last bit moved
    "nmax1": (
        2, "89d4f5df501b8970e3dc555d142c64707c5f7acf0a4425b2ee826ef7c70a0984"),
    "exp2_atom0": (
        2, "63cbb3a3343161caa23e1ff12e61c5fce6fb905d789e51628438e1ad363d8c5f"),
}


def exp2_atom0_document() -> dict:
    """mu_n = exp2 on [0, inf) + an atom of weight 1/n at 0 + an atom at 1;
    f_n has a breakpoint on both atoms, and g_n = f_n - 1/2."""
    n_max = 5
    fns, gs, ms = [], [], []
    for n in range(1, n_max + 1):
        bps = [0.0, 0.5, 1.0, 2.0 + 1.0 / n]
        vals = [1.0 + 1.0 / n, -0.5, 3.0]
        fns.append({"breakpoints": bps, "values": vals, "default": 0.25})
        gs.append({"breakpoints": bps, "values": [v - 0.5 for v in vals],
                   "default": -0.25})
        ms.append({"atoms": [[0.0, 1.0 / n], [1.0, 0.5]],
                   "segments": [{"name": "exp2", "lo": 0.0, "hi": "inf"}]})
    return {
        "name": "golden-exp2-atom0",
        "space": {"lo": 0.0, "hi": "inf"},
        "n_max": n_max,
        "measures": {"explicit": ms},
        "limit_measure": {"atoms": [[1.0, 0.5]], "segments": [
            {"name": "exp2", "lo": 0.0, "hi": "inf"}]},
        "functions": {"explicit": fns},
        "g_functions": {"explicit": gs},
        "limit_function": {"breakpoints": [0.0, 1.0], "values": [1.0],
                           "default": 0.0},
        "checks": ["ui", "aui", "shift", "fatou", "minorant",
                   "weakened_minorant", "majorant", "dct", "uniform_fatou",
                   "uniform_dct", "weak_gap"],
        "convergence_certificate": {"kind": "tv"},
    }


def document(name: str) -> dict:
    if name.endswith(".json"):
        return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    if name == "nmax1":
        return fatou_random_document(np.random.default_rng(5), n_max=1,
                                     name="golden-nmax1")
    if name == "exp2_atom0":
        return exp2_atom0_document()
    seed = int(name[len("seed"):])
    return fatou_random_document(np.random.default_rng(seed),
                                 name=f"golden-{seed}")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(document(name)), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["check", str(src), "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == GOLDEN[name]
