"""Report bytes pinned across changes to the engine.

The hashes are the sha256 of the report that ``measure-limits check``
writes for both shipped scenarios and for five seeded documents of the
randomized Fatou construction.  A change that alters any report byte, a
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
        2, "31888e9337f7c831166afbcd6756ab5fe63a60d50ad6ad54d2e62bc642a8ef38"),
    "spikes_uniform.json": (
        2, "40130ec9a23c8f38011328959ec30d35bd56b7340d3e3a38a4be83400a3ae770"),
    "seed0": (
        2, "d9e4724624129816d7f8e23e229db69197c56316e1e71333539f618a064e5d9c"),
    "seed1": (
        2, "1dc8f937ea2407fe537775b7f821630752bdbd5ed4088c5cf01b5e8d63a013da"),
    "seed2": (
        2, "c283a9576831af3b6f528a48abeaf9d77461add4e953b3a0ec87038878e99b62"),
    "seed3": (
        2, "78035cdf31c04ba60579b8008747dbf624fbd70f1bcaa18f448244f3b1cfb56a"),
    "seed4": (
        2, "189e2610623b0c96a2c38ca0802ad61f585d0a5ca6cd3b3e9d02fad9120158ec"),
}


def document(name: str) -> dict:
    if name.endswith(".json"):
        return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
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
