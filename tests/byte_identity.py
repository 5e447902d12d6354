"""Record what the CLI emits on the standard inputs, and compare two records.

Run from the repository root:

    PYTHONPATH=src python tests/byte_identity.py write DIR
    python tests/byte_identity.py compare DIR_A DIR_B

``write`` runs the CLI in process on the byte-identity inputs and writes
``DIR/identity.json``, one entry per run with its exit code, the sha256
of its report and its stderr:

- ``check`` on both ``scenarios/*.json``, with ``--curves-dir``; every
  curve CSV is an entry of its own, keyed by its file name;
- ``check`` on both ``scenarios/*.json`` with ``--nmax 8``, which cuts
  their builder families (the comb g_n included) to 8 indices;
- ``check`` on 300 documents of the seed-77 stream of
  ``perfbench/docs.py``, the first 30 also with ``--tol 1e-6`` and with
  ``--nmax 10``;
- ``check`` on the 40 probe documents with one +inf or -inf cell value
  of seeds 1-10;
- ``check`` on 20 signed-zero probe documents: seed-77 documents 0-19
  with -0.0 written, at places drawn by ``random.Random(i)``, into six
  cell values and three defaults of the f and g families, into one first
  breakpoint and into the limit function's default;
- ``gallery run all``, with each fixture's ``elapsed_s`` taken out of the
  report and the timings taken out of stderr.

``compare`` prints every entry whose record differs between the two
directories, or is in one of them only, and exits 1 if there is any.
The whole ``write`` takes about 15 s.  The name has no ``test_`` prefix,
so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from reachability import ROOT, load_docs

RECORD = "identity.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(main, argv: list[str]) -> tuple[int | str, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def _signed_zero_doc(docs, i: int) -> dict:
    """Seed-77 document i with -0.0 written into cell values, defaults, a
    first breakpoint (shared by f_n and g_n) and the limit default."""
    doc = docs.generate(77, i)
    rng = random.Random(i)
    fns = doc["functions"]["explicit"] + doc["g_functions"]["explicit"]
    for fn in rng.sample(fns, 6):
        fn["values"][rng.randrange(len(fn["values"]))] = -0.0
    for fn in rng.sample(fns, 3):
        fn["default"] = -0.0
    rng.choice(fns)["breakpoints"][0] = -0.0
    doc["limit_function"]["default"] = -0.0
    return doc


def _check_runs(tmp: Path) -> list[tuple[str, list[str]]]:
    docs = load_docs()
    runs = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        runs.append((f"scenario/{path.name}",
                     ["check", str(path), "--curves-dir", str(tmp / "curves")]))
        runs.append((f"scenario/{path.name}/nmax",
                     ["check", str(path), "--nmax", "8"]))
    for i in range(300):
        path = tmp / f"doc{i:03d}.json"
        path.write_text(json.dumps(docs.generate(77, i)), encoding="utf-8")
        runs.append((f"docs/{i}", ["check", str(path)]))
        if i < 30:
            runs.append((f"docs/{i}/tol", ["check", str(path), "--tol", "1e-6"]))
            runs.append((f"docs/{i}/nmax", ["check", str(path), "--nmax", "10"]))
    for seed in range(1, 11):
        for i, inf in enumerate(docs.INF_PROBE):
            path = tmp / f"inf{seed:02d}_{i}.json"
            path.write_text(json.dumps(docs.generate(seed, i, inf)),
                            encoding="utf-8")
            runs.append((f"inf/{seed}/{i}", ["check", str(path)]))
    for i in range(20):
        path = tmp / f"zero{i:02d}.json"
        path.write_text(json.dumps(_signed_zero_doc(docs, i)), encoding="utf-8")
        runs.append((f"zero/{i}", ["check", str(path)]))
    return runs


def write(out_dir: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from measure_limits.cli import main

    record = {}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        report = tmp / "report.json"
        for key, argv in _check_runs(tmp):
            report.unlink(missing_ok=True)
            rc, err = _invoke(main, argv + ["--out", str(report)])
            sha = _sha(report.read_bytes()) if report.exists() else None
            record[key] = {"exit": rc, "report": sha, "stderr": err}
        for path in sorted((tmp / "curves").glob("*.csv")):
            record[f"curve/{path.name}"] = {"sha": _sha(path.read_bytes())}
        report.unlink(missing_ok=True)
        rc, err = _invoke(main, ["gallery", "run", "all", "--out", str(report)])
        sha = None
        if report.exists():
            payload = json.loads(report.read_text(encoding="utf-8"))
            for fixture in payload["fixtures"]:
                fixture.pop("elapsed_s", None)
            sha = _sha(json.dumps(payload, sort_keys=True).encode("utf-8"))
        record["gallery/all"] = {
            "exit": rc, "report": sha,
            "stderr": re.sub(r" \(\d+\.\d+s\)", "", err)}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RECORD).write_text(json.dumps(record, indent=1, sort_keys=True),
                                  encoding="utf-8")
    print(f"{len(record)} entries written to {out_dir / RECORD}")


def compare(a_dir: Path, b_dir: Path) -> int:
    a = json.loads((a_dir / RECORD).read_text(encoding="utf-8"))
    b = json.loads((b_dir / RECORD).read_text(encoding="utf-8"))
    differ = 0
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            differ += 1
            print(f"{key}:\n  A {a.get(key)}\n  B {b.get(key)}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
