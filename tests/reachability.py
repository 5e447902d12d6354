"""List the src functions that a standard run of the program never enters.

Run from the repository root:

    PYTHONPATH=src python tests/reachability.py

The run is the CLI, in process, under ``sys.settrace``:

- ``gallery run all``;
- ``check`` on both ``scenarios/*.json``;
- ``check`` on 30 documents of the seed-77 stream of ``perfbench/docs.py``,
  every third with ``--tol 1e-6`` and every fifth with ``--nmax 10``;
- ``check`` on 12 probe documents of that stream with one +inf or -inf
  cell value;
- ``check`` on seed-77 document 30 with its own epi ``schedule``;
- ``check --nmax 13`` on seed-77 document 0, whose families list 12
  entries: a field-precise format error, exit 1.

Every function defined in ``src/measure_limits`` whose code object never
starts running is printed with its first line and line count, followed
by the total.  A function nested in one that is never entered is not
listed on its own: the outer function's lines already include it.  A
generator counts as entered once it is first resumed.  The name has no
``test_`` prefix, so pytest does not collect it;
``tests/test_reachability.py`` runs the same standard run and holds the
total to its budget.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "measure_limits"


def src_functions() -> list[tuple[str, int, int, str, tuple | None]]:
    """(file, first line, last line, qualified name, enclosing function)
    of every function in src; the first line is the first decorator's."""
    out = []

    def walk(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                entry = (str(path), first, child.end_lineno,
                         prefix + child.name, parent)
                out.append(entry)
                walk(child, path, prefix + child.name + ".", entry)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".", parent)
            else:
                walk(child, path, prefix, parent)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "", None)
    return out


def load_docs():
    """The document generator ``perfbench/docs.py``, as a module; the byte
    gate (``byte_identity.py``) and the CLI tests read it from here."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_docs", ROOT / "perfbench" / "docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def standard_run(tmp: Path) -> None:
    from measure_limits.cli import main

    docs = load_docs()
    runs = [["gallery", "run", "all", "--out", str(tmp / "gallery.json")]]
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        runs.append(["check", str(path), "--curves-dir", str(tmp / "curves")])
    for i in range(30):
        path = tmp / f"doc{i:02d}.json"
        path.write_text(json.dumps(docs.generate(77, i)), encoding="utf-8")
        argv = ["check", str(path)]
        if i % 3 == 0:
            argv += ["--tol", "1e-6"]
        if i % 5 == 0:
            argv += ["--nmax", "10"]
        runs.append(argv)
    for i in range(12):
        path = tmp / f"inf{i:02d}.json"
        inf = docs.INF_PROBE[i % len(docs.INF_PROBE)]
        path.write_text(json.dumps(docs.generate(77, i, inf)),
                        encoding="utf-8")
        runs.append(["check", str(path)])
    path = tmp / "schedule.json"
    path.write_text(json.dumps(dict(docs.generate(77, 30), schedule={
        "N": [2, 4, 8], "delta": [0.5, 0.25, 0.125]})), encoding="utf-8")
    runs.append(["check", str(path)])
    runs.append(["check", str(tmp / "doc00.json"), "--nmax", "13"])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)


def unentered() -> dict:
    """The line count of every src function that the standard run never
    enters, keyed by its ``src_functions`` entry.  The trace function in
    place before the run is put back after it."""
    prefix = str(SRC)
    entered: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        return None

    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            standard_run(Path(tmp))
        finally:
            sys.settrace(previous)

    missed = {}
    for entry in src_functions():
        path, first, last, name, parent = entry
        if (path, first) in entered:
            continue
        if parent is not None and parent in missed:
            continue                    # counted with its enclosing function
        missed[entry] = last - first + 1
    return missed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    missed = unentered()
    for (path, first, _, name, _), lines in missed.items():
        rel = Path(path).relative_to(SRC.parent)
        print(f"{lines:5d}  {rel}:{first}  {name}")
    print(f"total: {sum(missed.values())} lines in {len(missed)} functions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
