"""One workload process: a single-client closed loop of measure-limits ops.

Every op is one CLI invocation made in process through `cli.main`, the
unit a user waits for; the next op starts only after the previous one has
returned and its output has been checked.  The runner's thread pool stays
at the package default.  With `--trace` the outside-in tracer is installed
before the first op; without it the package runs untouched.

    python3 perfbench/worker.py --workload gallery --seconds 15 --out R.json
    python3 perfbench/worker.py --probe        # one set-up sample

Only the standard library is imported before `measure_limits`, so the
probe's import time includes numpy's, as a user's first command would.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import time
from pathlib import Path

# `gallery run all` exits 2: dyadic_comb's conformance table holds a
# certified `violated` Fatou verdict, which is the fixture's point.
GALLERY_ARGV = ["gallery", "run", "all"]
GALLERY_EXIT = 2
FINGERPRINT_DOCS = 16
_BARE_NAN = re.compile(r"(?<=[:,\[])(-?)nan(?=[,}\]])")


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def lenient_json(text: str):
    """Parse a report that may carry bare `nan` tokens, to read its verdicts."""
    return json.loads(_BARE_NAN.sub(r"\1NaN", text))


def check_gallery(report: Path, rc, exc, fixtures) -> tuple[str, bool]:
    """(failure reason or '', wrong answer) for one `gallery run all` op.

    Every failure is a wrong answer: the gallery has no known defect, so
    an escaped exception or a missing report means the program broke.
    """
    if exc is not None:
        return f"exception {type(exc).__name__}: {exc}", True
    try:
        doc = strict_json(report.read_text(encoding="utf-8"))
        rows = doc["fixtures"]
        listed = sorted(r["fixture"] for r in rows)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"report unreadable: {type(err).__name__}: {err}", True
    if listed != sorted(fixtures):
        return "report does not list every fixture once", True
    bad = {r["fixture"]: r.get("failures") for r in rows if r.get("failures") != 0}
    if bad:
        return f"conformance failures {bad}", True
    if rc != GALLERY_EXIT:
        return f"exit code {rc}, expected {GALLERY_EXIT}", True
    return "", False


def check_docs(report: Path, rc, exc, source: dict, has_inf: bool,
               fingerprint: dict) -> tuple[str, bool]:
    """(failure reason or '', wrong answer) for one `check` op.

    The generator guarantees the Fatou hypotheses, so the Fatou verdict
    must read `holds`.  Every check the `source` document requests must be
    in the report, and a document without an infinite cell value must give
    no `error` verdict.
    A report that is not strict JSON breaks the output contract and fails
    the op, but its verdicts are still read and judged.  An escaped
    exception, an exit code outside 0-2 or a report that cannot be read at
    all is a wrong answer.
    """
    if exc is not None:
        return f"exception {type(exc).__name__}: {exc}", True
    if rc not in (0, 1, 2):
        return f"exit code {rc}", True
    try:
        data = report.read_bytes()
    except OSError as err:
        return f"no report: {err}", True
    fingerprint["exit_code"] = rc
    fingerprint["report_sha256"] = hashlib.sha256(data).hexdigest()
    reason = ""
    try:
        text = data.decode("utf-8")
        try:
            doc = strict_json(text)
        except ValueError as err:
            reason = f"report is not strict JSON: {err}"
            doc = lenient_json(text)
        fingerprint["scenario_hash"] = doc.get("scenario_hash")
        verdicts = {k: v.get("verdict") for k, v in doc["checks"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return f"report unreadable: {type(err).__name__}: {err}", True
    fingerprint["verdicts"] = verdicts
    missing = [c for c in source["checks"] if c not in verdicts]
    if missing:
        return f"report lacks checks {missing}", True
    if verdicts["fatou"] != "holds":
        return (f"Fatou verdict `{verdicts['fatou']}` on a document built "
                "to satisfy it"), True
    errors = sorted(k for k, v in verdicts.items() if v == "error")
    if errors and not has_inf:
        return f"`error` verdicts {errors} on a document of finite values", True
    return reason, False


def invoke(cli, argv: list[str], report: Path):
    """(exit code, escaped exception, wall seconds) of one CLI op."""
    report.unlink(missing_ok=True)
    rc = exc = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as err:
        exc = err
    return rc, exc, time.perf_counter() - start


def check_inf_docs(cli, paths: list[Path], report: Path) -> dict:
    """Check each infinite-value probe document once, untimed.

    A report that is not strict JSON is the known defect this probe keeps
    in sight: it is counted in `nonstrict`, not as a failed op.  Any other
    breach is a wrong answer, as in the timed loop.
    """
    out = {"docs": [], "nonstrict": 0, "wrong": []}
    for path in paths:
        source = json.loads(path.read_text(encoding="utf-8"))
        rc, exc, _ = invoke(cli, ["check", str(path), "--out", str(report)],
                            report)
        fp = {"doc": path.name}
        reason, bad = check_docs(report, rc, exc, source, True, fp)
        fp["reason"] = reason[:300]
        out["docs"].append(fp)
        if bad:
            out["wrong"].append({"op": path.name, "reason": reason[:300]})
        elif reason:
            out["nonstrict"] += 1
    return out


def run(args) -> dict:
    import measure_limits
    from measure_limits import cli, gallery
    import numpy

    tracer = None
    if args.trace_spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out_dir = Path(args.out).parent
    report = out_dir / "report.json"
    if args.workload == "gallery":
        argv = [*GALLERY_ARGV, "--out", str(report)]
        docs = None
    else:
        docs = sorted(Path(args.inputs).glob("doc*.json"))

    durations, failures, fingerprints = [], [], []
    attempted = failed = wrong = 0
    deadline = None
    stopped = "deadline"
    op = 0
    while True:
        # op 0 warms the process up: checked and counted, but not timed
        if op == 1:
            deadline = time.perf_counter() + args.seconds
        elif op > 1 and time.perf_counter() >= deadline:
            break
        if docs is not None:
            if op >= len(docs):
                stopped = "inputs exhausted"
                break
            argv = ["check", str(docs[op]), "--out", str(report)]
        if tracer is not None:
            tracer.op = op
        rc, exc, elapsed = invoke(cli, argv, report)
        if tracer is not None:
            tracer.end_op(keep=op > 0)
        if docs is None:
            reason, bad = check_gallery(report, rc, exc, gallery.FIXTURES)
        else:
            fp = {"doc": docs[op].name}
            source = json.loads(docs[op].read_text(encoding="utf-8"))
            reason, bad = check_docs(report, rc, exc, source, False, fp)
            fingerprints.append(fp)
        attempted += 1
        if reason:
            failed += 1
            wrong += bad
            failures.append({"op": op, "reason": reason[:300]})
        if op > 0:
            durations.append(elapsed)
        op += 1

    result = {
        "module_file": measure_limits.__file__,
        "backend": getattr(measure_limits, "BACKEND", None),
        "numpy": numpy.__version__,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "durations_s": durations,
        "stopped": stopped,
        "inf_probe": None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if docs is not None and tracer is None:
        probe = check_inf_docs(cli, sorted(Path(args.inputs).glob("inf*.json")),
                               report)
        result["inf_probe"] = probe
        result["wrong"] += len(probe["wrong"])
        result["failures"] += probe["wrong"]
    if docs is not None:
        head = fingerprints[:FINGERPRINT_DOCS]
        result["fingerprint"] = {
            "docs": fingerprints,
            "first_docs": len(head),
            "first_docs_sha256": hashlib.sha256(json.dumps(
                head, sort_keys=True).encode("utf-8")).hexdigest(),
        }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.layer_metrics(),
            "missing": tracer.missing,
            "spans_file": args.trace_spans,
            "spans": tracer.write_spans(Path(args.trace_spans)),
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="store_true",
                        help="time importing the package and exit")
    parser.add_argument("--workload", choices=("gallery", "docs"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--inputs", help="directory of docs to check")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--trace-spans", help="trace, and write spans here")
    args = parser.parse_args()
    if args.probe:
        t0 = time.perf_counter()
        import measure_limits  # noqa: F401
        import measure_limits.cli  # noqa: F401
        import measure_limits.gallery  # noqa: F401
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if not args.workload or not args.out:
        parser.error("--workload and --out are required")
    result = run(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
