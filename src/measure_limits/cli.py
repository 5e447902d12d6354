"""Command-line entry points.

    measure-limits check SCENARIO.json [--checks a,b] [--out R.json]
                   [--curves-dir DIR] [--tol X] [--nmax N]
    measure-limits gallery run <id|all> [--out R.json]
    measure-limits gallery list

Exit codes: 0 all verdicts hold/pass, 2 at least one violated verdict,
1 error (bad input, I/O, or an internal inconsistency).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from . import __version__, gallery
from .runner import run_checks
from .scenario import canonical_json, parse_scenario
from .xreal import MeasureLimitsError


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(path: Path, text: str) -> bool:
    """Write ``text`` atomically; on failure say so on stderr, return False."""
    try:
        _atomic_write(path, text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_check(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return 1
    try:
        doc = parse_scenario(text, tol=args.tol, n_max=args.nmax)
        checks = tuple(args.checks.split(",")) if args.checks else None
        report = run_checks(doc, checks)
    except MeasureLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    curves = {cname: (f"{doc.name}_{cname}.csv", curve.to_csv())
              for result in report.results if args.curves_dir
              for cname, curve in result.curves.items()}
    try:
        out_json = canonical_json(
            report.to_dict({c: f for c, (f, _) in curves.items()})) + "\n"
    except ValueError as exc:
        # a NaN has no canonical JSON: nothing is written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for fname, csv_text in curves.values():
        if not _write(Path(args.curves_dir) / fname, csv_text):
            return 1
    if args.out:
        if not _write(Path(args.out), out_json):
            return 1
    else:
        print(out_json, end="")
    for result in report.results:
        print(f"{result.name}: {result.verdict}", file=sys.stderr)
    return report.exit_code


def _cmd_gallery(args) -> int:
    if args.action == "list":
        for fid, fx in sorted(gallery.FIXTURES.items()):
            print(f"{fid}: {fx.summary}")
        return 0
    ids = sorted(gallery.FIXTURES) if args.fixture == "all" else [args.fixture]
    reports = []
    for fid in ids:
        try:
            reports.append(gallery.run(fid))
        except MeasureLimitsError as exc:
            print(f"error: {fid}: {exc}", file=sys.stderr)
            return 1
    payload = {"tool": "measure-limits", "version": __version__,
               "fixtures": [{**asdict(r), "failures": r.failures}
                            for r in reports]}
    try:
        text = canonical_json(payload) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        if not _write(Path(args.out), text):
            return 1
    else:
        print(text, end="")
    failures = sum(r.failures for r in reports)
    for r in reports:
        status = "ok" if r.failures == 0 else f"{r.failures} FAILURES"
        print(f"{r.fixture}: {status} ({r.elapsed_s:.2f}s)", file=sys.stderr)
    if failures:
        return 1
    if any("violated" in r.verdicts.values() for r in reports):
        return 2
    return 0


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = parser = argparse.ArgumentParser(
            prog="measure-limits",
            description="Diagnostics for limit theorems on sequences of finite "
                        "measures: tail functionals, epigraphical limits, and "
                        "Fatou/dominated-convergence gaps.")
        parser.add_argument("--version", action="version", version=__version__)
        sub = parser.add_subparsers(dest="command", required=True)
        p_check = sub.add_parser("check", help="run checks from a scenario file")
        p_check.add_argument("scenario", help="path to a scenario JSON document")
        p_check.add_argument("--checks", help="comma-separated subset of checks")
        p_check.add_argument("--out", help="write the report JSON here")
        p_check.add_argument("--curves-dir", help="write curve CSV files here")
        p_check.add_argument("--tol", type=float, help="override the gap tolerance")
        p_check.add_argument("--nmax", type=int, help="override the index range")
        p_check.set_defaults(func=_cmd_check)
        p_gal = sub.add_parser("gallery", help="fixture gallery operations")
        gal_sub = p_gal.add_subparsers(dest="action", required=True)
        p_run = gal_sub.add_parser("run", help="run fixture conformance")
        p_run.add_argument("fixture", help="fixture id or 'all'")
        p_run.add_argument("--out", help="write the conformance JSON here")
        p_run.set_defaults(func=_cmd_gallery)
        gal_sub.add_parser("list", help="list fixtures").set_defaults(
            func=_cmd_gallery)
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
