#!/usr/bin/env python3
"""measure-limits benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gallery|docs --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`, so
nothing is built or installed.  Each workload runs in its own worker
process as a single-client closed loop (see worker.py), and every op's
output is checked.  Why each workload exists is in WORKLOADS below.

--trace 0 prints the end-to-end metrics: `setup_s` (median of fresh
processes importing the package), `op_p50_ms`, `ops_per_s` and
`peak_rss_mb`.  --trace 1 spends half the time untraced and half under the
outside-in tracer (tracer.py) and prints the per-layer metrics, per op.
Human-readable lines come first; the last line of standard output is the
JSON result.  A record of the run (machine, environment, every op time,
failures, the docs fingerprint) and the span file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "gallery": "every fixture; dyadic_comb's 2M-cell refinements load kernels, "
               "refinement, measures, its builder and dominance, and "
               "twin_spikes' certified epi scans rebuild PiecewiseFn objects "
               "past the 64-entry sequence cache",
    "docs": "seeded uncertified finite explicit documents: scalar range_on "
            "scans, small-array kernels, parse/emission, the runner pool and "
            "CLI I/O; +-inf documents go to an untimed probe",
}
SETUP_SAMPLES = 7
DOCS_PER_SECOND = 20      # pool size per run second; ops stop if it runs out
P90_MIN_OPS = 100         # p90 needs at least ten samples beyond it
COMB_LARGEST_ARRAY_BYTES = 8 * 2 ** 21   # g_20: 2^21 float64 cell values
WORKER_GRACE_S = 60
# docs' untimed +-inf probe: reports that are not strict JSON, per run
INF_NONSTRICT = "docs.inf_probe.nonstrict"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _cpu_times() -> dict:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    hz = os.sysconf("SC_CLK_TCK")
    return {n: int(v) / hz for n, v in zip(names, fields)}


def _reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    interpreter code right now, to explain noisy runs.  Not a metric."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def _caches() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(cmd: list[str], log: Path, seconds: float) -> None:
    with open(log, "ab") as fh:
        subprocess.run([sys.executable, str(HERE / "worker.py"), *cmd],
                       cwd=ROOT, env=_env(), stdout=fh, stderr=fh, check=True,
                       timeout=seconds + WORKER_GRACE_S)


def _setup_samples(log: Path) -> list[float]:
    """Import time in fresh processes; the first, which may compile
    bytecode once per checkout, is not kept."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe"],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, check=True, timeout=WORKER_GRACE_S)
        if i:
            samples.append(json.loads(proc.stdout)["setup_s"])
    return samples


def _run_worker(workload: str, seconds: float, out: Path, inputs: Path,
                spans: Path | None) -> dict:
    result_path = out / ("traced.json" if spans else "untraced.json")
    cmd = ["--workload", workload, "--seconds", repr(seconds),
           "--inputs", str(inputs), "--out", str(result_path)]
    if spans:
        cmd += ["--trace-spans", str(spans)]
    _worker(cmd, out / "worker.log", seconds)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {result['module_file']}, not the checkout")
    return result


def _p(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, math.ceil(q * len(s)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "measure_limits" / "__init__.py").is_file():
        return _fail(f"no measure_limits package under {SRC}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = out / "docs"
    inputs.mkdir()
    n_docs = n_inf = 0
    if args.workload == "docs":
        sys.path.insert(0, str(HERE))
        import docs
        n_docs = 1 + math.ceil(DOCS_PER_SECOND * args.seconds)
        docs.write_pool(inputs, args.seed, n_docs)
        n_inf = len(docs.INF_PROBE)

    cpu0, load0, wall0 = _cpu_times(), os.getloadavg(), time.time()
    ref0 = _reference_ms()
    setup = []
    try:
        if args.trace:
            half = args.seconds / 2
            plain = _run_worker(args.workload, half, out, inputs, None)
            traced = _run_worker(args.workload, half, out, inputs,
                                 out / "spans.tsv.gz")
        else:
            setup = _setup_samples(out / "worker.log")
            plain = _run_worker(args.workload, args.seconds, out, inputs, None)
            traced = None
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as err:
        log = out / "worker.log"
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        return _fail(f"worker failed: {err}\n{tail}")
    cpu1, load1, ref1 = _cpu_times(), os.getloadavg(), _reference_ms()

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(r["wrong"] for r in runs)
    durs = plain["durations_s"]
    if not durs:
        return _fail("no timed op completed")
    p50_ms = statistics.median(durs) * 1000.0
    ops_per_s = len(durs) / sum(durs)

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; why: {WORKLOADS[args.workload]}")
    if args.trace:
        m = dict(traced["trace"]["metrics"])
        tdurs = traced["durations_s"]
        m["trace.overhead_ratio"] = statistics.median(tdurs) / statistics.median(durs) - 1
        m[INF_NONSTRICT] = plain["inf_probe"]["nonstrict"] if plain["inf_probe"] else 0
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(m.items())}
        print(f"  traced ops {len(tdurs)} (untraced {len(durs)}), "
              f"{traced['trace']['spans']} spans -> {traced['trace']['spans_file']}")
        if traced["trace"]["missing"]:
            print(f"  trace targets missing: {traced['trace']['missing']}")
        for k, v in sorted(m.items()):
            if k.startswith("layer.") or k.startswith("trace."):
                print(f"  {k:<28} {v:10.4f}")
    else:
        setup_s = statistics.median(setup)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup_s      {setup_s:12.4f} s    median of {len(setup)} "
              "fresh-process imports")
        print(f"  op_p50_ms    {p50_ms:12.2f} ms   n={len(durs)} timed ops")
        if len(durs) >= P90_MIN_OPS:
            print(f"  op_p90_ms    {_p(durs, 0.9) * 1000:12.2f} ms   n={len(durs)}")
        else:
            print(f"  op_p90_ms    {'-':>12}      needs >= {P90_MIN_OPS} ops, "
                  f"have {len(durs)}")
        print(f"  ops_per_s    {ops_per_s:12.4f} 1/s  {len(durs)} ops / "
              f"{sum(durs):.2f} s timed")
        print(f"  peak_rss_mb  {plain['peak_rss_mb']:12.1f} MB   workload process")
    print(f"  fail_ratio   {failed / attempted:12.4f}      {failed} failed / "
          f"{attempted} attempted (incl. 1 untimed warm-up op per process)")
    probe = plain["inf_probe"]
    if probe is not None:
        print(f"  inf probe    {probe['nonstrict']} of {len(probe['docs'])} "
              "untimed documents with a +-inf cell gave a report that is not "
              "strict JSON (known defect, not counted as failed)")
    if plain["stopped"] != "deadline":
        print(f"  stopped early: {plain['stopped']}")
    for f in [f for r in runs for f in r["failures"]][:5]:
        print(f"    op {f['op']}: {f['reason']}")

    steal = cpu1["steal"] - cpu0["steal"]
    busy = sum(cpu1.values()) - sum(cpu0.values())
    record = {
        "args": vars(args),
        "why": WORKLOADS[args.workload],
        "python": platform.python_version(),
        "numpy": plain["numpy"],
        "nproc": os.cpu_count(),
        "backend": plain["backend"],
        "env": {k: os.environ.get(k) for k in
                ("MEASURE_LIMITS_THREADS", "MEASURE_LIMITS_BACKEND")},
        "caches": _caches(),
        "comb_largest_array_bytes": COMB_LARGEST_ARRAY_BYTES,
        "loadavg_start": load0,
        "loadavg_end": load1,
        "cpu_steal_s": steal,
        "cpu_steal_share": steal / busy if busy else 0.0,
        "reference_loop_ms": [ref0, ref1],
        "wall_s": time.time() - wall0,
        "docs": {"pool": n_docs, "inf_probe": n_inf} if n_docs else None,
        "setup_samples_s": setup,
        "untraced": plain,
        "traced": traced,
        "metrics": metrics,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"  record: {out / 'record.json'}  (load {load0[0]:.2f}->{load1[0]:.2f}, "
          f"steal {steal:.2f} s, reference loop {ref0:.1f}->{ref1:.1f} ms)")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name == INF_NONSTRICT:
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/op"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    if name.endswith("bytes_computed") or name.endswith("bytes_out"):
        return "B/op"
    if name == "runner.threads":
        return "threads"
    return "count/op"


if __name__ == "__main__":
    raise SystemExit(main())
