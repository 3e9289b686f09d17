"""Steadiness and diff tool for the qamlab benchmark.

    python3 bench/steady.py run [--runs 10] [--out bench/results/NAME.json]
    python3 bench/steady.py report bench/results/NAME.json
    python3 bench/steady.py diff bench/results/OLD.json bench/results/NEW.json

``run`` calls ``bench/run.py`` (end-to-end metrics, ``--trace 0``) once
per workload of ``BENCHMARK.json`` and seed 1 to ``--runs``, one run at
a time, with the ``run_seconds`` of ``BENCHMARK.json``, and stores every
result line with the machine's ``nproc`` and the Python and numpy
versions.  ``report`` prints each metric's median and quartiles and its
spread (the distance between the quartiles as a share of the median)
against the metric's bound; a spread at or below a third of the bound
reads ``steady``.  ``diff`` compares the medians of two result files,
metric by metric and workload by workload, and marks a change worse than
the bound as ``REGRESSION``; it refuses files made with different run
lengths.  Quartiles are ``statistics.quantiles(values,
n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_specs(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"]}


def _machine() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy, "machine": platform.machine()}


def cmd_run(args) -> int:
    spec = _spec()
    seconds = spec["run_seconds"]
    doc = {"machine": _machine(), "seconds": seconds,
           "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "runs": {}}
    out = Path(args.out or BENCH / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = doc["runs"].setdefault(workload, [])
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "exit": proc.returncode, "took_s": took,
                         "result": result, "stderr": proc.stderr[-2000:]})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {took:.1f} s", file=sys.stderr)
            out.write_text(json.dumps(doc, indent=1))
    print(f"wrote {out}", file=sys.stderr)
    _print_report(doc, spec)
    return 0


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _print_report(doc: dict, spec: dict) -> None:
    metrics = _metric_specs(spec)
    m = doc["machine"]
    print(f"nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
          f"{doc['seconds']} s per run")
    print(f"{'workload':<9} {'metric':<36} {'runs':>4} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload, runs in doc["runs"].items():
        ok = [r for r in runs if r["result"]]
        failed = {r["result"]["failed"] / r["result"]["attempted"] for r in ok}
        correct = all(r["result"]["correct"] for r in ok) and len(ok) == len(runs)
        print(f"{workload}: {len(ok)}/{len(runs)} runs finished, all correct: {correct}, "
              f"failed shares: {sorted(failed)}")
        for name, m in metrics.items():
            vals = _values(ok, name)
            if not vals:
                continue
            q1, med, q3 = _quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m["bound"]
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            print(f"{'':<9} {name:<36} {len(vals):>4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6.2f}  {verdict}")


def cmd_report(args) -> int:
    _print_report(json.loads(Path(args.file).read_text()), _spec())
    return 0


def cmd_diff(args) -> int:
    spec = _spec()
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    if old["seconds"] != new["seconds"]:
        print(f"the two files hold runs of different lengths "
              f"({old['seconds']} s and {new['seconds']} s)")
        return 2
    metrics = _metric_specs(spec)
    regressions = 0
    print(f"{'workload':<9} {'metric':<36} {'old median':>12} {'new median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in new["runs"]:
        if workload not in old["runs"]:
            continue
        for name, m in metrics.items():
            a = _values([r for r in old["runs"][workload] if r["result"]], name)
            b = _values([r for r in new["runs"][workload] if r["result"]], name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            bound = m["bound"]
            verdict = "REGRESSION" if worse > bound else (
                "better" if worse < 0 else "within bound")
            regressions += worse > bound
            print(f"{workload:<9} {name:<36} {ma:>12.6g} {mb:>12.6g} {change:>+8.3f} "
                  f"{bound:>6.2f}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the benchmark repeatedly, report "
                                "spreads against bounds, or diff two result files.")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every workload at seeds 1 to --runs")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", help="result file (default bench/results/steady-<time>.json)")
    r.set_defaults(fn=cmd_run)
    s = sub.add_parser("report", help="spreads of one result file")
    s.add_argument("file")
    s.set_defaults(fn=cmd_report)
    d = sub.add_parser("diff", help="medians of two result files")
    d.add_argument("old")
    d.add_argument("new")
    d.set_defaults(fn=cmd_diff)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
