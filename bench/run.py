"""qamlab benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload suite|witness|bisect --seed N \
        --seconds S --trace 0|1

The program is imported from the checkout's ``src/``.  The run sets up
(imports numpy and qamlab and builds the workload's inputs from the
seed), then repeats whole rounds of the workload until ``--seconds``
have passed, checking every round's outputs.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, round figures as means
over the run's rounds (the run's throughput).  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics as means
over the traced rounds, plus ``trace.overhead_s``, the traced minus the
untraced mean round time; the per-layer figures of every traced round
are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
# set-up is timed in this process and in this many fresh child processes,
# spread evenly over the run, and the median is reported: on a shared
# 2-vCPU host the speed drifts by up to 1.9x in phases of seconds, so
# probes taken in one burst all land in one phase
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
# peak RSS is taken after MEMORY_ROUNDS rounds in a fresh child process,
# so that memory kept from one round to the next shows, with glibc's mmap
# threshold fixed: with the default adaptive threshold, freed arrays stay
# in per-thread heaps and the peak depends on thread timing (it moved by
# 15 % between runs of the witness workload); fixed, it tracks the arrays
# alive at once to about 1 %.  Timed rounds keep the default.
MEMORY_ROUNDS = 3
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["suite", "witness", "bisect"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe", choices=["setup", "memory"], help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload: str, seed: int, workdir: Path):
    """Import numpy and qamlab and build the inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and qamlab

    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    return wl, time.perf_counter() - t0


def _probe(args, kind: str, env=None) -> float:
    """Run a set-up or memory probe in a fresh child process; returns its figure."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
        env=None if env is None else {**os.environ, **env})
    return float(out.stdout.split()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(wl, seconds: float, tracer, probe_setup):
    """Whole rounds until the time is up; with a tracer, alternate traced ones.

    ``probe_setup`` is called SETUP_PROBES times, between rounds, at even
    intervals of the run; returns the probes' set-up times with the rest.
    """
    rounds = {False: [], True: []}
    layers = []
    setups: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    traced = False
    while True:
        while len(setups) < SETUP_PROBES and \
                time.perf_counter() >= start + seconds * len(setups) / SETUP_PROBES:
            setups.append(probe_setup())
        if traced:
            tracer.reset()
            tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            rnd = wl.run_round()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        attempted += rnd.attempted
        failed += rnd.failed
        errors += wl.verify(rnd)
        rounds[traced].append((rnd.items, wall, cpu))
        if traced:
            layers.append(tracer.snapshot())
        if tracer is not None:
            traced = not traced
        done = rounds[False] and (tracer is None or rounds[True])
        if done and time.perf_counter() >= deadline:
            while len(setups) < SETUP_PROBES:
                setups.append(probe_setup())
            return rounds, layers, setups, attempted, failed, errors


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qamlab" / "__init__.py").is_file():
        print(f"error: no qamlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{args.probe or 'run'}-{os.getpid()}"
    try:
        wl, setup_s = _setup(args.workload, args.seed, workdir)
        import qamlab

        if not Path(qamlab.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: qamlab imported from {qamlab.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.probe == "setup":
            print(repr(setup_s))
            return 0
        if args.probe == "memory":
            for _ in range(MEMORY_ROUNDS):
                wl.run_round()
            print(repr(_peak_rss_mb()))
            return 0
        peak_rss = None if args.trace else _probe(args, "memory", MEMORY_ENV)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        rounds, layers, setups, attempted, failed, errors = _run_rounds(
            wl, args.seconds, tracer, lambda: _probe(args, "setup"))
        setups.insert(0, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(rounds, layers)
        _write_trace(args, metrics, layers)
    else:
        items, walls, cpus = zip(*rounds[False])
        values = {
            "items_per_s": sum(items) / sum(walls),
            "wall_s": statistics.mean(walls),
            "cpu_s": statistics.mean(cpus),
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setups),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in _spec()["end_to_end"]}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _write_details(args, result, rounds, setups)
    print(json.dumps(result))
    return 0


def _write_details(args, result: dict, rounds, setups) -> None:
    """Every round's figures and every set-up time, for diagnosing spreads."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "result": result, "setup_s": setups,
        "rounds": [{"traced": traced, "items": i, "wall_s": w, "cpu_s": c}
                   for traced in (False, True) for i, w, c in rounds[traced]],
    }))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _layer_metrics(rounds, layers) -> dict:
    untraced = statistics.mean(w for _, w, _ in rounds[False])
    traced = statistics.mean(w for _, w, _ in rounds[True])
    metrics = {}
    for spec in _spec()["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_s":
            value = traced - untraced
        else:
            value = statistics.mean(snap.get(name, 0.0) for snap in layers)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def _write_trace(args, metrics: dict, layers) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "metrics": metrics,
        "rounds": layers,
    }))


if __name__ == "__main__":
    raise SystemExit(main())
