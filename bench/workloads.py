"""The benchmark's three workloads: inputs, one timed round, and its checks.

Each workload is built from a seed into a work directory inside the
checkout.  ``run_round`` makes the timed calls into qamlab, through the
``qamlab`` command's entry point ``qamlab.cli.main`` (called in-process
with documents written to the work directory) and, where no command
reaches a layer or a command's fixed size makes a round too long to
repeat, through the library's public functions.  Calls go through
module attributes at call time, so a tracer installed around a round
sees them.  ``verify`` checks a round's outputs against the
independent oracle or against properties the method must have; it is
never timed and never traced.

Every round makes the same operations, so ``failed`` is the same share
of ``attempted`` in every run whatever its length.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qamlab
import qamlab.cli
from qamlab import Generator, Interval

import oracle

GRID_RANGE = (0.1, 10.0)
THRESHOLD = 1e-4            # the witness command's default threshold
SUITE_TOL = 1e-8            # the suite command's default tolerance
ORACLE_TOL = 1e-12          # closed-form and bridge agreement, as in the acceptance tests
# the scalar bisection stops at 1e-12 relative in x; two nested exp
# evaluations of |k x| <= 20 amplify that to well under 1e-9
BISECT_TOL = 1e-9


@dataclass
class Round:
    """What one timed round did; ``outputs`` feed ``verify``."""

    items: int
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli(argv: list[str]) -> int:
    return qamlab.cli.main(argv)


# ---------------------------------------------------------------------------
# suite: both randomized suites, through the library
# ---------------------------------------------------------------------------

# the suite catalogs, as documented in qamlab.suites
_PROP_BASES = [{"family": "exp", "k": k} for k in (-1.0, 1.0, 2.0)] + [
    {"family": "power", "p": p} for p in (-1.0, 0.5, 2.0)]
_AFF_BASES = [{"family": "identity"}, {"family": "log"},
              {"family": "exp", "k": 1.0}, {"family": "power", "p": 2.0}]
# a twentieth of the `qamlab suite` command's size (200 space pairs per
# combination, 1 000 affine trials), so that a round lasts a fraction of
# a second: 6 generators x 3 scales x 10 space pairs x 5 functions, and
# 36 affine combinations x 3
PAIRS_PER_COMBO = 10
AFFINE_TRIALS = 108
SUITE_CASES = {"finite-measure-proportional": 900, "probability-affine": 108}
SAMPLE_CASES = 300


def _sample_values(rng, doc: dict, shape) -> np.ndarray:
    if doc["family"] in ("exp", "identity"):
        return rng.uniform(-2.0, 2.0, shape)
    return np.exp(rng.uniform(math.log(0.2), math.log(5.0), shape))


def _sample_masses(rng, size: int, total: float) -> list[float]:
    raw = rng.uniform(0.5, 1.5, size)
    return list(raw * (total / raw.sum()))


class SuiteWorkload:
    """Both randomized suites through the library, at the benchmark's seed."""

    name = "suite"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # the benchmark's own sample of commuting cases, checked against
        # the oracle's closed form
        rng = np.random.default_rng([seed, 1])
        self.sample = []
        for i in range(SAMPLE_CASES):
            proportional = i % 3 != 2
            if proportional:
                g_doc = dict(_PROP_BASES[rng.integers(len(_PROP_BASES))])
                f_doc = {**g_doc, "scale": float(rng.choice([0.5, 2.0, 10.0]))}
                totals = rng.uniform(0.2, 5.0, 2)
            else:
                g_doc = dict(_AFF_BASES[rng.integers(len(_AFF_BASES))])
                f_doc = {**g_doc, "affine": {"a": float(rng.choice([-2.0, 0.5, 3.0])),
                                             "b": float(rng.choice([-1.0, 0.0, 4.0]))}}
                totals = (1.0, 1.0)
            m, n = (int(v) for v in rng.integers(2, 4, 2))
            wx, wy = _sample_masses(rng, m, totals[0]), _sample_masses(rng, n, totals[1])
            self.sample.append((f_doc, g_doc, wx, wy, _sample_values(rng, g_doc, (m, n))))
        self.sample_checked = False

    def run_round(self) -> Round:
        rnd = Round(items=sum(SUITE_CASES.values()), attempted=2)
        rnd.outputs["suites"] = [
            qamlab.run_finite_measure_suite(self.seed, SUITE_TOL, PAIRS_PER_COMBO),
            qamlab.run_probability_suite(self.seed, SUITE_TOL, AFFINE_TRIALS),
        ]
        return rnd

    def verify(self, rnd: Round) -> list[str]:
        errors = []
        results = rnd.outputs["suites"]
        counts = {r.name: r.n_cases for r in results}
        if counts != SUITE_CASES:
            errors.append(f"suite case counts {counts} != {SUITE_CASES}")
        for r in results:
            bad = [row["case"] for row in r.rows
                   if not (row["rel_residual"] <= SUITE_TOL and row["pass"] is True)]
            if bad or not r.passed or not r.max_rel_residual <= SUITE_TOL:
                errors.append(f"{r.name}: {len(bad)} cases above tolerance")
        if not self.sample_checked:
            errors += self._check_sample()
            self.sample_checked = True
        return errors

    def _check_sample(self) -> list[str]:
        errors = []
        for f_doc, g_doc, wx, wy, h in self.sample:
            grid = qamlab.ProductGrid(qamlab.DiscreteMeasureSpace(wx),
                                      qamlab.DiscreteMeasureSpace(wy))
            rep = qamlab.commutation_residual(
                qamlab.generator_from_json(f_doc), qamlab.generator_from_json(g_doc),
                grid, qamlab.SimpleFunctionMatrix(h))
            want = oracle.closed_form(oracle.OracleGenerator(g_doc), wx, wy, h.tolist())
            if not (_close(rep.lhs, want, ORACLE_TOL) and _close(rep.rhs, want, ORACLE_TOL)):
                errors.append(f"sample case f={f_doc} g={g_doc}: lhs={rep.lhs!r} "
                              f"rhs={rep.rhs!r} closed form={want!r}")
        return errors


# ---------------------------------------------------------------------------
# witness: block and full-matrix searches, refine, check and phi per pair
# ---------------------------------------------------------------------------

WITNESS_PAIRS = [
    ("exp-increasing", {"family": "exp", "k": 1.0}, {"family": "exp", "k": 2.0}),
    ("exp-decreasing", {"family": "exp", "k": -1.0}, {"family": "exp", "k": -2.0}),
    ("power", {"family": "power", "p": 2.0}, {"family": "power", "p": -1.0}),
    ("exp-power", {"family": "exp", "k": 1.0}, {"family": "power", "p": 2.0}),
    ("proportional-control", {"family": "exp", "k": 1.0, "scale": 3.0},
     {"family": "exp", "k": 1.0}),
]
CONTROL = "proportional-control"
BLOCK_GRID = 31          # points per axis; 31^4 candidates per block search
FULL_GRID = 7            # points per axis; 7^6 candidates per 2x3 search
REFINE_ITERATIONS = 1
CANDIDATE_SAMPLE = 200


def _witness_from_doc(doc: dict) -> qamlab.Witness:
    if doc["kind"] == "block":
        masses, values = tuple(doc["masses"]), tuple(doc["values"])
    else:
        masses = (tuple(doc["masses"][0]), tuple(doc["masses"][1]))
        values = tuple(tuple(row) for row in doc["values"])
    report = qamlab.ResidualReport(doc["lhs"], doc["rhs"], doc["abs_residual"],
                                   doc["rel_residual"])
    return qamlab.Witness(doc["kind"], masses, values, report, doc["skipped_points"])


def _witness_h(w: qamlab.Witness) -> list[list[float]]:
    return oracle.block_matrix(w.values) if w.kind == "block" else [list(r) for r in w.values]


def _witness_masses(w: qamlab.Witness) -> tuple[list[float], list[float]]:
    if w.kind == "block":
        return list(w.masses[:2]), list(w.masses[2:])
    return list(w.masses[0]), list(w.masses[1])


class WitnessWorkload:
    """A fixed list of generator pairs through every search path."""

    name = "witness"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.workers = sorted({1, nproc()})
        rng = np.random.default_rng([seed, 2])
        self.masses = {
            "block": ([float(v) for v in rng.uniform(0.5, 2.0, 2)],
                      [float(v) for v in rng.uniform(0.5, 2.0, 2)]),
            "full": ([float(v) for v in rng.uniform(0.5, 2.0, 2)],
                     [float(v) for v in rng.uniform(0.5, 2.0, 3)]),
        }
        self.spaces = {
            kind: tuple(_write_json(workdir / f"{kind}-{axis}.json", {"weights": w})
                        for axis, w in zip("xy", ws))
            for kind, ws in self.masses.items()
        }
        self.grids = {"block": BLOCK_GRID, "full": FULL_GRID}
        self.pairs = []
        for label, f_doc, g_doc in WITNESS_PAIRS:
            self.pairs.append({
                "label": label, "f_doc": f_doc, "g_doc": g_doc,
                "f_path": _write_json(workdir / f"{label}-f.json", f_doc),
                "g_path": _write_json(workdir / f"{label}-g.json", g_doc),
                "f": qamlab.generator_from_json(f_doc),
                "g": qamlab.generator_from_json(g_doc),
            })
        pts = np.geomspace(*GRID_RANGE, BLOCK_GRID), np.geomspace(*GRID_RANGE, FULL_GRID)
        self.candidates = {
            "block": [[float(pts[0][i]) for i in rng.integers(BLOCK_GRID, size=4)]
                      for _ in range(CANDIDATE_SAMPLE)],
            "full": [[float(pts[1][i]) for i in rng.integers(FULL_GRID, size=6)]
                     for _ in range(CANDIDATE_SAMPLE)],
        }
        self.candidate_best: dict[tuple[str, str], float] = {}
        self.items = len(WITNESS_PAIRS) * len(self.workers) * (
            BLOCK_GRID**4 + FULL_GRID**6)

    def _out(self, *parts) -> Path:
        return self.workdir / ("-".join(str(p) for p in parts) + ".json")

    def run_round(self) -> Round:
        rnd = Round(items=self.items)

        def call(argv):
            rc = _cli(argv)
            rnd.attempted += 1
            rnd.failed += rc not in (0, 1)
            return rc

        for pair in self.pairs:
            label = pair["label"]
            for kind in ("block", "full"):
                sx, sy = self.spaces[kind]
                for workers in self.workers:
                    out = self._out(label, kind, workers)
                    rc = call(["witness", "--f", pair["f_path"], "--g", pair["g_path"],
                               "--space-x", sx, "--space-y", sy,
                               "--grid", str(self.grids[kind]),
                               "--range", f"{GRID_RANGE[0]}:{GRID_RANGE[1]}",
                               "--workers", str(workers), "--out", str(out)])
                    rnd.outputs[(label, kind, workers)] = rc
                doc = json.loads(self._out(label, kind, 1).read_text())
                if doc == "none":
                    continue
                found = _witness_from_doc(doc)
                rnd.attempted += 1
                rnd.outputs[(label, kind, "refined")] = qamlab.refine_witness(
                    pair["f"], pair["g"], found, REFINE_ITERATIONS)
                h_path = _write_json(self._out(label, kind, "h"), {"values": _witness_h(found)})
                rnd.outputs[(label, kind, "check")] = call(
                    ["check", "--f", pair["f_path"], "--g", pair["g_path"],
                     "--space-x", sx, "--space-y", sy, "--h", h_path,
                     "--out", str(self._out(label, kind, "check"))])
            sx, sy = self.spaces["block"]
            rnd.outputs[(label, "phi")] = call(
                ["phi", "--f", pair["f_path"], "--g", pair["g_path"], "--space-x", sx,
                 "--space-y", sy, "--out", str(self._out(label, "phi"))])
        return rnd

    def verify(self, rnd: Round) -> list[str]:
        errors = []
        for pair in self.pairs:
            label = pair["label"]
            f, g = oracle.OracleGenerator(pair["f_doc"]), oracle.OracleGenerator(pair["g_doc"])
            control = label == CONTROL
            for kind in ("block", "full"):
                texts = {self._out(label, kind, w).read_bytes() for w in self.workers}
                if len(texts) != 1:
                    errors.append(f"{label} {kind}: witness JSON differs across worker counts")
                doc = json.loads(self._out(label, kind, 1).read_text())
                want_rc = 0 if control else 1
                if any(rnd.outputs[(label, kind, w)] != want_rc for w in self.workers):
                    errors.append(f"{label} {kind}: witness exit codes "
                                  f"{[rnd.outputs[(label, kind, w)] for w in self.workers]}")
                if control:
                    if doc != "none":
                        errors.append(f"{label} {kind}: proportional pair gave a witness")
                    continue
                if doc == "none":
                    errors.append(f"{label} {kind}: no witness for a non-proportional pair")
                    continue
                errors += self._check_witness(label, kind, f, g, _witness_from_doc(doc), rnd)
            phi = json.loads(self._out(label, "phi").read_text())
            extract = [r for r in phi["checks"] if r["check"] == "proportionality_extract"]
            if rnd.outputs[(label, "phi")] != 0 or len(extract) != 1 \
                    or extract[0]["pass"] is not control:
                errors.append(f"{label}: proportionality_extract should "
                              f"{'pass' if control else 'fail'}")
        return errors

    def _check_witness(self, label, kind, f, g, found, rnd) -> list[str]:
        errors = []
        wx, wy = _witness_masses(found)
        lhs, rhs = oracle.mixed_means(f, g, wx, wy, _witness_h(found))
        rep = found.report
        if not (_close(rep.lhs, lhs, ORACLE_TOL) and _close(rep.rhs, rhs, ORACLE_TOL)):
            errors.append(f"{label} {kind}: witness sides {rep.lhs!r}, {rep.rhs!r} "
                          f"!= oracle {lhs!r}, {rhs!r}")
        if not rep.rel_residual > THRESHOLD:
            errors.append(f"{label} {kind}: witness residual {rep.rel_residual} <= threshold")
        key = (label, kind)
        if key not in self.candidate_best:
            sx, sy = self.masses[kind]
            shape = (2, 2) if kind == "block" else (2, 3)
            self.candidate_best[key] = max(
                oracle.rel_residual(*oracle.mixed_means(
                    f, g, sx, sy, np.reshape(c, shape).tolist()))
                for c in self.candidates[kind])
        if self.candidate_best[key] > rep.rel_residual + ORACLE_TOL:
            errors.append(f"{label} {kind}: a sampled grid candidate beats the reported "
                          f"maximum ({self.candidate_best[key]} > {rep.rel_residual})")
        refined = rnd.outputs[(label, kind, "refined")]
        r_lhs, r_rhs = oracle.mixed_means(f, g, *_witness_masses(refined), _witness_h(refined))
        if refined.report.rel_residual < rep.rel_residual or not (
                _close(refined.report.lhs, r_lhs, ORACLE_TOL)
                and _close(refined.report.rhs, r_rhs, ORACLE_TOL)):
            errors.append(f"{label} {kind}: refined witness fell below its start "
                          "or disagrees with the oracle")
        check = json.loads(self._out(label, kind, "check").read_text())
        if rnd.outputs[(label, kind, "check")] != 1 or check["pass"] is not False or not (
                _close(check["lhs"], rep.lhs, ORACLE_TOL)
                and _close(check["rhs"], rep.rhs, ORACLE_TOL)):
            errors.append(f"{label} {kind}: check on the witness h disagrees with the witness")
        return errors


# ---------------------------------------------------------------------------
# bisect: a generator without a closed-form inverse
# ---------------------------------------------------------------------------

class BisectExp(Generator):
    """exp(k x) on the real line written with ``_eval_raw`` only.

    With no ``_inverse_raw`` of its own, every inversion goes through the
    library's scalar bisection fallback.  No generator document builds
    such a generator, so this workload calls the library directly.
    """

    def __init__(self, k: float):
        self.k = float(k)
        self.domain = Interval(-math.inf, math.inf)
        self.codomain = Interval(0.0, math.inf)
        self.increasing = self.k > 0

    def _eval_raw(self, x):
        return np.exp(self.k * x)

    def describe(self) -> str:
        return f"bisect-exp(k={self.k:g})"

    def to_json(self) -> dict:
        return {"family": "exp", "k": self.k}


BISECT_GRID = 7          # points per axis; 7^4 candidates per block search
BISECT_CASES = 144      # four of each (rate, scale, shape) combination
_BISECT_RATES = (-1.0, 1.0, 2.0)


class BisectWorkload:
    """A block search and a batch of proportional residuals, all bisecting."""

    name = "bisect"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.masses = [float(v) for v in rng.uniform(0.5, 2.0, 4)]
        self.f, self.g = BisectExp(1.0), BisectExp(2.0)
        self.grid = qamlab.GridSpec(BISECT_GRID, GRID_RANGE)
        self.cases = []
        # the seed draws masses and values only: every seed inverts the same
        # number of elements, so the work per round does not depend on it
        combos = [(k, c, m, n) for k in _BISECT_RATES for c in (0.5, 2.0, 10.0)
                  for m in (2, 3) for n in (2, 3)]
        for k, c, m, n in combos * (BISECT_CASES // len(combos)):
            wx = _sample_masses(rng, m, float(rng.uniform(0.2, 5.0)))
            wy = _sample_masses(rng, n, float(rng.uniform(0.2, 5.0)))
            h = rng.uniform(-2.0, 2.0, (m, n))
            self.cases.append({
                "k": k, "c": c, "wx": wx, "wy": wy, "h": h,
                "f": qamlab.scale(BisectExp(k), c), "g": BisectExp(k),
                "grid": qamlab.ProductGrid(qamlab.DiscreteMeasureSpace(wx),
                                           qamlab.DiscreteMeasureSpace(wy)),
                "matrix": qamlab.SimpleFunctionMatrix(h),
            })
        self.twin = None

    def run_round(self) -> Round:
        rnd = Round(items=BISECT_GRID**4 + BISECT_CASES, attempted=1 + BISECT_CASES)
        rnd.outputs["witness"] = qamlab.block_witness_search(
            self.f, self.g, *self.masses, self.grid, THRESHOLD, workers=1)
        rnd.outputs["residuals"] = [
            qamlab.commutation_residual(c["f"], c["g"], c["grid"], c["matrix"])
            for c in self.cases]
        return rnd

    def verify(self, rnd: Round) -> list[str]:
        errors = []
        if self.twin is None:
            self.twin = qamlab.block_witness_search(
                qamlab.ExpGenerator(1.0), qamlab.ExpGenerator(2.0), *self.masses,
                self.grid, THRESHOLD, workers=1)
        found, twin = rnd.outputs["witness"], self.twin
        if found is None or twin is None:
            return ["bisect: block search found no witness for exp(1) vs exp(2)"]
        f, g = oracle.OracleGenerator({"family": "exp", "k": 1.0}), \
            oracle.OracleGenerator({"family": "exp", "k": 2.0})
        lhs, rhs = oracle.mixed_means(f, g, self.masses[:2], self.masses[2:],
                                      oracle.block_matrix(found.values))
        if not (_close(found.report.lhs, lhs, BISECT_TOL)
                and _close(found.report.rhs, rhs, BISECT_TOL)
                and _close(found.report.rel_residual, twin.report.rel_residual, BISECT_TOL)):
            errors.append(f"bisect witness {found.to_json()} disagrees with the oracle "
                          f"or the closed-form twin {twin.to_json()}")
        for case, rep in zip(self.cases, rnd.outputs["residuals"]):
            want = oracle.closed_form(oracle.OracleGenerator({"family": "exp", "k": case["k"]}),
                                      case["wx"], case["wy"], case["h"].tolist())
            if not (rep.rel_residual <= SUITE_TOL and _close(rep.lhs, want, BISECT_TOL)
                    and _close(rep.rhs, want, BISECT_TOL)):
                errors.append(f"bisect case k={case['k']} c={case['c']}: "
                              f"{rep} vs closed form {want!r}")
        return errors


WORKLOADS = {w.name: w for w in (SuiteWorkload, WitnessWorkload, BisectWorkload)}
