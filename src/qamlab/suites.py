"""Seeded randomized commutation suites for the two admissibility settings.

Both suites draw random spaces and random simple functions, evaluate the
commutation residual for generator pairs that are known to commute, and
report the worst relative residual seen.  The proportional suite pairs
f = c*g over positive bijections on arbitrary finite masses; the affine
suite pairs f = a*g + b over real-valued injections on probability
spaces.  All randomness flows from one seed, so runs are reproducible.

The cases are drawn first, in a fixed order from one RNG stream, then
grouped by (f, g) and each group is evaluated as one batch of the
``mixed_means`` kernel, with its own masses per case; a case smaller than
its group's largest shape is padded with zero-mass atoms.  Grouping and
padding change neither the case order, the RNG stream nor any row: each
case's sides equal those of ``commutation_residual`` bit for bit, and a
failing case raises the same stage-tagged RangeError, that of the first
failing case in case order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generators import (
    ExpGenerator,
    Generator,
    IdentityGenerator,
    Interval,
    LogGenerator,
    PowerGenerator,
    affine,
    scale,
)
from .means import _case_sides, mixed_means
from .residuals import DEFAULT_ZERO_TOL, _relative_residuals

__all__ = ["SuiteResult", "run_finite_measure_suite", "run_probability_suite"]

DEFAULT_SEED = 42


@dataclass
class SuiteResult:
    """Outcome of one randomized suite run."""

    name: str
    tolerance: float
    rows: list[dict] = field(default_factory=list)
    max_rel_residual: float = 0.0

    @property
    def n_cases(self) -> int:
        return len(self.rows)

    @property
    def passed(self) -> bool:
        return self.max_rel_residual <= self.tolerance

    def summary(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.n_cases,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _random_masses(rng: np.random.Generator, n_atoms: int, total_mass: float) -> np.ndarray:
    raw = rng.uniform(0.5, 1.5, n_atoms)
    return raw * (total_mass / raw.sum())


def _random_total_mass(rng: np.random.Generator) -> float:
    # finite masses in [0.2, 5], avoiding the probability-space point
    while True:
        mass = rng.uniform(0.2, 5.0)
        if abs(mass - 1.0) > 1e-3:
            return mass


def _random_values(rng: np.random.Generator, domain: Interval, shape) -> np.ndarray:
    if math.isinf(domain.lower) and math.isinf(domain.upper):
        return rng.uniform(-2.0, 2.0, shape)
    if domain.lower == 0.0 and math.isinf(domain.upper):
        return np.exp(rng.uniform(math.log(0.2), math.log(5.0), shape))
    lo, hi = domain.lower, domain.upper
    span = hi - lo
    return rng.uniform(lo + 0.1 * span, hi - 0.1 * span, shape)


def _run_cases(
    name: str,
    tol: float,
    cases,  # iterable of (f, g, wx, wy, H): generators, masses, values
) -> SuiteResult:
    """One ``mixed_means`` batch per (f, g) group; rows in case order.

    A group's cases are laid out in runs of equal shape and padded, a run
    at a time, to the group's largest shape with zero-mass atoms: a pad Y
    atom repeats the case's first column, a pad X atom its first row.  No
    side changes by a bit:

    - a pad term ``0.0 * v`` joins a sum of at most three terms with the
      sign of the real term whose value it repeats, so it changes no sum
      (it could only turn a sum of real -0.0 terms into +0.0, and then
      the pad would be -0.0 too);
    - pad values repeat valid ones, so the range masks, and with them
      the NaN sides, are unchanged;
    - where a real term is +-inf, every range mask already rejects the
      sum, and the pad's ``0 * inf = NaN`` is rejected the same way.

    The zero masses live only in these batch arrays, never in a
    ``DiscreteMeasureSpace``, which rejects them.  A case with a NaN side
    failed; the first in case order raises its stage-tagged RangeError.
    """
    cases = list(cases)
    groups: dict[tuple, dict[tuple, list[int]]] = {}
    for k, (f, g, _, _, values) in enumerate(cases):
        groups.setdefault((f, g), {}).setdefault(values.shape, []).append(k)

    lhs, rhs = np.empty(len(cases)), np.empty(len(cases))
    for (f, g), runs in groups.items():
        order = np.array([k for idx in runs.values() for k in idx])
        m, n = (max(dims) for dims in zip(*runs))
        wx, wy = np.zeros((order.size, m)), np.zeros((order.size, n))
        values = np.empty((order.size, m, n))
        stop = 0
        for (mk, nk), idx in runs.items():
            run = slice(stop, stop + len(idx))
            stop = run.stop
            wx[run, :mk] = [cases[k][2] for k in idx]
            wy[run, :nk] = [cases[k][3] for k in idx]
            values[run, :mk, :nk] = [cases[k][4] for k in idx]
            values[run, :mk, nk:] = values[run, :mk, :1]
            values[run, mk:] = values[run, :1]
        lhs[order], rhs[order] = mixed_means(f, g, wx, wy, values)
    failed = np.flatnonzero(np.isnan(lhs) | np.isnan(rhs))
    if failed.size:
        # the stage-tagged error of the first failing case, on its own arrays
        _case_sides(*cases[failed[0]])

    # the ``ResidualReport`` rule, on every case at once
    abs_res = np.abs(lhs - rhs).tolist()
    rel = _relative_residuals(lhs.copy(), rhs.copy())
    result = SuiteResult(name=name, tolerance=tol)
    # Python's max skips a NaN residual where np.max would return it
    result.max_rel_residual = float(np.fmax.reduce(rel, initial=0.0))
    # consecutive cases share their spaces: format each mass array once,
    # by id, which stays unique while ``cases`` holds every array
    texts = {}
    names = {(f, g): (f.describe(), g.describe()) for f, g in groups}
    for case_id, ((f, g, wx, wy, _), lhs_k, rhs_k, abs_k, rel_k) in enumerate(
            zip(cases, lhs.tolist(), rhs.tolist(), abs_res, rel.tolist())):
        for w in (wx, wy):
            if id(w) not in texts:
                texts[id(w)] = ";".join([f"{v:.6g}" for v in w.tolist()])
        result.rows.append({
            "suite": name, "case": case_id, "f": names[f, g][0], "g": names[f, g][1],
            "masses_x": texts[id(wx)], "masses_y": texts[id(wy)],
            "lhs": lhs_k, "rhs": rhs_k, "abs_residual": abs_k, "rel_residual": rel_k,
            "pass": rel_k <= tol,
        })
    return result


def run_finite_measure_suite(
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_ZERO_TOL,
    pairs_per_combo: int = 200,
    h_per_pair: int = 5,
) -> SuiteResult:
    """Proportional pairs f = c*g commute on arbitrary finite measures.

    Catalog: exp rates {-1, 1, 2} and power exponents {-1, 0.5, 2}, scale
    factors c in {0.5, 2, 10}, random non-degenerate space pairs with
    total masses in [0.2, 5] away from 1, several random h per pair.
    """
    rng = np.random.default_rng(seed)
    catalog: list[Generator] = [
        ExpGenerator(-1.0), ExpGenerator(1.0), ExpGenerator(2.0),
        PowerGenerator(-1.0), PowerGenerator(0.5), PowerGenerator(2.0),
    ]

    def cases():
        for g in catalog:
            for c in (0.5, 2.0, 10.0):
                f = scale(g, c)
                for _ in range(pairs_per_combo):
                    mx = int(rng.integers(2, 4))
                    my = int(rng.integers(2, 4))
                    wx = _random_masses(rng, mx, _random_total_mass(rng))
                    wy = _random_masses(rng, my, _random_total_mass(rng))
                    # one draw of the same stream, in the same order, as h_per_pair draws
                    yield from ((f, g, wx, wy, values) for values in
                                _random_values(rng, g.domain, (h_per_pair, mx, my)))

    return _run_cases("finite-measure-proportional", tol, cases())


def run_probability_suite(
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_ZERO_TOL,
    trials: int = 1000,
) -> SuiteResult:
    """Affine pairs f = a*g + b commute on probability spaces.

    Slopes a in {-2, 0.5, 3}, intercepts b in {-1, 0, 4}, base generators
    identity, log, exp(1), power(2); at least ``trials`` random cases
    spread evenly over the combinations.
    """
    rng = np.random.default_rng(seed)
    bases: list[Generator] = [
        IdentityGenerator(), LogGenerator(), ExpGenerator(1.0), PowerGenerator(2.0),
    ]
    combos = [(a, b, g) for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0) for g in bases]
    per_combo = -(-trials // len(combos))  # ceil division

    def cases():
        for a, b, g in combos:
            f = affine(g, a, b)
            for _ in range(per_combo):
                mx = int(rng.integers(2, 4))
                my = int(rng.integers(2, 4))
                wx, wy = _random_masses(rng, mx, 1.0), _random_masses(rng, my, 1.0)
                yield f, g, wx, wy, _random_values(rng, g.domain, (mx, my))

    return _run_cases("probability-affine", tol, cases())
