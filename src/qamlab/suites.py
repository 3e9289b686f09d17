"""Seeded randomized commutation suites for the two admissibility settings.

Both suites draw random spaces and random simple functions, evaluate the
commutation residual for generator pairs that are known to commute, and
report the worst relative residual seen.  The proportional suite pairs
f = c*g over positive bijections on arbitrary finite masses; the affine
suite pairs f = a*g + b over real-valued injections on probability
spaces.  All randomness flows from one seed, so runs are reproducible.

Each (f, g) combination is one group.  Its space pairs are drawn, one
pair at a time and in a fixed order from one RNG stream, straight into
the group's batch arrays, with every pair padded to 3 x 3 atoms by atoms
of zero mass, and the group is evaluated by one call of the
``mixed_means`` kernel.  Drawing into the batch changes no RNG call and
padding changes no bit: each case's sides equal those of
``commutation_residual`` bit for bit, and a failing case raises the same
stage-tagged RangeError, that of the first failing case in case order.
Rows are built in case order, each pair's masses formatted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

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


def _check_counts(**counts) -> None:
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"{name} must be a non-negative count, got {count}")


def _pad(values: np.ndarray, m: np.ndarray, n: np.ndarray) -> None:
    """Fill the pad atoms of ``values[..., h, 3, 3]`` in place; space pair ``...`` has m x n real atoms.

    A pad Y atom repeats its row's first column, then a pad X atom
    repeats the (padded) first row.
    """
    atoms = np.arange(values.shape[-1])
    np.copyto(values, values[..., :1], where=(atoms >= n[..., None])[..., None, None, :])
    np.copyto(values, values[..., :1, :], where=(atoms >= m[..., None])[..., None, :, None])


def _draw_groups(rng: np.random.Generator, domains: list[Interval],
                 pairs: int, h: int, finite: bool) -> tuple:
    """Draw ``pairs`` random space pairs of ``h`` functions per domain, straight into padded batches.

    Returns ``wx[G, P, 3]``, ``wy[G, P, 3]``, ``values[G, P, h, 3, 3]``,
    ``m[G, P]`` and ``n[G, P]``, group i drawn on ``domains[i]``: pair
    (i, p) has m[i, p] X and n[i, p] Y atoms, the masses of the atoms
    past them are 0.0, and ``_pad`` fills their values.  The RNG calls
    are those of drawing one pair at a time, in the same order: the two
    atom counts, then per side a total mass when ``finite`` (1.0
    otherwise) and the raw masses, then all h functions in one draw.  The
    raw masses are scaled to their totals with one row sum for all the
    groups; a pad slot's 0.0 changes no sum, so every mass has the bits
    of the pair drawn alone.
    """
    shape = (len(domains), pairs)
    m, n = np.empty(shape, dtype=int), np.empty(shape, dtype=int)
    wx, wy = np.zeros((*shape, 3)), np.zeros((*shape, 3))
    total_x, total_y = np.ones(shape), np.ones(shape)
    values = np.empty((*shape, h, 3, 3))
    for i, domain in enumerate(domains):
        for p in range(pairs):
            m[i, p] = mx = int(rng.integers(2, 4))
            n[i, p] = my = int(rng.integers(2, 4))
            if finite:
                total_x[i, p] = _random_total_mass(rng)
            wx[i, p, :mx] = rng.uniform(0.5, 1.5, mx)
            if finite:
                total_y[i, p] = _random_total_mass(rng)
            wy[i, p, :my] = rng.uniform(0.5, 1.5, my)
            values[i, p, :, :mx, :my] = _random_values(rng, domain, (h, mx, my))
    wx *= (total_x / wx.sum(axis=-1))[..., None]
    wy *= (total_y / wy.sum(axis=-1))[..., None]
    _pad(values, m, n)
    return wx, wy, values, m, n


def _run_groups(name: str, tol: float, gen_pairs: list[tuple[Generator, Generator]],
                wx, wy, values, m, n) -> SuiteResult:
    """One ``mixed_means`` call per generator pair, on its group of ``_draw_groups``; rows in case order.

    ``gen_pairs[i]`` is the (f, g) of group i.  Case order is group order,
    then space pair order, then function order within a space pair.
    Evaluating a space pair with zero-mass pad atoms changes none of its
    sides by a bit:

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
    failed; the first in case order raises its stage-tagged RangeError,
    computed on its own unpadded arrays.
    """
    lhs, rhs = np.empty(values.shape[:3]), np.empty(values.shape[:3])
    for i, (f, g) in enumerate(gen_pairs):
        lhs[i], rhs[i] = mixed_means(f, g, wx[i, :, None, :], wy[i, :, None, :], values[i])
    lhs, rhs = lhs.ravel(), rhs.ravel()
    failed = np.flatnonzero(np.isnan(lhs) | np.isnan(rhs))
    if failed.size:
        i, p, k = np.unravel_index(failed[0], values.shape[:3])
        mx, my = m[i, p], n[i, p]
        _case_sides(*gen_pairs[i], wx[i, p, :mx], wy[i, p, :my], values[i, p, k, :mx, :my])

    # the ``ResidualReport`` rule, on every case at once
    abs_res = np.abs(lhs - rhs).tolist()
    rel = _relative_residuals(lhs.copy(), rhs.copy())
    result = SuiteResult(name=name, tolerance=tol)
    # Python's max skips a NaN residual where np.max would return it
    result.max_rel_residual = float(np.fmax.reduce(rel, initial=0.0))
    cases = zip(lhs.tolist(), rhs.tolist(), abs_res, rel.tolist())
    for (f, g), wx_i, wy_i, m_i, n_i in zip(gen_pairs, wx.tolist(), wy.tolist(), m.tolist(), n.tolist()):
        f_name, g_name = f.describe(), g.describe()
        for wx_p, wy_p, m_p, n_p in zip(wx_i, wy_i, m_i, n_i):
            # the masses of a space pair, formatted once for its h cases
            text_x = ";".join([f"{v:.6g}" for v in wx_p[:m_p]])
            text_y = ";".join([f"{v:.6g}" for v in wy_p[:n_p]])
            for lhs_k, rhs_k, abs_k, rel_k in islice(cases, values.shape[2]):
                result.rows.append({
                    "suite": name, "case": len(result.rows), "f": f_name, "g": g_name,
                    "masses_x": text_x, "masses_y": text_y,
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
    _check_counts(pairs_per_combo=pairs_per_combo, h_per_pair=h_per_pair)
    rng = np.random.default_rng(seed)
    catalog: list[Generator] = [
        ExpGenerator(-1.0), ExpGenerator(1.0), ExpGenerator(2.0),
        PowerGenerator(-1.0), PowerGenerator(0.5), PowerGenerator(2.0),
    ]

    gen_pairs = [(scale(g, c), g) for g in catalog for c in (0.5, 2.0, 10.0)]
    groups = _draw_groups(rng, [g.domain for _, g in gen_pairs], pairs_per_combo, h_per_pair, True)
    return _run_groups("finite-measure-proportional", tol, gen_pairs, *groups)


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
    _check_counts(trials=trials)
    rng = np.random.default_rng(seed)
    bases: list[Generator] = [
        IdentityGenerator(), LogGenerator(), ExpGenerator(1.0), PowerGenerator(2.0),
    ]
    combos = [(a, b, g) for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0) for g in bases]
    per_combo = -(-trials // len(combos))  # ceil division

    gen_pairs = [(affine(g, a, b), g) for a, b, g in combos]
    # one function per space pair: its (1, m, n) draw takes the stream's (m, n) draw
    groups = _draw_groups(rng, [g.domain for _, g in gen_pairs], per_combo, 1, False)
    return _run_groups("probability-affine", tol, gen_pairs, *groups)
