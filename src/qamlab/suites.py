"""Seeded randomized commutation suites for the two admissibility settings.

Both suites draw random spaces and random simple functions, evaluate the
commutation residual for generator pairs that are known to commute, and
report the worst relative residual seen.  The proportional suite pairs
f = c*g over positive bijections on arbitrary finite masses; the affine
suite pairs f = a*g + b over real-valued injections on probability
spaces.  All randomness flows from one seed, so runs are reproducible.

Each (f, g) combination is one group.  Its space pairs are drawn in a
fixed order from one RNG stream, each pair's doubles in one block, and
put into the group's batch arrays, with every pair padded to 3 x 3
atoms by atoms of zero mass; the group is evaluated by one call of the
``mixed_means`` kernel.  The blocks keep the same stream, bit for bit,
as one RNG call per draw, and padding changes no bit: each case's sides
equal those of ``commutation_residual`` bit for bit, and a failing case
raises the same stage-tagged RangeError, that of the first failing case
in case order.  Rows are built in case order, each pair's masses
formatted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .generators import (ExpGenerator, Generator, IdentityGenerator, Interval, LogGenerator,
                         PowerGenerator, affine, scale)
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


# A value law ``(low, span, positive)`` maps a double u of ``Generator.random`` to
# ``low + span * u``, the bits of numpy's ``uniform(low, low + span)``, then to its
# exp when ``positive``.
_MASSES = (0.5, 1.5 - 0.5, False)    # raw atom masses, scaled to their total afterwards
_TOTALS = (0.2, 5.0 - 0.2, False)    # finite total masses, drawn again within 1e-3 of 1


def _value_law(domain: Interval) -> tuple[float, float, bool]:
    """The value law of the functions drawn on ``domain``, well inside it."""
    low, high, positive = domain.lower, domain.upper, False
    if math.isinf(low) and math.isinf(high):
        low, high = -2.0, 2.0
    elif low == 0.0 and math.isinf(high):
        low, high, positive = math.log(0.2), math.log(5.0), True
    else:
        low, high = low + 0.1 * (high - low), high - 0.1 * (high - low)
    return low, high - low, positive


def _apply(law: tuple[float, float, bool], u: np.ndarray) -> np.ndarray:
    """The draws of ``law`` from the doubles ``u``, computed in place."""
    low, span, positive = law
    u *= span
    u += low
    return np.exp(u, out=u) if positive else u


def _near_one(u: float) -> bool:
    """Whether the total mass drawn from the double ``u`` lands within 1e-3 of 1."""
    low, span, _ = _TOTALS
    return abs(low + span * u - 1.0) <= 1e-3


def _redraw_totals(rng: np.random.Generator, u: np.ndarray, mx: int) -> np.ndarray:
    """A finite pair's block without its totals within 1e-3 of 1, each replaced by the next double.

    The doubles the block then lacks at its end are drawn with one more call.
    """
    size = u.size
    for i in (0, mx + 1):    # the X total, then the Y total
        while True:
            if i >= u.size:
                u = np.append(u, rng.random(i + 1 - u.size))
            if not _near_one(u[i]):
                break
            u = np.delete(u, i)
    return np.append(u, rng.random(size - u.size))


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
    past them are 0.0, and ``_pad`` fills their values.  Each pair draws
    its two atom counts, then all its doubles in one block: per side a
    total mass when ``finite`` (1.0 otherwise) and the raw masses, then
    all h functions.  This is the same stream, bit for bit, as one RNG
    call per draw.  After the loop each kind of draw is cut from the
    stream with one mask and put in place with one more.  The raw masses
    are scaled to their totals with one row sum; a pad slot's 0.0 changes
    no sum, so every mass has the bits of the pair drawn alone.
    """
    shape = (len(domains), pairs)
    counts, blocks = [], []
    for _ in range(shape[0] * pairs):
        mx, my = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        counts.append((mx, my))
        u = rng.random(2 * finite + mx + my + h * mx * my)
        if finite and (_near_one(u.item(0)) or _near_one(u.item(mx + 1))):
            u = _redraw_totals(rng, u, mx)
        blocks.append(u)
    m, n = np.array(counts, dtype=int).reshape(*shape, 2).transpose(2, 0, 1)
    # a block's five runs: the X total, the X masses, the Y total, the Y masses, the values
    runs = np.stack([np.full(shape, int(finite)), m, np.full(shape, int(finite)), n, h * m * n], -1)
    kind = np.repeat(np.tile(np.arange(5), m.size), runs.ravel())
    stream = np.concatenate([np.empty(0), *blocks])

    atoms = np.arange(3)
    wx, wy = np.zeros((*shape, 3)), np.zeros((*shape, 3))
    for k, w, count in ((0, wx, m), (2, wy, n)):
        w[atoms < count[..., None]] = _apply(_MASSES, stream[kind == k + 1])
        total = _apply(_TOTALS, stream[kind == k]).reshape(shape) if finite else 1.0
        w *= (total / w.sum(axis=-1))[..., None]

    drawn = stream[kind == 4]
    ends = np.cumsum(runs[..., 4].sum(axis=1)).tolist()
    for domain, start, end in zip(domains, [0, *ends], ends):
        _apply(_value_law(domain), drawn[start:end])
    values = np.empty((*shape, h, 3, 3))
    real = (atoms < m[..., None])[..., None, :, None] & (atoms < n[..., None])[..., None, None, :]
    values[np.broadcast_to(real, values.shape)] = drawn
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
