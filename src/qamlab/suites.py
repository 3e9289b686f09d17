"""Seeded randomized commutation suites for the two admissibility settings.

Both suites draw random spaces and random simple functions, evaluate the
commutation residual for generator pairs that are known to commute, and
report the worst relative residual seen.  The proportional suite pairs
f = c*g over positive bijections on arbitrary finite masses; the affine
suite pairs f = a*g + b over real-valued injections on probability
spaces.  All randomness flows from one seed, so runs are reproducible.

Each (f, g) combination is one group.  Its space pairs are drawn in a
fixed order from one stream, decoded from raw PCG64 output: the same
draws, bit for bit, as two ``integers(2, 4)`` calls and one ``random``
block per pair.  Each kind of draw is mapped with one array operation
and put into the group's batch arrays, with every pair padded to 3 x 3
atoms by atoms of zero mass.  Each suite declares its catalog once, in
``_catalog``: its groups in case order and one call of the ``mixed_means``
kernel per base generator g, over the groups whose f wraps g, their
wrappers' (a, b) stacked on the batch's leading axis: 6 calls for the
proportional suite and 4 for the affine suite.  Family parameters are
never stacked, since ``np.power`` with an array of exponents does not
give the bits of ``np.power`` with each scalar one.  Neither padding nor
stacking changes a bit: each case's sides equal those of
``commutation_residual`` bit for bit, and a failing case raises the same
stage-tagged RangeError, that of the first failing case in case order.
Rows are built in case order, each pair's masses formatted once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .generators import (AffineGenerator, ExpGenerator, Generator, IdentityGenerator, Interval,
                         LogGenerator, PowerGenerator, _Ranges, affine, scale)
from .means import _case_sides, mixed_means
from .measure_space import _check_counts
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

_CHUNK = 4096          # raw values read from the bit generator at a time
_ULP = 2.0 ** -53      # a raw value r gives the double (r >> 11) * _ULP, as ``random`` does

# the masses of a side of 2 or 3 atoms, the bytes of ";".join(f"{v:.6g}" for v in masses)
_TEXT = {2: "%.6g;%.6g", 3: "%.6g;%.6g;%.6g"}


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


def _apply(law: tuple, u: np.ndarray) -> np.ndarray:
    """The draws of ``law`` from the doubles ``u``, computed in place.

    The law's parts are scalars or arrays of ``u``'s length, one law per
    element; either way each element gets the same float operations.
    """
    low, span, positive = law
    u *= span
    u += low
    return np.exp(u, out=u, where=positive)


def _near_one(u: float) -> bool:
    """Whether the total mass drawn from the double ``u`` lands within 1e-3 of 1."""
    low, span, _ = _TOTALS
    return abs(low + span * u - 1.0) <= 1e-3


def _read_pairs(rng: np.random.Generator, pairs: int, h: int, finite: bool) -> tuple:
    """The atom counts and the doubles of ``pairs`` space pairs, decoded from raw PCG64 output.

    Returns a list of ``(m, n)`` and the pairs' doubles as one array: per
    pair a total mass when ``finite`` and the raw masses, per side, then
    all h functions.  These are the draws, bit for bit, of two
    ``rng.integers(2, 4)`` calls and then one ``rng.random`` block per
    pair, each finite total within 1e-3 of 1 replaced by the next double:

    - PCG64 serves 32-bit draws as the low, then the high half of one raw
      value, and numpy's bounded 32-bit draw on a range of two values is
      the draw's top bit, never rejected, so one raw r gives the counts
      ``2 + ((r & 0xFFFFFFFF) >> 31)`` and ``2 + (r >> 63)``;
    - each double is ``(r >> 11) * 2**-53`` of the next raw value.

    The loop reads raw values in ``_CHUNK`` blocks and keeps only stream
    positions; one mask then drops the count and skipped values, and one
    shift and multiply gives the doubles.  ``rng`` must be a fresh PCG64
    Generator, such as ``default_rng`` builds; its state afterwards is
    unspecified, since the last block reads past the last pair.
    """
    read = rng.bit_generator.random_raw
    chunks: list[np.ndarray] = []

    def raw(i: int) -> int:
        """Raw value i of the stream, reading blocks up to it."""
        while i >= _CHUNK * len(chunks):
            chunks.append(read(_CHUNK))
        return chunks[i // _CHUNK].item(i % _CHUNK)

    counts, dropped, pos = [], [], 0
    for _ in range(pairs):
        r = raw(pos)
        mx, my = 2 + ((r & 0xFFFFFFFF) >> 31), 2 + (r >> 63)
        counts.append((mx, my))
        dropped.append(pos)
        pos += 1
        for atoms in (mx, my):    # the X total and masses, then the Y's
            if finite:
                while _near_one((raw(pos) >> 11) * _ULP):
                    dropped.append(pos)
                    pos += 1
                pos += 1
            pos += atoms
        pos += h * mx * my
    if pos:
        raw(pos - 1)    # the last pair's doubles may run past the last value read
    keep = np.ones(pos, dtype=bool)
    keep[dropped] = False
    return counts, (np.concatenate([np.empty(0, np.uint64), *chunks])[:pos][keep] >> 11) * _ULP


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
    past them are 0.0, and ``_pad`` fills their values.  The counts and
    the doubles come from ``_read_pairs``, the same stream, bit for bit,
    as one RNG call per draw; ``rng``'s state afterwards is unspecified.
    Each kind of draw is cut from the stream with one mask, mapped
    through its laws with one array operation and put in place with one
    more mask.  The raw masses are scaled to their totals with one row
    sum; a pad slot's 0.0 changes no sum, so every mass has the bits of
    the pair drawn alone.
    """
    shape = (len(domains), pairs)
    counts, stream = _read_pairs(rng, shape[0] * pairs, h, finite)
    m, n = np.array(counts, dtype=int).reshape(*shape, 2).transpose(2, 0, 1)
    # a pair's five runs of doubles: the X total, the X masses, the Y total, the Y masses, the values
    runs = np.stack([np.full(shape, int(finite)), m, np.full(shape, int(finite)), n, h * m * n], -1)
    kind = np.repeat(np.tile(np.arange(5), m.size), runs.ravel())

    atoms = np.arange(3)
    wx, wy = np.zeros((*shape, 3)), np.zeros((*shape, 3))
    for k, w, count in ((0, wx, m), (2, wy, n)):
        w[atoms < count[..., None]] = _apply(_MASSES, stream[kind == k + 1])
        total = _apply(_TOTALS, stream[kind == k]).reshape(shape) if finite else 1.0
        w *= (total / w.sum(axis=-1))[..., None]

    # each group's value law, repeated over its values
    per_group = runs[..., 4].sum(axis=1)
    drawn = _apply([np.repeat(part, per_group) for part in zip(*map(_value_law, domains))],
                   stream[kind == 4])
    values = np.empty((*shape, h, 3, 3))
    real = (atoms < m[..., None])[..., None, :, None] & (atoms < n[..., None])[..., None, None, :]
    values[np.broadcast_to(real, values.shape)] = drawn
    _pad(values, m, n)
    return wx, wy, values, m, n


class _Stack:
    """The affine (or scale) wrappers of K groups over one base instance, as one generator.

    It has what ``mixed_means`` reads of a generator, ``domain``,
    ``codomain``, ``_eval_raw`` and ``_inverse_raw``, and applies wrapper k
    of ``wrappers`` to index k of the leading axis of every array it is
    passed: the kernel keeps that axis and reduces only the last one.
    Each element gets the float operations of its own wrapper, a * inner(x)
    + b and inner^-1((y - b) / a): subtracting b = +0.0 gives the bits of
    the subtraction the wrapper skips, and dividing by a power of two those
    of multiplying by its exact reciprocal.  The groups share the base's
    domain; their ranges, and with them the range test and the fallback's
    seeds, are per group unless all are one interval.
    """

    def __init__(self, wrappers: list[AffineGenerator]):
        self.inner = wrappers[0].inner
        self.a = np.array([w.a for w in wrappers])
        self.b = np.array([w.b for w in wrappers])
        self.domain = self.inner.domain
        ranges = [w.codomain for w in wrappers]
        self.codomain = ranges[0] if len(set(ranges)) == 1 else _Ranges(ranges)

    @staticmethod
    def _along(v: np.ndarray, x) -> np.ndarray:
        """The per-group ``v``, shaped to broadcast along x's leading axis."""
        return v.reshape((-1,) + (1,) * (np.ndim(x) - 1))

    def _eval_raw(self, x):
        return self._along(self.a, x) * self.inner._eval_raw(x) + self._along(self.b, x)

    def _inverse_raw(self, y, out=None):
        y = np.subtract(y, self._along(self.b, y), out=out)
        return self.inner._inverse_raw(np.divide(y, self._along(self.a, y), out=out), out)


@functools.cache
def _catalog(finite: bool) -> tuple[list, list]:
    """A suite's (f, g) groups in case order, and its ``mixed_means`` calls ``(stack, g, at)``.

    One call per base g: ``at`` is the slice of the groups whose f wraps
    g, and ``stack`` their wrappers as a ``_Stack``.  The proportional
    suite (``finite``) puts a base's three scales side by side; the affine
    suite's (a, b) is outermost, so a base's groups are every fourth.
    Built at the first suite call and kept, not at import, which would
    cost every importer that runs no suite.
    """
    if finite:
        bases = [ExpGenerator(-1.0), ExpGenerator(1.0), ExpGenerator(2.0),
                 PowerGenerator(-1.0), PowerGenerator(0.5), PowerGenerator(2.0)]
        gen_pairs = [(scale(g, c), g) for g in bases for c in (0.5, 2.0, 10.0)]
        at = [slice(3 * j, 3 * j + 3) for j in range(len(bases))]
    else:
        bases = [IdentityGenerator(), LogGenerator(), ExpGenerator(1.0), PowerGenerator(2.0)]
        gen_pairs = [(affine(g, a, b), g) for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0) for g in bases]
        at = [slice(j, None, len(bases)) for j in range(len(bases))]
    return gen_pairs, [(_Stack([f for f, _ in gen_pairs[at_j]]), g, at_j) for g, at_j in zip(bases, at)]


def _run_groups(name: str, tol: float, gen_pairs: list[tuple[Generator, Generator]], calls: list,
                wx, wy, values, m, n) -> SuiteResult:
    """One ``mixed_means`` call per entry of ``calls``, on the groups of ``_draw_groups``; rows in case order.

    ``gen_pairs[i]`` is the (f, g) of group i, and each ``(f, g, at)`` of
    ``calls`` evaluates the groups ``at``, a slice, with f a ``_Stack`` of
    their wrappers or the one group's own f; together the calls cover
    every group once.  Case order is group order, then space pair order,
    then function order within a space pair.  The suites' groups share
    one call per base (see ``_catalog``), not one each, since the kernel's
    cost is mostly fixed per call.  Each element of a stack gets the float
    operations of its own wrapper (see ``_Stack``), and evaluating a space
    pair with zero-mass pad atoms changes none of its sides by a bit:

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
    for f, g, at in calls:
        lhs[at], rhs[at] = mixed_means(f, g, wx[at, :, None, :], wy[at, :, None, :], values[at])
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
    # each space pair's names and mass texts, formatted once for its h cases
    keys = [(f_name, g_name, _TEXT[mx] % tuple(x[:mx]), _TEXT[my] % tuple(y[:my]))
            for (f_name, g_name), x_i, y_i, m_i, n_i
            in zip([(f.describe(), g.describe()) for f, g in gen_pairs],
                   wx.tolist(), wy.tolist(), m.tolist(), n.tolist())
            for x, y, mx, my in zip(x_i, y_i, m_i, n_i)]
    h = values.shape[2]
    result.rows = [
        {"suite": name, "case": case, "f": f_name, "g": g_name, "masses_x": text_x, "masses_y": text_y,
         "lhs": lhs_k, "rhs": rhs_k, "abs_residual": abs_k, "rel_residual": rel_k, "pass": rel_k <= tol}
        for case, ((f_name, g_name, text_x, text_y), lhs_k, rhs_k, abs_k, rel_k)
        in enumerate(zip([key for key in keys for _ in range(h)],
                         lhs.tolist(), rhs.tolist(), abs_res, rel.tolist()))
    ]
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
    pairs_per_combo, h_per_pair = _check_counts(pairs_per_combo=pairs_per_combo, h_per_pair=h_per_pair)
    gen_pairs, calls = _catalog(True)
    groups = _draw_groups(np.random.default_rng(seed), [g.domain for _, g in gen_pairs],
                          pairs_per_combo, h_per_pair, True)
    return _run_groups("finite-measure-proportional", tol, gen_pairs, calls, *groups)


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
    (trials,) = _check_counts(trials=trials)
    gen_pairs, calls = _catalog(False)
    per_combo = -(-trials // len(gen_pairs))  # ceil division
    # one function per space pair: its (1, m, n) draw takes the stream's (m, n) draw
    groups = _draw_groups(np.random.default_rng(seed), [g.domain for _, g in gen_pairs], per_combo, 1, False)
    return _run_groups("probability-affine", tol, gen_pairs, calls, *groups)
