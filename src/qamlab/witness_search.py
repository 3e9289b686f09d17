"""Exhaustive search for simple functions on which two means fail to commute.

For a non-proportional pair of positive bijections the mixed means must
disagree on some simple function; this module finds one constructively by
maximizing the commutation residual over a value grid.  The 2x2 block
family is searched first (it is the minimal sufficient test class), with
a full matrix search available for independent confirmation at small
shapes.

Both searches run one table evaluator.  Candidate k of an m x n search
holds the grid points of the base-p digits of k, row by row.  A row's
inner g-mean over Y depends on that row alone, so f of the inner mean of
every possible row is one table of p^n entries, and g of the inner f-mean
over X of every column one table of p^m; both come from the kernel's
``_masked_mean``, and each is multiplied by every row's (column's)
weight once per search.  A batch fixes the leading digits and spans the
cube of the trailing ones, at most ``BATCH_SIZE`` candidates.  Its lhs
is f^-1 of the sum of the weighted row tables over the rows, and its
rhs g^-1 of that of the weighted column tables over the columns, each a
broadcast of table slices.  When X or Y has one atom, the other side's
table would hold one entry per candidate, so each batch builds its own
part of it instead.  The sides equal ``mixed_means`` bit for bit only
because every weighted sum adds its terms in the order of ``np.sum``
(see ``_weighted_sum``).  The batches are split into one contiguous run
per worker, at most one per CPU, and the merge walks them in index
order keeping the smallest index of the largest residual, so the result
does not depend on the worker count.

Each worker allocates its batch buffers once, and the sums, the
generator inverses (``_inverse_raw(y, out)``) and the residuals write
into them: fresh batch-sized arrays let glibc trim the heap and fault it
in again between batches, which cost a block search about half of its
time on a 2-vCPU x86 host.  A chain of 3 to 7 terms adds its partial
sums at the shape of the digits they read.  A last term whose row or
column reads only trailing digits, as in the block and 2x3 searches, is
the same in every batch: it is laid out once per search at the batch's
shape, read-only and shared by the workers, and each batch copies its
partial sum into the buffer and adds that term contiguously, about half
the time of a broadcast add.  A batch is range-tested from
its tables: each weighted table keeps, per prefix of lead digits, its
NaN-propagating minimum and maximum over its trailing digits, and as
rounded addition is monotone and the tables read disjoint digits, their
sums in the same order are exactly the batch's least and greatest sum.
Every batch inverts through ``masked_inverse``, the kernel's rule that a
side outside a generator's range is NaN: it tests the two extremes in
place of the batch, or, for the per-batch table of a one-atom side,
which has none, the whole batch.  ``np.argmax`` returns the first NaN,
so only a batch whose best residual is NaN counts its skipped
candidates.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .generators import POSITIVE_HALF_LINE, REAL_LINE, Generator, _common_domain, masked_eval, masked_inverse
from .measure_space import DiscreteMeasureSpace, ProductGrid, _check_counts
from .means import SimpleFunctionMatrix, _masked_mean, commutation_residual, mixed_means
from .residuals import ResidualReport, _relative_residuals

__all__ = [
    "Spacing",
    "GridSpec",
    "Witness",
    "block_witness_search",
    "full_witness_search",
    "refine_witness",
    "MAX_FULL_SEARCH_EVALS",
    "DEFAULT_THRESHOLD",
]

MAX_FULL_SEARCH_EVALS = 10_000_000
#: Default relative residual above which a search reports a witness.
DEFAULT_THRESHOLD = 1e-4
# most candidates, or grid values of table rows, evaluated in one batch
BATCH_SIZE = 2**18

# half-width of a refinement bracket, relative to max(1, |value|)
_STEP_FRACTION = 0.25
# accept a refinement step only if it beats the incumbent by more than noise
_IMPROVEMENT_MARGIN = 1e-15
# points of a refinement scan, and scans per coordinate: each scan narrows
# the bracket to 2/48 of its width, so five leave 24**-5 = 1.3e-7 of it,
# as much as 33 golden-section steps would (0.618**33 = 1.3e-7)
_SCAN_POINTS = 49
_SCANS = 5


class Spacing(Enum):
    LINEAR = "linear"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class GridSpec:
    """A one-dimensional value grid for search coordinates; ``spacing`` a ``Spacing`` or its value."""

    points_per_axis: int
    value_range: tuple[float, float]
    spacing: Spacing = Spacing.GEOMETRIC

    def __post_init__(self):
        object.__setattr__(self, "spacing", Spacing(self.spacing))
        lo, hi = self.value_range
        _check_counts(2, points_per_axis=self.points_per_axis)
        if not (REAL_LINE.contains_all((lo, hi)) and lo < hi):
            raise ValueError("grid range must be a finite interval with lo < hi")
        if self.spacing is Spacing.GEOMETRIC and not lo > 0.0:
            raise ValueError("geometric spacing needs a strictly positive range")

    def points(self) -> np.ndarray:
        lo, hi = self.value_range
        if self.spacing is Spacing.GEOMETRIC:
            return np.geomspace(lo, hi, self.points_per_axis)
        return np.linspace(lo, hi, self.points_per_axis)


@dataclass(frozen=True)
class Witness:
    """A simple function on which the two mixed means disagree.

    ``kind`` is "block" (masses = (a1, a2, b1, b2), values = (x, y, z, w))
    or "matrix" (masses = (x-weights, y-weights), values = row tuples).
    """

    kind: str
    masses: tuple
    values: tuple
    report: ResidualReport
    skipped_points: int = 0

    def to_json_dict(self) -> dict:
        if self.kind == "block":
            masses = list(self.masses)
            values = list(self.values)
        else:
            masses = [list(self.masses[0]), list(self.masses[1])]
            values = [list(row) for row in self.values]
        return {
            "kind": self.kind,
            "masses": masses,
            "values": values,
            **self.report.to_dict(),
            "skipped_points": self.skipped_points,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# The table evaluator and the search loop shared by both searches
# ---------------------------------------------------------------------------

def _grid_points(grid, f: Generator, g: Generator) -> np.ndarray:
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("search grid must be a one-dimensional set of points")
    if not (f.domain.contains_all(pts) and g.domain.contains_all(pts)):
        raise ValueError("grid points must lie strictly inside both generator domains")
    return pts


def _tuple_means(outer: Generator, inner: Generator, weights: np.ndarray, pts: np.ndarray,
                 first: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """``outer`` of the ``inner``-mean of ``weights.size``-tuples of grid points.

    Tuple k is the ``_decode`` of index k; the flat result covers tuples
    ``first`` to ``first + out.size``, written into ``out``, or all of
    them in a new array.
    """
    table = np.empty(pts.size ** weights.size) if out is None else out
    step = max(1, BATCH_SIZE // weights.size)
    for start in range(0, table.size, step):
        values = _decode(first + np.arange(start, min(start + step, table.size)), pts,
                         (weights.size,))
        with np.errstate(all="ignore"):
            table[start:start + step] = masked_eval(outer, _masked_mean(inner, weights, values))
    return table


def _decode(indices, pts: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Value arrays of flat candidate indices: their base-``pts.size`` digits, in ``shape``."""
    radix = pts.size ** np.arange(math.prod(shape) - 1, -1, -1, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    return pts[(indices[..., None] // radix) % pts.size].reshape(indices.shape + shape)


def _weighted_sum(products: list, out: np.ndarray | None = None,
                  last: np.ndarray | None = None) -> np.ndarray:
    """The sum of two or more weighted terms, broadcast into ``out``, in the order of ``np.sum``.

    The branch is there for bit-identity with the kernel, not for speed.
    Over a contiguous last axis ``np.sum`` adds fewer than 8 terms one by
    one from 0.0, as the chain does when the first product already holds
    0.0 plus itself; from 8 on it adds pairwise, which only ``np.sum``
    over the stacked terms repeats (the first product's 0.0 cannot change
    that sum, which starts from 0.0 too).  The stack would be
    bit-identical at every length, but costs far more than the chain.
    The chain adds at the broadcast shape of the terms added so far, and
    only its last add writes ``out``: the terms of a search read disjoint
    digits, so all but the last span a fraction of the batch.  Without
    ``out`` the sum is a new array, as for a batch's bounds.  ``last``,
    the last term laid out at ``out``'s shape, turns that add into a
    broadcast copy of the partial sum into ``out`` and a contiguous add,
    about half the time of a broadcast add: each element still gets the
    one addition of its partial sum and its last term.
    """
    if len(products) >= 8:
        stack = np.empty(np.broadcast_shapes(*(p.shape for p in products)) + (len(products),))
        for i, product in enumerate(products):
            stack[..., i] = product
        return np.sum(stack, axis=-1, out=out)
    partial = products[0]
    for product in products[1:-1]:
        partial = np.add(partial, product)
    if last is None:
        return np.add(partial, products[-1], out=out)
    np.copyto(out, partial)
    return np.add(out, last, out=out)


def _table_sides(f: Generator, g: Generator, wx: np.ndarray, wy: np.ndarray, pts: np.ndarray):
    """Both means of every value matrix of shape (wx.size, wy.size) on the grid.

    Candidate k holds the grid points of the base-``pts.size`` digits of k,
    row by row.  Returns ``(sides, total, batch)``: ``sides(start, lhs,
    rhs)`` writes the lhs and rhs of the ``batch`` candidates from
    ``start`` into the two given flat arrays and returns them.
    """
    m, n, npts = wx.size, wy.size, pts.size
    # at least one leading digit, so that workers can share the batches,
    # except for 1x1, whose batches would be single candidates
    digits, lead = m * n, min(1, m * n - 1)
    while npts ** (digits - lead) > BATCH_SIZE:
        lead += 1
    batch = npts ** (digits - lead)
    cube = (npts,) * (digits - lead)

    def summed(outer, inner, w_outer, w_inner, groups):
        """A function that writes the ``w_outer``-weighted sum of the groups'
        (rows' or columns') entries over a batch into a flat buffer, and
        returns the least and the greatest of those sums, or None."""
        if w_inner.size == digits:
            # the other space has one atom, so the one group spans every digit
            # and its table would be as large as the search: build each
            # batch's part of it in the buffer
            def one_group(start, out):
                _tuple_means(outer, inner, w_inner, pts, start, out)
                np.add(0.0, np.multiply(w_outer[0], out, out=out), out=out)
            return one_group
        table = _tuple_means(outer, inner, w_inner, pts).reshape((npts,) * w_inner.size)
        # each group's table times its weight, once per search; the first
        # plus 0.0, where the sum's chain starts
        products = [w * table for w in w_outer]
        products[0] = 0.0 + products[0]
        # each product's minimum and maximum over its trailing digits, on a new
        # first axis, for each value of its lead digits (its first axes)
        extremes = [np.stack([ufunc.reduce(product, axis=tuple(
            a for a, q in enumerate(group) if q >= lead)) for ufunc in (np.minimum, np.maximum)])
            for product, group in zip(products, groups)]
        # each product's slice, broadcast over the batch's cube
        shapes = [[npts if q in group else 1 for q in range(lead, digits)] for group in groups]
        # a last group of trailing digits only gives every batch the same
        # last term: laid out once, read-only, for every worker's batches
        last = None
        if len(groups) < 8 and min(groups[-1]) >= lead:
            last = np.broadcast_to(products[-1].reshape(shapes[-1]), cube).copy()
            last.flags.writeable = False

        def lookup(start, out):
            prefix = np.unravel_index(start // batch, (npts,) * lead)
            keys = [tuple(prefix[q] for q in group if q < lead) for group in groups]
            _weighted_sum([product[key].reshape(shape) for product, key, shape in zip(products, keys, shapes)],
                          out.reshape(cube), last)
            return _weighted_sum([ext[(slice(None),) + key] for ext, key in zip(extremes, keys)])
        return lookup

    # f of the inner g-mean over Y of every row, g of the inner f-mean over
    # X of every column
    row_sum = summed(f, g, wx, wy, [range(i * n, (i + 1) * n) for i in range(m)])
    col_sum = summed(g, f, wy, wx, [range(j, digits, n) for j in range(n)])

    def sides(start: int, lhs: np.ndarray, rhs: np.ndarray):
        with np.errstate(all="ignore"):
            return (masked_inverse(f, lhs, lhs, row_sum(start, lhs)),
                    masked_inverse(g, rhs, rhs, col_sum(start, rhs)))

    return sides, npts**digits, batch


def _table_search(f, g, spaces, pts, threshold: float, workers: int) -> Witness | None:
    """The value matrix on the spaces with the largest relative residual, if above threshold.

    The winner is reported through ``commutation_residual``.
    """
    if not POSITIVE_HALF_LINE.contains_all(threshold):
        raise ValueError(f"threshold must be a finite positive real, got {threshold}")
    (workers,) = _check_counts(1, workers=workers)
    space_x, space_y = spaces
    sides, total, batch = _table_sides(f, g, space_x.weights, space_y.weights, pts)

    def chunk(starts: np.ndarray):
        # the worker's batch buffers, reused by each of its batches
        lhs, rhs, rel = np.empty(batch), np.empty(batch), np.empty(batch)
        skipped = np.empty(batch, dtype=bool)
        results = []
        for start in starts.tolist():
            _relative_residuals(*sides(start, lhs, rhs), rel)
            # np.argmax stops at the first NaN, so only a batch with a skipped
            # candidate looks for them; each gets -1, below every residual
            local, skip = int(np.argmax(rel)), 0
            if math.isnan(rel[local]):
                np.isnan(rel, out=skipped)
                skip = int(np.count_nonzero(skipped))
                np.copyto(rel, -1.0, where=skipped)
                local = int(np.argmax(rel))
            results.append((float(rel[local]), start + local, skip))
        return results

    # one contiguous run of batches per worker, at most one per CPU; this
    # thread runs the first, a pool the rest (a pool given none starts no thread)
    parts = [p for p in np.array_split(np.arange(0, total, batch),
                                       min(workers, os.cpu_count() or 1)) if p.size]
    with ThreadPoolExecutor(max_workers=max(1, len(parts) - 1)) as pool:
        rest = pool.map(chunk, parts[1:])
        results = [chunk(parts[0]), *rest]
    # batches in index order: a strict > keeps the smallest index of a tie
    best_val, best_idx, skipped = -math.inf, None, 0
    for val, idx, skip in itertools.chain.from_iterable(results):
        skipped += skip
        if val > best_val:
            best_val, best_idx = val, idx
    if not best_val > threshold:
        return None
    matrix = SimpleFunctionMatrix(_decode(best_idx, pts, (len(space_x), len(space_y))))
    return Witness(
        kind="matrix",
        masses=(tuple(float(w) for w in space_x.weights), tuple(float(w) for w in space_y.weights)),
        values=tuple(tuple(float(v) for v in row) for row in matrix.values),
        report=commutation_residual(f, g, ProductGrid(space_x, space_y), matrix),
        skipped_points=skipped,
    )


# ---------------------------------------------------------------------------
# Block search
# ---------------------------------------------------------------------------

def block_witness_search(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
    grid: GridSpec | Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
) -> Witness | None:
    """Exhaustively search 2x2 block functions over grid^4 of (x, y, z, w).

    Returns the lexicographically first scenario attaining the maximal
    relative residual if that maximum exceeds ``threshold``, else None.
    Grid points whose evaluation leaves a generator's domain or range are
    skipped and counted, not fatal.
    """
    # building the two spaces validates the masses
    spaces = (DiscreteMeasureSpace([alpha1, alpha2]), DiscreteMeasureSpace([beta1, beta2]))
    witness = _table_search(f, g, spaces, _grid_points(grid, f, g), threshold, workers)
    if witness is None:
        return None
    # the block layout: masses as passed, values (x, y, z, w) row by row
    return replace(witness, kind="block", masses=(alpha1, alpha2, beta1, beta2),
                   values=witness.values[0] + witness.values[1])


# ---------------------------------------------------------------------------
# Full matrix search
# ---------------------------------------------------------------------------

def full_witness_search(
    f: Generator,
    g: Generator,
    grid_shape: tuple[int, int],
    spaces: tuple[DiscreteMeasureSpace, DiscreteMeasureSpace],
    value_grid: GridSpec | Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
) -> Witness | None:
    """Exhaustively search value matrices of the given shape.

    Every matrix entry ranges over the value grid, so the search costs
    ``points ** (m*n)`` evaluations; anything beyond 1e7 is refused up
    front.  Tie-breaking and determinism match the block search.
    """
    m, n = grid_shape
    space_x, space_y = spaces
    if len(space_x) != m or len(space_y) != n:
        raise ValueError(f"spaces of sizes {(len(space_x), len(space_y))} do not match shape {(m, n)}")
    pts = _grid_points(value_grid, f, g)
    total = pts.size ** (m * n)
    if total > MAX_FULL_SEARCH_EVALS:
        raise ValueError(
            f"search budget exceeded: {pts.size}^{m * n} = {total} > {MAX_FULL_SEARCH_EVALS}"
        )
    return _table_search(f, g, spaces, pts, threshold, workers)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

def refine_witness(
    f: Generator,
    g: Generator,
    start: Witness,
    iterations: int,
) -> Witness:
    """Coordinate-wise ascent of the residual from a witness, by bracket scans.

    Each sweep maximizes the relative residual one coordinate at a time.
    The coordinate's bracket, clipped to the common domain, is scanned at
    ``_SCAN_POINTS`` evenly spaced points in one ``mixed_means`` call; the
    bracket then narrows to the two intervals around the first point of
    the largest residual and is scanned again, ``_SCANS`` times in all.
    A point where a side leaves a generator's domain or range counts as
    -inf.  The best point scanned replaces the coordinate only when it
    strictly improves, so the result never falls below the start; the
    result is reported through ``commutation_residual``.  Deterministic
    given its inputs; ``iterations``, the number of sweeps, is a
    non-negative integer, and 0 returns ``start``.
    """
    (iterations,) = _check_counts(iterations=iterations)
    if iterations == 0:
        return start

    # a block witness is a 2x2 matrix; ``kind`` only chooses the JSON layout
    if start.kind == "block":
        (wx, wy), shape = (start.masses[:2], start.masses[2:]), (2, 2)
    else:
        (wx, wy), shape = start.masses, (len(start.values), len(start.values[0]))
    grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
    wx, wy = grid.space_x.weights, grid.space_y.weights
    coords = np.array(start.values, dtype=float).ravel()
    common = _common_domain(f, g)
    best_rel = start.report.rel_residual
    improved = False

    for _ in range(iterations):
        for idx in range(coords.size):
            v = float(coords[idx])
            delta = _STEP_FRACTION * max(1.0, abs(v))
            lo, hi = v - delta, v + delta
            if math.isfinite(common.lower) and lo <= common.lower:
                lo = 0.5 * (v + common.lower)
            if math.isfinite(common.upper) and hi >= common.upper:
                hi = 0.5 * (v + common.upper)

            # scan the bracket, then the two intervals around the scan's
            # first point of the largest residual, keeping the best point
            batch = np.tile(coords, (_SCAN_POINTS, 1))
            cand_t, cand_val = v, -math.inf
            for _ in range(_SCANS):
                ts = np.linspace(lo, hi, _SCAN_POINTS)
                batch[:, idx] = ts
                lhs, rhs = mixed_means(f, g, wx, wy, batch.reshape(-1, *shape))
                rel = _relative_residuals(lhs, rhs)
                # a side left a generator's domain or range
                rel[np.isnan(rel)] = -math.inf
                k = int(np.argmax(rel))
                if rel[k] > cand_val:
                    cand_t, cand_val = float(ts[k]), float(rel[k])
                lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, _SCAN_POINTS - 1)]
            if cand_val > best_rel + _IMPROVEMENT_MARGIN + 1e-12 * best_rel:
                coords[idx] = cand_t
                best_rel = cand_val
                improved = True

    if not improved:
        return start
    values = tuple(coords.tolist()) if start.kind == "block" else \
        tuple(tuple(row) for row in coords.reshape(shape).tolist())
    report = commutation_residual(f, g, grid, SimpleFunctionMatrix(coords.reshape(shape)))
    return Witness(start.kind, start.masses, values, report, start.skipped_points)
