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
``_masked_mean``.  A batch fixes the leading digits and spans the cube of
the trailing ones, at most ``BATCH_SIZE`` candidates.  Its lhs is f^-1
of the weighted sum of the row table over the rows, and its rhs g^-1 of
that of the column table over the columns, each a broadcast of table
slices.  When X or Y has one atom, the other side's table would hold one
entry per candidate, so each batch builds its own part of it instead.
The sides equal ``mixed_means`` bit for bit only because every weighted
sum adds its terms in the order of ``np.sum`` (see ``_weighted_sum``).
The batches are split into one contiguous run per worker, and the merge
walks them in index order keeping the smallest index of the largest
residual, so the result does not depend on the worker count.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .generators import Generator, masked_eval, masked_inverse
from .measure_space import DiscreteMeasureSpace, ProductGrid
from .means import SimpleFunctionMatrix, _masked_mean, commutation_residual, mixed_means
from .residuals import ResidualReport

__all__ = [
    "Spacing",
    "GridSpec",
    "Witness",
    "block_witness_search",
    "full_witness_search",
    "refine_witness",
    "MAX_FULL_SEARCH_EVALS",
]

MAX_FULL_SEARCH_EVALS = 10_000_000
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
    """A one-dimensional value grid for search coordinates."""

    points_per_axis: int
    value_range: tuple[float, float]
    spacing: Spacing = Spacing.GEOMETRIC

    def __post_init__(self):
        lo, hi = self.value_range
        if self.points_per_axis < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
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
            "lhs": self.report.lhs,
            "rhs": self.report.rhs,
            "abs_residual": self.report.abs_residual,
            "rel_residual": self.report.rel_residual,
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
                 first: int = 0, count: int | None = None) -> np.ndarray:
    """``outer`` of the ``inner``-mean of ``weights.size``-tuples of grid points.

    Tuple k holds the grid points of the base-``pts.size`` digits of k;
    the flat result covers tuples ``first`` to ``first + count``, by
    default all of them.
    """
    shape = (pts.size,) * weights.size
    table = np.empty(math.prod(shape) if count is None else count)
    step = max(1, BATCH_SIZE // weights.size)
    for start in range(0, table.size, step):
        digits = np.unravel_index(first + np.arange(start, min(start + step, table.size)), shape)
        with np.errstate(all="ignore"):
            means = _masked_mean(inner, weights, pts[np.stack(digits, axis=-1)])
            table[start:start + step] = masked_eval(outer, means)
    return table


def _weighted_sum(weights: np.ndarray, terms: list) -> np.ndarray:
    """``sum_k weights[k] * terms[k]``, broadcast, added in the order of ``np.sum``.

    The branch is there for bit-identity with the kernel, not for speed.
    Over a contiguous last axis ``np.sum`` adds fewer than 8 terms one by
    one from 0.0, as the chain does; from 8 on it adds pairwise, which
    only ``np.sum`` over the stacked terms repeats.  The stack would be
    bit-identical at every length, but costs far more than the chain.
    """
    products = [w * t for w, t in zip(weights, terms)]
    if len(products) >= 8:
        return np.sum(np.stack(np.broadcast_arrays(*products), axis=-1), axis=-1)
    total = 0.0
    for product in products:
        total = total + product
    return total


def _table_sides(f: Generator, g: Generator, wx: np.ndarray, wy: np.ndarray, pts: np.ndarray):
    """Both means of every value matrix of shape (wx.size, wy.size) on the grid.

    Candidate k holds the grid points of the base-``pts.size`` digits of k,
    row by row.  Returns ``(sides, total, batch)``: ``sides(start)`` gives
    the lhs and rhs of the ``batch`` candidates from ``start``.
    """
    m, n, npts = wx.size, wy.size, pts.size
    # at least one leading digit, so that workers can share the batches,
    # except for 1x1, whose batches would be single candidates
    digits, lead = m * n, min(1, m * n - 1)
    while npts ** (digits - lead) > BATCH_SIZE:
        lead += 1
    batch = npts ** (digits - lead)

    def terms(outer, inner, weights, groups):
        """The entry of each group (row or column) over the cube of a batch's trailing digits."""
        if weights.size == digits:
            # the other space has one atom, so the one group spans every digit
            # and its table would be as large as the search: build each
            # batch's part of it
            cube = (npts,) * (digits - lead)
            return lambda start: [_tuple_means(outer, inner, weights, pts, start, batch).reshape(cube)]
        table = _tuple_means(outer, inner, weights, pts).reshape((npts,) * weights.size)

        def lookup(start):
            prefix = np.unravel_index(start // batch, (npts,) * lead)
            return [table[tuple(prefix[q] for q in group if q < lead)].reshape(
                [npts if q in group else 1 for q in range(lead, digits)]) for group in groups]
        return lookup

    # f of the inner g-mean over Y of every row, g of the inner f-mean over
    # X of every column
    row_terms = terms(f, g, wy, [range(i * n, (i + 1) * n) for i in range(m)])
    col_terms = terms(g, f, wx, [range(j, digits, n) for j in range(n)])

    def sides(start: int):
        with np.errstate(all="ignore"):
            return (masked_inverse(f, _weighted_sum(wx, row_terms(start))),
                    masked_inverse(g, _weighted_sum(wy, col_terms(start))))

    return sides, npts**digits, batch


def _decode(indices, pts: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Value matrices of flat candidate indices: their base-``pts.size`` digits."""
    radix = pts.size ** np.arange(shape[0] * shape[1] - 1, -1, -1, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    return pts[(indices[..., None] // radix) % pts.size].reshape(indices.shape + shape)


def _relative_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The ``ResidualReport`` rel residual of each pair of sides; NaN where a side is not finite.

    Computed in place, overwriting ``lhs`` and ``rhs``: fresh batch-sized
    temporaries let glibc trim the heap and fault it in again between the
    batches of a search.
    """
    with np.errstate(invalid="ignore"):
        rel = np.subtract(lhs, rhs)
        np.abs(rel, out=rel)
        denom = np.abs(lhs, out=lhs)
        np.maximum(denom, np.abs(rhs, out=rhs), out=denom)
        np.maximum(denom, 1.0, out=denom)
        rel /= denom
    return rel


def _table_search(f, g, spaces, pts, threshold: float, workers: int) -> Witness | None:
    """The value matrix on the spaces with the largest relative residual, if above threshold.

    The winner is reported through ``commutation_residual``.
    """
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be a finite positive real, got {threshold}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    space_x, space_y = spaces
    sides, total, batch = _table_sides(f, g, space_x.weights, space_y.weights, pts)

    def best_in(start: int):
        rel = _relative_residuals(*(np.ravel(side) for side in sides(start)))
        # a skipped candidate gets -1, below every residual
        skipped = np.isnan(rel)
        np.copyto(rel, -1.0, where=skipped)
        local = int(np.argmax(rel))
        return float(rel[local]), start + local, int(np.count_nonzero(skipped))

    def chunk(starts: np.ndarray):
        return [best_in(int(start)) for start in starts]

    # one contiguous run of batches per worker; one run stays in this
    # thread, so that an interrupt stops it
    parts = [p for p in np.array_split(np.arange(0, total, batch), workers) if p.size]
    if len(parts) == 1:
        results = [chunk(parts[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            results = list(pool.map(chunk, parts))
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
    threshold: float = 1e-4,
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
    threshold: float = 1e-4,
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
    given its inputs.
    """
    if iterations <= 0:
        return start

    # a block witness is a 2x2 matrix; ``kind`` only chooses the JSON layout
    if start.kind == "block":
        (wx, wy), shape = (start.masses[:2], start.masses[2:]), (2, 2)
    else:
        (wx, wy), shape = start.masses, (len(start.values), len(start.values[0]))
    grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
    wx, wy = grid.space_x.weights, grid.space_y.weights
    coords = np.array(start.values, dtype=float).ravel()
    common = f.domain.intersection(g.domain)
    if common is None:
        raise ValueError("generators share no domain interval")
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
                lhs, _, rhs, _ = mixed_means(f, g, wx, wy, batch.reshape(-1, *shape))
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
