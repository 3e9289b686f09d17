"""Exhaustive search for simple functions on which two means fail to commute.

For a non-proportional pair of positive bijections the mixed means must
disagree on some simple function; this module finds one constructively by
maximizing the commutation residual over a value grid.  The 2x2 block
family is searched first (it is the minimal sufficient test class), with
a full matrix search available for independent confirmation at small
shapes.

Both searches run one loop: the flat candidate range is cut into batches
(one x value of the block search, up to ``BATCH_SIZE`` matrices of the
full search), the batches are partitioned across workers, each batch
reports its maximum together with the smallest flat index attaining it,
and the merge walks the batches in index order keeping the first global
maximum, so the result is independent of the schedule and of the worker
count.  The full search evaluates each batch with the ``mixed_means``
kernel; the block search factors the kernel through the inner means of
every value pair, computed once, so no array it builds exceeds n^3.
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

from .errors import DomainError, RangeError
from .generators import Generator, masked_eval, masked_inverse
from .measure_space import DiscreteMeasureSpace, ProductGrid
from .means import SimpleFunctionMatrix, commutation_residual, mixed_means
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
# candidates per batch of the full matrix search
BATCH_SIZE = 65536

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# half-width of a refinement bracket, relative to max(1, |value|)
_STEP_FRACTION = 0.25
# accept a refinement step only if it beats the incumbent by more than noise
_IMPROVEMENT_MARGIN = 1e-15


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
# The search loop shared by both searches
# ---------------------------------------------------------------------------

def _grid_points(grid, f: Generator, g: Generator) -> np.ndarray:
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("search grid must be a one-dimensional set of points")
    if not (f.domain.contains_all(pts) and g.domain.contains_all(pts)):
        raise ValueError("grid points must lie strictly inside both generator domains")
    return pts


def _rel_residuals(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Relative residuals with invalid entries set to -1; returns skip count."""
    valid = np.isfinite(lhs) & np.isfinite(rhs)
    skipped = int(lhs.size - np.count_nonzero(valid))
    denom = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    with np.errstate(invalid="ignore"):
        rel = np.abs(lhs - rhs) / denom
    return np.where(valid, rel, -1.0), skipped


def _search(sides, total: int, batch: int, threshold: float, workers: int):
    """Flat index of the candidate with the largest relative residual, and skips.

    ``sides(start, stop)`` returns both means of candidates start..stop-1.
    The batches of ``batch`` candidates are split into one contiguous run
    per worker; the index is None unless the maximum exceeds ``threshold``.
    """
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be a finite positive real, got {threshold}")

    def best_in(start: int):
        lhs, rhs = sides(start, min(start + batch, total))
        rel, skipped = _rel_residuals(lhs.ravel(), rhs.ravel())
        local = int(np.argmax(rel))
        return float(rel[local]), start + local, skipped

    def chunk(starts: np.ndarray):
        return [best_in(int(start)) for start in starts]

    parts = [p for p in np.array_split(np.arange(0, total, batch), max(1, workers)) if p.size]
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
    return (best_idx if best_val > threshold else None), skipped


def _decode(indices, pts: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Value matrices of flat candidate indices: their base-``pts.size`` digits."""
    radix = pts.size ** np.arange(shape[0] * shape[1] - 1, -1, -1, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    return pts[(indices[..., None] // radix) % pts.size].reshape(indices.shape + shape)


def _matrix_witness(f, g, spaces, pts, best_idx, skipped) -> Witness | None:
    """The candidate at ``best_idx``, reported through ``commutation_residual``."""
    if best_idx is None:
        return None
    space_x, space_y = spaces
    matrix = SimpleFunctionMatrix(_decode(best_idx, pts, (len(space_x), len(space_y))))
    report = commutation_residual(f, g, ProductGrid(space_x, space_y), matrix)
    return Witness(
        kind="matrix",
        masses=(tuple(float(w) for w in space_x.weights), tuple(float(w) for w in space_y.weights)),
        values=tuple(tuple(float(v) for v in row) for row in matrix.values),
        report=report,
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
    pts = _grid_points(grid, f, g)
    npts = pts.size

    with np.errstate(all="ignore"):
        gv, fv = masked_eval(g, pts), masked_eval(f, pts)
        # f of the inner Y-mean (i, j) and g of the inner X-mean (i, k) of
        # every value pair, computed once
        f_inner_y = masked_eval(f, masked_inverse(g, beta1 * gv[:, None] + beta2 * gv[None, :]))
        g_inner_x = masked_eval(g, masked_inverse(f, alpha1 * fv[:, None] + alpha2 * fv[None, :]))

    def sides(start: int, stop: int):
        # one batch is one x: the (y, z, w) cube of candidates
        x = start // npts**3
        with np.errstate(all="ignore"):
            lhs = masked_inverse(
                f, alpha1 * f_inner_y[x, :, None, None] + alpha2 * f_inner_y[None, :, :])
            rhs = masked_inverse(
                g, beta1 * g_inner_x[x, None, :, None] + beta2 * g_inner_x[:, None, :])
        return lhs, rhs

    best_idx, skipped = _search(sides, npts**4, npts**3, threshold, workers)
    witness = _matrix_witness(f, g, spaces, pts, best_idx, skipped)
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
    wx, wy = space_x.weights, space_y.weights

    def sides(start: int, stop: int):
        lhs, _, rhs, _ = mixed_means(f, g, wx, wy, _decode(np.arange(start, stop), pts, (m, n)))
        return lhs, rhs

    # small enough that every worker gets a batch
    batch = min(BATCH_SIZE, -(-total // max(1, workers)))
    best_idx, skipped = _search(sides, total, batch, threshold, workers)
    return _matrix_witness(f, g, spaces, pts, best_idx, skipped)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

def refine_witness(
    f: Generator,
    g: Generator,
    start: Witness,
    iterations: int,
) -> Witness:
    """Coordinate-wise golden-section ascent of the residual from a witness.

    Each sweep maximizes the relative residual one coordinate at a time
    over a local bracket clipped to the common domain; a move is kept only
    when it strictly improves, so the result never falls below the start.
    Deterministic given its inputs.
    """
    if iterations <= 0:
        return start

    # a block witness is a 2x2 matrix; ``kind`` only chooses the JSON layout
    if start.kind == "block":
        (wx, wy), shape = (start.masses[:2], start.masses[2:]), (2, 2)
    else:
        (wx, wy), shape = start.masses, (len(start.values), len(start.values[0]))
    coords = [float(v) for v in np.ravel(start.values)]
    grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))

    def report_at(vals: list[float]) -> ResidualReport:
        return commutation_residual(f, g, grid, SimpleFunctionMatrix(np.reshape(vals, shape)))

    def rel_at(vals: list[float]) -> float:
        try:
            return report_at(vals).rel_residual
        except (RangeError, DomainError, ValueError):
            return -math.inf

    common = f.domain.intersection(g.domain)
    if common is None:
        raise ValueError("generators share no domain interval")
    best_rel = start.report.rel_residual
    improved = False

    for _ in range(iterations):
        for idx in range(len(coords)):
            v = coords[idx]
            delta = _STEP_FRACTION * max(1.0, abs(v))
            lo, hi = v - delta, v + delta
            if math.isfinite(common.lower) and lo <= common.lower:
                lo = 0.5 * (v + common.lower)
            if math.isfinite(common.upper) and hi >= common.upper:
                hi = 0.5 * (v + common.upper)

            def at(t: float) -> float:
                coords[idx] = t
                val = rel_at(coords)
                coords[idx] = v
                return val

            # golden-section shrink, keeping the best point actually evaluated
            a, b = lo, hi
            c = b - _GOLDEN * (b - a)
            d = a + _GOLDEN * (b - a)
            fc, fd = at(c), at(d)
            cand_t, cand_val = (c, fc) if fc >= fd else (d, fd)
            for _ in range(32):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - _GOLDEN * (b - a)
                    fc = at(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + _GOLDEN * (b - a)
                    fd = at(d)
                t, val = (c, fc) if fc >= fd else (d, fd)
                if val > cand_val:
                    cand_t, cand_val = t, val
            if cand_val > best_rel + _IMPROVEMENT_MARGIN + 1e-12 * best_rel:
                coords[idx] = cand_t
                best_rel = cand_val
                improved = True

    if not improved:
        return start
    values = tuple(coords) if start.kind == "block" else \
        tuple(tuple(row) for row in np.reshape(coords, shape).tolist())
    return Witness(start.kind, start.masses, values, report_at(coords), start.skipped_points)
