"""Quasi-arithmetic integral means and the commutation residual.

The mean of a simple function h under generator w on a measure space is
``w^{-1}( integral of w(h) )``.  On a product of two spaces there are two
"partially mixed" operators: average over Y first with generator g, then
over X with generator f, or the other way round.  Whether the two agree
for every simple h is exactly the commutation question this package
studies; here both sides are evaluated and the disagreement reported.

Both sides come from one kernel, ``mixed_means``, which evaluates a batch
of simple functions H[..., m, n] at once: the lhs is the f-mean over X of
the g-means over Y, and the rhs is the same nested mean computed with
(g, f, wy, wx, H^T).  H^T is copied into a contiguous array, so every
integral sums a contiguous last axis in the order of
``DiscreteMeasureSpace.integrate`` and the kernel agrees bit for bit with
nested ``qam`` calls.  The randomized suites feed it whole batches with
masses per case, and the witness searches build their tables with its
``_masked_mean``; ``lhs_mixed_mean``, ``rhs_mixed_mean`` and
``commutation_residual`` are batches of one.  Both sides of a call run
under one ``np.errstate(all="ignore")``, so an overflow or an invalid
operation becomes the NaN of its side, never a RuntimeWarning.

Note that without unit total mass the mean is not internal: for weights
(1, 2) and exp, the constant function 0 has mean ln(3), not 0.  Outside
the settings where well-posedness is guaranteed (probability spaces for
real-valued generators; any finite measure for positive bijections) an
inner integral can leave the generator's range.  The kernel then gives
the case's side a NaN instead of a value, and the scalar entry points
raise a stage-tagged RangeError naming the stage and the atom, checked in
the order inner-Y, outer-X (the lhs), inner-X, outer-Y (the rhs).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import RangeError
from .generators import REAL_LINE, Generator, masked_eval, masked_inverse, scale
from .measure_space import DiscreteMeasureSpace, ProductGrid, _json_floats, _known_keys
from .residuals import ResidualReport

__all__ = [
    "SimpleFunctionMatrix",
    "qam",
    "mixed_means",
    "lhs_mixed_mean",
    "rhs_mixed_mean",
    "commutation_residual",
    "scale_invariance_residual",
]


class SimpleFunctionMatrix:
    """Values of a simple function on the atom grid of a product space.

    Rows index the atoms of X, columns the atoms of Y.  Values must be
    finite; membership in a generator's domain is checked where the matrix
    is consumed, since the matrix itself is generator-agnostic.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        try:
            arr = np.array(values, dtype=float)
        except ValueError:    # numpy's text for rows of different lengths names no field
            arr = None
        if arr is None or arr.ndim != 2 or arr.size == 0:
            raise ValueError("simple-function values must form a non-empty 2-D grid")
        if not REAL_LINE.contains_all(arr):
            raise ValueError("simple-function values must be finite")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def row(self, i: int) -> np.ndarray:
        return self._values[i, :]

    def column(self, j: int) -> np.ndarray:
        return self._values[:, j]

    def transposed(self) -> "SimpleFunctionMatrix":
        return SimpleFunctionMatrix(self._values.T)

    @classmethod
    def from_json(cls, doc: dict) -> "SimpleFunctionMatrix":
        """Build from ``{"values": [[...], ...]}`` (rows = X atoms)."""
        if not isinstance(doc, dict) or "values" not in doc:
            raise ValueError("h document must be an object with a 'values' key")
        _known_keys(doc, "h document", "values")
        return cls(_json_floats(doc["values"], "values", True))

    def to_json(self) -> dict:
        return {"values": self._values.tolist()}

    def __repr__(self) -> str:
        return f"SimpleFunctionMatrix(shape={self.shape})"


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------

def qam(gen: Generator, space: DiscreteMeasureSpace, values: Sequence[float]) -> float:
    """Quasi-arithmetic mean of per-atom values under the given generator.

    Raises DomainError if a value is outside the generator's domain and
    RangeError if the integral of the transformed values escapes the
    generator's range (possible for real-valued generators off unit mass).
    """
    transformed = gen.eval(values)
    integral = space.integrate(transformed)
    return gen.inverse(integral)


def _masked_mean(gen: Generator, weights, values: np.ndarray) -> np.ndarray:
    """Means over the last axis; NaN where a value or the integral leaves gen.

    Call it under ``np.errstate(all="ignore")``: the NaN stands for the warning.
    It sums with ``np.add.reduce``, which is what ``ndarray.sum`` calls.
    """
    return masked_inverse(gen, np.add.reduce(weights * masked_eval(gen, values), axis=-1))


def _nested_mean(outer: Generator, inner: Generator, w_outer, w_inner, values: np.ndarray):
    """Outer mean over axis -2 of the inner means over axis -1; NaN where either fails.

    Call it under ``np.errstate(all="ignore")``, like ``_masked_mean``.
    """
    return _masked_mean(outer, w_outer, _masked_mean(inner, w_inner[..., None, :], values))


def _transposed(values: np.ndarray) -> np.ndarray:
    # contiguous, so that every integral sums a contiguous last axis
    return np.ascontiguousarray(np.swapaxes(values, -1, -2))


@np.errstate(all="ignore")
def mixed_means(f: Generator, g: Generator, wx, wy, values):
    """Both partially mixed means of a batch of simple functions H[..., m, n].

    Returns ``(lhs, rhs)``, each of the batch shape ``H.shape[:-2]``.
    The lhs is the f-mean over X of the g-means over Y; the rhs is the same
    nested mean of ``(g, f, wy, wx, H^T)``.  A case whose value or integral
    leaves a generator's domain or range has NaN on that side; which stage
    failed is named only by the RangeError of ``lhs_mixed_mean`` and
    ``rhs_mixed_mean``.

    The weights ``wx[..., m]`` and ``wy[..., n]`` broadcast with
    ``H[..., m, n]``: 1-D weights are shared by the whole batch, and
    ``wx[B, m]``, ``wy[B, n]`` with ``H[B, m, n]`` give every case its own
    spaces.  Each case's sides equal those of ``commutation_residual`` on
    that case bit for bit.
    """
    wx, wy = np.asarray(wx, dtype=float), np.asarray(wy, dtype=float)
    values = np.ascontiguousarray(values, dtype=float)
    return _nested_mean(f, g, wx, wy, values), _nested_mean(g, f, wy, wx, _transposed(values))


# per side, the lhs then the rhs: (tag, message) of its inner and of its outer failure
_STAGES = ((("inner-Y", "inner mean over Y failed at X atom {}"), ("outer-X", "outer mean over X failed")),
           (("inner-X", "inner mean over X failed at Y atom {}"), ("outer-Y", "outer mean over Y failed")))


@np.errstate(all="ignore")
def _case_sides(f: Generator, g: Generator, wx, wy, values, sides=(0, 1)) -> list[float]:
    """The sides of one case H[m, n] named in ``sides`` (0 the lhs, 1 the rhs), as floats.

    Each is ``mixed_means``' nested mean of the case.  The first NaN side
    in ``sides`` computes its inner means again, to name its failed stage,
    and raises that stage's RangeError.
    """
    values = np.ascontiguousarray(values, dtype=float)
    means = []
    for side in sides:
        outer, inner, w_outer, w_inner, vals = (f, g, wx, wy, values) if side == 0 else \
            (g, f, wy, wx, _transposed(values))
        mean = float(_nested_mean(outer, inner, w_outer, w_inner, vals))
        if mean != mean:
            (inner_tag, inner_text), (outer_tag, outer_text) = _STAGES[side]
            mid = _masked_mean(inner, w_inner, vals)
            failed = np.flatnonzero(np.isnan(mid))
            if failed.size:
                atom = int(failed[0])
                gen, args, tag, text = inner, vals[atom], inner_tag, inner_text.format(atom)
            else:
                gen, args, tag, text = outer, mid, outer_tag, outer_text
            why = "value outside the range" if gen.domain.contains_all(args) else \
                "argument outside the domain"
            raise RangeError(f"{text}: {why} of {gen.describe()}", stage=tag)
        means.append(mean)
    return means


def _case(grid: ProductGrid, h: SimpleFunctionMatrix):
    """``(wx, wy, values)`` of one case, whose h must have the grid's shape."""
    if h.shape != grid.shape:
        raise ValueError(f"h has shape {h.shape}, grid expects {grid.shape}")
    return grid.space_x.weights, grid.space_y.weights, h.values


def lhs_mixed_mean(
    f: Generator, g: Generator, grid: ProductGrid, h: SimpleFunctionMatrix
) -> float:
    """Inner g-mean over Y per X atom, then outer f-mean over X."""
    return _case_sides(f, g, *_case(grid, h), (0,))[0]


def rhs_mixed_mean(
    f: Generator, g: Generator, grid: ProductGrid, h: SimpleFunctionMatrix
) -> float:
    """Inner f-mean over X per Y atom, then outer g-mean over Y."""
    return _case_sides(f, g, *_case(grid, h), (1,))[0]


def commutation_residual(
    f: Generator, g: Generator, grid: ProductGrid, h: SimpleFunctionMatrix
) -> ResidualReport:
    """Evaluate both partially mixed means and report their disagreement.

    A failure raises the stage-tagged RangeError of the lhs before the rhs.
    """
    return ResidualReport.from_sides(*_case_sides(f, g, *_case(grid, h)))


def scale_invariance_residual(
    gen: Generator,
    alpha: float,
    space: DiscreteMeasureSpace,
    values: Sequence[float],
) -> ResidualReport:
    """Compare the mean under ``gen`` with the mean under ``alpha * gen``.

    These agree identically for every positive alpha, on any finite
    measure space; the residual measures only floating-point noise.
    """
    lhs = qam(gen, space, values)
    rhs = qam(scale(gen, alpha), space, values)
    return ResidualReport.from_sides(lhs, rhs)
