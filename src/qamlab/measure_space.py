"""Finite discrete measure spaces and exact integration of simple functions.

A space is a finite list of atoms with strictly positive weights.  On such
spaces every real-valued function is simple, and its integral is the
weighted sum of its values, summed in fixed index order so residuals are
reproducible run to run.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

__all__ = ["DiscreteMeasureSpace", "ProductGrid"]


def _json_floats(value, name: str, nested: bool = False):
    """A document's number as a float; with ``nested``, its lists of numbers as lists of floats.

    Every document reader takes its numbers through here.  A number is a
    JSON int or float, not a bool, that fits a float; anything else, such
    as "2" or true, which ``float`` would take for a number, or an integer
    too large for a float, is a ValueError that names the field.
    """
    if nested and isinstance(value, list):
        return [_json_floats(v, name, True) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    what = "hold only JSON numbers" if nested else "be a JSON number"
    text = repr(value)
    text = text if len(text) <= 40 else f"{text[:36]} ..."
    raise ValueError(f"{name} must {what} within the float range, got {text}")


def _check_counts(least: int = 0, /, **counts) -> list[int]:
    """The counts as ints, in order; a bool, a non-integer or a count below ``least`` raises a ValueError."""
    checked = []
    for name, count in counts.items():
        try:
            value = operator.index(count)
        except TypeError:
            value = least - 1
        if value < least or isinstance(count, bool):
            what = "a non-negative count" if least == 0 else f"an integer of at least {least}"
            raise ValueError(f"{name} must be {what}, got {count}")
        checked.append(value)
    return checked


class DiscreteMeasureSpace:
    """A finite measure space given by positively weighted atoms.

    Parameters
    ----------
    weights : sequence of float
        Strictly positive mass of each atom.  Zero-weight atoms are
        rejected: they contribute nothing to integrals but would break the
        equivalence between "at least two atoms" and non-degeneracy.
    labels : sequence of str, optional
        Atom identifiers; defaults to "0", "1", ...

    All state is immutable after construction; instances are safe to share
    across threads.
    """

    __slots__ = ("_weights", "_labels")

    def __init__(self, weights: Sequence[float], labels: Sequence[str] | None = None):
        arr = np.array(weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atom weights must be finite")
        if np.any(arr <= 0.0):
            raise ValueError("every atom weight must be strictly positive")
        arr.setflags(write=False)
        self._weights = arr
        if labels is None:
            self._labels = tuple(str(i) for i in range(arr.size))
        else:
            self._labels = tuple(str(lab) for lab in labels)
            if len(self._labels) != arr.size:
                raise ValueError("labels and weights must have the same length")

    # -- basic accessors -----------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Read-only weight vector, in atom index order."""
        return self._weights

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return self._weights.size

    @property
    def total_mass(self) -> float:
        """Sum of all atom weights; finite and positive by construction."""
        return float(np.sum(self._weights))

    @property
    def is_non_degenerate(self) -> bool:
        """True iff some atom subset has mass strictly between 0 and the total.

        With all weights positive this holds exactly when there are at
        least two atoms.
        """
        return len(self) >= 2

    # -- integration -----------------------------------------------------------
    def integrate(self, values: Sequence[float]) -> float:
        """Integral of a simple function given by one value per atom.

        Summation is in fixed index order (numpy's deterministic pairwise
        reduction), so repeated runs produce identical floats.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(self),):
            raise ValueError(
                f"expected {len(self)} values (one per atom), got shape {vals.shape}"
            )
        return float(np.sum(self._weights * vals))

    # -- JSON ------------------------------------------------------------------
    @classmethod
    def from_json(cls, doc: dict) -> "DiscreteMeasureSpace":
        """Build from ``{"weights": [...], "labels": [...]}``; labels optional."""
        if not isinstance(doc, dict) or "weights" not in doc:
            raise ValueError("space document must be an object with a 'weights' key")
        labels = doc.get("labels")
        if labels is not None and not (isinstance(labels, list) and
                                       all(isinstance(lab, str) for lab in labels)):
            raise ValueError("labels must be a list of strings")
        return cls(_json_floats(doc["weights"], "weights", True), labels)

    def to_json(self) -> dict:
        return {"weights": self._weights.tolist(), "labels": list(self._labels)}

    def __repr__(self) -> str:
        return f"DiscreteMeasureSpace(weights={self._weights.tolist()})"


class ProductGrid:
    """The atom grid of a product of two discrete measure spaces.

    The product weight of atom (i, j) is ``weights_x[i] * weights_y[j]``;
    every subset of the grid is measurable.
    """

    __slots__ = ("_space_x", "_space_y")

    def __init__(self, space_x: DiscreteMeasureSpace, space_y: DiscreteMeasureSpace):
        self._space_x = space_x
        self._space_y = space_y

    @property
    def space_x(self) -> DiscreteMeasureSpace:
        return self._space_x

    @property
    def space_y(self) -> DiscreteMeasureSpace:
        return self._space_y

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._space_x), len(self._space_y))

    def weight_matrix(self) -> np.ndarray:
        return np.outer(self._space_x.weights, self._space_y.weights)

    def transposed(self) -> "ProductGrid":
        return ProductGrid(self._space_y, self._space_x)

    def __repr__(self) -> str:
        return f"ProductGrid(shape={self.shape})"
