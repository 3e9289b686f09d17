"""Two-sided identity checks reported as residuals.

Every pass/fail verdict of the package is this module's rule: the relative
residual of two sides at most a tolerance, for one pair or for arrays of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_ZERO_TOL", "ResidualReport"]

#: Default relative residual below which an identity is considered to hold.
DEFAULT_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    """Left side, right side, and how far apart they are.

    The relative residual is normalised by ``max(1, |lhs|, |rhs|)`` so that
    it is meaningful both near zero and at large magnitudes.
    """

    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float

    @classmethod
    def from_sides(cls, lhs: float, rhs: float) -> "ResidualReport":
        lhs = float(lhs)
        rhs = float(rhs)
        abs_residual = abs(lhs - rhs)
        rel_residual = abs_residual / max(1.0, abs(lhs), abs(rhs))
        return cls(lhs=lhs, rhs=rhs, abs_residual=abs_residual, rel_residual=rel_residual)

    def passes(self, tol: float = DEFAULT_ZERO_TOL) -> bool:
        """True when the two sides agree to the given relative tolerance."""
        return self.rel_residual <= tol

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
        }


@np.errstate(invalid="ignore", over="ignore")
def _relative_residuals(lhs: np.ndarray, rhs: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """The ``ResidualReport`` rel residual of each pair of sides; NaN where a side is not finite.

    Computed in place, overwriting ``lhs`` and ``rhs``, into ``out`` when
    one is given, so that a search's batches allocate no temporaries.
    """
    rel = np.subtract(lhs, rhs, out=out)
    np.abs(rel, out=rel)
    denom = np.abs(lhs, out=lhs)
    np.maximum(denom, np.abs(rhs, out=rhs), out=denom)
    np.maximum(denom, 1.0, out=denom)
    rel /= denom
    return rel
