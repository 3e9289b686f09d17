"""Two-sided identity checks reported as residuals."""

from __future__ import annotations

from dataclasses import dataclass

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
