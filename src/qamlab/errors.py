"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["DomainError", "RangeError"]


class DomainError(ValueError):
    """An argument lies outside a generator's domain interval."""


class RangeError(ValueError):
    """A value lies outside a generator's range, so inversion is impossible.

    ``stage`` identifies where a nested mean evaluation failed
    ("inner-Y", "outer-X", "inner-X", "outer-Y") or is None for a
    direct inversion failure.
    """

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage
