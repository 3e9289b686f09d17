"""Independent reference for nested quasi-arithmetic means.

Plain ``math`` and ``math.fsum`` only; nothing here imports qamlab or
numpy, so the benchmark's correctness checks do not share code with the
program they check.

A generator is given by the same JSON document the ``qamlab`` command
reads (``{"family": "exp", "k": 2.0, "scale": 3.0}``, with an optional
``"affine": {"a": .., "b": ..}`` applied outermost).  For a simple
function ``h`` (rows = X atoms, columns = Y atoms) on masses ``wx``,
``wy``:

* ``mixed_means`` evaluates both partially mixed means directly;
* ``closed_form`` is ``g^{-1}(sum_ij wx_i wy_j g(h_ij))``, which both
  mixed means equal when f = c*g (any finite masses) and when
  f = a*g + b (unit total masses).
"""

from __future__ import annotations

import math
from collections.abc import Sequence


class OracleGenerator:
    """A scalar generator w with its inverse, built from a JSON document."""

    def __init__(self, doc: dict):
        family = doc["family"]
        if family == "exp":
            k = float(doc.get("k", 1.0))
            fwd, inv = (lambda x: math.exp(k * x)), (lambda y: math.log(y) / k)
        elif family == "power":
            p = float(doc["p"])
            fwd, inv = (lambda x: x**p), (lambda y: y ** (1.0 / p))
        elif family == "identity":
            fwd = inv = lambda x: x
        elif family == "log":
            fwd, inv = math.log, math.exp
        else:
            raise ValueError(f"oracle knows no generator family {family!r}")
        c = float(doc.get("scale", 1.0))
        aff = doc.get("affine", {"a": 1.0, "b": 0.0})
        a, b = c * float(aff["a"]), float(aff["b"])
        self._fwd = lambda x: a * fwd(x) + b
        self._inv = lambda y: inv((y - b) / a)

    def __call__(self, x: float) -> float:
        return self._fwd(x)

    def inverse(self, y: float) -> float:
        return self._inv(y)


def qam(gen: OracleGenerator, weights: Sequence[float], values: Sequence[float]) -> float:
    """w^{-1}(sum_i weights_i * w(values_i)), summed exactly with fsum."""
    return gen.inverse(math.fsum(w * gen(v) for w, v in zip(weights, values)))


def mixed_means(
    f: OracleGenerator,
    g: OracleGenerator,
    wx: Sequence[float],
    wy: Sequence[float],
    h: Sequence[Sequence[float]],
) -> tuple[float, float]:
    """(lhs, rhs): inner g-mean over Y then outer f-mean over X, and the mirror."""
    lhs = qam(f, wx, [qam(g, wy, row) for row in h])
    columns = [[row[j] for row in h] for j in range(len(wy))]
    rhs = qam(g, wy, [qam(f, wx, col) for col in columns])
    return lhs, rhs


def closed_form(
    g: OracleGenerator, wx: Sequence[float], wy: Sequence[float], h: Sequence[Sequence[float]]
) -> float:
    """g^{-1} of the integral of g(h) over the product measure."""
    return g.inverse(
        math.fsum(a * b * g(v) for a, row in zip(wx, h) for b, v in zip(wy, row))
    )


def rel_residual(lhs: float, rhs: float) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|), the package's relative convention."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def block_matrix(values: Sequence[float]) -> list[list[float]]:
    """The 2x2 matrix [[x, y], [z, w]] of a block witness's (x, y, z, w)."""
    x, y, z, w = values
    return [[x, y], [z, w]]
