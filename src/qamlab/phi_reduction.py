"""Scalar reduction of the commutation question and its diagnostics.

For a pair of positive bijections f, g the substitution phi = f o g^{-1}
turns two-space commutation into scalar functional equations on (0, inf).
Each step of that reduction is exposed here as a computable check:

* ``block_scenario_residual``: the commutation residual on a 2x2 block
  function, whose scalar form its docstring writes out.
* ``phi_equation_residual``: the same identity after the change of
  variables s = g(x), ..., a four-point equation in phi alone.
* ``big_phi`` and ``jensen_affinity_residual``: the two-weight operator
  Phi(x, y) = phi^{-1}(a1*phi(x) + a2*phi(y)) and its weighted-affinity
  identity.
* ``beta_homogeneity_residual`` / ``additivity_residual`` /
  ``scaled_cauchy_residual``: homogeneity, additivity, and the scaled
  additive equation that force phi to be linear for commuting pairs.
* ``phi_monotone_check`` / ``phi_origin_limit``: strict monotonicity of
  Phi in the product order (both monotone directions of phi) and the
  decay of Phi along the diagonal toward the origin.
* ``linear_form_fit`` / ``proportionality_extract``: decide numerically
  whether Phi is a linear form a*x + b*y, and whether phi(s)/s is a
  positive constant c, which is the commuting case f = c*g.

Phi is only ever evaluated at interior points of (0, inf)^2; behaviour at
the origin is probed through small arguments, never by extending the
domain.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .generators import POSITIVE_HALF_LINE, CodomainKind, Generator
from .measure_space import DiscreteMeasureSpace, ProductGrid, _check_counts
from .means import SimpleFunctionMatrix, commutation_residual
from .residuals import DEFAULT_ZERO_TOL, ResidualReport, _relative_residuals

__all__ = [
    "BlockScenario",
    "LinearFit",
    "phi_eval",
    "phi_inverse_eval",
    "big_phi",
    "block_scenario_residual",
    "phi_equation_residual",
    "jensen_affinity_residual",
    "beta_homogeneity_residual",
    "additivity_residual",
    "phi_monotone_check",
    "phi_origin_limit",
    "linear_form_fit",
    "scaled_cauchy_residual",
    "proportionality_extract",
    "default_fit_grid",
    "run_diagnostics",
]


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockScenario:
    """A 2x2 block test function: four masses and four values.

    alpha1/alpha2 are the masses of a two-atom X space, beta1/beta2 of a
    two-atom Y space; x, y, z, w are the function values on the four
    blocks (value x on block (1,1), y on (1,2), z on (2,1), w on (2,2)).
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    x: float
    y: float
    z: float
    w: float

    def __post_init__(self):
        # building the grid and the matrix validates the masses and the values
        self.to_grid_and_matrix()

    @property
    def masses(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)

    @property
    def block_values(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.w)

    def to_grid_and_matrix(self) -> tuple[ProductGrid, SimpleFunctionMatrix]:
        """The equivalent 2x2 product grid and value matrix."""
        grid = ProductGrid(
            DiscreteMeasureSpace([self.alpha1, self.alpha2]),
            DiscreteMeasureSpace([self.beta1, self.beta2]),
        )
        matrix = SimpleFunctionMatrix([[self.x, self.y], [self.z, self.w]])
        return grid, matrix


@dataclass(frozen=True)
class LinearFit:
    """An accepted linear form a*x + b*y for the two-weight operator."""

    a: float
    b: float
    max_fit_residual: float

    def __post_init__(self):
        if not (self.a + self.b > 0.0):
            raise ValueError("an accepted linear fit needs a + b > 0")


def _require_positive_pair(f: Generator, g: Generator) -> None:
    if (
        f.codomain_kind is not CodomainKind.POSITIVE_REALS
        or g.codomain_kind is not CodomainKind.POSITIVE_REALS
    ):
        raise ValueError(
            "this diagnostic needs generators that are bijections onto (0, inf); "
            f"got {f.describe()} and {g.describe()}"
        )


# ---------------------------------------------------------------------------
# phi and Phi
# ---------------------------------------------------------------------------

def phi_eval(f: Generator, g: Generator, s):
    """phi(s) = f(g^{-1}(s)) on (0, inf); strictly monotone."""
    _require_positive_pair(f, g)
    return f.eval(g.inverse(s))


def phi_inverse_eval(f: Generator, g: Generator, t):
    """phi^{-1}(t) = g(f^{-1}(t)); round-trips phi_eval to 1e-10."""
    _require_positive_pair(f, g)
    return g.eval(f.inverse(t))


def big_phi(f: Generator, g: Generator, alpha1: float, alpha2: float, x, y):
    """Phi(x, y) = phi^{-1}(alpha1*phi(x) + alpha2*phi(y)) on (0, inf)^2."""
    _check_positive(alpha1=alpha1, alpha2=alpha2)
    return phi_inverse_eval(f, g, alpha1 * phi_eval(f, g, x) + alpha2 * phi_eval(f, g, y))


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not POSITIVE_HALF_LINE.contains_all(value):
            raise ValueError(f"{name} must be positive and finite")


# ---------------------------------------------------------------------------
# Residual checks along the reduction
# ---------------------------------------------------------------------------

def block_scenario_residual(
    f: Generator, g: Generator, scenario: BlockScenario
) -> ResidualReport:
    """Commutation residual on a 2x2 block function, in scalar form.

    lhs = f^{-1}(a1 f(g^{-1}(b1 g(x) + b2 g(y))) + a2 f(g^{-1}(b1 g(z) + b2 g(w))))
    rhs = g^{-1}(b1 g(f^{-1}(a1 f(x) + a2 f(z))) + b2 g(f^{-1}(a1 f(y) + a2 f(w))))
    """
    return commutation_residual(f, g, *scenario.to_grid_and_matrix())


def phi_equation_residual(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
    s: float,
    t: float,
    u: float,
    v: float,
) -> ResidualReport:
    """The four-point scalar equation obtained by substituting s = g(x), ...

    lhs = phi^{-1}(a1 phi(b1 s + b2 t) + a2 phi(b1 u + b2 v))
    rhs = b1 phi^{-1}(a1 phi(s) + a2 phi(u)) + b2 phi^{-1}(a1 phi(t) + a2 phi(v))

    Applying g to both sides of the block identity gives exactly this, so
    the two residuals vanish together.  Both sides are those of the
    weighted affinity of Phi at xvec = (s, u), yvec = (t, v).
    """
    return jensen_affinity_residual(f, g, alpha1, alpha2, beta1, beta2, (s, u), (t, v))


def jensen_affinity_residual(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
    xvec: tuple[float, float],
    yvec: tuple[float, float],
) -> ResidualReport:
    """Weighted affinity of Phi: Phi(b1*x + b2*y) vs b1*Phi(x) + b2*Phi(y)."""
    _check_positive(beta1=beta1, beta2=beta2, xvec=xvec, yvec=yvec)
    x1, x2 = xvec
    y1, y2 = yvec
    lhs = big_phi(f, g, alpha1, alpha2, beta1 * x1 + beta2 * y1, beta1 * x2 + beta2 * y2)
    rhs = beta1 * big_phi(f, g, alpha1, alpha2, x1, x2) + beta2 * big_phi(
        f, g, alpha1, alpha2, y1, y2
    )
    return ResidualReport.from_sides(lhs, rhs)


def beta_homogeneity_residual(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    beta: float,
    xvec: tuple[float, float],
) -> ResidualReport:
    """Degree-one homogeneity: Phi(beta*x) vs beta*Phi(x)."""
    _check_positive(beta=beta, xvec=xvec)
    x1, x2 = xvec
    lhs = big_phi(f, g, alpha1, alpha2, beta * x1, beta * x2)
    rhs = beta * big_phi(f, g, alpha1, alpha2, x1, x2)
    return ResidualReport.from_sides(lhs, rhs)


def additivity_residual(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    xvec: tuple[float, float],
    yvec: tuple[float, float],
) -> ResidualReport:
    """Additivity: Phi(x + y) vs Phi(x) + Phi(y), the weighted affinity at unit weights.

    Caution: along a ray (yvec = xvec) homogeneity makes this vanish even
    for nonlinear phi; off-ray points are the discriminating ones.
    """
    # 1.0 * v == v for every float, so the sides are Phi(x + y) and Phi(x) + Phi(y) exactly
    return jensen_affinity_residual(f, g, alpha1, alpha2, 1.0, 1.0, xvec, yvec)


def phi_monotone_check(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    pairs: Sequence[tuple[tuple[float, float], tuple[float, float]]],
) -> bool:
    """Strict product-order monotonicity of Phi.

    Each entry is ((x, y), (z, w)) with x <= z, y <= w and the points
    distinct; returns True iff Phi(x, y) < Phi(z, w) for every entry.
    This holds whether phi is increasing or decreasing.
    """
    for (x, y), (z, w) in pairs:
        if not (x <= z and y <= w) or (x == z and y == w):
            raise ValueError(
                f"pair (({x}, {y}), ({z}, {w})) is not strictly ordered in the product order"
            )
        lo = big_phi(f, g, alpha1, alpha2, x, y)
        hi = big_phi(f, g, alpha1, alpha2, z, w)
        if not lo < hi:
            return False
    return True


def phi_origin_limit(
    f: Generator, g: Generator, alpha1: float, alpha2: float, n_max: int
) -> np.ndarray:
    """The diagonal sequence Phi(1/n, 1/n) for n = 1..n_max.

    Strictly decreasing, and decaying toward zero for admissible pairs;
    returned for inspection rather than asserted here.
    """
    (n_max,) = _check_counts(None, n_max=n_max)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    ns = np.arange(1, n_max + 1, dtype=float)
    return np.asarray(big_phi(f, g, alpha1, alpha2, 1.0 / ns, 1.0 / ns))


def default_fit_grid(
    lo: float = 0.1, hi: float = 10.0, points_per_axis: int = 9
) -> list[tuple[float, float]]:
    """Geometric grid over [lo, hi]^2 used by the linear-form fit; at least 2 points per axis."""
    (points_per_axis,) = _check_counts(2, points_per_axis=points_per_axis)
    axis = np.geomspace(lo, hi, points_per_axis)
    return [(float(x), float(y)) for x in axis for y in axis]


def linear_form_fit(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    sample_grid: Sequence[tuple[float, float]] | None = None,
    tol: float = DEFAULT_ZERO_TOL,
) -> LinearFit | None:
    """Least-squares fit Phi(x, y) ~ a*x + b*y, accepted only if it is exact.

    Returns the fit when the worst relative residual over the grid is at
    most tol and a, b >= 0 (Phi is positive, so a genuine linear form has
    nonnegative coefficients); otherwise None.  Fewer than 3 grid points,
    or a grid that does not determine the plane, is an input error.
    """
    if sample_grid is None:
        sample_grid = default_fit_grid()
    pts = np.asarray(sample_grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("sample grid must contain at least 3 (x, y) pairs")
    _check_positive(sample_grid=pts)
    vals = np.asarray(big_phi(f, g, alpha1, alpha2, pts[:, 0], pts[:, 1]))
    coef, _, rank, _ = np.linalg.lstsq(pts, vals, rcond=None)
    if rank < 2:
        raise ValueError("degenerate sample grid: points do not determine a linear form")
    a, b = float(coef[0]), float(coef[1])
    max_resid = float(np.max(_relative_residuals(vals, pts @ coef)))
    if max_resid <= tol and a >= 0.0 and b >= 0.0 and a + b > 0.0:
        return LinearFit(a=a, b=b, max_fit_residual=max_resid)
    return None


def scaled_cauchy_residual(
    f: Generator,
    g: Generator,
    alpha1: float,
    alpha2: float,
    a: float,
    b: float,
    x: float,
    y: float,
) -> ResidualReport:
    """alpha1*phi(x) + alpha2*phi(y) vs phi(a*x + b*y).

    With (a, b) the coefficients of a genuine linear form for Phi this is
    an identity; with any other (a, b) it fails for generic (x, y).
    """
    _check_positive(x=x, y=y)
    if a < 0.0 or b < 0.0 or not a + b > 0.0:
        raise ValueError("coefficients must satisfy a, b >= 0 and a + b > 0")
    lhs = alpha1 * phi_eval(f, g, x) + alpha2 * phi_eval(f, g, y)
    rhs = phi_eval(f, g, a * x + b * y)
    return ResidualReport.from_sides(lhs, rhs)


def proportionality_extract(
    f: Generator,
    g: Generator,
    sample_grid: Sequence[float] | None = None,
    tol: float = DEFAULT_ZERO_TOL,
) -> float | None:
    """Extract c > 0 with phi(s) = c*s, or None when phi is not linear.

    Two conditions are verified on the grid by the ``ResidualReport``
    rule: phi(s) = c*s, and phi is additive on consecutive sample pairs,
    phi(x + y) = phi(x) + phi(y).  Both hold exactly when f = c*g.
    """
    if sample_grid is None:
        sample_grid = np.geomspace(0.1, 10.0, 17)
    ss = np.asarray(sample_grid, dtype=float)
    _check_positive(sample_grid=ss)
    phi_vals = np.asarray(phi_eval(f, g, ss))
    ratios = phi_vals / ss
    c = float(np.median(ratios))
    if not POSITIVE_HALF_LINE.contains_all(c):
        return None
    # before the ratio test overwrites phi_vals
    parts = phi_vals[:-1] + phi_vals[1:]
    if not np.all(_relative_residuals(phi_vals, c * ss) <= tol):
        return None
    if not np.all(_relative_residuals(phi_eval(f, g, ss[:-1] + ss[1:]), parts) <= tol):
        return None
    return c


# ---------------------------------------------------------------------------
# Bundled diagnostics (one JSON-able row per check)
# ---------------------------------------------------------------------------

def run_diagnostics(
    f: Generator,
    g: Generator,
    alpha1: float = 1.0,
    alpha2: float = 1.0,
    beta1: float = 1.0,
    beta2: float = 1.0,
    tol: float = DEFAULT_ZERO_TOL,
) -> list[dict]:
    """Run every scalar-reduction check at fixed canonical inputs.

    Returns one row per check with the inputs echoed, both sides, the
    residuals, and a pass flag at the given tolerance.  Intended for the
    command-line ``phi`` report.
    """
    _require_positive_pair(f, g)
    rows: list[dict] = []

    def add(check: str, inputs: dict, ok, lhs=None, rhs=None, abs_residual=None,
            rel_residual=None) -> None:
        rows.append({"check": check, "inputs": inputs, "lhs": lhs, "rhs": rhs,
                     "abs_residual": abs_residual, "rel_residual": rel_residual,
                     "pass": bool(ok)})

    def add_report(check: str, inputs: dict, report: ResidualReport) -> None:
        add(check, inputs, report.passes(tol), **report.to_dict())

    masses = {"alpha1": alpha1, "alpha2": alpha2, "beta1": beta1, "beta2": beta2}
    pair_masses = {"alpha1": alpha1, "alpha2": alpha2}
    add_report("four_point_equation", {**masses, "s": 1.0, "t": 4.0, "u": 9.0, "v": 16.0},
               phi_equation_residual(f, g, alpha1, alpha2, beta1, beta2, 1.0, 4.0, 9.0, 16.0))
    xvec, yvec = (1.0, 9.0), (4.0, 16.0)
    add_report("weighted_affinity", {**masses, "xvec": list(xvec), "yvec": list(yvec)},
               jensen_affinity_residual(f, g, alpha1, alpha2, beta1, beta2, xvec, yvec))
    add_report("homogeneity", {**pair_masses, "beta": 0.5, "xvec": list(xvec)},
               beta_homogeneity_residual(f, g, alpha1, alpha2, 0.5, xvec))
    add_report("additivity", {**pair_masses, "xvec": [1.0, 4.0], "yvec": [4.0, 1.0]},
               additivity_residual(f, g, alpha1, alpha2, (1.0, 4.0), (4.0, 1.0)))
    fit = linear_form_fit(f, g, alpha1, alpha2, tol=tol)
    fit_sides = () if fit is None else (fit.a, fit.b, fit.max_fit_residual, fit.max_fit_residual)
    add("linear_form_fit", {**pair_masses, "grid": "geometric 9x9 on [0.1, 10]^2"},
        fit is not None, *fit_sides)
    ca, cb = (fit.a, fit.b) if fit is not None else (alpha1, alpha2)
    add_report("scaled_additive_equation", {**pair_masses, "a": ca, "b": cb, "x": 1.0, "y": 4.0},
               scaled_cauchy_residual(f, g, alpha1, alpha2, ca, cb, 1.0, 4.0))
    mono_pairs = [((0.5, 0.5), (1.0, 0.5)), ((1.0, 1.0), (1.0, 2.0)), ((2.0, 3.0), (5.0, 7.0))]
    add("product_order_monotonicity", {**pair_masses, "pairs": mono_pairs},
        phi_monotone_check(f, g, alpha1, alpha2, mono_pairs))
    seq = phi_origin_limit(f, g, alpha1, alpha2, 1000)
    add("origin_limit", {**pair_masses, "n_max": 1000},
        np.all(np.diff(seq) < 0.0) and seq[-1] < 0.5 * seq[0], float(seq[0]), float(seq[-1]))
    c = proportionality_extract(f, g, tol=tol)
    add("proportionality_extract", {"grid": "geometric 17 points on [0.1, 10]"},
        c is not None, c)
    return rows
