"""Strictly monotone generator functions and their equivalence relations.

A generator is a continuous, strictly monotone real function on an
interval, together with an inverse.  The catalog covers both settings in
which the partially mixed means commute:

* ``PROBABILITY``: any continuous injection into the reals is admissible
  (means are well posed on probability spaces); the commuting pairs are
  the affine-equivalent ones, f = a*g + b with a != 0.
* ``FINITE_MEASURE``: admissible generators are continuous bijections of
  an open interval onto (0, inf); the commuting pairs are the
  proportional ones, f = c*g with c > 0.

Families: ``ExpGenerator(k)`` (x -> exp(k x) on R), ``PowerGenerator(p)``
(x -> x**p on (0, inf)), ``IdentityGenerator`` and ``LogGenerator``
(real-valued, not onto (0, inf)), plus ``scale`` and ``affine`` wrappers.
Exponents/powers of either sign give both monotone directions.

Evaluation and inversion accept scalars or numpy arrays.  Families with a
closed-form inverse use it; anything else falls back to the bracketed
regula falsi of ``_bisect_inverse``, which keeps its bracket walk on the
generator: a generator's ``domain``, ``codomain`` and ``_eval_raw`` must
not change after its first inversion.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RangeError
from .measure_space import _json_floats
from .residuals import DEFAULT_ZERO_TOL, _relative_residuals

__all__ = [
    "Interval",
    "CodomainKind",
    "MeanSetting",
    "Generator",
    "ExpGenerator",
    "PowerGenerator",
    "IdentityGenerator",
    "LogGenerator",
    "ScaledGenerator",
    "AffineGenerator",
    "scale",
    "affine",
    "validate_for_setting",
    "is_proportional",
    "is_affine_equivalent",
    "generator_from_json",
]

_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-12
# how far inside the bracket a regula falsi step is moved, relative to max(1, |t|)
_NUDGE = 0.4 * _BISECT_REL_TOL
# arrays of at least this many elements are inverted in one masked loop;
# below it the loop's fixed cost per call (about 0.1 ms for exp(kx) targets
# on a 2-vCPU x86 host) exceeds the per-element routine's (about 2-3 us an
# element once the generator's brackets are walked): the two cross at 44-56
# elements for exp(kx) at rates -2 to 2, above 64 for logit and x + e^x
_BISECT_ARRAY_MIN = 48
# arrays of at most this many elements are range-tested on their Python
# floats; above it two reductions are cheaper (about 2.5 us; the two cross
# between 48 and 64 elements of a float array on a 2-vCPU x86 host)
_RANGE_LIST_MAX = 32
# points of the sample grid on which the admissibility and equivalence checks run
_SAMPLE_COUNT = 17


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A real interval with endpoint openness flags.

    Infinite endpoints must be open.  ``contains`` works elementwise on
    arrays; ``contains_all`` is ``contains(x).all()`` without the mask;
    ``sample_points`` returns a fixed deterministic grid spread across the
    interior, geometric toward infinite endpoints, used by the sampled
    equivalence checks.
    """

    lower: float
    upper: float
    lower_open: bool = True
    upper_open: bool = True

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"interval needs lower < upper, got [{self.lower}, {self.upper}]")
        if math.isinf(self.lower) and not self.lower_open:
            raise ValueError("an infinite lower endpoint must be open")
        if math.isinf(self.upper) and not self.upper_open:
            raise ValueError("an infinite upper endpoint must be open")

    @property
    def is_open(self) -> bool:
        return self.lower_open and self.upper_open

    def contains(self, x) -> np.ndarray | bool:
        # infinite ends are open, so the two comparisons reject NaN and +-inf
        x = np.asarray(x, dtype=float)
        ok = (x > self.lower) if self.lower_open else (x >= self.lower)
        ok &= (x < self.upper) if self.upper_open else (x <= self.upper)
        return bool(ok) if ok.ndim == 0 else ok

    def contains_all(self, x) -> bool:
        """Whether every element of x is inside; True for an empty x.

        Arrays of at most ``_RANGE_LIST_MAX`` elements, empty ones too, are
        tested element by element as Python floats; larger ones by their
        NaN-propagating minimum and maximum, which are both inside exactly
        when every element is.
        """
        x = np.asarray(x, dtype=float)
        if x.size <= _RANGE_LIST_MAX:
            vals = x.ravel().tolist()
        else:
            vals = np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)
        lo, hi, lo_open, hi_open = self.lower, self.upper, self.lower_open, self.upper_open
        for v in vals:
            if not ((v > lo if lo_open else v >= lo) and (v < hi if hi_open else v <= hi)):
                return False
        return True

    def intersection(self, other: "Interval") -> "Interval | None":
        if self.lower > other.lower or (self.lower == other.lower and self.lower_open):
            lo, lo_open = self.lower, self.lower_open
        else:
            lo, lo_open = other.lower, other.lower_open
        if self.upper < other.upper or (self.upper == other.upper and self.upper_open):
            hi, hi_open = self.upper, self.upper_open
        else:
            hi, hi_open = other.upper, other.upper_open
        if not lo < hi:
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def sample_points(self, n: int = _SAMPLE_COUNT) -> np.ndarray:
        """Deterministic interior sample grid with n points."""
        if n < 2:
            raise ValueError("need at least 2 sample points")
        lo_inf = math.isinf(self.lower)
        hi_inf = math.isinf(self.upper)
        if not lo_inf and not hi_inf:
            margin = 0.02 * (self.upper - self.lower)
            return np.linspace(self.lower + margin, self.upper - margin, n)
        if lo_inf and hi_inf:
            # symmetric spread over roughly [-5.8, 5.8], denser near 0
            return np.tan(np.linspace(-1.4, 1.4, n))
        if not lo_inf:
            scale_ = max(1.0, abs(self.lower))
            return self.lower + scale_ * np.geomspace(0.1, 10.0, n)
        scale_ = max(1.0, abs(self.upper))
        return self.upper - scale_ * np.geomspace(0.1, 10.0, n)[::-1]


REAL_LINE = Interval(-math.inf, math.inf)
POSITIVE_HALF_LINE = Interval(0.0, math.inf)


class CodomainKind(Enum):
    """Classification of a generator's range."""

    ALL_REALS = "all_reals"          # maps into R (not necessarily onto)
    POSITIVE_REALS = "positive_reals"  # bijection onto (0, inf)


class MeanSetting(Enum):
    """The two hypotheses under which mixed-mean commutation is studied."""

    PROBABILITY = "probability"
    FINITE_MEASURE = "finite_measure"


# ---------------------------------------------------------------------------
# Generator base class
# ---------------------------------------------------------------------------

class Generator(ABC):
    """A strictly monotone continuous function with a computable inverse.

    Subclasses set ``domain``, ``codomain`` (the exact range interval) and
    ``increasing``, on the class or the instance, and implement
    ``_eval_raw``, ``describe`` and ``to_json``; catalog families inherit
    the last two from ``_Family``.  ``_inverse_raw`` defaults to the
    bracketed regula falsi of ``_bisect_inverse``; subclasses override it
    when a closed form exists.  The default keeps its bracket walk on the
    generator, so ``domain``, ``codomain`` and ``_eval_raw`` must not
    change after the first inversion.  It needs ``_eval_raw`` to act
    elementwise and to give a 0-d input the same bits as the same element
    of an array, so that its array and per-element paths agree bit for
    bit: numpy ufunc calls such as ``np.exp(k * x)`` or ``np.power(x,
    3.0)`` do, the ``**`` operator does not (``x**3`` differs between 0-d
    and array input in the last bit on a few percent of values).

    ``_inverse_raw(y, out)`` writes its result into the float array
    ``out`` when one is given, and returns it; ``out`` may be ``y``
    itself.  Pass ``out`` positionally: wrappers of ``_inverse_raw``,
    such as the benchmark's tracer, forward only positional arguments.
    A closed form sends its last ufunc to ``out``, so that a search
    reuses its batch buffers instead of allocating fresh ones; the
    bisection default copies its result in.
    """

    domain: Interval
    codomain: Interval
    increasing: bool
    # the default inverse's bracket walk, kept by ``_walk`` from the first inversion on
    _walk_cache: tuple | None = None

    # -- public, validating API -------------------------------------------
    def eval(self, x):
        """Evaluate at a scalar or array; every element must be in the domain."""
        arr = np.asarray(x, dtype=float)
        if not self.domain.contains_all(arr):
            raise DomainError(f"argument outside the domain of {self.describe()}")
        out = self._eval_raw(arr)
        return float(out) if arr.ndim == 0 else out

    __call__ = eval

    def inverse(self, y):
        """Unique x with eval(x) = y; raises RangeError when y is not attained."""
        arr = np.asarray(y, dtype=float)
        if not self.codomain.contains_all(arr):
            raise RangeError(f"value outside the range of {self.describe()}")
        out = self._inverse_raw(arr)
        return float(out) if arr.ndim == 0 else out

    @property
    def codomain_kind(self) -> CodomainKind:
        cod = self.codomain
        if cod.lower == 0.0 and cod.lower_open and math.isinf(cod.upper):
            return CodomainKind.POSITIVE_REALS
        return CodomainKind.ALL_REALS

    # -- raw kernels (no validation, array in / array out) ------------------
    @abstractmethod
    def _eval_raw(self, x: np.ndarray) -> np.ndarray:
        ...

    def _inverse_raw(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _into(_bisect_inverse(self, np.asarray(y, dtype=float)), out)

    # -- description ---------------------------------------------------------
    @abstractmethod
    def describe(self) -> str:
        ...

    @abstractmethod
    def to_json(self) -> dict:
        ...

    def __repr__(self) -> str:
        return f"<Generator {self.describe()}>"


def _divider(d: float) -> tuple:
    """``(ufunc, c)`` with ``ufunc(x, c)`` equal to ``x / d`` bit for bit, for d != 0.

    When |d| is a power of two whose reciprocal is finite, that is
    ``(np.multiply, 1 / d)``: 1/d is then exact, and ``x * 2**-e`` and
    ``x / 2**e`` are the correctly rounded values of one real number, at
    about half the cost of a divide.  Otherwise it is ``(np.divide, d)``.
    """
    mantissa, exponent = math.frexp(d)
    # |d| = 2**(exponent - 1), whose reciprocal is finite from 2**-1023 up
    if abs(mantissa) == 0.5 and exponent >= -1022:
        return np.multiply, 1.0 / d
    return np.divide, d


def _interior_seed(dom: Interval) -> float:
    if math.isfinite(dom.lower) and math.isfinite(dom.upper):
        return 0.5 * (dom.lower + dom.upper)
    if math.isfinite(dom.lower):
        return dom.lower + 1.0
    if math.isfinite(dom.upper):
        return dom.upper - 1.0
    return 0.0


def _into(result, out: np.ndarray | None = None):
    """``result``, copied into ``out`` when one is given."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


def _masked(raw, valid: Interval, x: np.ndarray, out: np.ndarray | None = None,
            extremes=None) -> np.ndarray:
    """``raw(x)``, or ``raw(x, out)``, with NaN where x is outside ``valid``.

    ``extremes``, x's NaN-propagating least and greatest element when the
    caller knows them, are range-tested in place of x.  Only the fallback
    for a partly invalid x builds a mask, and only it allocates when
    ``out`` is given.
    """
    if valid.contains_all(x if extremes is None else extremes):
        return raw(x) if out is None else raw(x, out)
    ok = valid.contains(x)
    return _into(np.where(ok, raw(np.where(ok, x, _interior_seed(valid))), np.nan), out)


def masked_eval(gen: Generator, x: np.ndarray) -> np.ndarray:
    """``gen._eval_raw`` with NaN, instead of an error, outside the domain."""
    return _masked(gen._eval_raw, gen.domain, x)


def masked_inverse(gen: Generator, y: np.ndarray, out: np.ndarray | None = None,
                   extremes=None) -> np.ndarray:
    """``gen._inverse_raw`` with NaN, instead of an error, outside the range.

    Writes into ``out`` when one is given; ``out`` may be ``y``.  Given
    ``extremes``, y's least and greatest element, it tests those instead.
    """
    return _masked(gen._inverse_raw, gen.codomain, y, out, extremes)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _bisect_inverse(gen: Generator, y: np.ndarray) -> np.ndarray:
    """Invert a strictly monotone generator elementwise: bracket, then regula falsi.

    Each target is placed in the first piece of ``_walk`` that straddles
    it, from brackets grown geometrically out of an interior seed, and
    refined by the safeguarded regula falsi of ``_falsi_scalar`` on log f
    (positive range) or f until the bracket is at most ``_BISECT_REL_TOL``
    * max(1, |midpoint|) wide, and the midpoint is returned.  That takes
    at most one step more than bisection of the same bracket for any
    strictly monotone function, and one or two for exp(kx); each loop stops
    after ``_BISECT_MAX_ITER`` steps.  The walk does not depend on the
    target, so each generator makes it once and keeps it.  Arrays of
    ``_BISECT_ARRAY_MIN`` elements or more run ``_bisect_array``, one
    masked loop whose fixed cost per call is about fifty elements' worth
    of the per-element routine; smaller ones run ``_bisect_elements``.
    The results are the same bit for bit.  Both evaluate with overflow,
    division by zero and invalid operations ignored: an end value that
    overflows to an infinity or underflows to 0 still compares correctly
    with the target, and its residual (log 0, inf - inf) sends the step to
    the midpoint.
    """
    if y.size < _BISECT_ARRAY_MIN:
        flat = np.array(_bisect_elements(gen, y.ravel().tolist()))
    else:
        flat = _bisect_array(gen, y.ravel())
    return flat.reshape(y.shape) if y.ndim else flat[0]


def _walk(gen: Generator, need: int = 0):
    """``gen``'s bracket walk, cached on it: ``(lift, pieces, more)``.

    ``pieces`` holds more than ``need`` pieces, or all of them when ``more``
    is None.  Each piece is a flat tuple of Python floats ``(low, high, lo,
    hi, f(lo), f(hi), width, lift(f(lo)), lift(f(hi)))``: its value bounds
    min/max(f(lo), f(hi)), its ends and their values, the width of the
    bracket it came from, and its lifted end values, where ``lift`` is
    ``np.log`` for a (0, inf) codomain and ``float`` otherwise.

    The brackets start at the interior seed, and each end moves outward:
    halfway to a finite domain end, by a doubling step toward an infinite
    one.  The seed alone is the first piece; each further bracket gives the
    piece from its lower end to the previous lower end, then the piece from
    the previous upper end to its upper end.  The first piece that
    straddles a target lies in the first bracket that does, and both its
    ends are evaluated already.  The sequence does not depend on the
    target, so it is walked once per generator, a bracket at a time as
    targets need it, and kept with the state it continues from (``more``).
    Each extension is published as a new tuple: threads that extend at
    once compute the same pieces, and the walk any of them keeps is right.
    """
    walk = gen._walk_cache
    if walk is not None and (len(walk[1]) > need or walk[2] is None):
        return walk
    raw, dom, f64 = gen._eval_raw, gen.domain, np.float64
    if walk is None:
        lift = np.log if gen.codomain_kind is CodomainKind.POSITIVE_REALS else float
        lo = hi = _interior_seed(dom)
        flo = fhi = float(raw(f64(lo)))
        lflo = lfhi = float(lift(f64(flo)))
        pieces = [(flo, fhi, lo, hi, flo, fhi, 0.0, lflo, lfhi)]
        step, left = 1.0, _BISECT_MAX_ITER - 1
    else:
        lift, pieces, (lo, hi, flo, fhi, lflo, lfhi, step, left) = walk[0], list(walk[1]), walk[2]
    while len(pieces) <= need and left:
        nlo = 0.5 * (lo + dom.lower) if math.isfinite(dom.lower) else lo - step
        nhi = 0.5 * (hi + dom.upper) if math.isfinite(dom.upper) else hi + step
        step *= 2.0
        nflo, nfhi = float(raw(f64(nlo))), float(raw(f64(nhi)))
        nlflo, nlfhi = float(lift(f64(nflo))), float(lift(f64(nfhi)))
        pieces.append((min(nflo, flo), max(nflo, flo), nlo, lo, nflo, flo, nhi - nlo, nlflo, lflo))
        pieces.append((min(fhi, nfhi), max(fhi, nfhi), hi, nhi, fhi, nfhi, nhi - nlo, lfhi, nlfhi))
        lo, hi, flo, fhi, lflo, lfhi, left = nlo, nhi, nflo, nfhi, nlflo, nlfhi, left - 1
    walk = lift, tuple(pieces), (lo, hi, flo, fhi, lflo, lfhi, step, left) if left else None
    gen._walk_cache = walk
    return walk


def _bisect_elements(gen: Generator, ys: list[float]) -> list[float]:
    """The inverse of each value, from the first piece of the walk that straddles it."""
    lift, pieces, more = _walk(gen)
    raw, out = gen._eval_raw, []
    for y in ys:
        i = 0
        while not (pieces[i][0] <= y <= pieces[i][1]):
            i += 1
            if i == len(pieces):
                if more is None:
                    raise RangeError(f"could not bracket {y} in the range of {gen.describe()}")
                lift, pieces, more = _walk(gen, i)
        out.append(_falsi_scalar(raw, lift, y, pieces[i]))
    return out


def _falsi_scalar(raw, lift, y: float, piece: tuple) -> float:
    """The root of the residual of ``y`` in the piece of ``_walk`` that straddles it.

    The residual is s * (log f(x) - log y) for a positive codomain (affine
    in x for exp(kx), so one step lands on the root), else s * (f(x) - y),
    with s = +-1 making it increasing.  A target at an end of the piece, or
    a step with residual exactly 0, collapses the bracket onto that point.
    Each step is a regula falsi point, with the Illinois halving of the
    residual at an end kept twice in a row, moved at least ``_NUDGE`` *
    max(1, |t|) inside the bracket, so that a step within the tolerance of
    the root closes the bracket on the next one.  A non-finite or outside
    point, or an infinite end residual, gives the midpoint instead.  The
    point is then projected so that the next bracket is at most ``bound``
    wide, which starts at the width of the bracket the piece came from and
    halves every step (the projection of the ITP method, Oliveira and
    Takahashi, ACM TOMS 2020): the loop takes at most one step more than
    bisection of that bracket, even where a flat root (x**3 near 0) makes
    regula falsi creep from one side.
    """
    _, _, lo, hi, flo, fhi, bound, lflo, lfhi = piece
    f64, tol = np.float64, _BISECT_REL_TOL
    if flo == y:
        hi = lo
    if fhi == y:
        lo = hi
    s = 1.0 if fhi >= flo else -1.0
    ty = float(lift(f64(y)))
    rlo, rhi = s * (lflo - ty), s * (lfhi - ty)
    side = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        # max(1, |mid|) inline: 1.0 for +-0.0 and NaN too
        if hi - lo <= tol * (mid if mid > 1.0 else -mid if mid < -1.0 else 1.0):
            return mid
        den = rlo - rhi
        t = lo + (hi - lo) * (rlo / den) if den else mid
        if not (den > -math.inf and lo <= t <= hi):
            t = mid
        d = _NUDGE * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if t < lo + d:
            t = lo + d
        if t > hi - d:
            t = hi - d
        if t < hi - bound:
            t = hi - bound
        if t > lo + bound:
            t = lo + bound
        bound *= 0.5
        r = s * (float(lift(raw(f64(t)))) - ty)
        if r < 0:
            lo, rlo, rhi = t, r, (0.5 if side < 0 else 1.0) * rhi
            side = -1.0
        else:
            hi, rhi, rlo = t, r, (0.5 if side > 0 else 1.0) * rlo
            side = 1.0
            if r == 0:
                lo = t
    return 0.5 * (lo + hi)


def _bisect_array(gen: Generator, y: np.ndarray) -> np.ndarray:
    """``_bisect_elements`` of a flat array, as one masked loop.

    Each element gets the first piece of the walk that straddles it and
    then takes the steps ``_falsi_scalar`` would, in the same operations on
    float64, and leaves the loop at the midpoint where it returns, so the
    results are the same bit for bit.
    """
    lift, pieces, more = _walk(gen)
    start = np.empty(y.size, dtype=np.intp)
    pending = np.arange(y.size)
    i = 0
    while pending.size:
        if i == len(pieces):
            if more is None:
                raise RangeError(
                    f"could not bracket {float(y[pending[0]])} in the range of {gen.describe()}")
            lift, pieces, more = _walk(gen, i)
        ys = y[pending]
        inside = (pieces[i][0] <= ys) & (ys <= pieces[i][1])
        start[pending[inside]] = i
        pending = pending[~inside]
        i += 1
    _, _, lo, hi, flo, fhi, bound, lflo, lfhi = np.take(np.array(pieces[:i]).T, start, axis=1)
    raw, tol = gen._eval_raw, _BISECT_REL_TOL
    lift = np.asarray if lift is float else lift
    hi = np.where(flo == y, lo, hi)
    lo = np.where(fhi == y, hi, lo)
    s = np.where(fhi >= flo, 1.0, -1.0)
    ty = lift(y)
    rlo, rhi = s * (lflo - ty), s * (lfhi - ty)
    side = np.zeros_like(y)
    out = np.empty_like(y)
    active = np.arange(y.size)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        done = hi - lo <= tol * np.maximum(1.0, np.abs(mid))
        if done.any():
            out[active[done]] = mid[done]
            keep = ~done
            active, lo, hi, mid, rlo, rhi, s, ty, side, bound = (
                a[keep] for a in (active, lo, hi, mid, rlo, rhi, s, ty, side, bound))
            if not active.size:
                return out
        den = rlo - rhi
        t = lo + (hi - lo) * (rlo / den)
        t = np.where((den > -np.inf) & (lo <= t) & (t <= hi), t, mid)
        d = _NUDGE * np.maximum(1.0, np.abs(t))
        t = np.where(t < lo + d, lo + d, t)
        t = np.where(t > hi - d, hi - d, t)
        t = np.where(t < hi - bound, hi - bound, t)
        t = np.where(t > lo + bound, lo + bound, t)
        bound = 0.5 * bound
        r = s * (lift(raw(t)) - ty)
        below = r < 0
        moved = np.where(below, -1.0, 1.0)
        halve = np.where(side == moved, 0.5, 1.0)
        rlo, rhi = np.where(below, r, halve * rlo), np.where(below, halve * rhi, r)
        lo, hi, side = np.where(r <= 0, t, lo), np.where(below, hi, t), moved
    out[active] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# Catalog families
# ---------------------------------------------------------------------------

class _Family(Generator):
    """A catalog family, ``{"family": family}`` in documents; this base has no parameter."""

    family: str

    def describe(self) -> str:
        return self.family

    def to_json(self) -> dict:
        return {"family": self.family}

    @classmethod
    def _from_json(cls, doc: dict) -> Generator:
        return cls()


class _OneParam(_Family):
    """A family with one finite nonzero parameter, whose sign sets ``increasing``."""

    # its name, its name in messages, and its value in a document that omits it
    param: str
    noun: str
    default: float | None = None

    def __init__(self, value: float):
        value = float(value)
        if value == 0.0 or not REAL_LINE.contains_all(value):
            raise ValueError(f"{self.family} generator requires a finite nonzero {self.noun} {self.param}")
        setattr(self, self.param, value)
        self.increasing = value > 0

    def describe(self) -> str:
        return f"{self.family}({self.param}={getattr(self, self.param):g})"

    def to_json(self) -> dict:
        return {"family": self.family, self.param: getattr(self, self.param)}

    @classmethod
    def _from_json(cls, doc: dict) -> Generator:
        if cls.default is None and cls.param not in doc:
            raise ValueError(f"{cls.family} generator document requires an {cls.noun} '{cls.param}'")
        return cls(_json_floats(doc.get(cls.param, cls.default), cls.param))


class ExpGenerator(_OneParam):
    """x -> exp(k*x) on the real line, k != 0; bijection onto (0, inf).

    The inverse is log(y) / k, computed as log(y) times 1/k when |k| is a
    power of two (see ``_divider``), with the same bits.
    """

    family, param, noun, default = "exp", "k", "rate", 1.0
    domain, codomain = REAL_LINE, POSITIVE_HALF_LINE

    def __init__(self, value: float):
        super().__init__(value)
        self._by_k = _divider(self.k)

    def _eval_raw(self, x):
        return np.exp(self.k * x)

    def _inverse_raw(self, y, out=None):
        x = np.log(y, out=out)
        # x / 1.0 is x bit for bit
        if self.k == 1.0:
            return x
        ufunc, c = self._by_k
        return ufunc(x, c, out=out)


class PowerGenerator(_OneParam):
    """x -> x**p on (0, inf), p != 0; bijection onto (0, inf)."""

    family, param, noun = "power", "p", "exponent"
    domain, codomain = POSITIVE_HALF_LINE, POSITIVE_HALF_LINE

    def _eval_raw(self, x):
        return np.power(x, self.p)

    def _inverse_raw(self, y, out=None):
        return np.power(y, 1.0 / self.p, out=out)


class IdentityGenerator(_Family):
    """x -> x on the real line."""

    family, domain, codomain, increasing = "identity", REAL_LINE, REAL_LINE, True

    def _eval_raw(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def _inverse_raw(self, y, out=None):
        return np.add(y, 0.0, out=out)


class LogGenerator(_Family):
    """x -> ln(x) on (0, inf); bijection onto the real line."""

    family, domain, codomain, increasing = "log", POSITIVE_HALF_LINE, REAL_LINE, True

    def _eval_raw(self, x):
        return np.log(x)

    def _inverse_raw(self, y, out=None):
        return np.exp(y, out=out)


_FAMILIES = {cls.family: cls for cls in (ExpGenerator, PowerGenerator, IdentityGenerator, LogGenerator)}


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _scaled_interval(iv: Interval, a: float, b: float) -> Interval:
    """Image of an interval under x -> a*x + b, a != 0."""
    lo, hi = a * iv.lower + b, a * iv.upper + b
    lo_open, hi_open = iv.lower_open, iv.upper_open
    if a < 0:
        lo, hi = hi, lo
        lo_open, hi_open = hi_open, lo_open
    return Interval(lo, hi, lo_open, hi_open)


class AffineGenerator(Generator):
    """a * inner(x) + b with a != 0.

    The range follows the affine image of the inner range; the result is a
    positive bijection only when that image is exactly (0, inf), i.e. for
    b = 0, a > 0 over a positive-bijection inner generator.  The inverse
    divides y - b by a, or multiplies it by 1/a when |a| is a power of two
    (see ``_divider``), with the same bits.
    """

    def __init__(self, a: float, b: float, inner: Generator):
        a, b = float(a), float(b)
        if a == 0.0 or not REAL_LINE.contains_all((a, b)):
            raise ValueError("affine wrapper requires finite a != 0 and finite b")
        self.a = a
        self.b = b
        self._by_a = _divider(a)
        self.inner = inner
        self.domain = inner.domain
        self.codomain = _scaled_interval(inner.codomain, a, b)
        self.increasing = inner.increasing == (a > 0)

    def _eval_raw(self, x):
        return self.a * self.inner._eval_raw(x) + self.b

    def _inverse_raw(self, y, out=None):
        # y - (+0.0) is y bit for bit, as in every scale wrapper; y - (-0.0) turns -0.0 into +0.0
        if self.b or math.copysign(1.0, self.b) < 0:
            y = np.subtract(y, self.b, out=out)
        ufunc, c = self._by_a
        return self.inner._inverse_raw(ufunc(y, c, out=out), out)

    def describe(self) -> str:
        return f"{self.a:g}*{self.inner.describe()}{self.b:+g}"

    def to_json(self) -> dict:
        doc = self.inner.to_json()
        if "affine" in doc:
            raise ValueError(f"no document holds {self.describe()}: it allows one affine")
        doc["affine"] = {"a": self.a, "b": self.b}
        return doc


class ScaledGenerator(AffineGenerator):
    """c * inner(x) with c > 0: affine with b = 0; keeps a positive-bijection range."""

    def __init__(self, c: float, inner: Generator):
        if not POSITIVE_HALF_LINE.contains_all(c):
            raise ValueError("scale factor must be a finite positive real")
        super().__init__(c, 0.0, inner)

    def describe(self) -> str:
        return f"{self.a:g}*{self.inner.describe()}"

    def to_json(self) -> dict:
        doc = self.inner.to_json()
        if "scale" in doc or "affine" in doc:
            raise ValueError(f"no document holds {self.describe()}: it allows one scale, inside the affine")
        doc["scale"] = self.a
        return doc


def scale(gen: Generator, c: float) -> Generator:
    """Generator x -> c * gen(x); requires c > 0."""
    return ScaledGenerator(c, gen)


def affine(gen: Generator, a: float, b: float) -> Generator:
    """Generator x -> a * gen(x) + b; requires a != 0."""
    return AffineGenerator(a, b, gen)


# ---------------------------------------------------------------------------
# Validation and equivalence relations
# ---------------------------------------------------------------------------

def validate_for_setting(gen: Generator, setting: MeanSetting) -> bool:
    """Whether a generator is admissible under the given setting.

    PROBABILITY accepts any strictly monotone continuous injection into
    the reals (checked on a sample grid).  FINITE_MEASURE additionally
    requires an open domain and a range of exactly (0, inf).
    """
    xs = gen.domain.sample_points(_SAMPLE_COUNT)
    vals = gen._eval_raw(xs)
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs > 0)) or bool(np.all(diffs < 0))
    if not monotone or not np.all(np.isfinite(vals)):
        return False
    if setting is MeanSetting.PROBABILITY:
        return True
    if setting is MeanSetting.FINITE_MEASURE:
        return gen.codomain_kind is CodomainKind.POSITIVE_REALS and gen.domain.is_open
    raise ValueError(f"unknown setting: {setting!r}")


def _common_domain(f: Generator, g: Generator) -> Interval:
    """The interval that f's and g's domains share."""
    common = f.domain.intersection(g.domain)
    if common is None:
        raise ValueError(f"domain mismatch: {f.describe()} and {g.describe()} share no interval")
    return common


def _common_samples(f: Generator, g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """f and g on the sample grid of their common domain."""
    xs = _common_domain(f, g).sample_points(_SAMPLE_COUNT)
    return f.eval(xs), g.eval(xs)


def is_proportional(
    f: Generator, g: Generator, tol: float = DEFAULT_ZERO_TOL
) -> float | None:
    """Return c > 0 with f = c * g on a shared sample grid, or None.

    The candidate ratio is anchored at the sample where |g| is largest and
    then verified pointwise on the whole grid by the ``ResidualReport`` rule.
    """
    fv, gv = _common_samples(f, g)
    anchor = int(np.argmax(np.abs(gv)))
    if gv[anchor] == 0.0:
        return None
    c = fv[anchor] / gv[anchor]
    if not POSITIVE_HALF_LINE.contains_all(c):
        return None
    if np.all(_relative_residuals(fv, c * gv) <= tol):
        return float(c)
    return None


def is_affine_equivalent(
    f: Generator, g: Generator, tol: float = DEFAULT_ZERO_TOL
) -> tuple[float, float] | None:
    """Return (a, b) with f = a * g + b on a shared sample grid, or None.

    (a, b) is fitted from the two extreme samples and verified on all of
    them by the ``ResidualReport`` rule; g is injective, so the fit
    denominator cannot vanish.
    """
    fv, gv = _common_samples(f, g)
    denom = gv[-1] - gv[0]
    if denom == 0.0:
        return None
    a = (fv[-1] - fv[0]) / denom
    if a == 0.0 or not REAL_LINE.contains_all(a):
        return None
    b = fv[0] - a * gv[0]
    if np.all(_relative_residuals(fv, a * gv + b) <= tol):
        return float(a), float(b)
    return None


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def generator_from_json(doc: dict) -> Generator:
    """Build a generator from its JSON document.

    Families: ``{"family": "exp", "k": 2.0}``, ``{"family": "power",
    "p": -1.0}``, ``{"family": "identity"}``, ``{"family": "log"}``.
    Optional wrappers ``"scale"`` and ``"affine": {"a": ..., "b": ...}``
    are applied outermost-last, i.e. affine(scale(base)).
    """
    if not isinstance(doc, dict) or "family" not in doc:
        raise ValueError("generator document must be an object with a 'family' key")
    family = doc["family"]
    cls = _FAMILIES.get(family) if isinstance(family, str) else None  # a list is no dict key
    if cls is None:
        raise ValueError(f"unknown generator family: {family!r}")
    gen = cls._from_json(doc)
    if "scale" in doc:
        gen = ScaledGenerator(_json_floats(doc["scale"], "scale"), gen)
    if "affine" in doc:
        aff = doc["affine"]
        if not isinstance(aff, dict) or "a" not in aff or "b" not in aff:
            raise ValueError("affine wrapper must be an object with 'a' and 'b'")
        gen = AffineGenerator(_json_floats(aff["a"], "affine a"), _json_floats(aff["b"], "affine b"),
                              gen)
    return gen
