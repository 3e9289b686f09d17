import inspect
import itertools
import json
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from qamlab import (
    DEFAULT_ZERO_TOL,
    AffineGenerator,
    CodomainKind,
    DiscreteMeasureSpace,
    DomainError,
    ExpGenerator,
    Generator,
    GridSpec,
    IdentityGenerator,
    Interval,
    LogGenerator,
    MeanSetting,
    PowerGenerator,
    RangeError,
    affine,
    block_witness_search,
    full_witness_search,
    generator_from_json,
    is_affine_equivalent,
    is_proportional,
    scale,
    validate_for_setting,
)
from qamlab import generators
from qamlab.generators import (
    _BISECT_ARRAY_MIN,
    _BISECT_MAX_ITER,
    _BISECT_REL_TOL,
    _RANGE_LIST_MAX,
    _bisect_array,
    _bisect_elements,
    _interior_seed,
    _walk,
    masked_inverse,
)


class TestEval:
    def test_exp_at_zero(self):
        assert ExpGenerator(1.0).eval(0.0) == 1.0

    def test_power_square(self):
        assert PowerGenerator(2.0).eval(3.0) == 9.0

    def test_scaled_exp(self):
        assert scale(ExpGenerator(1.0), 2.0).eval(math.log(2.0)) == pytest.approx(4.0)

    def test_domain_error_power_negative(self):
        with pytest.raises(DomainError):
            PowerGenerator(2.0).eval(-1.0)

    def test_domain_error_log_at_zero(self):
        with pytest.raises(DomainError):
            LogGenerator().eval(0.0)

    def test_array_eval(self):
        out = ExpGenerator(1.0).eval(np.array([0.0, math.log(2.0)]))
        assert np.allclose(out, [1.0, 2.0])


class TestInverse:
    def test_exp_closed_form_matches_bisection_oracle(self):
        # independent oracle: root of eval(x) - 5 via brentq
        gen = ExpGenerator(1.0)
        oracle = brentq(lambda x: gen.eval(x) - 5.0, -10.0, 10.0, xtol=1e-14)
        assert gen.inverse(5.0) == pytest.approx(oracle, rel=1e-12)
        assert gen.inverse(5.0) == pytest.approx(1.6094379124341003, rel=1e-12)

    def test_power_inverse(self):
        assert PowerGenerator(2.0).inverse(9.0) == pytest.approx(3.0)

    def test_exp_range_error_for_nonpositive(self):
        with pytest.raises(RangeError):
            ExpGenerator(1.0).inverse(-1.0)
        with pytest.raises(RangeError):
            ExpGenerator(1.0).inverse(0.0)

    def test_affine_shifted_range(self):
        gen = affine(ExpGenerator(1.0), 1.0, 1.0)  # range (1, inf)
        assert gen.inverse(2.0) == pytest.approx(0.0)
        with pytest.raises(RangeError):
            gen.inverse(0.5)


class _NoClosedForm(Generator):
    """x + exp(x), strictly increasing bijection of the reals.

    Exercises the base-class bracketed-bisection inverse.
    """

    def __init__(self):
        self.domain = Interval(-math.inf, math.inf)
        self.codomain = Interval(-math.inf, math.inf)
        self.increasing = True

    def _eval_raw(self, x):
        return x + np.exp(x)

    def describe(self):
        return "x+exp(x)"

    def to_json(self):
        return {"family": "custom"}


class TestBisectionFallback:
    def test_round_trip(self):
        gen = _NoClosedForm()
        for x in (-5.0, -1.0, 0.0, 0.7, 3.0):
            assert gen.inverse(gen.eval(x)) == pytest.approx(x, rel=1e-10, abs=1e-10)

    def test_against_brentq_oracle(self):
        gen = _NoClosedForm()
        for y in (-3.0, 0.5, 10.0):
            oracle = brentq(lambda x: gen.eval(x) - y, -50.0, 50.0, xtol=1e-14)
            assert gen.inverse(y) == pytest.approx(oracle, rel=1e-10, abs=1e-10)


class _Bisecting(Generator):
    """A generator written with ``_eval_raw`` only, so that it inverts by bisection."""

    def __init__(self, name, fn, domain, codomain, increasing=True):
        self.name, self.fn, self.increasing = name, fn, increasing
        self.domain, self.codomain = domain, codomain

    def _eval_raw(self, x):
        return self.fn(x)

    def describe(self):
        return self.name

    def to_json(self):
        return {"family": "custom"}


_REALS = Interval(-math.inf, math.inf)


def _bisect_exp(k):
    return _Bisecting(f"bisect-exp(k={k:g})", lambda x: np.exp(k * x), _REALS,
                      Interval(0.0, math.inf), k > 0)


# onto the reals: its brackets halve toward both ends of (0, 1)
_LOGIT = _Bisecting("logit", lambda x: np.log(x) - np.log1p(-x), Interval(0.0, 1.0), _REALS)
# declared onto the reals, although its image is (-pi/2, pi/2)
_ARCTAN = _Bisecting("arctan", np.arctan, _REALS, _REALS)
# np.power gives a 0-d input the bits of the same array element; x**3 does not
_CUBE = _Bisecting("cube", lambda x: np.power(x, 3.0), _REALS, _REALS)


def _one_target(gen, y):
    """The per-element routine on a one-element list."""
    return _bisect_elements(gen, [y])[0]


def _per_element(gen, y):
    """The per-element routine over every element: the reference of the array loop."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.array([_one_target(gen, float(t)) for t in np.ravel(y)]).reshape(np.shape(y))


def _array_loop(gen, y):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _bisect_array(gen, np.ravel(y))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestArrayBisection:
    """The array loop against the per-element routine, bit for bit.

    The first target of each pool is f at the interior seed, bracketed at
    step 0; the exp pools reach 1e-300 and 1e300.  The shapes lie on both
    sides of ``_BISECT_ARRAY_MIN``.
    """

    SHAPES = [(), (1,), (3,), (7, 7, 7), (2401,)]
    _RNG = np.random.default_rng(2024)
    EXP_POOL = np.concatenate([[1.0, 1e-300, 1e300], np.exp(_RNG.uniform(-600.0, 600.0, 2398))])
    _NEW = np.random.default_rng(2025)
    CASES = {
        "exp-increasing": (_bisect_exp(1.5), EXP_POOL),
        "exp-decreasing": (_bisect_exp(-2.0), EXP_POOL),
        "logit": (_LOGIT, np.concatenate([[0.0], _RNG.uniform(-30.0, 30.0, 2400)])),
        "cube": (_CUBE, np.power(np.concatenate([[0.0, 1.0, -3.0], _NEW.uniform(-5.0, 5.0, 2398)]), 3.0)),
        # in the piece [-511, -255] (and [255, 511]), whose outer end underflows f to 0.0
        "exp-underflow-increasing": (_bisect_exp(1.5), np.concatenate(
            [[5e-324, 1e-310], np.exp(1.5 * _NEW.uniform(-497.0, -256.0, 2399))])),
        "exp-underflow-decreasing": (_bisect_exp(-2.0), np.concatenate(
            [[5e-324, 1e-310], np.exp(-2.0 * _NEW.uniform(256.0, 372.0, 2399))])),
    }

    def test_shapes_straddle_the_cutoff(self):
        sizes = [math.prod(shape) for shape in self.SHAPES]
        assert min(sizes) < _BISECT_ARRAY_MIN <= max(sizes)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical_to_the_per_element_routine(self, case, shape):
        gen, pool = self.CASES[case]
        y = pool[:math.prod(shape)].reshape(shape)
        want = _per_element(gen, y)
        assert np.array_equal(_bits(_array_loop(gen, y)), _bits(want).ravel())
        got = gen._inverse_raw(y)
        assert np.shape(got) == shape
        assert np.array_equal(_bits(got), _bits(want))

    # x at which the stopping rule's max(1, |mid|) changes branch: 0, +-1 and
    # their neighbours, and +-3 beyond them; in both monotone directions
    EDGE_X = [0.0, 1e-300, -1e-300, 1.0, -1.0, 1.0 + 2.0**-52, -1.0 - 2.0**-52,
              1.0 - 2.0**-52, -1.0 + 2.0**-52, 3.0, -3.0]
    EDGE_CASES = {
        "exp-increasing": CASES["exp-increasing"][0],
        "exp-decreasing": CASES["exp-decreasing"][0],
        "linear-increasing": _Bisecting("3x", lambda x: 3.0 * x, _REALS, _REALS),
        "linear-decreasing": _Bisecting("-3x", lambda x: -3.0 * x, _REALS, _REALS, False),
    }

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_targets_where_the_stopping_scale_changes_branch(self, case):
        gen = self.EDGE_CASES[case]
        y = gen._eval_raw(np.array(self.EDGE_X))
        want = _per_element(gen, y)
        assert np.array_equal(_bits(_array_loop(gen, y)), _bits(want))
        assert np.array_equal(_bits(gen._inverse_raw(y)), _bits(want))
        assert want == pytest.approx(self.EDGE_X, rel=1e-11, abs=1e-11)

    # the y = e^U(-700, 700) of default_rng(5), of 2e6, where math.log(y) != np.log(y):
    # a per-element path taking math.log changes the bits of some of their inverses
    LOG_DISAGREE = np.array([1.0246557460570078, 0.9746726033631985, 2.424627904449901,
                             1.5855241080615499, 0.9934154269180644, 0.9260828733782966,
                             0.9633390382315663, 1.1549987011733271])
    # the ends of the first brackets: the seed, then +-(2^k - 1) or halfway to 0 and 1
    BRACKET_ENDS = {
        "exp-increasing": (_bisect_exp(1.5), [0.0, 1.0, -1.0, 3.0, -3.0, 7.0, -15.0, 31.0, -63.0, 255.0]),
        "exp-decreasing": (_bisect_exp(-2.0), [0.0, -1.0, 1.0, -3.0, 15.0, -127.0, 255.0]),
        "logit": (_LOGIT, [0.5, 0.25, 0.75, 0.125, 0.875, 2.0**-20, 1.0 - 2.0**-20]),
        "cube": (_CUBE, [0.0, 1.0, -1.0, 3.0, -7.0, 63.0]),
    }

    @pytest.mark.parametrize("gen", [_bisect_exp(1.5), _bisect_exp(-2.0)], ids=["increasing", "decreasing"])
    def test_targets_where_math_log_and_np_log_disagree(self, gen):
        want = _per_element(gen, self.LOG_DISAGREE)
        assert np.array_equal(_bits(_array_loop(gen, self.LOG_DISAGREE)), _bits(want))

    @pytest.mark.parametrize("case", BRACKET_ENDS)
    def test_a_target_at_a_bracket_end_returns_that_end(self, case):
        gen, x = self.BRACKET_ENDS[case]
        y = gen._eval_raw(np.array(x))
        assert np.array_equal(_bits(_per_element(gen, y)), _bits(x))
        assert np.array_equal(_bits(_array_loop(gen, y)), _bits(x))

    @pytest.mark.parametrize("wrap", [lambda g: scale(g, 3.0), lambda g: affine(g, -2.0, 3.0)],
                             ids=["scale", "affine-negative-slope"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_wrappers_over_a_decreasing_bisecting_generator(self, shape, wrap):
        inner = _bisect_exp(-2.0)
        gen = wrap(inner)
        y = gen._eval_raw(self.EXP_POOL[:math.prod(shape)].reshape(shape))
        want = _per_element(inner, (y - gen.b) / gen.a)
        assert np.array_equal(_bits(gen._inverse_raw(y)), _bits(want))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_affine_with_negative_slope_over_a_bisecting_generator(self, shape):
        inner = _bisect_exp(1.5)
        gen = affine(inner, -2.0, 3.0)
        y = 3.0 - 2.0 * self.EXP_POOL[:math.prod(shape)].reshape(shape)
        want = _per_element(inner, (y - 3.0) / -2.0)
        assert np.array_equal(_bits(gen._inverse_raw(y)), _bits(want))

    def test_unattained_target_raises_the_same_error_on_both_paths(self):
        gen = _ARCTAN
        y = np.linspace(-1.5, 1.5, 2401)
        y[[700, 1500]] = 2.0, -3.0
        with pytest.raises(RangeError) as per_element:
            _per_element(gen, y)
        for inverse in (lambda t: _array_loop(gen, t), gen.inverse, lambda t: gen.inverse(t[698:701])):
            with pytest.raises(RangeError) as array:
                inverse(y)
            assert str(array.value) == str(per_element.value) == "could not bracket 2.0 in the range of arctan"

    def test_extreme_targets_emit_no_overflow_warning(self):
        gen = _NoClosedForm()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = gen.inverse(1e300)
            many = gen.inverse(np.full(2 * _BISECT_ARRAY_MIN, 1e300))
        assert one == pytest.approx(math.log(1e300), rel=1e-12)
        assert np.array_equal(_bits(many), _bits(np.full(many.shape, one)))


class _Counting(Generator):
    """``gen`` with a count of its ``_eval_raw`` calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0
        self.domain, self.codomain, self.increasing = gen.domain, gen.codomain, gen.increasing

    def _eval_raw(self, x):
        self.calls += 1
        return self.gen._eval_raw(x)

    def describe(self):
        return self.gen.describe()

    def to_json(self):
        return self.gen.to_json()


def _reference_bisection(gen, y):
    """The per-element bisection the regula falsi replaced: the budget it must meet.

    The first bracket that straddles ``y``, both ends evaluated (the seed
    twice), then halving to the same stopping rule.
    """
    dom = gen.domain
    lo = hi = _interior_seed(dom)
    step = 1.0
    for _ in range(_BISECT_MAX_ITER):
        flo, fhi = float(gen._eval_raw(np.float64(lo))), float(gen._eval_raw(np.float64(hi)))
        if min(flo, fhi) <= y <= max(flo, fhi):
            break
        lo = 0.5 * (lo + dom.lower) if math.isfinite(dom.lower) else lo - step
        hi = 0.5 * (hi + dom.upper) if math.isfinite(dom.upper) else hi + step
        step *= 2.0
    increasing = fhi >= flo
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            return mid
        if (float(gen._eval_raw(np.float64(mid))) < y) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _calls_and_results(inverse, gen, y, counted=None):
    """``inverse`` of each target, with the ``_eval_raw`` calls each took.

    Each target gets a fresh ``_Counting`` of ``gen``, so that its calls
    include the whole bracket walk, unless one ``counted`` is given for all.
    """
    calls, results = [], []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in np.ravel(y):
            target_counted = _Counting(gen) if counted is None else counted
            target_counted.calls = 0
            results.append(inverse(target_counted, float(t)))
            calls.append(target_counted.calls)
    return np.array(calls), np.array(results)


class TestEvaluationBudget:
    """The per-element inverse against the bisection it replaced, call for call."""

    POOLS = {**TestArrayBisection.CASES,
             **{f"edge-{name}": (gen, gen._eval_raw(np.array(TestArrayBisection.EDGE_X)))
                for name, gen in TestArrayBisection.EDGE_CASES.items()}}

    @pytest.mark.parametrize("case", POOLS)
    def test_no_target_takes_more_calls_than_bisection(self, case):
        gen, y = self.POOLS[case]
        calls, got = _calls_and_results(_one_target, gen, y)
        budget, want = _calls_and_results(_reference_bisection, gen, y)
        worst = int(np.argmax(calls - budget))
        assert calls[worst] <= budget[worst], f"target {y[worst]!r}: {calls[worst]} > {budget[worst]} calls"
        # both meet the stopping rule around the same root, or the new one hits
        # y exactly where f rounds to y over a plateau (5e-324 for exp(-2x) at
        # 372.2 to 372.7), where bisection returns the plateau's edge
        close = np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))
        with np.errstate(over="ignore"):
            assert np.all(close | (gen._eval_raw(got) == y))

    @pytest.mark.parametrize("k", [1.5, -2.0])
    def test_exp_targets_take_at_most_eight_calls_on_average(self, k):
        x = np.random.default_rng(7).uniform(-4.0, 4.0, 500)
        calls, got = _calls_and_results(_one_target, _bisect_exp(k), np.exp(k * x))
        assert calls.mean() <= 8.0
        assert got == pytest.approx(x, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("k", [1.5, -2.0])
    def test_exp_targets_on_a_walked_generator_take_at_most_two_calls(self, k):
        y = np.exp(k * np.random.default_rng(7).uniform(-4.0, 4.0, 500))
        counted = _Counting(_bisect_exp(k))
        _, cold = _calls_and_results(_one_target, None, y, counted)
        calls, warm = _calls_and_results(_one_target, None, y, counted)
        assert calls.max() <= 2
        assert np.array_equal(_bits(warm), _bits(cold))


def _fresh(gen):
    """A ``_Bisecting`` like ``gen``, with no bracket walk cached yet."""
    return _Bisecting(gen.name, gen.fn, gen.domain, gen.codomain, gen.increasing)


def _reference_walk(gen, n):
    """The first n pieces ``(lo, hi, f(lo), f(hi), width)`` of the bracket walk, walked afresh."""
    dom, f64 = gen.domain, np.float64
    lo = hi = _interior_seed(dom)
    flo = fhi = float(gen._eval_raw(f64(lo)))
    pieces, step = [(lo, hi, flo, fhi, 0.0)], 1.0
    while len(pieces) < n:
        nlo = 0.5 * (lo + dom.lower) if math.isfinite(dom.lower) else lo - step
        nhi = 0.5 * (hi + dom.upper) if math.isfinite(dom.upper) else hi + step
        step *= 2.0
        nflo, nfhi = float(gen._eval_raw(f64(nlo))), float(gen._eval_raw(f64(nhi)))
        pieces += [(nlo, lo, nflo, flo, nhi - nlo), (hi, nhi, fhi, nfhi, nhi - nlo)]
        lo, hi, flo, fhi = nlo, nhi, nflo, nfhi
    return pieces[:n]


class TestBracketWalkCache:
    """The bracket walk kept on the generator: the same pieces and the same bits as walking afresh."""

    GENERATORS = {case: gen for case, (gen, _) in TestArrayBisection.BRACKET_ENDS.items()}

    @pytest.mark.parametrize("case", GENERATORS)
    def test_cached_pieces_equal_the_uncached_walk(self, case):
        gen = _fresh(self.GENERATORS[case])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # extended a bracket, then several at once, then far enough to overflow exp
            for need in (0, 1, 2, 9, 60):
                lift, pieces, more = _walk(gen, need)
                assert len(pieces) > need and more is not None
                want = _reference_walk(gen, len(pieces))
                positive = gen.codomain_kind is CodomainKind.POSITIVE_REALS
                assert lift is (np.log if positive else float)
                lifted = np.log if positive else np.asarray
                for piece, (lo, hi, flo, fhi, width) in zip(pieces, want):
                    expect = (min(flo, fhi), max(flo, fhi), lo, hi, flo, fhi, width,
                              float(lifted(flo)), float(lifted(fhi)))
                    assert all(type(v) is float for v in piece)
                    assert np.array_equal(_bits(piece), _bits(expect))

    @pytest.mark.parametrize("path", [_per_element, _array_loop], ids=["per-element", "array"])
    @pytest.mark.parametrize("k", [1.5, -2.0])
    def test_extending_the_cache_gives_the_bits_of_a_fresh_generator(self, k, path):
        targets = np.concatenate([[1e300, 5e-324], TestArrayBisection.EXP_POOL[3:2 * _BISECT_ARRAY_MIN]])
        gen = _bisect_exp(k)
        path(gen, np.array([1.0, math.exp(k)]))
        walked = len(gen._walk_cache[1])
        got = path(gen, targets)
        assert len(gen._walk_cache[1]) > walked
        assert np.array_equal(_bits(got), _bits(path(_bisect_exp(k), targets)))

    @pytest.mark.parametrize("path", [_per_element, _array_loop], ids=["per-element", "array"])
    def test_an_unbracketable_target_raises_the_same_error_again(self, path):
        gen = _fresh(_ARCTAN)
        y = np.linspace(-1.5, 1.5, 2 * _BISECT_ARRAY_MIN)
        y[5] = 2.0
        for _ in range(2):
            with pytest.raises(RangeError) as error:
                path(gen, y)
            assert str(error.value) == "could not bracket 2.0 in the range of arctan"
            assert gen._walk_cache[2] is None

    def test_threads_extending_one_fresh_generator_get_the_single_thread_bits(self):
        # more threads than cores, switching often, on arrays on both sides of the cutoff
        targets = TestArrayBisection.EXP_POOL
        pools = (targets[:_BISECT_ARRAY_MIN // 2], targets[_BISECT_ARRAY_MIN // 2:4 * _BISECT_ARRAY_MIN],
                 targets[::-97], targets[1:_BISECT_ARRAY_MIN + 1])
        want = [_bisect_exp(1.5)._inverse_raw(y) for y in pools]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(pools)) as pool:
                for _ in range(20):
                    gen, barrier = _bisect_exp(1.5), threading.Barrier(len(pools), timeout=30)

                    def invert(y, gen=gen, barrier=barrier):
                        barrier.wait()
                        return gen._inverse_raw(y)

                    futures = [pool.submit(invert, y) for y in pools]
                    for future, expect in zip(futures, want):
                        assert np.array_equal(_bits(future.result(timeout=60)), _bits(expect))
                    with np.errstate(over="ignore"):
                        pieces = gen._walk_cache[1]
                        assert [p[2:7] for p in pieces] == _reference_walk(gen, len(pieces))
        finally:
            sys.setswitchinterval(interval)


class _Recording(_Counting):
    """``gen`` with every point its ``_eval_raw`` was given."""

    def __init__(self, gen):
        super().__init__(gen)
        self.points = []

    def _eval_raw(self, x):
        self.points.extend(np.ravel(x).tolist())
        return super()._eval_raw(x)


class TestIterationCap:
    """Both loops' exit after ``_BISECT_MAX_ITER`` steps, reached by lowering the cap.

    ``_walk`` reads the cap too, so each path inverts on a fresh generator,
    whose walk then ends after ``CAP - 1`` brackets.  A loop that runs out
    of steps returns the midpoint of its last bracket: two points it
    evaluated, wider apart than the stopping rule, whose residuals still
    lie on either side of the target's.
    """

    CAP = 3
    _RNG = np.random.default_rng(11)
    # x inside the walk's last bracket at this cap: [-3, 3] and [1/8, 7/8]
    CASES = {
        "cube": (_CUBE, _RNG.uniform(-2.9, 2.9, 2 * _BISECT_ARRAY_MIN)),
        "cube-decreasing": (_Bisecting("-cube", lambda x: np.power(-x, 3.0), _REALS, _REALS, False),
                            _RNG.uniform(-2.9, 2.9, 2 * _BISECT_ARRAY_MIN)),
        "logit": (_LOGIT, _RNG.uniform(0.13, 0.87, 2 * _BISECT_ARRAY_MIN)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_both_loops_return_the_midpoint_of_a_bracket_around_the_target(self, monkeypatch, case):
        gen, x = self.CASES[case]
        monkeypatch.setattr(generators, "_BISECT_MAX_ITER", self.CAP)
        y = gen._eval_raw(x)
        per_element, array = _Recording(_fresh(gen)), _Recording(_fresh(gen))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = np.array(_bisect_elements(per_element, y.tolist()))
            assert np.array_equal(_bits(_bisect_array(array, y)), _bits(got))
        s = 1.0 if gen.increasing else -1.0
        for recorded in (per_element, array):
            points = np.unique(recorded.points)
            residuals = s * (gen._eval_raw(points) - y[:, None])
            for target, mid, r in zip(y, got, residuals):
                lo, hi = points[r <= 0.0][:, None], points[r >= 0.0][None, :]
                around = (0.5 * (lo + hi) == mid) & (hi - lo > _BISECT_REL_TOL * max(1.0, abs(mid)))
                assert around.any(), f"{case}: {mid!r} for target {target!r}"


class TestInPlaceInverse:
    """``_inverse_raw(y, out)`` writes into and returns ``out``, bit for bit as ``_inverse_raw(y)``.

    Every catalog family, the wrappers, and the bisection default on both
    sides of ``_BISECT_ARRAY_MIN``, into a fresh array and into ``y`` itself.
    """

    GENERATORS = {
        "exp": ExpGenerator(1.5),
        "exp-decreasing": ExpGenerator(-2.0),
        "power": PowerGenerator(2.0),
        "power-root": PowerGenerator(0.5),
        "power-decreasing": PowerGenerator(-1.0),
        "identity": IdentityGenerator(),
        "log": LogGenerator(),
        "scaled-exp": scale(ExpGenerator(1.0), 3.0),
        "affine-power": affine(PowerGenerator(2.0), -2.0, -1.0),
        "affine-log": affine(LogGenerator(), 0.5, 4.0),
        "bisect-exp": _bisect_exp(1.5),
        "affine-bisect-exp": affine(_bisect_exp(1.5), -2.0, 3.0),
    }

    @pytest.mark.parametrize("alias", [False, True], ids=["fresh", "aliased"])
    @pytest.mark.parametrize("size", [_BISECT_ARRAY_MIN // 2, 2 * _BISECT_ARRAY_MIN])
    @pytest.mark.parametrize("name", GENERATORS)
    def test_writes_into_out_bit_for_bit(self, name, size, alias):
        gen = self.GENERATORS[name]
        y = gen._eval_raw(gen.domain.sample_points(size))
        want = gen._inverse_raw(y.copy())
        out = y if alias else np.empty_like(y)
        got = gen._inverse_raw(y, out)
        assert got is out
        assert np.array_equal(_bits(got), _bits(want))


class TestInverseExtremes:
    """``masked_inverse`` given y's extremes gives the bits it gives without them.

    The extremes are y's NaN-propagating least and greatest element, or
    None; y lies inside the range, has one element outside it, or holds a
    NaN.  Every generator of ``TestInPlaceInverse``, on both sides of
    ``_RANGE_LIST_MAX`` and ``_BISECT_ARRAY_MIN``, into a fresh array and
    into ``y`` itself.
    """

    @staticmethod
    def targets(gen, size, kind):
        y = gen._eval_raw(gen.domain.sample_points(size))
        cod = gen.codomain
        if kind == "outside":
            y[size // 3] = cod.lower - 1.0 if math.isfinite(cod.lower) else -math.inf
        elif kind == "nan":
            y[size // 3] = math.nan
        return y

    @pytest.mark.parametrize("alias", [False, True], ids=["fresh", "aliased"])
    @pytest.mark.parametrize("given", [True, False], ids=["extremes", "none"])
    @pytest.mark.parametrize("kind", ["inside", "outside", "nan"])
    @pytest.mark.parametrize("size", [_BISECT_ARRAY_MIN // 2, 2 * _BISECT_ARRAY_MIN])
    @pytest.mark.parametrize("name", TestInPlaceInverse.GENERATORS)
    def test_same_bits_as_without_extremes(self, name, size, kind, given, alias):
        gen = TestInPlaceInverse.GENERATORS[name]
        y = self.targets(gen, size, kind)
        extremes = np.array([np.minimum.reduce(y), np.maximum.reduce(y)]) if given else None
        if given:
            assert gen.codomain.contains_all(extremes) == (kind == "inside")
        want = masked_inverse(gen, y.copy())
        out = y if alias else np.empty_like(y)
        got = masked_inverse(gen, y, out, extremes)
        assert got is out
        assert np.array_equal(_bits(got), _bits(want))
        assert np.isnan(got).any() == (kind != "inside")


# +-0, +-inf, NaN, the smallest and the largest subnormals, and ordinary values of both signs
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, -2.2250738585072009e-308, 1.0, -3.5, 0.25])
_INNERS = {"identity": IdentityGenerator(), "power-1": PowerGenerator(1.0),
           "exp": ExpGenerator(1.0), "log": LogGenerator()}


class TestSkippedIdentityPasses:
    """The affine wrappers skip ``y - b`` at b = +0.0 and exp skips ``/ k`` at k = 1.

    Neither pass changes a bit there, special values included; at b = -0.0
    the subtraction stays, since it turns -0.0 into +0.0 (power(1) keeps
    the sign of a zero, so it shows the difference).
    """

    @pytest.mark.parametrize("alias", [False, True], ids=["fresh", "aliased"])
    @pytest.mark.parametrize("b", [0.0, -0.0, 1.5])
    @pytest.mark.parametrize("a", [2.0, -0.5, 1.0])
    @pytest.mark.parametrize("inner", _INNERS)
    def test_affine_inverse_is_the_two_pass_formula(self, inner, a, b, alias):
        inner = _INNERS[inner]
        # a scale wrapper is the affine one at b = +0.0
        plus_zero = b == 0.0 and math.copysign(1.0, b) > 0
        wrappers = [affine(inner, a, b)] + ([scale(inner, a)] if a > 0 and plus_zero else [])
        with np.errstate(all="ignore"):
            want = inner._inverse_raw(np.divide(np.subtract(_SPECIAL, b), a))
            for gen in wrappers:
                y = _SPECIAL.copy()
                got = gen._inverse_raw(y, y if alias else None)
                assert np.array_equal(_bits(got), _bits(want)), gen.describe()

    def test_negative_zero_intercept_still_subtracts(self):
        got = affine(PowerGenerator(1.0), 2.0, -0.0)._inverse_raw(np.array([-0.0]))
        assert math.copysign(1.0, got[0]) == 1.0
        assert math.copysign(1.0, scale(PowerGenerator(1.0), 2.0)._inverse_raw(np.array([-0.0]))[0]) == -1.0

    @pytest.mark.parametrize("alias", [False, True], ids=["fresh", "aliased"])
    @pytest.mark.parametrize("k", [1.0, -1.0, 2.0, -2.0, 0.5, 3.0])
    def test_exp_inverse_is_the_two_pass_formula(self, k, alias):
        with np.errstate(all="ignore"):
            want = np.divide(np.log(_SPECIAL), k)
            y = _SPECIAL.copy()
            got = ExpGenerator(k)._inverse_raw(y, y if alias else None)
        assert np.array_equal(_bits(got), _bits(want))


def _reciprocal_targets():
    """_SPECIAL, every subnormal power of two, +-DBL_MAX and random doubles of every exponent."""
    rng = np.random.default_rng(30)
    subnormals = np.ldexp(1.0, np.arange(-1074, -1022))
    random = rng.standard_normal(400) * np.ldexp(1.0, rng.integers(-1074, 1000, 400))
    return np.concatenate([_SPECIAL, subnormals, -subnormals, [np.finfo(float).max, -np.finfo(float).max],
                           random, rng.uniform(-1e3, 1e3, 200)])


class TestExactReciprocals:
    """Division by a power of two with a finite reciprocal is a multiplication.

    ``_divider(d)`` multiplies by 1/d exactly when |d| = 2**e with e in
    [-1023, 1023]; x * 2**-e must then be x / 2**e bit for bit on every
    double.  Below 2**-1023 the reciprocal overflows, and a d that is no
    power of two has an inexact one: both keep dividing.
    """

    X = _reciprocal_targets()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_two_multiply_with_the_same_bits(self, sign):
        for e in range(-1023, 1024):
            d = sign * math.ldexp(1.0, e)
            ufunc, c = generators._divider(d)
            assert ufunc is np.multiply and c == 1.0 / d, d
            with np.errstate(all="ignore"):
                assert np.array_equal(_bits(ufunc(self.X, c)), _bits(np.divide(self.X, d))), d

    @pytest.mark.parametrize("d", [math.ldexp(1.0, -1024), -math.ldexp(1.0, -1030), 5e-324,
                                   3.0, 10.0, 0.1, -2.5, 1.5 * 2.0**-1022, 1.5 * 2.0**1023])
    def test_others_keep_dividing(self, d):
        assert generators._divider(d) == (np.divide, d)

    @pytest.mark.parametrize("k", [2.0, -1.0, -2.0, 0.5, -0.25, 2.0**-1023, 3.0, -0.1])
    def test_exp_inverse_is_log_over_k(self, k):
        y = np.abs(self.X[np.isfinite(self.X) & (self.X != 0.0)])
        # log(y) / 2**-1023 overflows where |log(y)| > 1
        with np.errstate(all="ignore"):
            want, got = np.log(y) / k, ExpGenerator(k).inverse(y)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("b", [0.0, 1.5])
    @pytest.mark.parametrize("a", [2.0, -0.5, 4.0, 2.0**-20, 3.0, -2.5])
    def test_affine_inverse_is_log_of_y_minus_b_over_a(self, a, b):
        x = np.linspace(-3.0, 30.0, 241)
        gens = [affine(ExpGenerator(1.0), a, b)] + ([scale(ExpGenerator(1.0), a)] if a > 0 and b == 0.0 else [])
        for gen in gens:
            y = gen.eval(x)
            want = np.log((y - b) / a)
            assert np.array_equal(_bits(gen.inverse(y)), _bits(want)), gen.describe()


class TestBisectionInSearches:
    """Both searches over a bisecting exp pair against its closed-form twin."""

    PAIRS = ((_bisect_exp(1.0), _bisect_exp(2.0)), (ExpGenerator(1.0), ExpGenerator(2.0)))

    @staticmethod
    def assert_same_witness(found, twin):
        assert found is not None and twin is not None
        assert found.values == twin.values
        for side in ("lhs", "rhs", "rel_residual"):
            assert getattr(found.report, side) == pytest.approx(getattr(twin.report, side), rel=1e-9)

    def test_block_search(self):
        grid = GridSpec(7, (0.2, 2.0))
        found, twin = (block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, grid, 1e-6)
                       for f, g in self.PAIRS)
        self.assert_same_witness(found, twin)

    def test_full_search(self):
        spaces = (DiscreteMeasureSpace([0.8, 1.5]), DiscreteMeasureSpace([0.6, 1.2, 0.9]))
        found, twin = (full_witness_search(f, g, (2, 3), spaces, GridSpec(5, (0.2, 2.0)), 1e-6)
                       for f, g in self.PAIRS)
        self.assert_same_witness(found, twin)

    # fresh pairs, so that both workers walk the brackets of the same generators at once
    @pytest.mark.parametrize("search", [
        lambda f, g, workers: block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, GridSpec(7, (0.2, 2.0)),
                                                   1e-6, workers=workers),
        lambda f, g, workers: full_witness_search(
            f, g, (2, 3), (DiscreteMeasureSpace([0.8, 1.5]), DiscreteMeasureSpace([0.6, 1.2, 0.9])),
            GridSpec(5, (0.2, 2.0)), 1e-6, workers=workers),
    ], ids=["block", "full"])
    def test_two_workers_give_the_witness_of_one(self, search):
        one, two = (search(_bisect_exp(1.0), _bisect_exp(2.0), workers) for workers in (1, 2))
        assert one is not None
        assert two.to_json() == one.to_json()


class TestWrappers:
    def test_scale_examples(self):
        assert scale(ExpGenerator(1.0), 2.0).eval(0.0) == 2.0
        assert scale(PowerGenerator(2.0), 3.0).eval(2.0) == 12.0

    def test_scale_by_one_is_pointwise_identity(self):
        g = PowerGenerator(0.5)
        xs = g.domain.sample_points(17)
        assert np.allclose(scale(g, 1.0).eval(xs), g.eval(xs), rtol=0, atol=0)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(ExpGenerator(1.0), 0.0)
        with pytest.raises(ValueError):
            scale(ExpGenerator(1.0), -2.0)

    def test_affine_examples(self):
        assert affine(IdentityGenerator(), 2.0, 3.0).eval(5.0) == 13.0
        assert affine(LogGenerator(), -1.0, 0.0).eval(math.e) == pytest.approx(-1.0)

    def test_affine_identity_coefficients(self):
        g = ExpGenerator(2.0)
        xs = g.domain.sample_points(17)
        assert np.allclose(affine(g, 1.0, 0.0).eval(xs), g.eval(xs), rtol=0, atol=0)

    def test_affine_rejects_zero_slope(self):
        with pytest.raises(ValueError):
            affine(ExpGenerator(1.0), 0.0, 1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda g: scale(g, math.inf), "scale factor must be a finite positive real"),
        (lambda g: scale(g, math.nan), "scale factor must be a finite positive real"),
        (lambda g: affine(g, -math.inf, 0.0), "affine wrapper requires finite a != 0 and finite b"),
        (lambda g: affine(g, 1.0, math.nan), "affine wrapper requires finite a != 0 and finite b"),
        (lambda g: ExpGenerator(math.inf), "exp generator requires a finite nonzero rate k"),
    ], ids=["scale-inf", "scale-nan", "affine-a-inf", "affine-b-nan", "exp-k-inf"])
    def test_non_finite_parameters_are_refused(self, build, message):
        with pytest.raises(ValueError) as info:
            build(ExpGenerator(1.0))
        assert str(info.value) == message

    def test_constructors_take_numpy_numbers(self):
        # only documents are held to JSON numbers
        g = ExpGenerator(np.int64(2))
        assert scale(g, np.float32(3.0)).describe() == "3*exp(k=2)"
        assert affine(PowerGenerator(np.float64(0.5)), np.int64(-2), np.float32(1.5)).describe() == \
            "-2*power(p=0.5)+1.5"

    def test_scale_preserves_positive_codomain(self):
        assert scale(ExpGenerator(1.0), 2.0).codomain_kind is CodomainKind.POSITIVE_REALS

    def test_affine_shift_loses_positive_codomain(self):
        assert affine(ExpGenerator(1.0), 1.0, 1.0).codomain_kind is CodomainKind.ALL_REALS

    def test_affine_pure_positive_rescale_keeps_codomain(self):
        assert affine(ExpGenerator(1.0), 2.0, 0.0).codomain_kind is CodomainKind.POSITIVE_REALS

    def test_negative_slope_flips_direction(self):
        gen = affine(ExpGenerator(1.0), -1.0, 0.0)
        assert not gen.increasing
        assert gen.eval(0.0) > gen.eval(1.0)


class TestSettingValidation:
    def test_exp_is_positive_bijection(self):
        assert validate_for_setting(ExpGenerator(2.0), MeanSetting.FINITE_MEASURE)

    def test_shifted_exp_is_not(self):
        gen = affine(ExpGenerator(1.0), 1.0, 1.0)  # range (1, inf)
        assert not validate_for_setting(gen, MeanSetting.FINITE_MEASURE)
        assert validate_for_setting(gen, MeanSetting.PROBABILITY)

    def test_identity_probability_only(self):
        assert validate_for_setting(IdentityGenerator(), MeanSetting.PROBABILITY)
        assert not validate_for_setting(IdentityGenerator(), MeanSetting.FINITE_MEASURE)

    def test_log_probability_only(self):
        assert not validate_for_setting(LogGenerator(), MeanSetting.FINITE_MEASURE)

    def test_unknown_setting(self):
        with pytest.raises(ValueError) as info:
            validate_for_setting(ExpGenerator(1.0), "finite_measure")
        assert str(info.value) == "unknown setting: 'finite_measure'"

    def test_finite_measure_implies_probability(self, catalog):
        wrapped = [scale(g, 2.0) for g in catalog] + [affine(g, -1.0, 0.5) for g in catalog]
        for gen in list(catalog) + wrapped:
            if validate_for_setting(gen, MeanSetting.FINITE_MEASURE):
                assert validate_for_setting(gen, MeanSetting.PROBABILITY)


class TestRoundTripAndMonotonicity:
    def test_round_trip_catalog_and_wrappers(self, catalog):
        rng = np.random.default_rng(7)
        for base in catalog:
            for gen in (base, scale(base, 3.0), affine(base, -2.0, 1.5), affine(scale(base, 0.5), 4.0, -3.0)):
                if math.isinf(gen.domain.lower):
                    xs = rng.uniform(-8.0, 8.0, 1000)
                else:
                    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
                back = gen.inverse(gen.eval(xs))
                assert np.all(np.abs(back - xs) <= 1e-10 * np.maximum(1.0, np.abs(xs))), gen.describe()

    def test_monotone_direction_consistent(self, catalog):
        rng = np.random.default_rng(11)
        for gen in catalog:
            for _ in range(100):
                if math.isinf(gen.domain.lower):
                    x, y = np.sort(rng.uniform(-5.0, 5.0, 2))
                else:
                    x, y = np.sort(np.exp(rng.uniform(np.log(0.01), np.log(100.0), 2)))
                if x == y:
                    continue
                assert (gen.eval(y) > gen.eval(x)) == gen.increasing

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-3, max_value=3).filter(lambda k: abs(k) > 1e-3),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_exp_round_trip_property(self, k, x):
        gen = ExpGenerator(k)
        assert gen.inverse(gen.eval(x)) == pytest.approx(x, rel=1e-10, abs=1e-10)


class _OnNegatives(PowerGenerator):
    """power(p=2) with its domain moved to (-inf, -1), which no catalog domain meets."""

    domain = Interval(-math.inf, -1.0)

    def __init__(self):
        super().__init__(2.0)


class TestEquivalenceRelations:
    def test_proportional_scaled(self):
        c = is_proportional(scale(ExpGenerator(1.0), 3.0), ExpGenerator(1.0))
        assert c == pytest.approx(3.0, rel=1e-12)

    def test_proportional_self(self):
        g = PowerGenerator(2.0)
        assert is_proportional(g, g) == pytest.approx(1.0)

    def test_not_proportional_different_rates(self):
        # ratio exp(x)/exp(2x) = exp(-x) varies, e.g. at x = 0 and x = 1
        assert is_proportional(ExpGenerator(1.0), ExpGenerator(2.0)) is None

    def test_affine_equivalent_example(self):
        a, b = is_affine_equivalent(affine(IdentityGenerator(), 2.0, 3.0), IdentityGenerator())
        assert (a, b) == pytest.approx((2.0, 3.0))

    def test_affine_equivalent_self(self):
        a, b = is_affine_equivalent(LogGenerator(), LogGenerator())
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_cube_not_affine(self):
        # three-point collinearity of (g(x), f(x)) fails for f = x, g = x^3
        assert is_affine_equivalent(IdentityGenerator(), PowerGenerator(3.0)) is None

    def test_proportional_implies_affine_with_zero_intercept(self, catalog):
        for g in catalog:
            f = scale(g, 2.5)
            c = is_proportional(f, g)
            assert c == pytest.approx(2.5, rel=1e-10)
            a, b = is_affine_equivalent(f, g)
            assert a == pytest.approx(c, rel=1e-8)
            assert abs(b) <= 1e-8

    def test_domain_mismatch_raises(self):
        lower = AffineGenerator(1.0, 0.0, PowerGenerator(2.0))  # domain (0, inf)
        # no shared interval with a generator living on (-inf, 0): build via affine of log on mirrored input
        # simplest: two power generators have the same domain, so fabricate disjoint intervals directly
        class Shifted(PowerGenerator):
            def __init__(self):
                super().__init__(2.0)
                self.domain = Interval(-math.inf, -1.0)

        with pytest.raises(ValueError):
            is_proportional(Shifted(), lower)

    @pytest.mark.parametrize("check", [is_proportional, is_affine_equivalent])
    def test_domain_mismatch_message(self, check):
        with pytest.raises(ValueError) as info:
            check(_OnNegatives(), PowerGenerator(3.0))
        assert str(info.value) == "domain mismatch: power(p=2) and power(p=3) share no interval"

    @pytest.mark.parametrize("check", [is_proportional, is_affine_equivalent])
    def test_default_tolerance_is_the_package_default(self, check):
        assert inspect.signature(check).parameters["tol"].default == DEFAULT_ZERO_TOL

    def test_negative_ratio_is_not_proportional(self):
        g = PowerGenerator(1.0)
        f = affine(g, -2.0, 0.0)
        assert is_proportional(f, g) is None
        a, b = is_affine_equivalent(f, g)
        assert a == pytest.approx(-2.0)


class TestJsonParsing:
    def test_families(self):
        assert generator_from_json({"family": "exp", "k": 2.0}).describe() == "exp(k=2)"
        assert generator_from_json({"family": "power", "p": -1.0}).describe() == "power(p=-1)"
        assert generator_from_json({"family": "identity"}).describe() == "identity"
        assert generator_from_json({"family": "log"}).describe() == "log"

    def test_wrappers_applied_outermost_last(self):
        gen = generator_from_json(
            {"family": "exp", "k": 1.0, "scale": 2.0, "affine": {"a": 1.0, "b": 1.0}}
        )
        # affine(scale(exp)): 1 * (2 * e^0) + 1 = 3
        assert gen.eval(0.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("doc", [
        {"family": "exp", "k": -2.0},
        {"family": "power", "p": -1.0},
        {"family": "identity"},
        {"family": "log"},
        {"family": "power", "p": 0.5, "scale": 3.0},
        {"family": "log", "affine": {"a": -2.0, "b": 0.5}},
        {"family": "exp", "k": 1.0, "scale": 2.0, "affine": {"a": 3.0, "b": -1.0}},
    ])
    def test_round_trip(self, doc):
        assert generator_from_json(doc).to_json() == doc

    def test_python_built_stack_round_trips(self):
        gen = affine(scale(ExpGenerator(1.0), 2.0), 3.0, -1.0)
        back = generator_from_json(gen.to_json())
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(back.eval(xs), gen.eval(xs))

    @pytest.mark.parametrize("build", [
        lambda e: scale(scale(e, 2.0), 3.0),
        lambda e: affine(affine(e, 2.0, 1.0), 3.0, 4.0),
        lambda e: scale(affine(e, 2.0, 1.0), 3.0),
    ], ids=["scale-scale", "affine-affine", "scale-affine"])
    def test_stack_without_a_document_raises(self, build):
        # such a document would read back as another generator
        gen = build(ExpGenerator(1.0))
        with pytest.raises(ValueError, match="no document holds"):
            gen.to_json()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generator_from_json({"family": "sinh"})

    def test_missing_family(self):
        with pytest.raises(ValueError):
            generator_from_json({"k": 1.0})

    def test_power_requires_exponent(self):
        with pytest.raises(ValueError):
            generator_from_json({"family": "power"})


_R, _POS = Interval(-math.inf, math.inf), Interval(0.0, math.inf)


class TestCatalogSurface:
    """What the catalog shows of itself: descriptions, documents, reprs, ranges, messages."""

    # (document, describe(), to_json(), increasing, domain, codomain)
    VALID = [
        ({"family": "exp", "k": -2.0}, "exp(k=-2)", {"family": "exp", "k": -2.0}, False, _R, _POS),
        ({"family": "power", "p": -1.0}, "power(p=-1)", {"family": "power", "p": -1.0}, False,
         _POS, _POS),
        ({"family": "identity"}, "identity", {"family": "identity"}, True, _R, _R),
        ({"family": "log"}, "log", {"family": "log"}, True, _POS, _R),
        ({"family": "power", "p": 0.5, "scale": 3.0}, "3*power(p=0.5)",
         {"family": "power", "p": 0.5, "scale": 3.0}, True, _POS, _POS),
        ({"family": "log", "affine": {"a": -2.0, "b": 0.5}}, "-2*log+0.5",
         {"family": "log", "affine": {"a": -2.0, "b": 0.5}}, False, _POS, _R),
        ({"family": "exp", "k": 1.0, "scale": 2.0, "affine": {"a": 3.0, "b": -1.0}},
         "3*2*exp(k=1)-1", {"family": "exp", "k": 1.0, "scale": 2.0, "affine": {"a": 3.0, "b": -1.0}},
         True, _R, Interval(-1.0, math.inf)),
        ({"family": "exp"}, "exp(k=1)", {"family": "exp", "k": 1.0}, True, _R, _POS),
        ({"family": "identity", "k": 3}, "identity", {"family": "identity"}, True, _R, _R),
    ]

    @pytest.mark.parametrize("doc, text, back, increasing, domain, codomain", VALID,
                             ids=[repr(v[0]) for v in VALID])
    def test_valid_document(self, doc, text, back, increasing, domain, codomain):
        gen = generator_from_json(doc)
        assert gen.describe() == text
        out = gen.to_json()
        # key order too: the CLI writes documents sorted, but a caller may not
        assert json.dumps(out) == json.dumps(back)
        assert repr(gen) == f"<Generator {text}>"
        assert gen.increasing is increasing
        assert (gen.domain, gen.codomain) == (domain, codomain)

    INVALID = [
        (lambda: generator_from_json({"family": ["exp"]}), ValueError,
         "unknown generator family: ['exp']"),
        (lambda: generator_from_json({"family": None}), ValueError, "unknown generator family: None"),
        (lambda: generator_from_json({"family": "power"}), ValueError,
         "power generator document requires an exponent 'p'"),
        (lambda: generator_from_json({"family": "exp", "k": 0}), ValueError,
         "exp generator requires a finite nonzero rate k"),
        (lambda: generator_from_json({"family": "exp", "k": None}), ValueError,
         "k must be a JSON number within the float range, got None"),
        # float() would take these for numbers
        (lambda: generator_from_json({"family": "exp", "k": "2"}), ValueError,
         "k must be a JSON number within the float range, got '2'"),
        (lambda: generator_from_json({"family": "exp", "k": True}), ValueError,
         "k must be a JSON number within the float range, got True"),
        (lambda: generator_from_json({"family": "power", "p": 10**400}), ValueError,
         f"p must be a JSON number within the float range, got {'1' + '0' * 35} ..."),
        (lambda: generator_from_json({"family": "log", "scale": "3"}), ValueError,
         "scale must be a JSON number within the float range, got '3'"),
        (lambda: generator_from_json({"family": "log", "affine": {"a": "2", "b": 0}}), ValueError,
         "affine a must be a JSON number within the float range, got '2'"),
        (lambda: generator_from_json({"family": "log", "affine": {"a": 2, "b": False}}), ValueError,
         "affine b must be a JSON number within the float range, got False"),
        (lambda: generator_from_json({"family": "log", "affine": [2, 0]}), ValueError,
         "affine wrapper must be an object with 'a' and 'b'"),
        (lambda: ExpGenerator(0), ValueError, "exp generator requires a finite nonzero rate k"),
        (lambda: PowerGenerator(math.nan), ValueError,
         "power generator requires a finite nonzero exponent p"),
    ]

    @pytest.mark.parametrize("build, exc, message", INVALID,
                             ids=["family-list", "family-null", "power-no-p", "exp-k-0", "exp-k-null",
                                  "exp-k-string", "exp-k-bool", "power-p-huge", "scale-string",
                                  "affine-a-string", "affine-b-bool", "affine-list",
                                  "ExpGenerator(0)", "PowerGenerator(nan)"])
    def test_invalid_input(self, build, exc, message):
        with pytest.raises(exc) as info:
            build()
        assert type(info.value) is exc
        assert str(info.value) == message


class TestInterval:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_closed_infinite_end(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf, upper_open=False)

    def test_rejects_closed_infinite_lower_end(self):
        with pytest.raises(ValueError) as info:
            Interval(-math.inf, 0.0, lower_open=False)
        assert str(info.value) == "an infinite lower endpoint must be open"

    def test_sample_points_need_two(self):
        with pytest.raises(ValueError) as info:
            Interval(0.0, 1.0).sample_points(1)
        assert str(info.value) == "need at least 2 sample points"

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_points_keep_their_message_below_two(self, n):
        with pytest.raises(ValueError) as info:
            Interval(0.0, 1.0).sample_points(n)
        assert str(info.value) == "need at least 2 sample points"

    @pytest.mark.parametrize("n", [2.5, 17.0, True, "17", None])
    def test_sample_points_refuse_a_non_integer_count(self, n):
        # 2.5 failed inside numpy with a TypeError
        with pytest.raises(ValueError) as info:
            Interval(0.0, 1.0).sample_points(n)
        assert str(info.value) == f"n must be an integer, got {n}"

    def test_sample_points_take_a_numpy_integer(self):
        iv = Interval(0.0, math.inf)
        assert np.array_equal(iv.sample_points(np.int64(5)), iv.sample_points(5))

    def test_rejects_an_empty_interval(self):
        with pytest.raises(ValueError) as info:
            Interval(1.0, 1.0)
        assert str(info.value) == "interval needs lower < upper, got [1.0, 1.0]"

    def test_intersection(self):
        common = Interval(-math.inf, math.inf).intersection(Interval(0.0, math.inf))
        assert (common.lower, common.upper) == (0.0, math.inf)
        assert Interval(0.0, 1.0).intersection(Interval(2.0, 3.0)) is None

    OPENNESS = list(itertools.product([True, False], repeat=2))

    @pytest.mark.parametrize("open_a, open_b", OPENNESS)
    def test_intersection_at_equal_lower_ends(self, open_a, open_b):
        # the shared end is open when either interval leaves it out
        a, b = Interval(0.0, 2.0, open_a, False), Interval(0.0, 3.0, open_b, True)
        for common in (a.intersection(b), b.intersection(a)):
            assert common == Interval(0.0, 2.0, open_a or open_b, False)

    @pytest.mark.parametrize("open_a, open_b", OPENNESS)
    def test_intersection_at_equal_upper_ends(self, open_a, open_b):
        a, b = Interval(-1.0, 2.0, True, open_a), Interval(0.0, 2.0, False, open_b)
        for common in (a.intersection(b), b.intersection(a)):
            assert common == Interval(0.0, 2.0, False, open_a or open_b)

    @pytest.mark.parametrize("open_a, open_b", OPENNESS)
    def test_intersection_of_touching_intervals_is_none(self, open_a, open_b):
        # closed at both, they share the one point 1.0, which is no interval
        a, b = Interval(0.0, 1.0, True, open_a), Interval(1.0, 2.0, open_b, True)
        assert a.intersection(b) is None and b.intersection(a) is None

    @pytest.mark.parametrize("end", [0.3, -0.7, 1.0, 4.0, -25.0])
    @pytest.mark.parametrize("end_open", [True, False])
    def test_sample_points_on_a_half_line(self, end, end_open):
        # the point nearest the finite end is 0.1 * max(1, |end|) from it
        gap = 0.1 * max(1.0, abs(end))
        for iv, nearest in ((Interval(end, math.inf, end_open), 0),
                            (Interval(-math.inf, end, True, end_open), -1)):
            xs = iv.sample_points(17)
            assert xs.shape == (17,)
            assert np.all(np.diff(xs) > 0.0)
            assert all(iv.lower < x < iv.upper for x in xs)
            assert abs(xs[nearest] - end) == pytest.approx(gap, rel=1e-12)

    SPECIAL = np.array([-math.inf, math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308,
                        1e-300, 0.5, 1.0, -1.0, 2.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                        np.nextafter(2.0, 3.0), 1.7e308, -1.7e308])

    INTERVALS = [
        Interval(0.0, 1.0), Interval(0.0, 1.0, False, False), Interval(-1.0, 2.0, True, False),
        Interval(1.0, 2.0, False, True), Interval(0.0, math.inf), Interval(0.0, math.inf, False),
        Interval(-math.inf, 1.0), Interval(-math.inf, 1.0, upper_open=False),
        Interval(-math.inf, math.inf), Interval(5e-324, 2.0, False, True), Interval(-0.0, 0.5, False),
    ]

    @pytest.mark.parametrize("iv", INTERVALS, ids=repr)
    def test_contains_equals_the_comparisons_and_isfinite(self, iv):
        x = self.SPECIAL
        lo = (x > iv.lower) if iv.lower_open else (x >= iv.lower)
        hi = (x < iv.upper) if iv.upper_open else (x <= iv.upper)
        want = lo & hi & np.isfinite(x)
        assert np.array_equal(iv.contains(x), want)
        assert [iv.contains(v) for v in x] == want.tolist()
        assert all(type(iv.contains(v)) is bool for v in x)

    # 0-d, empty, and both sides of the switch from Python floats to reductions
    SHAPES = [(), (0,), (0, 4), (1,), (6,), (2, 3), (_RANGE_LIST_MAX,), (_RANGE_LIST_MAX + 1,),
              (3, _RANGE_LIST_MAX)]

    @settings(max_examples=500, deadline=None)
    @given(iv=st.sampled_from(INTERVALS), shape=st.sampled_from(SHAPES), data=st.data())
    def test_contains_all_equals_contains_reduced(self, iv, shape, data):
        # the interval's own ends, and a point inside, as often as anything else
        ends = [iv.lower, iv.upper, np.nextafter(iv.lower, 0.0), np.nextafter(iv.upper, 0.0),
                iv.sample_points(3)[1]]
        x = data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(ends), st.sampled_from([*self.SPECIAL, -0.0]), st.floats())))
        want = bool(np.asarray(iv.contains(x)).all())
        assert iv.contains_all(x) is want
        assert iv.contains_all(x.tolist()) is want

    @pytest.mark.parametrize("n", [_RANGE_LIST_MAX, _RANGE_LIST_MAX + 1])
    def test_contains_all_rejects_one_outside_element(self, n):
        iv = Interval(0.0, 1.0, True, False)
        inside = np.linspace(0.5, 1.0, n)
        assert iv.contains_all(inside)
        for bad in (0.0, -0.0, math.nan, math.inf, -math.inf, np.nextafter(1.0, 2.0)):
            for at in (0, n // 2, n - 1):
                x = inside.copy()
                x[at] = bad
                assert not iv.contains_all(x)

    def test_sample_points_stay_inside(self):
        for iv in (Interval(-math.inf, math.inf), Interval(0.0, math.inf), Interval(1.0, 4.0)):
            assert iv.contains_all(iv.sample_points(17))
