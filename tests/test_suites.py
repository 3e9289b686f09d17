import itertools
import math

import numpy as np
import pytest

from qamlab import (
    AffineGenerator,
    DiscreteMeasureSpace,
    ExpGenerator,
    Generator,
    IdentityGenerator,
    Interval,
    LogGenerator,
    PowerGenerator,
    ProductGrid,
    RangeError,
    SimpleFunctionMatrix,
    affine,
    commutation_residual,
    run_finite_measure_suite,
    run_probability_suite,
    scale,
)
from qamlab import suites
from qamlab.generators import POSITIVE_HALF_LINE, REAL_LINE, masked_inverse
from qamlab.means import mixed_means
from qamlab.suites import (_MASSES, _TEXT, _TOTALS, _apply, _near_one, _pad, _read_pairs, _run_groups,
                           _value_law)
from conftest import random_in_domain


def random_values(rng, domain, shape):
    """Reference: the suites' function values drawn with numpy's ``uniform``, well inside ``domain``."""
    if math.isinf(domain.lower) and math.isinf(domain.upper):
        return rng.uniform(-2.0, 2.0, shape)
    if domain.lower == 0.0 and math.isinf(domain.upper):
        return np.exp(rng.uniform(math.log(0.2), math.log(5.0), shape))
    lo, hi = domain.lower, domain.upper
    span = hi - lo
    return rng.uniform(lo + 0.1 * span, hi - 0.1 * span, shape)


def per_case_rows(name, tol, cases):
    """Reference: one ``commutation_residual`` per case, rows as the suites build them."""
    rows, worst = [], 0.0
    for case_id, (f, g, wx, wy, values) in enumerate(cases):
        grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
        report = commutation_residual(f, g, grid, SimpleFunctionMatrix(values))
        worst = max(worst, report.rel_residual)
        rows.append(
            {
                "suite": name,
                "case": case_id,
                "f": f.describe(),
                "g": g.describe(),
                "masses_x": ";".join(f"{w:.6g}" for w in grid.space_x.weights),
                "masses_y": ";".join(f"{w:.6g}" for w in grid.space_y.weights),
                "lhs": report.lhs,
                "rhs": report.rhs,
                "abs_residual": report.abs_residual,
                "rel_residual": report.rel_residual,
                "pass": report.rel_residual <= tol,
            }
        )
    return rows, worst


def groups_of(cases):
    """``_run_groups`` input for ``(f, g, wx, wy, H)`` cases: a group per run of one (f, g), a space pair per case.

    Each group has a ``mixed_means`` call of its own, with its own f.

    Every run must hold the same number of cases, as every group of a suite does.
    """
    runs = [list(run) for _, run in itertools.groupby(cases, key=lambda case: case[:2])]
    shape = (len(runs), len(runs[0]))
    assert all(len(run) == shape[1] for run in runs)
    m, n = np.empty(shape, dtype=int), np.empty(shape, dtype=int)
    wx, wy = np.zeros((*shape, 3)), np.zeros((*shape, 3))
    values = np.empty((*shape, 1, 3, 3))
    for i, run in enumerate(runs):
        for p, (_, _, wx_p, wy_p, values_p) in enumerate(run):
            m[i, p], n[i, p] = mx, my = values_p.shape
            wx[i, p, :mx], wy[i, p, :my], values[i, p, 0, :mx, :my] = wx_p, wy_p, values_p
    _pad(values, m, n)
    pairs = [run[0][:2] for run in runs]
    return pairs, [(f, g, slice(i, i + 1)) for i, (f, g) in enumerate(pairs)], wx, wy, values, m, n


def bits(rows):
    """Rows with every float as its hex text, so that == compares them bit for bit."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


PROPORTIONAL_PAIRS = [
    (scale(g, c), g)
    for g in (ExpGenerator(-1.0), ExpGenerator(1.0), ExpGenerator(2.0),
              PowerGenerator(-1.0), PowerGenerator(0.5), PowerGenerator(2.0))
    for c in (0.5, 2.0, 10.0)
]
AFFINE_PAIRS = [
    (affine(g, a, b), g)
    for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0)
    for g in (IdentityGenerator(), LogGenerator(), ExpGenerator(1.0), PowerGenerator(2.0))
]
# f reaches its range's end -1 on near-zero h; g is shifted so that small masses fail
BOUNDARY = (affine(PowerGenerator(2.0), -2.0, -1.0), PowerGenerator(2.0))
SHIFTED = (ExpGenerator(1.0), affine(ExpGenerator(1.0), 1.0, 1.0))
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))


def hand_built_cases():
    """Both catalogs in all four shapes, twelve cases per pair, the cases of a pair consecutive."""
    rng = np.random.default_rng(8)
    pairs = [
        (scale(ExpGenerator(2.0), 10.0), ExpGenerator(2.0), False),
        (scale(PowerGenerator(-1.0), 0.5), PowerGenerator(-1.0), False),
        (affine(LogGenerator(), -2.0, 4.0), LogGenerator(), True),
        (affine(IdentityGenerator(), 3.0, -1.0), IdentityGenerator(), True),
    ]
    cases = [[] for _ in pairs]
    for _ in range(3):
        for shape in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for run, (f, g, probability) in zip(cases, pairs):
                totals = (1.0, 1.0) if probability else rng.uniform(0.2, 5.0, 2)
                wx, wy = (rng.uniform(0.5, 1.5, size) for size in shape)
                wx, wy = wx * (totals[0] / wx.sum()), wy * (totals[1] / wy.sum())
                run.append((f, g, wx, wy, random_in_domain(rng, g, shape)))
    return [case for run in cases for case in run]


# (wx, wy, H) on which outer-X fails for BOUNDARY, inner-Y for SHIFTED, exp overflows to inf,
# and exp and power(2) both overflow
_HALF = np.array([0.5, 0.5])
FAILING_INPUTS = [(_HALF, _HALF, np.full((2, 2), 1e-9)), (_HALF, _HALF / 5, np.zeros((2, 2))),
                  (_HALF, _HALF, np.full((2, 2), 400.0)), (_HALF, _HALF, np.full((2, 2), 1e200))]


def random_cases(rng, g, totals=(1.0, 0.3, 4.0)):
    """``(wx, wy, H)`` cases in g's domain, of every shape, per total mass of ``totals``."""
    cases = []
    for total in totals:
        for shape in SHAPES:
            wx, wy = (rng.uniform(0.5, 1.5, size) for size in shape)
            cases.append((wx * (total / wx.sum()), wy * (total / wy.sum()), random_in_domain(rng, g, shape)))
    return cases


def padded_batch(cases):
    """``(wx[B, 3], wy[B, 3], H[B, 3, 3])`` of ``(wx, wy, H)`` cases, padded as the suites pad them."""
    wx, wy = np.zeros((len(cases), 3)), np.zeros((len(cases), 3))
    values = np.empty((len(cases), 3, 3))
    m, n = (np.array(dims) for dims in zip(*(case[2].shape for case in cases)))
    for b, (wx_b, wy_b, values_b) in enumerate(cases):
        wx[b, :m[b]], wy[b, :n[b]], values[b, :m[b], :n[b]] = wx_b, wy_b, values_b
    _pad(values[:, None], m, n)
    return wx, wy, values


class TestSuites:
    def test_finite_measure_suite_schema_and_pass(self):
        result = run_finite_measure_suite(seed=3, pairs_per_combo=3, h_per_pair=2)
        assert result.name == "finite-measure-proportional"
        assert result.n_cases == 6 * 3 * 3 * 2
        assert result.passed
        row = result.rows[0]
        assert {"suite", "case", "f", "g", "masses_x", "masses_y",
                "lhs", "rhs", "abs_residual", "rel_residual", "pass"} <= set(row)

    def test_probability_suite_covers_requested_trials(self):
        result = run_probability_suite(seed=3, trials=100)
        assert result.n_cases >= 100
        assert result.passed

    def test_same_seed_reproduces_rows_exactly(self):
        a = run_finite_measure_suite(seed=11, pairs_per_combo=4, h_per_pair=2)
        b = run_finite_measure_suite(seed=11, pairs_per_combo=4, h_per_pair=2)
        assert a.rows == b.rows
        assert a.max_rel_residual == b.max_rel_residual

    def test_different_seeds_draw_different_cases(self):
        a = run_finite_measure_suite(seed=1, pairs_per_combo=2, h_per_pair=1)
        b = run_finite_measure_suite(seed=2, pairs_per_combo=2, h_per_pair=1)
        assert a.rows != b.rows

    def test_summary_reflects_outcome(self):
        result = run_probability_suite(seed=5, trials=72)
        summary = result.summary()
        assert summary["pass"] is True
        assert summary["cases"] == result.n_cases
        assert summary["max_rel_residual"] == result.max_rel_residual

    def test_total_masses_avoid_unity(self):
        result = run_finite_measure_suite(seed=9, pairs_per_combo=10, h_per_pair=1)
        for row in result.rows:
            for key in ("masses_x", "masses_y"):
                total = sum(float(w) for w in row[key].split(";"))
                assert abs(total - 1.0) > 1e-3

    def test_batched_rows_equal_per_case_rows(self):
        cases = hand_built_cases()
        groups = groups_of(cases)
        result = _run_groups("hand-built", 1e-8, *groups)
        rows, worst = per_case_rows("hand-built", 1e-8, cases)
        assert len(rows) == 48 and len(groups[0]) == 4
        assert bits(result.rows) == bits(rows)
        assert result.max_rel_residual == worst

    def test_no_functions_per_pair_draws_no_cases(self):
        assert run_finite_measure_suite(seed=4, pairs_per_combo=2, h_per_pair=0).n_cases == 0

    def test_zero_mass_padding_is_invisible_bit_for_bit(self):
        rng = np.random.default_rng(21)
        failed = 0
        for f, g in [*PROPORTIONAL_PAIRS, *AFFINE_PAIRS, BOUNDARY, SHIFTED]:
            cases = random_cases(rng, g) + FAILING_INPUTS
            padded = mixed_means(f, g, *padded_batch(cases))
            alone = [np.array(side) for side in zip(*(mixed_means(f, g, *case) for case in cases))]
            # bit for bit, so the NaN sides of the failing cases too
            for side in (0, 1):
                assert np.array_equal(padded[side].view(np.int64), alone[side].view(np.int64))
            failed += int(np.count_nonzero(np.isnan(alone[0]) | np.isnan(alone[1])))
        assert failed > 0

    def test_first_failing_case_in_case_order_across_shape_runs(self):
        # one group of three shapes: the failing 3x3 pair sits between two 2x2 pairs, the
        # second of which fails too; grouping by shape would meet that 2x2 failure first
        f, g = SHIFTED
        half, third = np.array([0.5, 0.5]), np.full(3, 0.1)
        cases = [(f, g, half, half, np.zeros((2, 2))),
                 (f, g, third, third, np.array([[3.0] * 3, [3.0] * 3, [0.0] * 3])),
                 (f, g, half, half / 5, np.zeros((2, 2)))]

        with pytest.raises(RangeError) as expected:
            per_case_rows("errors", 1e-8, cases)
        groups = groups_of(cases)
        assert len(groups[0]) == 1
        with pytest.raises(RangeError) as err:
            _run_groups("errors", 1e-8, *groups)
        assert "X atom 2" in str(expected.value)
        assert err.value.stage == expected.value.stage == "inner-Y"
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("boundary_first", [False, True])
    def test_raises_the_error_of_the_first_failing_case(self, boundary_first):
        # three groups, of which the second and the third fail: the third is
        # the first pair's again, whose first group passes
        boundary, shifted = BOUNDARY, SHIFTED
        half, small = np.array([0.5, 0.5]), np.array([0.1, 0.1])
        boundary_cases = [(*boundary, half, half, np.full((2, 2), 0.7)),
                          (*boundary, half, half, np.full((2, 2), 1e-9))]   # outer-X
        shifted_cases = [(*shifted, half, half, np.zeros((2, 2))),
                         (*shifted, half, small, np.zeros((2, 2)))]        # inner-Y
        first, second = (shifted_cases, boundary_cases) if boundary_first else \
            (boundary_cases, shifted_cases)
        cases = [first[0], second[1], first[1]]

        with pytest.raises(RangeError) as expected:
            per_case_rows("errors", 1e-8, cases)
        with pytest.raises(RangeError) as err:
            _run_groups("errors", 1e-8, *groups_of(cases))
        assert expected.value.stage == ("outer-X" if boundary_first else "inner-Y")
        assert err.value.stage == expected.value.stage
        assert str(err.value) == str(expected.value)


class _ExpNoClosedForm(Generator):
    """e^x with the default inverse, the bracketed regula falsi, which raises on a target outside the range."""

    domain, codomain, increasing = REAL_LINE, POSITIVE_HALF_LINE, True

    def _eval_raw(self, x):
        return np.exp(x)

    def describe(self):
        return "exp-no-closed-form"

    def to_json(self):
        return {}


class TestStacks:
    """Each suite's groups over one base share a ``mixed_means`` call, declared once with the catalog."""

    @pytest.mark.parametrize("g", [ExpGenerator(1.0), PowerGenerator(2.0)], ids=["exp", "power"])
    def test_stacked_wrappers_equal_their_groups_bit_for_bit(self, g):
        # six ranges over nine groups: (b, inf) for a > 0, (-inf, b) for a < 0
        wrappers = [affine(g, a, b) for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0)] + [scale(g, 10.0)]
        stack = suites._Stack(wrappers)
        rng = np.random.default_rng(34)
        batches = [padded_batch(random_cases(rng, g) + FAILING_INPUTS) for _ in wrappers]
        wx, wy, values = (np.stack(arrays) for arrays in zip(*batches))
        stacked = mixed_means(stack, g, wx, wy, values)
        alone = [np.stack(sides)
                 for sides in zip(*(mixed_means(f, g, *batch) for f, batch in zip(wrappers, batches)))]
        # bit for bit, so the NaN sides of the failing cases too
        for side in (0, 1):
            assert np.array_equal(stacked[side].view(np.int64), alone[side].view(np.int64))
        failed = np.isnan(alone[0]) | np.isnan(alone[1])
        # the groups fail on different cases, as their ranges differ
        assert 0 < failed.sum() < failed.size
        assert len({tuple(row) for row in failed}) > 2

    # the affine suite's nine wrappers of exp(1) and of power(2), and the proportional suite's scales of exp(-1)
    STACKS = [[affine(g, a, b) for a in (-2.0, 0.5, 3.0) for b in (-1.0, 0.0, 4.0)]
              for g in (ExpGenerator(1.0), PowerGenerator(2.0))] + \
             [[scale(g, c) for c in (0.5, 2.0, 10.0)] for g in (ExpGenerator(-1.0),)]
    # every wrapper's range ends at b = -1, 0 or 4: each end, its neighbours, and values inside
    Y = [-1.0, 4.0, *(np.nextafter(b, side) for b in (-1.0, 4.0) for side in (-np.inf, np.inf)),
         0.0, -0.0, np.inf, -np.inf, np.nan, -7.5, -0.3, 0.25, 1.5, 3.0, 9.0, 250.0]

    @pytest.mark.parametrize("wrappers", STACKS, ids=["affine-exp", "affine-power", "scale-exp"])
    def test_stacked_inverse_range_tests_in_the_base_coordinates(self, wrappers):
        # (y - b) / a is in the base's range exactly where y is in the wrapper's
        y = np.tile(self.Y, (len(wrappers), 1))
        got = masked_inverse(suites._Stack(wrappers), y)
        want = np.stack([masked_inverse(f, y_k) for f, y_k in zip(wrappers, y)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert 0 < np.isnan(got).sum() < got.size

    @pytest.mark.parametrize("y", [[[0.5, 2.0], [3.0, 9.0]], [[0.5, -2.0], [np.nan, 9.0]]],
                             ids=["inside", "partly-outside"])
    def test_a_stacked_inverse_runs_one_range_test(self, monkeypatch, y):
        calls = []
        contains_all = Interval.contains_all

        def counting(self, x):
            calls.append(self)
            return contains_all(self, x)

        g = ExpGenerator(1.0)
        stack = suites._Stack([scale(g, 2.0), affine(g, 3.0, -1.0)])
        monkeypatch.setattr(Interval, "contains_all", counting)
        masked_inverse(stack, np.array(y))
        # the base's, in the base's coordinates; none on the sums
        assert calls == [g.codomain]

    def test_fallback_seeds_inside_the_base_range(self):
        # a seed outside the base's range would reach the regula falsi, which raises
        g = _ExpNoClosedForm()
        wrappers = [affine(g, 1.0, 4.0), affine(g, -1.0, -1.0), affine(g, 2.0, 0.0)]
        y = np.array([[5.0, 3.0, 9.0, np.nan], [-2.0, 0.0, -7.0, -1.0], [1.0, -1.0, np.inf, 4.0]])
        got = masked_inverse(suites._Stack(wrappers), y)
        want = np.stack([masked_inverse(f, y_k) for f, y_k in zip(wrappers, y)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.isnan(got), [[False, True, False, True], [False, True, False, True],
                                              [False, True, True, False]])

    @pytest.mark.parametrize("finite, bases", [(True, 6), (False, 4)], ids=["finite", "probability"])
    def test_declared_calls_cover_each_group_once(self, finite, bases):
        gen_pairs, calls = suites._catalog(finite)
        assert len(calls) == bases
        covered = []
        for stack, g, at in calls:
            assert isinstance(stack, suites._Stack) and isinstance(at, slice)
            groups = gen_pairs[at]
            assert all(f.inner is g and g_i is g for f, g_i in groups)
            # the stack applies the wrappers of its groups, in group order
            assert stack.inner is g
            assert stack.a.tolist() == [f.a for f, _ in groups] and stack.b.tolist() == [f.b for f, _ in groups]
            covered += range(len(gen_pairs))[at]
        assert sorted(covered) == list(range(len(gen_pairs)))

    def test_the_suites_groups_are_read_as_views(self):
        # the suites' order: three scales per base, then (a, b) outermost over four bases
        finite, probability = ([at for _, _, at in suites._catalog(finite)[1]] for finite in (True, False))
        assert finite == [slice(3 * j, 3 * j + 3) for j in range(6)]
        assert probability == [slice(j, None, 4) for j in range(4)]
        batch = np.empty((36, 2, 3))
        assert all(batch[at].base is batch for at in finite + probability)

    def test_a_second_suite_call_builds_no_wrapper(self, monkeypatch):
        run_finite_measure_suite(seed=3, pairs_per_combo=1, h_per_pair=1)
        run_probability_suite(seed=3, trials=1)
        built = []
        init = AffineGenerator.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(AffineGenerator, "__init__", counting)
        run_finite_measure_suite(seed=3, pairs_per_combo=1, h_per_pair=1)
        run_probability_suite(seed=3, trials=1)
        assert built == []
        scale(ExpGenerator(1.0), 2.0)
        assert len(built) == 1

    def test_groups_of_gives_each_group_its_own_call(self):
        groups = groups_of(hand_built_cases())
        assert [at for _, _, at in groups[1]] == [slice(i, i + 1) for i in range(4)]
        assert [(f, g) for f, g, _ in groups[1]] == groups[0]

    def test_stacked_groups_give_the_per_case_rows(self):
        g = PowerGenerator(2.0)
        pairs = [(affine(g, a, b), g) for a, b in ((-2.0, -1.0), (3.0, 4.0), (0.5, 0.0))]
        rng = np.random.default_rng(5)
        cases = [(f, g, *case) for f, _ in pairs for case in random_cases(rng, g, (1.0,) * 3)]
        pairs, _, *batches = groups_of(cases)
        result = _run_groups("stacked", 1e-8, pairs, [(suites._Stack([f for f, _ in pairs]), g, slice(0, 3))],
                             *batches)
        rows, worst = per_case_rows("stacked", 1e-8, cases)
        assert bits(result.rows) == bits(rows)
        assert result.max_rel_residual.hex() == worst.hex()

    @pytest.mark.parametrize("suite, kwargs, calls", [
        (run_finite_measure_suite, {"pairs_per_combo": 3, "h_per_pair": 2}, 6),
        (run_probability_suite, {"trials": 72}, 4),
    ])
    def test_one_kernel_call_per_base(self, monkeypatch, suite, kwargs, calls):
        counted = []

        def counting(*args):
            counted.append(args[0])
            return mixed_means(*args)

        monkeypatch.setattr(suites, "mixed_means", counting)
        suite(seed=2, **kwargs)
        assert len(counted) == calls


LAWS = {
    "real line": (-2.0, 2.0, Interval(-math.inf, math.inf)),
    "half line, log space": (math.log(0.2), math.log(5.0), Interval(0.0, math.inf)),
    "interval": (0.75, 2.75, Interval(0.5, 3.0)),
    "masses": (0.5, 1.5, None),
    "totals": (0.2, 5.0, None),
}


class TestStreamIdentity:
    """One ``random(k)`` block mapped through ``low + (high - low) * u`` is numpy's ``uniform(low, high, k)``."""

    @pytest.mark.parametrize("k", [1, 7, 45])
    @pytest.mark.parametrize("law", LAWS, ids=list(LAWS))
    def test_block_is_uniform_bit_for_bit(self, law, k):
        low, high, _ = LAWS[law]
        block, direct = np.random.default_rng(17), np.random.default_rng(17)
        drawn = low + (high - low) * block.random(k)
        assert np.array_equal(drawn.view(np.int64), direct.uniform(low, high, k).view(np.int64))
        assert block.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize("law", LAWS, ids=list(LAWS))
    def test_suite_laws_are_those_uniforms(self, law):
        low, high, domain = LAWS[law]
        suite_law = {"masses": _MASSES, "totals": _TOTALS}.get(law) or _value_law(domain)
        assert suite_law == (low, high - low, domain is not None and domain.lower == 0.0)
        block, direct = np.random.default_rng(5), np.random.default_rng(5)
        drawn = _apply(suite_law, block.random(30))
        expected = random_values(direct, domain, 30) if domain else direct.uniform(low, high, 30)
        assert np.array_equal(drawn.view(np.int64), expected.view(np.int64))


def per_call_pairs(rng, pairs, h, finite):
    """Reference: ``_read_pairs``'s counts and doubles, two ``integers(2, 4)`` calls and ``random`` calls per pair."""
    counts, blocks = [], []
    for _ in range(pairs):
        mx, my = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        counts.append((mx, my))
        for atoms in (mx, my):
            if finite:
                total = rng.random(1)
                while _near_one(total.item()):
                    total = rng.random(1)
                blocks.append(total)
            blocks.append(rng.random(atoms))
        blocks.append(rng.random(h * mx * my))
    return counts, np.concatenate([np.empty(0), *blocks])


def raw_of(u):
    """The raw PCG64 value whose double is ``u`` rounded down to a multiple of 2**-53."""
    return int(u * 2.0**53) << 11


class ScriptedGenerator:
    """Stands in for a Generator whose bit generator serves the given raw values, then zeros."""

    def __init__(self, raws):
        self.bit_generator, self.raws = self, list(raws)

    def random_raw(self, size):
        served, self.raws = self.raws[:size], self.raws[size:]
        return np.array(served + [0] * (size - len(served)), dtype=np.uint64)


class TestRawDecoding:
    """``_read_pairs`` decodes the per-call stream from raw PCG64 values, chunk by chunk."""

    NEAR = 0.8 / 4.8    # a double whose total mass is 1.0

    @pytest.mark.parametrize("seed", [0, 42, 2024])
    @pytest.mark.parametrize("h, finite", [(0, True), (5, True), (1, False)],
                             ids=["h=0", "finite", "probability"])
    def test_counts_and_doubles_are_the_per_call_draws(self, seed, h, finite):
        counts, stream = _read_pairs(np.random.default_rng(seed), 2000, h, finite)
        expected_counts, expected = per_call_pairs(np.random.default_rng(seed), 2000, h, finite)
        assert counts == expected_counts
        assert set(counts) == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert np.array_equal(stream.view(np.int64), expected.view(np.int64))

    # per pair: its atom counts and how many X and Y totals land within 1e-3 of 1 before one does not
    PAIRS = [((2, 2), 3, 1), ((3, 2), 0, 2), ((2, 3), 1, 0), ((3, 3), 0, 0), ((2, 2), 0, 5)]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 4096])
    def test_skips_run_past_chunk_ends(self, monkeypatch, chunk):
        assert _near_one((raw_of(self.NEAR) >> 11) * 2.0**-53) and not _near_one(0.5)
        doubles = iter(np.random.default_rng(4).uniform(0.5, 1.0, 100).tolist())
        raws, expected = [], []
        for (mx, my), *skips in self.PAIRS:
            raws.append((my - 2) << 63 | (mx - 2) << 31)
            for atoms, skipped in zip((mx, my), skips):
                raws += [raw_of(self.NEAR)] * skipped
                kept = [next(doubles) for _ in range(1 + atoms)]
                raws += map(raw_of, kept)
                expected += kept
            kept = [next(doubles) for _ in range(mx * my)]
            raws += map(raw_of, kept)
            expected += kept
        monkeypatch.setattr(suites, "_CHUNK", chunk)
        counts, stream = _read_pairs(ScriptedGenerator(raws), len(self.PAIRS), 1, True)
        assert counts == [pair[0] for pair in self.PAIRS]
        # every kept double is a multiple of 2**-53 in [0.5, 1), so raw_of keeps its bits
        assert stream.tolist() == expected

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("seed, pairs_per_combo, h_per_pair", [(8, 4, 2), (13, 10, 5), (18, 10, 1)])
    def test_small_chunks_keep_every_row(self, monkeypatch, chunk, seed, pairs_per_combo, h_per_pair):
        finite = run_finite_measure_suite(seed, 1e-8, pairs_per_combo, h_per_pair)
        probability = run_probability_suite(seed, 1e-8, 72)
        monkeypatch.setattr(suites, "_CHUNK", chunk)
        assert bits(run_finite_measure_suite(seed, 1e-8, pairs_per_combo, h_per_pair).rows) == bits(finite.rows)
        assert bits(run_probability_suite(seed, 1e-8, 72).rows) == bits(probability.rows)


class TestMassText:
    """The mass templates give the bytes of ``";".join(f"{v:.6g}")``."""

    EDGE = [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 1e300,
            1.7976931348623157e308, 0.9999995, 9.999995e-05, 999999.5, 9999995.0, 0.5, 1.0, -0.0,
            math.inf, math.nan]

    @pytest.mark.parametrize("k", [2, 3])
    def test_template_is_the_joined_format(self, k):
        for masses in itertools.permutations(self.EDGE, k):
            assert _TEXT[k] % masses == ";".join(f"{v:.6g}" for v in masses)

    def test_edges_round_across_a_power_of_ten(self):
        assert _TEXT[3] % (0.9999995, 9.999995e-05, 999999.5) == "1;0.0001;1e+06"


def per_pair_cases(suite, seed, size, h_per_pair=5):
    """Reference: the suites' draws one space pair at a time, as ``(f, g, wx, wy, H)`` cases.

    ``size`` is ``pairs_per_combo`` of the finite-measure suite and
    ``trials`` of the probability suite.  Also returns how often an X and
    a Y total mass were drawn again for landing within 1e-3 of 1.
    """
    rng = np.random.default_rng(seed)
    redraws = [0, 0]

    def total_mass(axis):
        while True:
            mass = rng.uniform(0.2, 5.0)
            if abs(mass - 1.0) > 1e-3:
                return mass
            redraws[axis] += 1

    def masses(n_atoms, total):
        raw = rng.uniform(0.5, 1.5, n_atoms)
        return raw * (total / raw.sum())

    cases = []
    if suite == "finite":
        for f, g in PROPORTIONAL_PAIRS:
            for _ in range(size):
                mx, my = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                wx = masses(mx, total_mass(0))
                wy = masses(my, total_mass(1))
                cases += [(f, g, wx, wy, values) for values in
                          random_values(rng, g.domain, (h_per_pair, mx, my))]
    else:
        for f, g in AFFINE_PAIRS:
            for _ in range(-(-size // len(AFFINE_PAIRS))):
                mx, my = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                wx, wy = masses(mx, 1.0), masses(my, 1.0)
                cases.append((f, g, wx, wy, random_values(rng, g.domain, (mx, my))))
    return cases, redraws


class TestPerPairReference:
    """Both suites' rows equal the per-pair draws' per-case rows, bit for bit."""

    # the X and Y redraws of the draws that redraw a total: seed 8 an X total, seed 13 at
    # 10 pairs a Y total, seed 18 two X totals
    REDRAWS = {(8, 4, 2): [1, 0], (13, 10, 5): [0, 1], (18, 10, 1): [2, 0]}

    @pytest.mark.parametrize("seed, pairs_per_combo, h_per_pair",
                             [(3, 4, 2), (9, 10, 5), (11, 2, 1), (13, 10, 5), (13, 3, 0),
                              (8, 4, 2), (18, 10, 1)])
    def test_finite_measure_suite(self, seed, pairs_per_combo, h_per_pair):
        cases, drawn_again = per_pair_cases("finite", seed, pairs_per_combo, h_per_pair)
        result = run_finite_measure_suite(seed, 1e-8, pairs_per_combo, h_per_pair)
        rows, worst = per_case_rows("finite-measure-proportional", 1e-8, cases)
        assert len(rows) == 18 * pairs_per_combo * h_per_pair
        assert bits(result.rows) == bits(rows)
        assert result.max_rel_residual.hex() == worst.hex()
        assert drawn_again == self.REDRAWS.get((seed, pairs_per_combo, h_per_pair), [0, 0])

    @pytest.mark.parametrize("seed, trials", [(3, 100), (9, 36), (11, 1), (13, 72), (13, 0)])
    def test_probability_suite(self, seed, trials):
        cases, _ = per_pair_cases("probability", seed, trials)
        result = run_probability_suite(seed, 1e-8, trials)
        rows, worst = per_case_rows("probability-affine", 1e-8, cases)
        assert len(rows) == 36 * -(-trials // 36)
        assert bits(result.rows) == bits(rows)
        assert result.max_rel_residual.hex() == worst.hex()


class TestNegativeCounts:
    @pytest.mark.parametrize("kwargs", [{"pairs_per_combo": -1}, {"h_per_pair": -1},
                                        {"pairs_per_combo": -3, "h_per_pair": 2}])
    def test_finite_measure_suite_rejects_a_negative_count(self, kwargs):
        name = next(k for k, v in kwargs.items() if v < 0)
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative count, got -"):
            run_finite_measure_suite(seed=1, **kwargs)

    def test_probability_suite_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="^trials must be a non-negative count, got -5$"):
            run_probability_suite(seed=1, trials=-5)

    @pytest.mark.parametrize("suite, kwargs", [
        (run_finite_measure_suite, {"h_per_pair": 2.0}),
        (run_finite_measure_suite, {"pairs_per_combo": True}),
        (run_finite_measure_suite, {"pairs_per_combo": 4, "h_per_pair": False}),
        (run_finite_measure_suite, {"pairs_per_combo": "3"}),
        (run_probability_suite, {"trials": True}),
        (run_probability_suite, {"trials": 36.5}),
        (run_probability_suite, {"trials": np.True_}),
    ])
    def test_a_non_integer_count_is_refused_before_any_draw(self, monkeypatch, suite, kwargs):
        monkeypatch.setattr(suites, "_read_pairs", lambda *args: pytest.fail("drew a space pair"))
        name, count = next((k, v) for k, v in kwargs.items() if type(v) is not int)
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative count, got {count}$"):
            suite(seed=1, **kwargs)

    @pytest.mark.parametrize("suite", [run_finite_measure_suite, run_probability_suite])
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
    def test_a_seed_that_is_not_a_count_is_refused_before_any_draw(self, monkeypatch, suite, seed):
        # -1 was numpy's "expected non-negative integer", which names no field; True ran as seed 1
        monkeypatch.setattr(suites, "_read_pairs", lambda *args: pytest.fail("drew a space pair"))
        with pytest.raises(ValueError) as info:
            suite(seed=seed)
        assert str(info.value) == f"seed must be a non-negative count, got {seed}"

    @pytest.mark.parametrize("suite, kwargs", [(run_finite_measure_suite, {"pairs_per_combo": 2, "h_per_pair": 2}),
                                               (run_probability_suite, {"trials": 72})])
    def test_a_numpy_integer_seed_draws_the_stream_of_its_int(self, suite, kwargs):
        assert suite(seed=np.uint16(9), **kwargs).rows == suite(seed=9, **kwargs).rows

    def test_numpy_integer_counts_are_counts(self):
        assert run_finite_measure_suite(seed=1, pairs_per_combo=np.int64(1), h_per_pair=np.uint8(2)).n_cases == 36
        assert run_probability_suite(seed=1, trials=np.int32(36)).n_cases == 36

    def test_zero_counts_draw_no_cases(self):
        assert run_finite_measure_suite(seed=1, pairs_per_combo=0).n_cases == 0
        assert run_probability_suite(seed=1, trials=0).n_cases == 0
