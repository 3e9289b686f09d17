import math

import numpy as np
import pytest

from qamlab import (
    DiscreteMeasureSpace,
    ExpGenerator,
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
from qamlab.means import mixed_means
from qamlab.suites import _random_values, _run_cases
from conftest import random_in_domain


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
    """Both catalogs in all four shapes; members of a group are 16 cases apart."""
    rng = np.random.default_rng(8)
    pairs = [
        (scale(ExpGenerator(2.0), 10.0), ExpGenerator(2.0), False),
        (scale(PowerGenerator(-1.0), 0.5), PowerGenerator(-1.0), False),
        (affine(LogGenerator(), -2.0, 4.0), LogGenerator(), True),
        (affine(IdentityGenerator(), 3.0, -1.0), IdentityGenerator(), True),
    ]
    cases = []
    for _ in range(3):
        for shape in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for f, g, probability in pairs:
                totals = (1.0, 1.0) if probability else rng.uniform(0.2, 5.0, 2)
                wx, wy = (rng.uniform(0.5, 1.5, size) for size in shape)
                wx, wy = wx * (totals[0] / wx.sum()), wy * (totals[1] / wy.sum())
                cases.append((f, g, wx, wy, random_in_domain(rng, g, shape)))
    return cases


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
        result = _run_cases("hand-built", 1e-8, cases)
        rows, worst = per_case_rows("hand-built", 1e-8, cases)
        assert len(rows) == 48
        assert result.rows == rows
        assert result.max_rel_residual == worst

    @pytest.mark.parametrize("h_per_pair", [0, 1, 5])
    @pytest.mark.parametrize("domain", [Interval(-math.inf, math.inf),
                                        Interval(0.0, math.inf), Interval(0.5, 3.0)])
    def test_one_draw_per_space_pair_is_the_same_stream(self, domain, h_per_pair):
        whole, parts = np.random.default_rng(17), np.random.default_rng(17)
        drawn = _random_values(whole, domain, (h_per_pair, 2, 3))
        expected = np.array([_random_values(parts, domain, (2, 3)) for _ in range(h_per_pair)])
        assert drawn.shape == (h_per_pair, 2, 3)
        assert np.array_equal(drawn.view(np.int64), expected.reshape(drawn.shape).view(np.int64))
        assert whole.bit_generator.state == parts.bit_generator.state

    def test_no_functions_per_pair_draws_no_cases(self):
        assert run_finite_measure_suite(seed=4, pairs_per_combo=2, h_per_pair=0).n_cases == 0

    def test_zero_mass_padding_is_invisible_bit_for_bit(self):
        rng = np.random.default_rng(21)
        half = np.array([0.5, 0.5])
        failed = 0
        for f, g in [*PROPORTIONAL_PAIRS, *AFFINE_PAIRS, BOUNDARY, SHIFTED]:
            cases = []
            for total in (1.0, 0.3, 4.0):
                for shape in SHAPES:
                    wx, wy = (rng.uniform(0.5, 1.5, size) for size in shape)
                    cases.append((wx * (total / wx.sum()), wy * (total / wy.sum()),
                                  random_in_domain(rng, g, shape)))
            cases += [(half, half, np.full((2, 2), 1e-9)),         # outer-X for BOUNDARY
                      (half, half / 5, np.zeros((2, 2))),          # inner-Y for SHIFTED
                      (half, half, np.full((2, 2), 400.0))]        # exp overflows to inf
            wx, wy = np.zeros((len(cases), 3)), np.zeros((len(cases), 3))
            values = np.empty((len(cases), 3, 3))
            for b, (wx_b, wy_b, values_b) in enumerate(cases):
                m, n = values_b.shape
                wx[b, :m], wy[b, :n] = wx_b, wy_b
                values[b, :m, :n] = values_b
                values[b, :m, n:] = values_b[:, :1]    # pad Y atoms repeat the first column
                values[b, m:] = values[b, :1]          # pad X atoms repeat the first row
            padded = mixed_means(f, g, wx, wy, values)
            alone = [np.array(side) for side in zip(*(mixed_means(f, g, *case) for case in cases))]
            # bit for bit, so the NaN sides of the failing cases too
            for side in (0, 1):
                assert np.array_equal(padded[side].view(np.int64), alone[side].view(np.int64))
            failed += int(np.count_nonzero(np.isnan(alone[0]) | np.isnan(alone[1])))
        assert failed > 0

    def test_first_failing_case_in_case_order_across_shape_runs(self):
        # run order puts both 2x2 cases first, so the later 2x2 failure is met first
        f, g = SHIFTED
        half, third = np.array([0.5, 0.5]), np.full(3, 0.1)
        cases = [(f, g, half, half, np.zeros((2, 2))),
                 (f, g, third, third, np.array([[3.0] * 3, [3.0] * 3, [0.0] * 3])),
                 (f, g, half, half / 5, np.zeros((2, 2)))]

        with pytest.raises(RangeError) as expected:
            per_case_rows("errors", 1e-8, cases)
        with pytest.raises(RangeError) as err:
            _run_cases("errors", 1e-8, cases)
        assert "X atom 2" in str(expected.value)
        assert err.value.stage == expected.value.stage == "inner-Y"
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("boundary_first", [False, True])
    def test_raises_the_error_of_the_first_failing_case(self, boundary_first):
        # the later failing case sits in the group that is evaluated first
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
            _run_cases("errors", 1e-8, cases)
        assert expected.value.stage == ("outer-X" if boundary_first else "inner-Y")
        assert err.value.stage == expected.value.stage
        assert str(err.value) == str(expected.value)
