import math
import warnings

import numpy as np
import pytest

from qamlab import (
    DiscreteMeasureSpace,
    ExpGenerator,
    IdentityGenerator,
    LogGenerator,
    PowerGenerator,
    ProductGrid,
    RangeError,
    SimpleFunctionMatrix,
    affine,
    commutation_residual,
    lhs_mixed_mean,
    mixed_means,
    qam,
    rhs_mixed_mean,
    scale,
    scale_invariance_residual,
)
from conftest import random_in_domain

LN2, LN3, LN4 = math.log(2.0), math.log(3.0), math.log(4.0)


def unit_square_grid():
    return ProductGrid(DiscreteMeasureSpace([1.0, 1.0]), DiscreteMeasureSpace([1.0, 1.0]))


class TestQam:
    def test_exp_weighted(self):
        # 1*e^0 + 2*e^{ln 2} = 5, then ln
        space = DiscreteMeasureSpace([1.0, 2.0])
        assert qam(ExpGenerator(1.0), space, [0.0, LN2]) == pytest.approx(math.log(5.0))

    def test_arithmetic_mean(self):
        space = DiscreteMeasureSpace([0.5, 0.5])
        assert qam(IdentityGenerator(), space, [2.0, 4.0]) == pytest.approx(3.0)

    def test_constant_is_not_idempotent_off_unit_mass(self):
        # weights (1, 2), constant 0: integral of e^0 is 3, so the mean is ln 3
        space = DiscreteMeasureSpace([1.0, 2.0])
        assert qam(ExpGenerator(1.0), space, [0.0, 0.0]) == pytest.approx(math.log(3.0))

    def test_constant_idempotent_on_probability_space(self, catalog):
        space = DiscreteMeasureSpace([0.25, 0.35, 0.4])
        for gen in catalog:
            c = 0.8 if gen.domain.lower == 0.0 else -0.3
            assert qam(gen, space, [c, c, c]) == pytest.approx(c, rel=1e-12, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qam(ExpGenerator(1.0), DiscreteMeasureSpace([1.0, 1.0]), [0.0])

    def test_range_error_off_unit_mass(self):
        # range (1, inf) but total mass 0.4 pulls the integral to 0.8
        gen = affine(ExpGenerator(1.0), 1.0, 1.0)
        with pytest.raises(RangeError):
            qam(gen, DiscreteMeasureSpace([0.2, 0.2]), [0.0, 0.0])

    def test_internality_on_probability_spaces(self, catalog):
        rng = np.random.default_rng(123)
        for gen in catalog:
            for _ in range(1000):
                n = int(rng.integers(2, 5))
                w = rng.uniform(0.2, 1.0, n)
                space = DiscreteMeasureSpace(w / w.sum())
                values = random_in_domain(rng, gen, n)
                m = qam(gen, space, values)
                slack = 1e-12 * max(1.0, np.abs(values).max())
                assert values.min() - slack <= m <= values.max() + slack

    def test_affine_invariance_on_probability_spaces(self, catalog):
        rng = np.random.default_rng(321)
        space = DiscreteMeasureSpace([0.2, 0.5, 0.3])
        for gen in catalog:
            for a in (-1.0, 2.0):
                for b in (-3.0, 0.0, 3.0):
                    for _ in range(20):
                        values = random_in_domain(rng, gen, 3)
                        base = qam(gen, space, values)
                        wrapped = qam(affine(gen, a, b), space, values)
                        assert wrapped == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestMixedMeans:
    def brute_force_sides(self, f, g, wx, wy, h):
        """Independent scalar chain, written out without the library path."""
        inner_y = [
            g.inverse(sum(wy[j] * g.eval(h[i][j]) for j in range(len(wy))))
            for i in range(len(wx))
        ]
        lhs = f.inverse(sum(wx[i] * f.eval(inner_y[i]) for i in range(len(wx))))
        inner_x = [
            f.inverse(sum(wx[i] * f.eval(h[i][j]) for i in range(len(wx))))
            for j in range(len(wy))
        ]
        rhs = g.inverse(sum(wy[j] * g.eval(inner_x[j]) for j in range(len(wy))))
        return lhs, rhs

    def test_hand_derived_two_by_two(self):
        # f = exp, g = exp(2x), unit masses, h rows (0, ln2), (ln3, ln4):
        # inner means ln(5)/2 and ln(25)/2, outer ln(sqrt5 + 5);
        # columns give ln 4 and ln 6, outer ln(52)/2.
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        grid = unit_square_grid()
        h = SimpleFunctionMatrix([[0.0, LN2], [LN3, LN4]])
        expected_lhs = math.log(math.sqrt(5.0) + 5.0)
        expected_rhs = math.log(52.0) / 2.0
        assert expected_lhs == pytest.approx(math.log(30.0 + 10.0 * math.sqrt(5.0)) / 2.0)

        oracle_lhs, oracle_rhs = self.brute_force_sides(
            f, g, [1.0, 1.0], [1.0, 1.0], [[0.0, LN2], [LN3, LN4]]
        )
        assert oracle_lhs == pytest.approx(expected_lhs, rel=1e-14)
        assert oracle_rhs == pytest.approx(expected_rhs, rel=1e-14)

        assert lhs_mixed_mean(f, g, grid, h) == pytest.approx(expected_lhs, rel=1e-13)
        assert rhs_mixed_mean(f, g, grid, h) == pytest.approx(expected_rhs, rel=1e-13)

        report = commutation_residual(f, g, grid, h)
        assert report.abs_residual == pytest.approx(expected_lhs - expected_rhs, rel=1e-10)
        assert report.abs_residual == pytest.approx(3.456e-3, rel=1e-3)

    def test_equal_generators_commute(self, positive_bijection_pairs):
        rng = np.random.default_rng(5)
        for _, g in positive_bijection_pairs:
            grid = ProductGrid(
                DiscreteMeasureSpace(rng.uniform(0.3, 2.0, 3)),
                DiscreteMeasureSpace(rng.uniform(0.3, 2.0, 2)),
            )
            h = SimpleFunctionMatrix(random_in_domain(rng, g, (3, 2)))
            report = commutation_residual(g, g, grid, h)
            assert report.rel_residual <= 1e-12

    def test_constant_h_on_probability_spaces(self):
        f, g = ExpGenerator(1.0), PowerGenerator(2.0)
        grid = ProductGrid(DiscreteMeasureSpace([0.4, 0.6]), DiscreteMeasureSpace([0.5, 0.5]))
        h = SimpleFunctionMatrix(np.full((2, 2), 1.7))
        assert lhs_mixed_mean(f, g, grid, h) == pytest.approx(1.7, rel=1e-12)
        assert rhs_mixed_mean(f, g, grid, h) == pytest.approx(1.7, rel=1e-12)

    def test_scaled_outer_generator_changes_nothing(self):
        # replacing f by 2f leaves the mixed mean unchanged on any masses
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        rng = np.random.default_rng(17)
        grid = ProductGrid(DiscreteMeasureSpace([1.3, 0.4]), DiscreteMeasureSpace([2.0, 0.7]))
        for _ in range(50):
            h = SimpleFunctionMatrix(rng.uniform(-2.0, 2.0, (2, 2)))
            plain = lhs_mixed_mean(f, g, grid, h)
            scaled = lhs_mixed_mean(scale(f, 2.0), g, grid, h)
            assert scaled == pytest.approx(plain, rel=1e-10)

    def test_symmetry_under_transposition(self, positive_bijection_pairs):
        rng = np.random.default_rng(29)
        for f, g in positive_bijection_pairs:
            grid = ProductGrid(
                DiscreteMeasureSpace(rng.uniform(0.3, 2.0, 2)),
                DiscreteMeasureSpace(rng.uniform(0.3, 2.0, 3)),
            )
            common_lower = max(f.domain.lower, g.domain.lower)
            values = (
                rng.uniform(0.2, 3.0, (2, 3))
                if common_lower == 0.0
                else rng.uniform(-2.0, 2.0, (2, 3))
            )
            h = SimpleFunctionMatrix(values)
            forward = commutation_residual(f, g, grid, h)
            swapped = commutation_residual(g, f, grid.transposed(), h.transposed())
            assert swapped.abs_residual == pytest.approx(forward.abs_residual, abs=1e-12)

    def test_stage_tags(self):
        # range (1, inf); total mass 0.2 pulls every integral below 1
        shifted = affine(ExpGenerator(1.0), 1.0, 1.0)
        small_x = DiscreteMeasureSpace([0.1, 0.1])
        small_y = DiscreteMeasureSpace([0.1, 0.1])
        unit = DiscreteMeasureSpace([1.0, 1.0])
        h = SimpleFunctionMatrix(np.zeros((2, 2)))

        with pytest.raises(RangeError) as err:
            lhs_mixed_mean(ExpGenerator(1.0), shifted, ProductGrid(unit, small_y), h)
        assert err.value.stage == "inner-Y"

        with pytest.raises(RangeError) as err:
            lhs_mixed_mean(shifted, ExpGenerator(1.0), ProductGrid(small_x, unit), h)
        assert err.value.stage == "outer-X"

        with pytest.raises(RangeError) as err:
            rhs_mixed_mean(shifted, ExpGenerator(1.0), ProductGrid(small_x, unit), h)
        assert err.value.stage == "inner-X"

        with pytest.raises(RangeError) as err:
            rhs_mixed_mean(ExpGenerator(1.0), shifted, ProductGrid(unit, small_y), h)
        assert err.value.stage == "outer-Y"

    def test_stage_on_the_rhs_only(self):
        shifted = affine(ExpGenerator(1.0), 1.0, 1.0)
        grid = ProductGrid(DiscreteMeasureSpace([0.1, 0.1]), DiscreteMeasureSpace([5.0, 5.0]))
        h = SimpleFunctionMatrix(np.zeros((2, 2)))
        assert lhs_mixed_mean(shifted, ExpGenerator(1.0), grid, h) == pytest.approx(math.log(1.2))
        with pytest.raises(RangeError) as err:
            commutation_residual(shifted, ExpGenerator(1.0), grid, h)
        assert err.value.stage == "inner-X"
        assert "Y atom 0" in str(err.value)

    @pytest.mark.parametrize("shape", [(9, 2), (2, 9)])
    def test_sides_equal_nested_qam_bit_for_bit(self, shape):
        # nine atoms on one side: numpy's pairwise sum then differs from a
        # strided one, so this pins the summation order of the kernel
        rng = np.random.default_rng(5)
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        for _ in range(30):
            space_x = DiscreteMeasureSpace(rng.uniform(0.2, 2.0, shape[0]))
            space_y = DiscreteMeasureSpace(rng.uniform(0.2, 2.0, shape[1]))
            h = SimpleFunctionMatrix(rng.uniform(-2.0, 2.0, shape))
            lhs = qam(f, space_x, [qam(g, space_y, h.row(i)) for i in range(shape[0])])
            rhs = qam(g, space_y, [qam(f, space_x, h.column(j)) for j in range(shape[1])])
            report = commutation_residual(f, g, ProductGrid(space_x, space_y), h)
            assert report.lhs == lhs
            assert report.rhs == rhs

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_batch_with_weights_per_case_equals_single_cases(self, shape, shifted):
        # with shifted generators (range (1, inf)) and masses below 1 some
        # cases fail inside a batch of valid ones, at every stage in 2x2
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        if shifted:
            f, g = affine(f, 1.0, 1.0), affine(g, 1.0, 1.0)
        rng = np.random.default_rng(3)
        batch = 40
        wx = rng.uniform(0.05, 1.0, (batch, shape[0]))
        wy = rng.uniform(0.05, 1.0, (batch, shape[1]))
        values = rng.uniform(-2.0, 2.0, (batch, *shape))
        lhs, rhs = mixed_means(f, g, wx, wy, values)
        seen = set()
        for k in range(batch):
            grid = ProductGrid(DiscreteMeasureSpace(wx[k]), DiscreteMeasureSpace(wy[k]))
            h = SimpleFunctionMatrix(values[k])
            if not (math.isnan(lhs[k]) or math.isnan(rhs[k])):
                report = commutation_residual(f, g, grid, h)
                assert (report.lhs, report.rhs) == (lhs[k], rhs[k])
                continue
            # a NaN side, and only a NaN side, raises; the lhs before the rhs
            tags = []
            for mean, one_sided, stages in ((lhs[k], lhs_mixed_mean, ("inner-Y", "outer-X")),
                                            (rhs[k], rhs_mixed_mean, ("inner-X", "outer-Y"))):
                if math.isnan(mean):
                    with pytest.raises(RangeError) as err:
                        one_sided(f, g, grid, h)
                    assert err.value.stage in stages
                    tags.append(err.value.stage)
                else:
                    assert one_sided(f, g, grid, h) == mean
            with pytest.raises(RangeError) as err:
                commutation_residual(f, g, grid, h)
            assert err.value.stage == tags[0]
            seen.update(tags)
        assert bool(seen) == shifted
        if shifted and shape == (2, 2):
            assert seen == {"inner-Y", "outer-X", "inner-X", "outer-Y"}

    def test_shape_mismatch(self):
        h = SimpleFunctionMatrix([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            lhs_mixed_mean(ExpGenerator(1.0), ExpGenerator(1.0), unit_square_grid(), h)


class TestKernelErrorState:
    """The kernel ignores floating-point errors itself, under one ``np.errstate``.

    Called outside any ``np.errstate``, no RuntimeWarning escapes; the
    kernel returns the two sides alone, a failing side NaN, and the scalar
    entry points raise the failing side's stage-tagged RangeError.
    """

    SHIFTED = affine(ExpGenerator(1.0), 1.0, 1.0)  # range (1, inf)
    # name -> (f, g, wx, wy, h, (lhs, rhs) RangeError tags); a side with a tag is NaN
    CASES = {
        # exp(2 * 400) overflows: in the lhs's outer mean, the rhs's inner ones
        "overflow": (ExpGenerator(2.0), ExpGenerator(1.0), [0.5, 0.5], [0.5, 0.5],
                     np.full((2, 2), 400.0), ("outer-X", "inner-X")),
        # masses 0.1 pull the shifted generator's integrals below 1
        "range-escape": (ExpGenerator(1.0), SHIFTED, [1.0, 1.0], [0.1, 0.1],
                         np.zeros((2, 2)), ("inner-Y", "outer-Y")),
        "clean": (ExpGenerator(1.0), ExpGenerator(2.0), [0.5, 0.5], [0.2, 0.3, 0.5],
                  np.zeros((2, 3)), (None, None)),
    }
    BATCH = 4

    def run(self, name):
        f, g, wx, wy, h, _ = self.CASES[name]
        assert np.geterr()["over"] == "warn"  # outside any np.errstate
        grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results["batch"] = mixed_means(f, g, wx, wy, np.stack([h] * self.BATCH))
            results["one"] = mixed_means(f, g, wx, wy, h)
            for entry in (lhs_mixed_mean, rhs_mixed_mean, commutation_residual):
                try:
                    results[entry.__name__] = entry(f, g, grid, SimpleFunctionMatrix(h))
                except RangeError as exc:
                    results[entry.__name__] = exc
        return results

    @pytest.mark.parametrize("name", CASES)
    def test_nan_sides_and_tags(self, name):
        tags = self.CASES[name][5]
        results = self.run(name)
        for key, shape in (("batch", (self.BATCH,)), ("one", ())):
            sides = results[key]
            assert len(sides) == 2
            for mean, tag in zip(sides, tags):
                assert mean.shape == shape and mean.dtype == np.float64
                assert np.array_equal(np.isnan(mean), np.full(shape, tag is not None))
        for entry, tag in (("lhs_mixed_mean", tags[0]), ("rhs_mixed_mean", tags[1]),
                           ("commutation_residual", tags[0] or tags[1])):
            got = results[entry]
            assert (got.stage if isinstance(got, RangeError) else None) == tag
        if name == "clean":
            lhs, rhs = results["batch"]
            report = results["commutation_residual"]
            assert (report.lhs, report.rhs) == (lhs[0], rhs[0])


class TestScaleInvariance:
    def test_exp_alpha_three(self):
        report = scale_invariance_residual(
            ExpGenerator(1.0), 3.0, DiscreteMeasureSpace([1.0, 2.0]), [0.0, LN2]
        )
        assert report.lhs == pytest.approx(math.log(5.0))
        assert report.rhs == pytest.approx(math.log(5.0))
        assert report.rel_residual <= 1e-10

    def test_alpha_one_exact(self):
        report = scale_invariance_residual(
            PowerGenerator(2.0), 1.0, DiscreteMeasureSpace([1.0, 1.0]), [1.0, 2.0]
        )
        assert report.abs_residual == 0.0

    def test_power_half_alpha(self):
        report = scale_invariance_residual(
            PowerGenerator(2.0), 0.5, DiscreteMeasureSpace([1.0, 1.0, 1.0]), [1.0, 2.0, 3.0]
        )
        assert report.lhs == pytest.approx(math.sqrt(14.0))
        assert report.rel_residual <= 1e-10

    def test_catalog_sweep(self, catalog):
        rng = np.random.default_rng(99)
        for gen in catalog:
            for alpha in (0.5, 2.0, 10.0):
                for _ in range(100):
                    n = int(rng.integers(2, 5))
                    space = DiscreteMeasureSpace(rng.uniform(0.2, 2.5, n))
                    values = random_in_domain(rng, gen, n)
                    report = scale_invariance_residual(gen, alpha, space, values)
                    assert report.rel_residual <= 1e-10


class TestSimpleFunctionMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SimpleFunctionMatrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SimpleFunctionMatrix([[1.0, float("nan")]])

    def test_json_round_trip(self):
        h = SimpleFunctionMatrix([[1.0, 2.0], [3.0, 4.0]])
        again = SimpleFunctionMatrix.from_json(h.to_json())
        assert np.array_equal(again.values, h.values)

    @pytest.mark.parametrize("doc, message", [
        ({"weights": [[1.0]]}, "h document must be an object with a 'values' key"),
        ([[1.0, 2.0]], "h document must be an object with a 'values' key"),
        ({"values": [["1", 2.0]]}, "values must hold only JSON numbers within the float range, got '1'"),
        ({"values": [[1.0, True]]}, "values must hold only JSON numbers within the float range, got True"),
        ({"values": [[1.0, 10**400]]},
         f"values must hold only JSON numbers within the float range, got {'1' + '0' * 35} ..."),
        # numpy's own text for these named no field
        ({"values": [[1.0, 2.0], [3.0]]}, "simple-function values must form a non-empty 2-D grid"),
        ({"values": [[1.0, 2.0], 3.0]}, "simple-function values must form a non-empty 2-D grid"),
        ({"values": [[[1.0]], [2.0]]}, "simple-function values must form a non-empty 2-D grid"),
    ], ids=["no-values", "not-an-object", "string", "bool", "huge-int", "ragged", "row-and-number",
            "uneven-depth"])
    def test_malformed_json(self, doc, message):
        with pytest.raises(ValueError) as info:
            SimpleFunctionMatrix.from_json(doc)
        assert str(info.value) == message

    def test_rows_columns_transpose(self):
        h = SimpleFunctionMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(h.row(1), [3.0, 4.0])
        assert np.array_equal(h.column(0), [1.0, 3.0])
        assert np.array_equal(h.transposed().values, [[1.0, 3.0], [2.0, 4.0]])


# the defects of the range boundary policy that the open robustness item
# names; each test asserts the right answer, so the change that mends the
# policy must make it pass and drop this mark
_RANGE_EDGE_DEFECT = pytest.mark.xfail(
    strict=True, raises=(RangeError, RuntimeWarning),
    reason="exp/power overflow and results that round onto an open range end are range errors")


class TestRangeEdgeDefects:
    @_RANGE_EDGE_DEFECT
    def test_exp_mean_of_a_constant_whose_generator_overflows(self):
        # exp(2 * 400) overflows to inf; internality gives 400
        got = qam(ExpGenerator(2.0), DiscreteMeasureSpace([0.5, 0.5]), [400.0, 400.0])
        assert got == pytest.approx(400.0, rel=1e-12)

    @_RANGE_EDGE_DEFECT
    def test_reciprocal_mean_of_a_subnormal_constant(self):
        # 1 / 1e-310 overflows to inf; internality gives 1e-310
        got = qam(PowerGenerator(-1.0), DiscreteMeasureSpace([0.5, 0.5]), [1e-310, 1e-310])
        assert got == pytest.approx(1e-310, rel=1e-12)

    @_RANGE_EDGE_DEFECT
    def test_affine_power_at_a_value_that_rounds_onto_the_range_end(self):
        # -2 * (1e-9)**2 - 1 rounds to -1.0, the open end of the range: today an outer-X RangeError
        grid = ProductGrid(DiscreteMeasureSpace([0.3, 0.7]), DiscreteMeasureSpace([0.6, 0.4]))
        h = SimpleFunctionMatrix(np.full((2, 2), 1e-9))
        commutation_residual(affine(PowerGenerator(2.0), -2.0, -1.0), PowerGenerator(2.0), grid, h)
