import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamlab import DiscreteMeasureSpace, ProductGrid

finite_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, 0.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, float("inf")])
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([float("nan")])

    # numpy's "inhomogeneous shape" text named no field
    @pytest.mark.parametrize("weights", [[[1.0], [2.0, 3.0]], [1.0, [2.0]], [[1.0, 2.0]]],
                             ids=["ragged-rows", "number-and-row", "one-row"])
    def test_rejects_weights_that_are_not_one_row(self, weights):
        for build in (DiscreteMeasureSpace, lambda w: DiscreteMeasureSpace.from_json({"weights": w})):
            with pytest.raises(ValueError) as info:
                build(weights)
            assert str(info.value) == "weights must be a non-empty one-dimensional sequence"

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, 2.0], labels=["a"])

    def test_default_labels_are_indices(self):
        assert DiscreteMeasureSpace([1.0, 2.0]).labels == ("0", "1")

    def test_weights_are_immutable(self):
        space = DiscreteMeasureSpace([1.0, 2.0])
        with pytest.raises(ValueError):
            space.weights[0] = 5.0


class TestTotalMass:
    def test_two_atoms(self):
        assert DiscreteMeasureSpace([1.0, 2.0]).total_mass == 3.0

    def test_probability_space(self):
        assert DiscreteMeasureSpace([0.3, 0.7]).total_mass == pytest.approx(1.0)

    def test_single_atom(self):
        assert DiscreteMeasureSpace([5.0]).total_mass == 5.0


class TestNonDegeneracy:
    def test_single_atom_degenerate(self):
        assert not DiscreteMeasureSpace([5.0]).is_non_degenerate

    def test_two_atoms(self):
        assert DiscreteMeasureSpace([1.0, 2.0]).is_non_degenerate

    def test_three_atoms(self):
        assert DiscreteMeasureSpace([0.5, 0.5, 0.5]).is_non_degenerate

    @given(finite_weights)
    def test_equivalent_to_atom_count(self, weights):
        space = DiscreteMeasureSpace(weights)
        assert space.is_non_degenerate == (len(space) >= 2)


class TestIntegrate:
    def test_weighted_sum(self):
        assert DiscreteMeasureSpace([1.0, 2.0]).integrate([5.0, -1.0]) == 3.0

    def test_constant_on_probability_space(self):
        c = 4.25
        assert DiscreteMeasureSpace([0.5, 0.5]).integrate([c, c]) == pytest.approx(c)

    def test_exponential_values(self):
        space = DiscreteMeasureSpace([1.0, 1.0])
        assert space.integrate([np.exp(0.0), np.exp(np.log(2.0))]) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace([1.0, 2.0]).integrate([1.0])

    def test_constant_one_equals_total_mass_exactly(self):
        for weights in ([1.0, 2.0], [0.3, 0.7, 1.1], [5.0]):
            space = DiscreteMeasureSpace(weights)
            assert space.integrate(np.ones(len(space))) == space.total_mass

    @settings(max_examples=200)
    @given(
        finite_weights,
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # terms of about 3 000 cancel to about -1: the sides differ by 1.1e-12
    @example([669.0, 599.0, 607.0, 675.0, 607.0, 644.0, 632.0, 1.0], 1.0, 1.0, 2165399)
    def test_linearity(self, weights, a, b, seed):
        space = DiscreteMeasureSpace(weights)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-5.0, 5.0, len(space))
        v = rng.uniform(-5.0, 5.0, len(space))
        combined = space.integrate(a * u + b * v)
        split = a * space.integrate(u) + b * space.integrate(v)
        # Both sides sum the 2n products a*w_i*u_i and b*w_i*v_i, each through at most
        # n + 2 roundings (its product, the pair's or the final addition, the weight and
        # n - 1 in the sum), so each side is within gamma_{n+2} * sum|products| of the
        # exact sum (Higham 2002, chapters 3 and 4), and the two within twice that.  A
        # product that underflows loses up to 2**-1074 instead, scaled by its weight.
        w, n = space.weights, len(space)
        gamma = (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
        products = np.abs(a * w * u).sum() + np.abs(b * w * v).sum()
        bound = 2 * gamma * products + 2 * (w.sum() + 2 * n + 1) * math.ulp(0.0)
        assert abs(combined - split) <= bound


class TestJson:
    def test_round_trip(self):
        space = DiscreteMeasureSpace([1.0, 2.0], labels=["a", "b"])
        again = DiscreteMeasureSpace.from_json(space.to_json())
        assert np.array_equal(again.weights, space.weights)
        assert again.labels == ("a", "b")

    def test_labels_optional(self):
        space = DiscreteMeasureSpace.from_json({"weights": [1.0, 2.0]})
        assert space.labels == ("0", "1")

    def test_missing_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasureSpace.from_json({"labels": ["a"]})

    # values that float() or str() would convert
    @pytest.mark.parametrize("doc, message", [
        ({"weights": ["1", "2"]}, "weights must hold only JSON numbers within the float range, got '1'"),
        ({"weights": [1, False]}, "weights must hold only JSON numbers within the float range, got False"),
        ({"weights": [10**400, 1]},
         f"weights must hold only JSON numbers within the float range, got {'1' + '0' * 35} ..."),
        ({"weights": None}, "weights must hold only JSON numbers within the float range, got None"),
        ({"weights": [1, 2], "labels": "ab"}, "labels must be a list of strings"),
        ({"weights": [1, 2], "labels": [1, True]}, "labels must be a list of strings"),
        # a key no reader takes is refused, not ignored
        ({"weights": [1, 2], "lables": ["a", "b"]},
         "space document has unknown key(s) 'lables'; it allows 'weights', 'labels'"),
    ], ids=["string", "bool", "huge-int", "null", "labels-string", "labels-not-strings", "unknown-key"])
    def test_wrong_json_types(self, doc, message):
        with pytest.raises(ValueError) as info:
            DiscreteMeasureSpace.from_json(doc)
        assert str(info.value) == message

    def test_json_ints_are_numbers(self):
        space = DiscreteMeasureSpace.from_json({"weights": [1, 2.5], "labels": ["a", "b"]})
        assert space.weights.tolist() == [1.0, 2.5]
        assert space.labels == ("a", "b")


class TestProductGrid:
    def test_weight_is_product(self):
        grid = ProductGrid(DiscreteMeasureSpace([1.0, 2.0]), DiscreteMeasureSpace([3.0, 4.0, 5.0]))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.weight_matrix(), np.outer([1.0, 2.0], [3.0, 4.0, 5.0]))

    def test_transposed_swaps_axes(self):
        grid = ProductGrid(DiscreteMeasureSpace([1.0, 2.0]), DiscreteMeasureSpace([3.0]))
        assert grid.transposed().shape == (1, 2)
