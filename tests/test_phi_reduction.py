import math

import numpy as np
import pytest

from qamlab import (
    BlockScenario,
    ExpGenerator,
    IdentityGenerator,
    LinearFit,
    PowerGenerator,
    additivity_residual,
    beta_homogeneity_residual,
    big_phi,
    block_scenario_residual,
    commutation_residual,
    default_fit_grid,
    jensen_affinity_residual,
    linear_form_fit,
    phi_equation_residual,
    phi_eval,
    phi_inverse_eval,
    phi_monotone_check,
    phi_origin_limit,
    proportionality_extract,
    run_diagnostics,
    scale,
    scaled_cauchy_residual,
)

SQRT_PAIR = (ExpGenerator(1.0), ExpGenerator(2.0))      # phi(s) = sqrt(s)
RECIP_PAIR = (ExpGenerator(-1.0), ExpGenerator(1.0))    # phi(s) = 1/s


def random_scenario(rng, positive_values: bool) -> BlockScenario:
    masses = rng.uniform(0.3, 3.0, 4)
    if positive_values:
        vals = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 4))
    else:
        vals = rng.uniform(-2.0, 2.0, 4)
    return BlockScenario(*masses, *vals)


class TestPhi:
    def test_identity_when_equal(self):
        g = PowerGenerator(2.0)
        assert phi_eval(g, g, 7.0) == pytest.approx(7.0)
        assert phi_inverse_eval(g, g, 7.0) == pytest.approx(7.0)

    def test_scale_gives_linear_phi(self):
        g = ExpGenerator(1.0)
        f = scale(g, 2.0)
        assert phi_eval(f, g, 3.0) == pytest.approx(6.0)
        assert phi_inverse_eval(f, g, 6.0) == pytest.approx(3.0)

    def test_sqrt_pair(self):
        f, g = SQRT_PAIR
        assert phi_eval(f, g, 4.0) == pytest.approx(2.0)
        assert phi_inverse_eval(f, g, 3.0) == pytest.approx(9.0)

    def test_round_trip(self, positive_bijection_pairs):
        for f, g in positive_bijection_pairs:
            for s in (0.3, 1.0, 4.7):
                assert phi_inverse_eval(f, g, phi_eval(f, g, s)) == pytest.approx(s, rel=1e-10)

    def test_rejects_real_valued_generator(self):
        with pytest.raises(ValueError):
            phi_eval(IdentityGenerator(), ExpGenerator(1.0), 1.0)


class TestBigPhi:
    def test_weighted_average_when_equal(self):
        g = ExpGenerator(1.0)
        assert big_phi(g, g, 0.3, 0.7, 10.0, 2.0) == pytest.approx(4.4)

    def test_sqrt_pair(self):
        f, g = SQRT_PAIR
        assert big_phi(f, g, 1.0, 1.0, 1.0, 9.0) == pytest.approx(16.0)

    def test_scale_cancels(self):
        g = PowerGenerator(2.0)
        f = scale(g, 2.0)
        assert big_phi(f, g, 1.0, 1.0, 2.0, 4.0) == pytest.approx(6.0)

    def test_rejects_nonpositive_argument(self):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError):
            big_phi(f, g, 1.0, 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("alpha1, alpha2, name", [(-1.0, 1.0, "alpha1"), (1.0, math.inf, "alpha2")])
    def test_rejects_a_mass_that_is_not_positive_and_finite(self, alpha1, alpha2, name):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError) as info:
            big_phi(f, g, alpha1, alpha2, 1.0, 2.0)
        assert str(info.value) == f"{name} must be positive and finite"


class TestBlockScenario:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            BlockScenario(0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError):
            BlockScenario(1.0, 1.0, 1.0, 1.0, math.inf, 2.0, 3.0, 4.0)

    def test_grid_and_matrix_layout(self):
        sc = BlockScenario(1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0)
        grid, matrix = sc.to_grid_and_matrix()
        assert np.array_equal(grid.space_x.weights, [1.0, 2.0])
        assert np.array_equal(grid.space_y.weights, [3.0, 4.0])
        assert np.array_equal(matrix.values, [[10.0, 20.0], [30.0, 40.0]])


class TestBlockResidual:
    def test_equal_generators_vanish(self):
        rng = np.random.default_rng(1)
        g = PowerGenerator(2.0)
        for _ in range(100):
            sc = random_scenario(rng, positive_values=True)
            assert block_scenario_residual(g, g, sc).rel_residual <= 1e-12

    def test_proportional_pairs_vanish(self, positive_bijection_pairs):
        rng = np.random.default_rng(2)
        for _, g in positive_bijection_pairs:
            f = scale(g, 3.0)
            for _ in range(50):
                sc = random_scenario(rng, positive_values=(g.domain.lower == 0.0))
                assert block_scenario_residual(f, g, sc).rel_residual <= 1e-10

    def test_hand_derived_anchor(self):
        f, g = SQRT_PAIR
        sc = BlockScenario(1, 1, 1, 1, 0.0, math.log(2.0), math.log(3.0), math.log(4.0))
        report = block_scenario_residual(f, g, sc)
        expected = (math.log(30.0 + 10.0 * math.sqrt(5.0)) - math.log(52.0)) / 2.0
        assert report.abs_residual == pytest.approx(expected, rel=1e-10)
        assert report.abs_residual == pytest.approx(3.458e-3, rel=1e-3)

    def test_matches_two_by_two_commutation(self, positive_bijection_pairs):
        rng = np.random.default_rng(3)
        for f, g in positive_bijection_pairs:
            for _ in range(50):
                sc = random_scenario(rng, positive_values=True)
                block = block_scenario_residual(f, g, sc)
                grid, h = sc.to_grid_and_matrix()
                full = commutation_residual(f, g, grid, h)
                assert block.lhs == pytest.approx(full.lhs, abs=1e-12)
                assert block.rhs == pytest.approx(full.rhs, abs=1e-12)
                assert block.abs_residual == pytest.approx(full.abs_residual, abs=1e-12)


class TestFourPointEquation:
    def test_hand_derived_values(self):
        f, g = SQRT_PAIR
        report = phi_equation_residual(f, g, 1, 1, 1, 1, 1.0, 4.0, 9.0, 16.0)
        assert report.lhs == pytest.approx((math.sqrt(5.0) + 5.0) ** 2, rel=1e-12)
        assert report.rhs == pytest.approx(52.0, rel=1e-12)
        assert report.abs_residual == pytest.approx(0.36068, abs=1e-4)

    def test_linear_phi_vanishes(self):
        g = PowerGenerator(2.0)
        f = scale(g, 7.0)
        report = phi_equation_residual(f, g, 0.8, 1.7, 0.4, 2.1, 1.0, 4.0, 9.0, 16.0)
        assert report.rel_residual <= 1e-10

    def test_degenerate_point_vanishes(self):
        f, g = SQRT_PAIR
        report = phi_equation_residual(f, g, 1, 1, 1, 1, 3.0, 3.0, 3.0, 3.0)
        assert report.rel_residual <= 1e-12

    def test_change_of_variables_bridge(self, positive_bijection_pairs):
        # applying g to the block sides gives exactly the four-point sides
        rng = np.random.default_rng(4)
        for f, g in positive_bijection_pairs:
            for _ in range(50):
                sc = random_scenario(rng, positive_values=True)
                block = block_scenario_residual(f, g, sc)
                four = phi_equation_residual(
                    f, g, sc.alpha1, sc.alpha2, sc.beta1, sc.beta2,
                    g.eval(sc.x), g.eval(sc.y), g.eval(sc.z), g.eval(sc.w),
                )
                assert g.eval(block.lhs) == pytest.approx(four.lhs, rel=1e-10)
                assert g.eval(block.rhs) == pytest.approx(four.rhs, rel=1e-10)

    def test_zero_residual_equivalence(self, positive_bijection_pairs):
        # The block identity holds iff the four-point identity holds.  A
        # random scenario can land near the manifold where even a
        # non-proportional pair happens to commute; there the two residuals
        # straddle any sharp threshold (applying g rescales them), so the
        # biconditional is asserted only outside a gray band around it.
        rng = np.random.default_rng(5)
        threshold, band_lo, band_hi = 1e-8, 1e-10, 1e-6
        checked_zero = checked_nonzero = undecided = 0
        for f, g in positive_bijection_pairs:
            pairs = [(f, g), (scale(g, 2.0), g)]
            for ff, gg in pairs:
                for _ in range(85):
                    sc = random_scenario(rng, positive_values=True)
                    block = block_scenario_residual(ff, gg, sc).rel_residual
                    four = phi_equation_residual(
                        ff, gg, sc.alpha1, sc.alpha2, sc.beta1, sc.beta2,
                        gg.eval(sc.x), gg.eval(sc.y), gg.eval(sc.z), gg.eval(sc.w),
                    ).rel_residual
                    if any(band_lo <= r <= band_hi for r in (block, four)):
                        undecided += 1
                        continue
                    assert (block < threshold) == (four < threshold)
                    checked_zero += int(block < threshold)
                    checked_nonzero += int(block >= threshold)
        assert checked_zero >= 100 and checked_nonzero >= 100
        assert undecided <= 20


class TestAffinityHomogeneityAdditivity:
    def test_affinity_hand_derived(self):
        f, g = SQRT_PAIR
        report = jensen_affinity_residual(f, g, 1, 1, 1, 1, (1.0, 9.0), (4.0, 16.0))
        assert report.abs_residual == pytest.approx(0.36068, abs=1e-4)

    def test_affinity_vanishes_for_proportional(self):
        g = ExpGenerator(2.0)
        report = jensen_affinity_residual(scale(g, 5.0), g, 0.7, 1.9, 0.6, 1.2, (1.0, 9.0), (4.0, 16.0))
        assert report.rel_residual <= 1e-10

    def test_affinity_convex_weights_fixed_point(self):
        f, g = SQRT_PAIR
        report = jensen_affinity_residual(f, g, 1.0, 1.0, 0.3, 0.7, (2.0, 5.0), (2.0, 5.0))
        assert report.rel_residual <= 1e-12

    def test_homogeneity_sqrt_phi(self):
        f, g = SQRT_PAIR
        for beta in (0.2, 1.0, 7.3):
            report = beta_homogeneity_residual(f, g, 1.0, 1.0, beta, (2.0, 5.0))
            assert report.rel_residual <= 1e-10

    def test_homogeneity_beta_one_exact(self):
        f, g = RECIP_PAIR
        report = beta_homogeneity_residual(f, g, 1.0, 2.0, 1.0, (2.0, 5.0))
        assert report.abs_residual == 0.0

    def test_additivity_hand_derived(self):
        f, g = SQRT_PAIR
        report = additivity_residual(f, g, 1, 1, (1.0, 4.0), (4.0, 1.0))
        assert report.lhs == pytest.approx(20.0, rel=1e-12)
        assert report.rhs == pytest.approx(18.0, rel=1e-12)
        assert report.abs_residual == pytest.approx(2.0, rel=1e-10)

    def test_additivity_vanishes_for_proportional(self):
        g = PowerGenerator(0.5)
        report = additivity_residual(scale(g, 2.0), g, 1.3, 0.4, (1.0, 4.0), (4.0, 1.0))
        assert report.rel_residual <= 1e-10

    def test_additivity_masked_along_rays(self):
        # homogeneity makes Phi(2x) = 2Phi(x) even for nonlinear phi
        f, g = SQRT_PAIR
        report = additivity_residual(f, g, 1, 1, (1.0, 4.0), (1.0, 4.0))
        assert report.rel_residual <= 1e-12


class TestMonotonicityAndLimit:
    def test_increasing_phi_example(self):
        f, g = SQRT_PAIR
        assert big_phi(f, g, 1, 1, 1.0, 1.0) == pytest.approx(4.0)
        assert big_phi(f, g, 1, 1, 2.0, 1.0) == pytest.approx((math.sqrt(2.0) + 1.0) ** 2)
        assert phi_monotone_check(f, g, 1, 1, [((1.0, 1.0), (2.0, 1.0))])

    def test_decreasing_phi_example(self):
        f, g = RECIP_PAIR
        assert big_phi(f, g, 1, 1, 1.0, 1.0) == pytest.approx(0.5)
        assert big_phi(f, g, 1, 1, 2.0, 2.0) == pytest.approx(1.0)
        assert phi_monotone_check(f, g, 1, 1, [((1.0, 1.0), (2.0, 2.0))])

    def test_equal_points_rejected(self):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError):
            phi_monotone_check(f, g, 1, 1, [((1.0, 2.0), (1.0, 2.0))])

    def test_unordered_pair_rejected(self):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError):
            phi_monotone_check(f, g, 1, 1, [((2.0, 1.0), (1.0, 2.0))])

    def test_catalog_pairs_monotone(self, positive_bijection_pairs):
        rng = np.random.default_rng(6)
        for f, g in positive_bijection_pairs:
            pairs = []
            for _ in range(200):
                x, y = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
                dx, dy = rng.uniform(0.0, 2.0, 2)
                if dx == 0.0 and dy == 0.0:
                    dx = 0.5
                pairs.append(((x, y), (x + dx, y + dy)))
            assert phi_monotone_check(f, g, 0.8, 1.7, pairs)

    def test_origin_limit_known_forms(self):
        # linear phi with masses (1, 2): 3/n; sqrt phi: 4/n; reciprocal phi: 1/(2n)
        g = ExpGenerator(1.0)
        seq = phi_origin_limit(scale(g, 2.0), g, 1.0, 2.0, 4)
        assert np.allclose(seq, [3.0, 1.5, 1.0, 0.75])
        f, g = SQRT_PAIR
        assert np.allclose(phi_origin_limit(f, g, 1.0, 1.0, 4), [4.0, 2.0, 4.0 / 3.0, 1.0])
        f, g = RECIP_PAIR
        assert np.allclose(phi_origin_limit(f, g, 1.0, 1.0, 4), [0.5, 0.25, 1.0 / 6.0, 0.125])

    def test_origin_limit_needs_two_terms(self):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError) as info:
            phi_origin_limit(f, g, 1.0, 1.0, 1)
        assert str(info.value) == "n_max must be an integer of at least 2, got 1"

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_origin_limit_keeps_its_message_below_two(self, n_max):
        with pytest.raises(ValueError) as info:
            phi_origin_limit(*SQRT_PAIR, 1.0, 1.0, n_max)
        assert str(info.value) == f"n_max must be an integer of at least 2, got {n_max}"

    @pytest.mark.parametrize("n_max", [2.5, 3.0, True, "3", None])
    def test_origin_limit_refuses_a_non_integer_count(self, monkeypatch, n_max):
        # refused before any work: 2.5 ran on the three points np.arange(1, 3.5)
        monkeypatch.setattr("qamlab.phi_reduction.big_phi", None)
        with pytest.raises(ValueError) as info:
            phi_origin_limit(*SQRT_PAIR, 1.0, 1.0, n_max)
        assert str(info.value) == f"n_max must be an integer of at least 2, got {n_max}"

    def test_origin_limit_takes_a_numpy_integer(self):
        assert np.array_equal(phi_origin_limit(*SQRT_PAIR, 1.0, 1.0, np.int64(4)),
                              phi_origin_limit(*SQRT_PAIR, 1.0, 1.0, 4))

    def test_origin_limit_decays_for_catalog_pairs(self, positive_bijection_pairs):
        for f, g in positive_bijection_pairs:
            seq = phi_origin_limit(f, g, 1.0, 1.0, 10_000)
            assert np.all(np.diff(seq) < 0.0)
            assert seq[-1] <= 1e-3 * seq[0]

    def test_surjectivity_sampling(self, positive_bijection_pairs):
        # every positive target is hit along the diagonal after a bisection pass
        for f, g in positive_bijection_pairs:
            for target in np.geomspace(0.1, 10.0, 9):
                lo, hi = 1e-6, 1e6
                for _ in range(80):
                    mid = math.sqrt(lo * hi)
                    if big_phi(f, g, 1.0, 1.0, mid, mid) < target:
                        lo = mid
                    else:
                        hi = mid
                assert big_phi(f, g, 1.0, 1.0, lo, lo) == pytest.approx(target, rel=1e-6)


class TestLinearFormFit:
    def test_proportional_recovers_masses(self):
        g = ExpGenerator(1.0)
        fit = linear_form_fit(scale(g, 3.0), g, 0.25, 0.75)
        assert fit is not None
        assert fit.a == pytest.approx(0.25, abs=1e-10)
        assert fit.b == pytest.approx(0.75, abs=1e-10)
        assert fit.max_fit_residual <= 1e-10

    def test_equal_pair_unit_masses(self):
        g = PowerGenerator(2.0)
        fit = linear_form_fit(g, g, 1.0, 1.0)
        assert fit is not None
        assert (fit.a, fit.b) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_sqrt_phi_rejected(self):
        f, g = SQRT_PAIR
        grid = [(float(x), float(y)) for x in np.geomspace(1, 25, 9) for y in np.geomspace(1, 25, 9)]
        assert linear_form_fit(f, g, 1.0, 1.0, grid) is None
        # the best linear fit misses by at least 0.1 on this grid
        pts = np.asarray(grid)
        vals = np.asarray(big_phi(f, g, 1.0, 1.0, pts[:, 0], pts[:, 1]))
        coef, *_ = np.linalg.lstsq(pts, vals, rcond=None)
        fitted = pts @ coef
        rel = np.abs(vals - fitted) / np.maximum(1.0, np.maximum(np.abs(vals), np.abs(fitted)))
        assert rel.max() >= 0.1

    def test_degenerate_grid_rejected(self):
        g = ExpGenerator(1.0)
        with pytest.raises(ValueError):
            linear_form_fit(g, g, 1.0, 1.0, [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)])
        with pytest.raises(ValueError):
            linear_form_fit(g, g, 1.0, 1.0, [(1.0, 2.0), (2.0, 4.0)])

    def test_linear_fit_type_guards(self):
        with pytest.raises(ValueError):
            LinearFit(a=0.0, b=0.0, max_fit_residual=0.0)

    def test_default_grid_shape(self):
        grid = default_fit_grid()
        assert len(grid) == 81
        assert all(0.1 <= x <= 10.0 and 0.1 <= y <= 10.0 for x, y in grid)


class TestDefaultFitGrid:
    def test_default_grid(self):
        grid = default_fit_grid()
        assert len(grid) == 81
        assert grid[0] == (0.1, 0.1) and grid[-1] == pytest.approx((10.0, 10.0))

    @pytest.mark.parametrize("points", [2.5, 9.0, True, False, "9", None, 1, 0, -2])
    def test_refuses_a_bad_count_before_any_work(self, monkeypatch, points):
        # 2.5 failed inside numpy with a TypeError, and True gave a one-point grid
        monkeypatch.setattr("qamlab.phi_reduction.np.geomspace", None)
        with pytest.raises(ValueError) as info:
            default_fit_grid(0.1, 10.0, points)
        assert str(info.value) == f"points_per_axis must be an integer of at least 2, got {points}"

    def test_takes_a_numpy_integer(self):
        assert default_fit_grid(0.1, 10.0, np.int32(3)) == default_fit_grid(0.1, 10.0, 3)


class TestScaledCauchy:
    def test_linear_phi_with_mass_coefficients(self):
        g = ExpGenerator(2.0)
        report = scaled_cauchy_residual(scale(g, 4.0), g, 0.3, 1.7, 0.3, 1.7, 2.0, 5.0)
        assert report.rel_residual <= 1e-10

    def test_sqrt_phi_ray_fit_misses(self):
        f, g = SQRT_PAIR
        report = scaled_cauchy_residual(f, g, 1.0, 1.0, 2.0, 2.0, 1.0, 4.0)
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(math.sqrt(10.0))
        assert report.abs_residual == pytest.approx(0.1623, abs=1e-4)

    def test_diagonal_convex_weights_agree(self):
        f, g = SQRT_PAIR
        report = scaled_cauchy_residual(f, g, 0.5, 0.5, 0.5, 0.5, 4.0, 4.0)
        assert report.abs_residual <= 1e-12

    def test_invalid_coefficients(self):
        f, g = SQRT_PAIR
        with pytest.raises(ValueError):
            scaled_cauchy_residual(f, g, 1.0, 1.0, -0.1, 0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            scaled_cauchy_residual(f, g, 1.0, 1.0, 0.0, 0.0, 1.0, 2.0)


class TestProportionalityExtract:
    def test_scaled_pair(self):
        g = PowerGenerator(2.0)
        assert proportionality_extract(scale(g, 3.0), g) == pytest.approx(3.0, rel=1e-10)

    def test_equal_pair(self):
        g = ExpGenerator(-1.0)
        assert proportionality_extract(g, g) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_phi_rejected(self):
        f, g = SQRT_PAIR
        assert proportionality_extract(f, g) is None


class TestDiagnosticRows:
    # ``qamlab phi --format csv`` takes its columns from the first row's keys
    KEYS = ["check", "inputs", "lhs", "rhs", "abs_residual", "rel_residual", "pass"]

    @pytest.mark.parametrize(
        "f, g, fit_accepted",
        [
            (scale(ExpGenerator(1.0), 3.0), ExpGenerator(1.0), True),
            (ExpGenerator(1.0), ExpGenerator(2.0), False),
        ],
        ids=["fit-accepted", "fit-rejected"],
    )
    def test_every_row_has_the_same_keys_in_order(self, f, g, fit_accepted):
        rows = run_diagnostics(f, g)
        assert len(rows) == 9
        for row in rows:
            assert list(row) == self.KEYS
            assert type(row["pass"]) is bool
        fit = next(row for row in rows if row["check"] == "linear_form_fit")
        assert fit["pass"] is fit_accepted
        assert (fit["lhs"] is None) is not fit_accepted
