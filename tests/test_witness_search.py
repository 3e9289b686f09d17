import itertools
import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from qamlab import (
    BlockScenario,
    DiscreteMeasureSpace,
    ExpGenerator,
    GridSpec,
    PowerGenerator,
    ProductGrid,
    RangeError,
    ResidualReport,
    SimpleFunctionMatrix,
    Spacing,
    Witness,
    affine,
    block_scenario_residual,
    block_witness_search,
    commutation_residual,
    full_witness_search,
    generator_from_json,
    mixed_means,
    refine_witness,
    scale,
)
from qamlab import means, witness_search
from qamlab.generators import masked_inverse
from qamlab.residuals import _relative_residuals
from qamlab.witness_search import _decode, _table_sides
from test_generators import _OnNegatives
from test_pinned_witness import DATA as PINNED, PAIRS

LN2, LN3, LN4 = math.log(2.0), math.log(3.0), math.log(4.0)
ANCHOR_GRID = [0.0, LN2, LN3, LN4]
GEOMETRIC_21 = GridSpec(21, (0.1, 10.0), Spacing.GEOMETRIC)


class TestGridSpec:
    def test_points_linear_and_geometric(self):
        lin = GridSpec(5, (1.0, 3.0), Spacing.LINEAR).points()
        assert np.allclose(lin, np.linspace(1.0, 3.0, 5))
        geo = GridSpec(5, (1.0, 16.0), Spacing.GEOMETRIC).points()
        assert np.allclose(geo, [1.0, 2.0, 4.0, 8.0, 16.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, (0.1, 1.0))
        with pytest.raises(ValueError):
            GridSpec(5, (2.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec(5, (-1.0, 1.0), Spacing.GEOMETRIC)

    @pytest.mark.parametrize("points", [3.0, True, np.True_, "5", 1, -2])
    def test_points_must_be_an_integer_of_at_least_two(self, points):
        with pytest.raises(ValueError, match=f"^points_per_axis must be an integer of at least 2, got {points}$"):
            GridSpec(points, (0.1, 10.0))

    def test_numpy_integer_points(self):
        assert np.array_equal(GridSpec(np.int64(5), (1.0, 16.0)).points(), GridSpec(5, (1.0, 16.0)).points())

    @pytest.mark.parametrize("value_range", [(0.1, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_range_must_be_finite(self, value_range):
        with pytest.raises(ValueError) as info:
            GridSpec(5, value_range, Spacing.LINEAR)
        assert str(info.value) == "grid range must be a finite interval with lo < hi"

    @pytest.mark.parametrize("grid", [[[0.5, 1.0]], []], ids=["2-D", "empty"])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError) as info:
            block_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), 1, 1, 1, 1, grid)
        assert str(info.value) == "search grid must be a one-dimensional set of points"

    def test_grid_must_fit_domains(self):
        # power generators live on (0, inf); a grid touching -1 is invalid
        with pytest.raises(ValueError):
            block_witness_search(
                PowerGenerator(1.0), PowerGenerator(2.0), 1, 1, 1, 1,
                GridSpec(5, (-1.0, 1.0), Spacing.LINEAR),
            )


class TestBlockSearch:
    def test_matches_exhaustive_oracle_on_anchor_grid(self):
        # independent oracle: plain nested loops over the 4^4 scenarios
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        best_rel, best_combo = -1.0, None
        for combo in itertools.product(ANCHOR_GRID, repeat=4):
            rel = block_scenario_residual(f, g, BlockScenario(1, 1, 1, 1, *combo)).rel_residual
            if rel > best_rel:
                best_rel, best_combo = rel, combo
        witness = block_witness_search(f, g, 1, 1, 1, 1, ANCHOR_GRID, threshold=1e-4)
        assert witness is not None
        assert witness.values == best_combo
        assert witness.report.rel_residual == pytest.approx(best_rel, rel=1e-12)
        assert witness.skipped_points == 0

    def test_anchor_grid_beats_known_scenario(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        witness = block_witness_search(f, g, 1, 1, 1, 1, ANCHOR_GRID, threshold=1e-4)
        known = block_scenario_residual(
            f, g, BlockScenario(1, 1, 1, 1, 0.0, LN2, LN3, LN4)
        )
        assert known.rel_residual >= 1.7e-3
        assert witness.report.rel_residual >= known.rel_residual
        assert witness.report.abs_residual >= 3.4e-3

    def test_geometric_grid_finds_violations(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        witness = block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21, threshold=1e-4)
        assert witness is not None
        assert witness.report.rel_residual >= 1e-4

    def test_proportional_pair_yields_nothing(self):
        g = ExpGenerator(2.0)
        assert block_witness_search(scale(g, 2.0), g, 1, 1, 1, 1, GEOMETRIC_21, 1e-6) is None

    def test_affine_pair_on_probability_masses_yields_nothing(self):
        g = PowerGenerator(2.0)
        f = affine(g, 2.0, 3.0)
        assert block_witness_search(f, g, 0.5, 0.5, 0.5, 0.5, GEOMETRIC_21, 1e-6) is None

    def test_soundness_reevaluation(self):
        # the reported residual must survive independent re-evaluation
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        witness = block_witness_search(f, g, 1.3, 0.7, 0.4, 2.1, GEOMETRIC_21, 1e-4)
        scenario = BlockScenario(1.3, 0.7, 0.4, 2.1, *witness.values)
        grid, h = scenario.to_grid_and_matrix()
        again = commutation_residual(f, g, grid, h)
        assert witness.report.rel_residual == pytest.approx(again.rel_residual, abs=1e-12)

    def test_completeness_for_non_proportional_pairs(self):
        pairs = [
            (ExpGenerator(1.0), ExpGenerator(2.0)),
            (PowerGenerator(1.0), PowerGenerator(2.0)),
            (ExpGenerator(1.0), PowerGenerator(1.0)),  # mixed domains, common (0, inf)
        ]
        for f, g in pairs:
            witness = block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21, threshold=1e-4)
            assert witness is not None, (f.describe(), g.describe())
            assert witness.report.rel_residual >= 1e-4

    def test_determinism_across_worker_counts(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        docs = {
            block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21, 1e-4, workers=w).to_json()
            for w in (1, 2, 3, 7)
        }
        assert len(docs) == 1

    def test_invalid_mass(self):
        with pytest.raises(ValueError):
            block_witness_search(
                ExpGenerator(1.0), ExpGenerator(2.0), 0.0, 1, 1, 1, GEOMETRIC_21
            )

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            block_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), 1, 1, 1, 1,
                                 GEOMETRIC_21, workers=workers)

    @pytest.mark.parametrize("workers", [0, 1.5, True, np.True_, "2"])
    def test_workers_must_be_an_integer_before_any_search(self, workers, monkeypatch):
        monkeypatch.setattr(witness_search, "_table_sides", lambda *args: pytest.fail("searched"))
        with pytest.raises(ValueError, match=f"^workers must be an integer of at least 1, got {workers}$"):
            block_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), 1, 1, 1, 1,
                                 GEOMETRIC_21, workers=workers)

    def test_numpy_integer_workers(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        assert (block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21, workers=np.int64(2)).to_json()
                == block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21).to_json())


class TestFullSearch:
    def two_by_two_unit(self):
        return (DiscreteMeasureSpace([1.0, 1.0]), DiscreteMeasureSpace([1.0, 1.0]))

    def test_two_by_two_equals_block_search(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        full = full_witness_search(f, g, (2, 2), self.two_by_two_unit(), GEOMETRIC_21, 1e-4)
        block = block_witness_search(f, g, 1, 1, 1, 1, GEOMETRIC_21, 1e-4)
        assert full is not None and block is not None
        flat = tuple(v for row in full.values for v in row)
        assert flat == block.values
        assert full.report.rel_residual == pytest.approx(block.report.rel_residual, rel=1e-12)

    def test_two_by_two_equals_block_search_with_skips(self):
        f, g = affine(ExpGenerator(1.0), 1.0, 1.0), ExpGenerator(1.0)
        spaces = (DiscreteMeasureSpace([0.3, 0.3]), DiscreteMeasureSpace([0.3, 0.3]))
        grid = GridSpec(9, (0.05, 2.0))
        full = full_witness_search(f, g, (2, 2), spaces, grid, 1e-6)
        block = block_witness_search(f, g, 0.3, 0.3, 0.3, 0.3, grid, 1e-6)
        assert full is not None and block is not None
        assert tuple(v for row in full.values for v in row) == block.values
        assert full.report.rel_residual == block.report.rel_residual
        assert full.skipped_points == block.skipped_points > 0

    def test_single_cell_on_probability_spaces_commutes(self):
        f, g = ExpGenerator(1.0), PowerGenerator(1.0)
        spaces = (DiscreteMeasureSpace([1.0]), DiscreteMeasureSpace([1.0]))
        assert full_witness_search(f, g, (1, 1), spaces, GEOMETRIC_21, 1e-6) is None

    def test_single_cell_off_unit_mass_can_witness(self):
        # with masses 2 and 3 the single-value sides differ by ln(2)*(1 - 3)
        f, g = ExpGenerator(1.0), PowerGenerator(1.0)
        spaces = (DiscreteMeasureSpace([2.0]), DiscreteMeasureSpace([3.0]))
        witness = full_witness_search(f, g, (1, 1), spaces, GEOMETRIC_21, 1e-6)
        assert witness is not None
        x = witness.values[0][0]
        lhs = math.log(2.0) + 3.0 * x
        rhs = 3.0 * (x + math.log(2.0))
        assert witness.report.abs_residual == pytest.approx(abs(lhs - rhs), rel=1e-10)

    def test_budget_guard_precedes_evaluation(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        spaces = (DiscreteMeasureSpace([1.0] * 3), DiscreteMeasureSpace([1.0] * 3))
        with pytest.raises(ValueError, match="budget"):
            full_witness_search(f, g, (3, 3), spaces, GridSpec(10, (0.5, 2.0)), 1e-4)

    def test_shape_space_mismatch(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        with pytest.raises(ValueError):
            full_witness_search(f, g, (2, 3), self.two_by_two_unit(), GEOMETRIC_21, 1e-4)

    def test_determinism_across_worker_counts(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        docs = {
            full_witness_search(
                f, g, (2, 2), self.two_by_two_unit(), GridSpec(9, (0.2, 5.0)), 1e-4, workers=w
            ).to_json()
            for w in (1, 4)
        }
        assert len(docs) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            full_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), (2, 2),
                                self.two_by_two_unit(), GridSpec(5, (0.2, 5.0)), workers=workers)

    @pytest.mark.parametrize("workers", [0, 1.5, True, np.True_, "2"])
    def test_workers_must_be_an_integer_before_any_search(self, workers, monkeypatch):
        monkeypatch.setattr(witness_search, "_table_sides", lambda *args: pytest.fail("searched"))
        with pytest.raises(ValueError, match=f"^workers must be an integer of at least 1, got {workers}$"):
            full_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), (2, 2),
                                self.two_by_two_unit(), GridSpec(5, (0.2, 5.0)), workers=workers)

    def test_soundness_reevaluation(self):
        from qamlab import ProductGrid, SimpleFunctionMatrix

        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        spaces = (DiscreteMeasureSpace([0.7, 1.4]), DiscreteMeasureSpace([2.0, 0.3]))
        witness = full_witness_search(f, g, (2, 2), spaces, GridSpec(9, (0.2, 5.0)), 1e-5)
        again = commutation_residual(
            f, g, ProductGrid(*spaces), SimpleFunctionMatrix(np.asarray(witness.values))
        )
        assert witness.report.rel_residual == pytest.approx(again.rel_residual, abs=1e-12)


class TestRefinement:
    def setup_method(self):
        self.f, self.g = ExpGenerator(1.0), ExpGenerator(2.0)
        self.start = block_witness_search(self.f, self.g, 1, 1, 1, 1, ANCHOR_GRID, 1e-4)

    def test_zero_iterations_returns_start(self):
        assert refine_witness(self.f, self.g, self.start, 0) is self.start

    @pytest.mark.parametrize("iterations", [2.0, True, np.True_, "1", -1])
    def test_iterations_must_be_a_non_negative_count(self, iterations, monkeypatch):
        monkeypatch.setattr(witness_search, "mixed_means", lambda *args: pytest.fail("refined"))
        with pytest.raises(ValueError, match=f"^iterations must be a non-negative count, got {iterations}$"):
            refine_witness(self.f, self.g, self.start, iterations)

    def test_numpy_integer_iterations(self):
        assert (refine_witness(self.f, self.g, self.start, np.int64(2))
                == refine_witness(self.f, self.g, self.start, 2))

    def test_never_decreases(self):
        for iters in (1, 5, 20):
            refined = refine_witness(self.f, self.g, self.start, iters)
            assert refined.report.rel_residual >= self.start.report.rel_residual

    def test_fifty_iterations_strictly_improves(self):
        refined = refine_witness(self.f, self.g, self.start, 50)
        assert refined.report.rel_residual > self.start.report.rel_residual
        # regression anchor, recorded from the first verified run
        assert refined.report.rel_residual == pytest.approx(0.34657359027963863, rel=1e-6)

    def test_deterministic(self):
        a = refine_witness(self.f, self.g, self.start, 7)
        b = refine_witness(self.f, self.g, self.start, 7)
        assert a.values == b.values
        assert a.report == b.report

    def test_zero_residual_start_unchanged(self):
        g = ExpGenerator(2.0)
        f = scale(g, 2.0)
        sc = BlockScenario(1, 1, 1, 1, 0.5, 1.0, 1.5, 2.0)
        from qamlab import Witness

        fabricated = Witness("block", sc.masses, sc.block_values,
                             block_scenario_residual(f, g, sc))
        assert refine_witness(f, g, fabricated, 10) is fabricated

    def test_generators_without_a_common_domain(self):
        with pytest.raises(ValueError) as info:
            refine_witness(_OnNegatives(), PowerGenerator(3.0), self.start, 1)
        assert str(info.value) == "domain mismatch: power(p=2) and power(p=3) share no interval"

    def test_refines_matrix_witnesses(self):
        spaces = (DiscreteMeasureSpace([1.0, 1.0]), DiscreteMeasureSpace([1.0, 1.0]))
        start = full_witness_search(self.f, self.g, (2, 2), spaces, GridSpec(5, (0.5, 4.0)), 1e-5)
        refined = refine_witness(self.f, self.g, start, 10)
        assert refined.kind == "matrix"
        assert refined.report.rel_residual >= start.report.rel_residual


def pinned_witness(label: str, kind: str):
    """The generators and the witness of one pinned `qamlab witness` case."""
    f_doc, g_doc = PAIRS[label]
    doc = json.loads((PINNED / f"{label}-{kind}.json").read_text())
    if doc["kind"] == "block":
        masses, values = tuple(doc["masses"]), tuple(doc["values"])
    else:
        masses = tuple(tuple(w) for w in doc["masses"])
        values = tuple(tuple(row) for row in doc["values"])
    report = ResidualReport(doc["lhs"], doc["rhs"], doc["abs_residual"], doc["rel_residual"])
    start = Witness(doc["kind"], masses, values, report, doc["skipped_points"])
    return generator_from_json(f_doc), generator_from_json(g_doc), start


def witness_residual(f, g, witness: Witness):
    """``commutation_residual`` on a witness's own masses and values."""
    if witness.kind == "block":
        wx, wy = witness.masses[:2], witness.masses[2:]
        values = [witness.values[:2], witness.values[2:]]
    else:
        (wx, wy), values = witness.masses, witness.values
    grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
    return commutation_residual(f, g, grid, SimpleFunctionMatrix(values))


# rel residual that golden-section refinement (34 probes per coordinate,
# the algorithm before the bracket scans) reached from the pinned witness
# of each non-proportional pair, after 1 and after 5 sweeps
GOLDEN_SECTION = {
    ("exp-increasing", "block"): (0.0947701831352352, 0.13806169821999834),
    ("exp-increasing", "full"): (0.07916631919058582, 0.1017850479312878),
    ("exp-decreasing", "block"): (0.346566963642131, 0.34657359027978774),
    ("exp-decreasing", "full"): (0.3465686357746539, 0.34657359027989837),
    ("power", "block"): (0.9872753326993123, 0.999672498101592),
    ("power", "full"): (0.9882981111608343, 0.9996992522322681),
    ("exp-power", "block"): (0.23010883144009187, 0.2397232522328837),
    ("exp-power", "full"): (0.36849326209016225, 0.3899033687832626),
}


class TestBatchedRefinement:
    @pytest.mark.parametrize("label, kind", list(GOLDEN_SECTION),
                             ids=[f"{lb}-{k}" for lb, k in GOLDEN_SECTION])
    def test_reaches_golden_section(self, label, kind):
        f, g, start = pinned_witness(label, kind)
        for sweeps, golden in zip((1, 5), GOLDEN_SECTION[label, kind]):
            refined = refine_witness(f, g, start, sweeps)
            assert refined.report.rel_residual >= golden * (1.0 - 1e-6), sweeps

    @pytest.mark.parametrize("kind", ["block", "full"])
    def test_at_most_six_kernel_calls_per_coordinate_per_sweep(self, monkeypatch, kind):
        calls = []

        def counting(*args):
            calls.append(1)
            return mixed_means(*args)

        # the scans, and the final report through commutation_residual
        monkeypatch.setattr(witness_search, "mixed_means", counting)
        monkeypatch.setattr(means, "mixed_means", counting)
        f, g, start = pinned_witness("exp-increasing", kind)
        sweeps = 3
        refined = refine_witness(f, g, start, sweeps)
        assert refined.report.rel_residual > start.report.rel_residual
        assert 0 < len(calls) <= 6 * len(np.ravel(start.values)) * sweeps

    @pytest.mark.parametrize("kind", ["block", "full"])
    def test_range_escapes_inside_the_bracket(self, monkeypatch, kind):
        # the shifted f leaves exp's range on part of each bracket
        escapes = []

        def recording(f, g, wx, wy, values):
            lhs, rhs = mixed_means(f, g, wx, wy, values)
            escapes.extend((wx, wy, h) for h in values[np.isnan(lhs) | np.isnan(rhs)])
            return lhs, rhs

        monkeypatch.setattr(witness_search, "mixed_means", recording)
        f, g, start = pinned_witness("shifted-exp", kind)
        for sweeps in (1, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                refined = refine_witness(f, g, start, sweeps)
            # the scans step past the points that escape, so the climb goes on
            assert refined.report.rel_residual > start.report.rel_residual
            assert refined.report == witness_residual(f, g, refined)
        assert escapes
        wx, wy, h = escapes[0]
        grid = ProductGrid(DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
        with pytest.raises(RangeError) as err:
            commutation_residual(f, g, grid, SimpleFunctionMatrix(h))
        assert err.value.stage in ("inner-Y", "outer-X", "inner-X", "outer-Y")

    def test_bracket_clipped_at_the_domain_end(self):
        # power's domain ends at 0, and the witness sits at the grid's lower
        # edge 0.1, where v - _STEP_FRACTION * max(1, v) is below 0
        f, g, start = pinned_witness("power", "block")
        assert f.describe() == PowerGenerator(2.0).describe()
        assert g.describe() == PowerGenerator(-1.0).describe()
        assert min(start.values) == 0.1
        common = f.domain.intersection(g.domain)
        for sweeps in (1, 5, 20):
            refined = refine_witness(f, g, start, sweeps)
            assert common.contains_all(refined.values)
            assert refined.report.rel_residual > start.report.rel_residual
        assert min(refined.values) < min(start.values)


class TestWitnessJson:
    def test_block_document_fields(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        witness = block_witness_search(f, g, 1, 1, 1, 1, ANCHOR_GRID, 1e-4)
        doc = witness.to_json_dict()
        assert doc["kind"] == "block"
        assert doc["masses"] == [1, 1, 1, 1]
        assert len(doc["values"]) == 4
        assert doc["skipped_points"] == 0
        assert doc["rel_residual"] == witness.report.rel_residual
        assert set(doc) == {
            "kind", "masses", "values", "lhs", "rhs",
            "abs_residual", "rel_residual", "skipped_points",
        }

    def test_matrix_document_fields(self):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        spaces = (DiscreteMeasureSpace([1.0, 2.0]), DiscreteMeasureSpace([1.0, 1.0]))
        witness = full_witness_search(f, g, (2, 2), spaces, GridSpec(5, (0.5, 4.0)), 1e-5)
        doc = witness.to_json_dict()
        assert doc["kind"] == "matrix"
        assert doc["masses"] == [[1.0, 2.0], [1.0, 1.0]]
        assert len(doc["values"]) == 2 and len(doc["values"][0]) == 2


class TestTableEvaluator:
    """Both searches' table evaluator against a brute force over ``mixed_means``.

    The reference decodes every candidate and runs it through the kernel,
    so it shares no table, slice or sum with the evaluator.  9x1 and 2x9
    put the lhs, then the rhs, past the 8 terms from which numpy sums
    pairwise.  At the default batch size the 2x2, 2x3 and 3x3 cases lay
    each side's last term out once per search (see ``TestLaidOutLastTerm``).
    """

    SHIFTED = (affine(ExpGenerator(1.0), 1.0, 1.0), ExpGenerator(1.0))
    CASES = {
        "exp-2x2": ((ExpGenerator(1.0), ExpGenerator(2.0)), [0.7, 1.3], [1.1, 0.6],
                    GridSpec(6, (0.1, 10.0))),
        "exp-power-2x3": ((ExpGenerator(1.0), PowerGenerator(2.0)), [0.8, 1.5], [0.6, 1.2, 0.9],
                          GridSpec(4, (0.1, 10.0))),
        # both inverses multiply by an exact reciprocal, 1/-1 and 1/-2
        "exp-decreasing-2x2": ((ExpGenerator(-1.0), ExpGenerator(-2.0)), [0.7, 1.3], [1.1, 0.6],
                               GridSpec(6, (0.1, 10.0))),
        "exp-power-3x3": ((ExpGenerator(2.0), PowerGenerator(-1.0)), [0.4, 1.3, 0.9],
                          [1.2, 0.5, 2.0], GridSpec(3, (0.1, 10.0))),
        "power-3x2": ((PowerGenerator(2.0), PowerGenerator(-1.0)), [0.5, 1.0, 2.0], [1.5, 0.4],
                      GridSpec(4, (0.1, 10.0))),
        "shifted-2x2": (SHIFTED, [0.3, 0.3], [0.3, 0.3], GridSpec(9, (0.05, 2.0))),
        "shifted-2x3": (SHIFTED, [0.2, 0.2], [0.2, 0.2, 0.2], GridSpec(5, (0.05, 2.0))),
        "shifted-3x2": (SHIFTED, [0.2, 0.2, 0.2], [0.2, 0.2], GridSpec(5, (0.05, 2.0))),
        "exp-9x1": ((ExpGenerator(-1.0), ExpGenerator(-2.0)),
                    [0.3, 1.7, 0.9, 1.1, 0.5, 2.0, 0.8, 1.3, 0.6], [1.4],
                    GridSpec(3, (0.2, 5.0))),
        "exp-2x9": ((ExpGenerator(1.0), ExpGenerator(2.0)), [0.9, 1.6],
                    [0.3, 1.7, 0.9, 1.1, 0.5, 2.0, 0.8, 1.3, 0.6], GridSpec(2, (0.2, 5.0))),
        "exp-power-1x1": ((ExpGenerator(1.0), PowerGenerator(1.0)), [2.0], [3.0],
                          GridSpec(21, (0.1, 10.0))),
    }

    @pytest.fixture(autouse=True, params=[witness_search.BATCH_SIZE, 64, 16],
                    ids=lambda size: f"batch{size}")
    def batch_size(self, request, monkeypatch):
        # below the default, these grids take several leading digits and build
        # their tables in several steps, as block searches on 65 points and up do
        monkeypatch.setattr(witness_search, "BATCH_SIZE", request.param)

    @staticmethod
    def brute_force(f, g, wx, wy, pts):
        shape = (len(wx), len(wy))
        total = pts.size ** (shape[0] * shape[1])
        sides = [mixed_means(f, g, wx, wy, _decode(np.arange(s, min(s + 4096, total)), pts, shape))
                 for s in range(0, total, 4096)]
        lhs = np.concatenate([s[0] for s in sides])
        rhs = np.concatenate([s[1] for s in sides])
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        rel = np.full(total, -1.0)
        rel[valid] = np.abs(lhs - rhs)[valid] / np.maximum(
            1.0, np.maximum(np.abs(lhs), np.abs(rhs)))[valid]
        return lhs, rhs, int(np.argmax(rel)), int(total - valid.sum())

    @staticmethod
    def table_sides(f, g, wx, wy, pts):
        """Both sides of every candidate from the evaluator, each batch in its own buffers."""
        sides, total, batch = _table_sides(f, g, wx, wy, pts)
        got = []
        for start in range(0, total, batch):
            out = (np.empty(batch), np.empty(batch))
            got.append(sides(start, *out))
            assert got[-1][0] is out[0] and got[-1][1] is out[1]
        return np.concatenate([s[0] for s in got]), np.concatenate([s[1] for s in got]), batch

    @staticmethod
    def assert_bitwise_equal(got, want):
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))

    @pytest.mark.parametrize("case", CASES)
    def test_every_candidate_matches_the_kernel(self, case):
        (f, g), wx, wy, grid = self.CASES[case]
        pts = grid.points()
        wx, wy = np.asarray(wx), np.asarray(wy)
        lhs, rhs, _, _ = self.brute_force(f, g, wx, wy, pts)

        got_lhs, got_rhs, batch = self.table_sides(f, g, wx, wy, pts)
        assert got_lhs.size == lhs.size and lhs.size % batch == 0
        self.assert_bitwise_equal(got_lhs, lhs)
        self.assert_bitwise_equal(got_rhs, rhs)

    @pytest.mark.parametrize("case", CASES)
    def test_sides_write_into_given_buffers(self, case):
        # one pair of buffers for every batch, as the searches keep them;
        # a finite sentinel no mean takes shows any entry left unwritten
        (f, g), wx, wy, grid = self.CASES[case]
        pts = grid.points()
        wx, wy = np.asarray(wx), np.asarray(wy)
        want_lhs, want_rhs, _, _ = self.brute_force(f, g, wx, wy, pts)
        sides, total, batch = _table_sides(f, g, wx, wy, pts)
        lhs, rhs = np.empty(batch), np.empty(batch)
        for start in range(0, total, batch):
            lhs.fill(-1.5e308)
            rhs.fill(-1.5e308)
            got = sides(start, lhs, rhs)
            assert got[0] is lhs and got[1] is rhs
            self.assert_bitwise_equal(lhs, want_lhs[start:start + batch])
            self.assert_bitwise_equal(rhs, want_rhs[start:start + batch])

    @pytest.mark.parametrize("case", CASES)
    def test_searches_report_the_brute_force_argmax(self, case):
        (f, g), wx, wy, grid = self.CASES[case]
        pts = grid.points()
        _, _, best, skipped = self.brute_force(f, g, np.asarray(wx), np.asarray(wy), pts)
        want = _decode(best, pts, (len(wx), len(wy))).tolist()
        spaces = (DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
        for workers in (1, 4):
            full = full_witness_search(f, g, (len(wx), len(wy)), spaces, grid, 1e-300, workers)
            assert [list(row) for row in full.values] == want
            assert full.skipped_points == skipped
            if len(wx) == len(wy) == 2:
                block = block_witness_search(f, g, *wx, *wy, grid, 1e-300, workers)
                assert list(block.values) == want[0] + want[1]
                assert block.skipped_points == skipped


class TestLaidOutLastTerm:
    """Which sums lay their last term out once per search, read-only and contiguous.

    A chain of fewer than 8 terms whose last group reads only trailing
    digits adds that term laid out at the batch's shape; one whose last
    group reads a lead digit, and a longer chain, keep the broadcast add.
    A one-atom side builds its table per batch and sums nothing.  The
    results are checked bit for bit by ``TestTableEvaluator``.
    """

    # (rows, columns), points per axis, BATCH_SIZE -> (lhs laid out, rhs laid out)
    CASES = {
        "block-grid31": ((2, 2), 31, witness_search.BATCH_SIZE, (True, True)),
        "full-2x3-grid7": ((2, 3), 7, witness_search.BATCH_SIZE, (True, True)),
        "full-3x3-grid3": ((3, 3), 3, witness_search.BATCH_SIZE, (True, True)),
        # columns 1, 3 and 5 of the last column: 5 trailing, 1 and 3 lead
        "full-3x2-batch16": ((3, 2), 4, 16, (True, False)),
        # nine columns: the np.sum path
        "full-2x9": ((2, 9), 2, witness_search.BATCH_SIZE, (True, False)),
        # one column: the rhs is built per batch
        "full-9x1": ((9, 1), 3, witness_search.BATCH_SIZE, (False, None)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_path_of_each_side(self, case, monkeypatch):
        (m, n), points, size, want = self.CASES[case]
        monkeypatch.setattr(witness_search, "BATCH_SIZE", size)
        laid = []
        summed = witness_search._weighted_sum

        def recording(products, out=None, last=None):
            if out is not None:
                laid.append(last is not None)
                if last is not None:
                    assert last.shape == out.shape and last.flags.c_contiguous
                    assert not last.flags.writeable
            return summed(products, out, last)

        monkeypatch.setattr(witness_search, "_weighted_sum", recording)
        sides, total, batch = _table_sides(ExpGenerator(1.0), ExpGenerator(2.0), np.linspace(0.5, 1.5, m),
                                           np.linspace(0.7, 1.1, n), GridSpec(points, (0.1, 10.0)).points())
        for start in (0, total - batch):
            sides(start, np.empty(batch), np.empty(batch))
        assert laid == [side for side in want if side is not None] * 2


class TestBatchBounds:
    """Each batch's range test from its tables, on every table-evaluator case.

    ``masked_inverse`` gets a batch's sums with their least and greatest
    value from the per-prefix extremes of the tables.  Those bounds must be
    the batch's NaN-propagating minimum and maximum bit for bit, and the
    sides through them those of ``masked_inverse`` without them.  The
    shifted cases put some batches' sums outside f's range, so that their
    bounds fail; the one-atom sides of 9x1 and 1x1 have no bounds.
    """

    @pytest.fixture(autouse=True, params=[witness_search.BATCH_SIZE, 64, 16],
                    ids=lambda size: f"batch{size}")
    def batch_size(self, request, monkeypatch):
        monkeypatch.setattr(witness_search, "BATCH_SIZE", request.param)

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    @pytest.mark.parametrize("case", TestTableEvaluator.CASES)
    def test_bounds_are_the_batch_extremes_and_give_the_masked_sides(self, case, monkeypatch):
        (f, g), wx, wy, grid = TestTableEvaluator.CASES[case]
        bounds_got, bounds_want, sides_got, sides_want, outcomes = [], [], [], [], set()

        def recording(gen, y, out, bounds):
            sums = y.copy()
            sides_got.append(masked_inverse(gen, y, out, bounds))
            sides_want.append(masked_inverse(gen, sums))
            if bounds is None:
                outcomes.add(None)
            else:
                bounds_got.append(bounds)
                bounds_want.append([np.minimum.reduce(sums), np.maximum.reduce(sums)])
                outcomes.add(gen.codomain.contains_all(bounds))
            return sides_got[-1]

        monkeypatch.setattr(witness_search, "masked_inverse", recording)
        # every batch in its own buffers, so that each recorded side stays as written
        TestTableEvaluator.table_sides(f, g, np.asarray(wx), np.asarray(wy), grid.points())
        self.assert_same_bits(np.concatenate(sides_got), np.concatenate(sides_want))
        if bounds_got:
            self.assert_same_bits(bounds_got, bounds_want)
        # one-atom sides have no bounds, and bounds fail on the shifted cases only
        assert (None in outcomes) == (1 in (len(wx), len(wy)))
        assert (False in outcomes) == case.startswith("shifted")


class TestOneAtomTables:
    """A space with one atom makes the other side's table as large as the search.

    Such a table is built per batch; the candidates must not change, and
    the memory must not grow with the search.
    """

    CASES = {
        "1x5": ([1.3], [0.3, 1.7, 0.9, 1.1, 0.5]),
        "5x1": ([0.3, 1.7, 0.9, 1.1, 0.5], [1.3]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_candidate_matches_the_kernel(self, case):
        f, g = ExpGenerator(1.0), PowerGenerator(2.0)
        wx, wy = (np.asarray(w) for w in self.CASES[case])
        pts = GridSpec(4, (0.1, 10.0)).points()
        lhs, rhs, best, _ = TestTableEvaluator.brute_force(f, g, wx, wy, pts)

        got_lhs, got_rhs, batch = TestTableEvaluator.table_sides(f, g, wx, wy, pts)
        assert lhs.size // batch == 4
        TestTableEvaluator.assert_bitwise_equal(got_lhs, lhs)
        TestTableEvaluator.assert_bitwise_equal(got_rhs, rhs)
        spaces = (DiscreteMeasureSpace(wx), DiscreteMeasureSpace(wy))
        found = full_witness_search(f, g, (wx.size, wy.size), spaces, pts, 1e-300, workers=3)
        assert [list(row) for row in found.values] == _decode(best, pts, (wx.size, wy.size)).tolist()

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
    def test_peak_memory_does_not_hold_a_table_of_the_search(self, shape):
        # 10^6 candidates: a table of them all is 8 MB, and a batch's own
        # arrays take about 10 MB
        spaces = tuple(DiscreteMeasureSpace([1.0] * size) for size in shape)
        tracemalloc.start()
        try:
            full_witness_search(ExpGenerator(1.0), ExpGenerator(2.0), shape, spaces,
                                GridSpec(10, (0.1, 3.0)), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestWorkerCap:
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        grid = GridSpec(9, (0.1, 10.0))
        alone = block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, grid)
        pools = []

        class InlinePool:
            """Records its size and runs the parts in this thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, parts):
                return [fn(part) for part in parts]

        monkeypatch.setattr(witness_search, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(witness_search.os, "cpu_count", lambda: 3)
        # 9 batches of 9^3 candidates, so 5000 workers would otherwise ask for 9 runs;
        # the calling thread runs the first of the 3, the pool the other 2
        capped = block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, grid, workers=5000)
        assert pools == [2]
        assert capped == alone

    def test_calling_thread_runs_the_first_run(self, monkeypatch):
        f, g = ExpGenerator(1.0), ExpGenerator(2.0)
        grid = GridSpec(9, (0.1, 10.0))
        alone = block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, grid)
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return _relative_residuals(*args)

        monkeypatch.setattr(witness_search, "_relative_residuals", recording)
        monkeypatch.setattr(witness_search.os, "cpu_count", lambda: 2)
        assert block_witness_search(f, g, 0.7, 1.3, 1.1, 0.6, grid, workers=2) == alone
        # 9 batches in runs of 5 and 4: the first 5 in this thread
        assert len(threads) == 9
        assert threads.count(threading.get_ident()) == 5
