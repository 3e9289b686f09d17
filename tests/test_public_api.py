"""The package exports exactly the names its submodules declare public."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qamlab

# the package API before it was derived from the submodules' __all__ lists
EXPORTED_BEFORE = [
    "AffineGenerator", "BlockScenario", "CodomainKind", "DEFAULT_ZERO_TOL",
    "DiscreteMeasureSpace", "DomainError", "ExpGenerator", "Generator", "GridSpec",
    "IdentityGenerator", "Interval", "LinearFit", "LogGenerator", "MeanSetting",
    "PowerGenerator", "ProductGrid", "RangeError", "ResidualReport", "ScaledGenerator",
    "SimpleFunctionMatrix", "Spacing", "SuiteResult", "Witness", "additivity_residual",
    "affine", "beta_homogeneity_residual", "big_phi", "block_scenario_residual",
    "block_witness_search", "commutation_residual", "default_fit_grid",
    "full_witness_search", "generator_from_json", "is_affine_equivalent",
    "is_proportional", "jensen_affinity_residual", "lhs_mixed_mean", "linear_form_fit",
    "mixed_means", "phi_equation_residual", "phi_eval", "phi_inverse_eval",
    "phi_monotone_check", "phi_origin_limit", "proportionality_extract", "qam",
    "refine_witness", "rhs_mixed_mean", "run_diagnostics", "run_finite_measure_suite",
    "run_probability_suite", "scale", "scale_invariance_residual",
    "scaled_cauchy_residual", "validate_for_setting",
]


def library_modules():
    """Every submodule but the command line, in name order."""
    names = sorted(info.name for info in pkgutil.iter_modules(qamlab.__path__))
    return [importlib.import_module(f"qamlab.{name}") for name in names if name != "cli"]


def test_earlier_exports_are_kept():
    assert len(EXPORTED_BEFORE) == 55
    assert set(EXPORTED_BEFORE) <= set(qamlab.__all__)


def test_all_is_the_submodules_all_lists():
    assert len(qamlab.__all__) == len(set(qamlab.__all__))
    assert qamlab.__all__ == [name for mod in library_modules() for name in mod.__all__]


def test_every_name_is_the_submodule_object():
    for mod in library_modules():
        for name in mod.__all__:
            assert getattr(qamlab, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_importing_the_package_does_not_import_the_cli():
    src = str(Path(qamlab.__file__).resolve().parents[1])
    code = "import sys, qamlab; print('qamlab.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
