"""Shared fixtures: the generator catalog and admissible pair lists."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qamlab import (
    ExpGenerator,
    IdentityGenerator,
    LogGenerator,
    PowerGenerator,
)

# The tier-1 policy: every @given test runs the same derandomized examples,
# so a run's verdict depends on the code alone.  The "randomized" profile
# (``pytest -m hypothesis --hypothesis-profile=randomized``) draws fresh
# examples on each run, to find draws that the fixed ones miss.
settings.register_profile("tier-1", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("tier-1")


@pytest.fixture(scope="session")
def catalog():
    """Every catalog family instance used across the property tests."""
    return [
        ExpGenerator(-1.0),
        ExpGenerator(1.0),
        ExpGenerator(2.0),
        PowerGenerator(-1.0),
        PowerGenerator(0.5),
        PowerGenerator(2.0),
        IdentityGenerator(),
        LogGenerator(),
    ]


@pytest.fixture(scope="session")
def positive_bijection_pairs():
    """Same-domain pairs valid in the finite-measure setting.

    The scalar reduction needs f and g to be bijections of one shared
    interval onto (0, inf); mixed-domain pairs such as (exp, power) are
    exercised separately in the witness-search tests.
    """
    return [
        (ExpGenerator(1.0), ExpGenerator(2.0)),
        (ExpGenerator(-1.0), ExpGenerator(1.0)),
        (PowerGenerator(0.5), PowerGenerator(2.0)),
        (PowerGenerator(-1.0), PowerGenerator(2.0)),
    ]


def random_in_domain(rng: np.random.Generator, gen, size):
    """Draw values well inside a catalog generator's domain."""
    import math

    dom = gen.domain
    if math.isinf(dom.lower) and math.isinf(dom.upper):
        return rng.uniform(-2.0, 2.0, size)
    return np.exp(rng.uniform(np.log(0.2), np.log(5.0), size))
