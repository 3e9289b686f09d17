"""The one relative-residual rule behind every pass/fail verdict."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlab import ExpGenerator, ResidualReport, is_proportional, scale
from qamlab.residuals import _relative_residuals

SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
sides = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(sides, sides), min_size=1, max_size=20))
def test_array_rule_equals_report_rule_bit_for_bit(pairs):
    lhs = np.array([x for x, _ in pairs])
    rhs = np.array([y for _, y in pairs])
    rel = _relative_residuals(lhs.copy(), rhs.copy())
    out = np.empty(len(pairs))
    assert _relative_residuals(lhs.copy(), rhs.copy(), out) is out
    for (x, y), got, got_out in zip(pairs, rel.tolist(), out.tolist()):
        want = ResidualReport.from_sides(x, y).rel_residual
        if math.isfinite(x) and math.isfinite(y):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            # a side that is not finite passes no tolerance
            assert math.isnan(got) and math.isnan(want)
        assert np.float64(got_out).tobytes() == np.float64(got).tobytes()


def test_proportionality_is_measured_against_the_model():
    # f is 100x smaller than g: a deviation measured against |g| alone
    # would pass, measured against f and c*g it does not
    assert is_proportional(scale(ExpGenerator(1.0 + 5e-8), 0.01), ExpGenerator(1.0)) is None
    c = is_proportional(scale(ExpGenerator(1.0 + 1e-8), 0.01), ExpGenerator(1.0))
    assert c is not None and math.isclose(c, 0.01, rel_tol=1e-7)
