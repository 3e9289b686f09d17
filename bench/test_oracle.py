"""The benchmark's oracle against hand-derived anchors (no qamlab involved)."""

import math

import oracle


def test_readme_anchor_exp1_vs_exp2():
    # README anchor: exp(1) vs exp(2), unit masses, h = [[0, ln 2], [ln 3, ln 4]]
    f = oracle.OracleGenerator({"family": "exp", "k": 1.0})
    g = oracle.OracleGenerator({"family": "exp", "k": 2.0})
    h = [[0.0, math.log(2.0)], [math.log(3.0), math.log(4.0)]]
    lhs, rhs = oracle.mixed_means(f, g, [1.0, 1.0], [1.0, 1.0], h)
    # by hand: lhs = ln(sqrt(5) + sqrt(25)), rhs = ln(4^2 + 6^2) / 2
    assert math.isclose(lhs, math.log(math.sqrt(5.0) + 5.0), rel_tol=1e-14)
    assert math.isclose(rhs, 0.5 * math.log(52.0), rel_tol=1e-14)
    assert abs(abs(lhs - rhs) - 3.456e-3) < 5e-7


def test_closed_form_matches_both_sides_for_proportional_pairs():
    g_doc = {"family": "power", "p": -1.0}
    f = oracle.OracleGenerator({**g_doc, "scale": 10.0})
    g = oracle.OracleGenerator(g_doc)
    wx, wy = [0.3, 1.7, 2.2], [0.9, 4.1]
    h = [[0.2, 3.0], [1.5, 0.7], [4.9, 2.2]]
    lhs, rhs = oracle.mixed_means(f, g, wx, wy, h)
    want = oracle.closed_form(g, wx, wy, h)
    assert math.isclose(lhs, want, rel_tol=1e-13)
    assert math.isclose(rhs, want, rel_tol=1e-13)


def test_closed_form_matches_both_sides_for_affine_pairs_on_probability_spaces():
    g_doc = {"family": "log"}
    f = oracle.OracleGenerator({**g_doc, "affine": {"a": -2.0, "b": 4.0}})
    g = oracle.OracleGenerator(g_doc)
    wx, wy = [0.25, 0.75], [0.5, 0.2, 0.3]
    h = [[0.2, 3.0, 1.1], [1.5, 0.7, 4.0]]
    lhs, rhs = oracle.mixed_means(f, g, wx, wy, h)
    want = oracle.closed_form(g, wx, wy, h)
    assert math.isclose(lhs, want, rel_tol=1e-13)
    assert math.isclose(rhs, want, rel_tol=1e-13)


def test_rel_residual_convention():
    assert oracle.rel_residual(0.5, 0.25) == 0.25
    assert oracle.rel_residual(-4.0, 2.0) == 1.5
