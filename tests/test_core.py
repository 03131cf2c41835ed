"""Grids, quadrature, grid functions, operator application, root finding."""

import math

import numpy as np
import pytest

from slspectra.core import (
    BracketError,
    GridFunction,
    GridMismatchError,
    Interval,
    MissingDerivativeError,
    SLProblem,
    apply_operator,
    bc_residual,
    boundary_derivatives,
    boundary_values,
    find_root,
    grid_function,
    gridfunction_to_csv,
    inner_product_rho,
    integrate,
    make_grid,
    norm_rho,
)
from slspectra.expressions import parse_coeff


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_quadrature_exact_through_degree_15():
    g = make_grid(Interval(0.0, 1.0))
    rng = np.random.default_rng(11)
    coef = rng.uniform(-1.0, 1.0, size=16)
    vals = np.polynomial.polynomial.polyval(g.nodes, coef)
    exact = float(np.sum(coef / np.arange(1.0, 17.0)))
    assert np.dot(vals, g.weights) == pytest.approx(exact, abs=1e-15)


def test_integrate_sine():
    g = make_grid(Interval(0.0, 1.0))
    f = grid_function(g, lambda z: np.sin(np.pi * z))
    assert integrate(f) == pytest.approx(2.0 / math.pi, abs=1e-14)


def test_weighted_inner_product_exponential_weight():
    g = make_grid(Interval(0.0, 1.0))
    rho = parse_coeff("exp(-z)")
    one = grid_function(g, lambda z: np.ones_like(z))
    assert inner_product_rho(one, one, rho) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    assert norm_rho(one, rho) == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)), abs=1e-14)


def test_inner_product_rejects_mismatched_grids():
    g1 = make_grid(Interval(0.0, 1.0), panels=8)
    g2 = make_grid(Interval(0.0, 1.0), panels=16)
    f1 = grid_function(g1, lambda z: z)
    f2 = grid_function(g2, lambda z: z)
    with pytest.raises(GridMismatchError):
        inner_product_rho(f1, f2, parse_coeff("1"))


def test_boundary_values_exact_when_stored_and_accurate_when_extrapolated():
    g = make_grid(Interval(0.0, 1.0), panels=16)
    f = grid_function(g, np.exp, np.exp, np.exp)
    assert boundary_values(f) == (1.0, math.e)
    assert boundary_derivatives(f) == (1.0, math.e)
    bare = GridFunction(g, np.exp(g.nodes))
    va, vb = boundary_values(bare)
    assert va == pytest.approx(1.0, abs=1e-12)
    assert vb == pytest.approx(math.e, abs=1e-12)


def test_end_panel_extrapolation_matches_the_product_loop():
    # reference: one barycentric weight per node, 1 / prod_{k != j} (x_j - x_k)
    def extrapolate(xs, ys, x):
        w = np.array([1.0 / np.prod(xs[j] - np.delete(xs, j)) for j in range(xs.size)])
        return float(np.sum(w / (x - xs) * ys) / np.sum(w / (x - xs)))

    for panels, (a, b) in [(4, (0.0, 1.0)), (16, (-3.0, 7.5)), (64, (0.0, 50.0)),
                           (200, (1e-3, 2e-3))]:
        g = make_grid(Interval(a, b), panels=panels)
        v = np.cos(3.0 * g.nodes / (b - a))
        n = g.points
        want = (extrapolate(g.nodes[:n], v[:n], a), extrapolate(g.nodes[-n:], v[-n:], b))
        assert boundary_values(GridFunction(g, v)) == want


def test_apply_operator_constant_coefficients():
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (0.0, 1.0), (0.0, 1.0))
    g = make_grid(Interval(0.0, 1.0))
    s = 2.0 * math.pi
    f = grid_function(
        g,
        lambda z: np.sin(s * z),
        lambda z: s * np.cos(s * z),
        lambda z: -s * s * np.sin(s * z),
    )
    af = apply_operator(prob, f)
    assert np.max(np.abs(af.values + s * s * f.values)) < 1e-10


def test_apply_operator_variable_coefficients():
    # (1/rho)((p f')' - q f) with rho = e^{-z}, p = e^{-z}: A f = f'' - f' for q = 0
    prob = SLProblem.from_strings(
        0.0, 1.0, "exp(-z)", "0", "exp(-z)", (1.0, 0.0), (1.0, 0.0)
    )
    g = make_grid(Interval(0.0, 1.0))
    f = grid_function(g, np.exp, np.exp, np.exp)
    af = apply_operator(prob, f)
    assert np.max(np.abs(af.values)) < 1e-10  # f'' - f' = 0 for e^z


def test_apply_operator_requires_derivatives():
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (0.0, 1.0), (0.0, 1.0))
    g = make_grid(Interval(0.0, 1.0))
    bare = GridFunction(g, np.sin(g.nodes))
    with pytest.raises(MissingDerivativeError):
        apply_operator(prob, bare)


def test_bc_residual_robin():
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, -0.5), (1.0, 0.5))
    g = make_grid(Interval(0.0, 1.0))
    s = 0.9601888739147829  # first root of sin(s)(4s^2-1) = 4s cos(s)
    f = grid_function(
        g,
        lambda z: np.cos(s * z) + np.sin(s * z) / (2 * s),
        lambda z: -s * np.sin(s * z) + np.cos(s * z) / 2,
    )
    ra, rb = bc_residual(prob, f)
    assert abs(ra) < 1e-12
    assert abs(rb) < 1e-12


def test_find_root_and_bracket_error():
    assert find_root(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2.0, abs=1e-13)
    assert find_root(lambda s: s * s - 2.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-13
    )
    with pytest.raises(BracketError):
        find_root(lambda s: s * s + 1.0, 0.0, 1.0)
    with pytest.raises(BracketError, match="non-finite"):
        find_root(lambda s: math.inf if s == 2.0 else math.cos(s), 1.0, 2.0)
    with pytest.raises(BracketError, match="non-finite"):
        find_root(lambda s: math.cos(s) if s in (1.0, 2.0) else math.nan, 1.0, 2.0)
    # out of iterations: the last iterate, not an error
    r = find_root(math.cos, 1.0, 2.0, max_iter=2)
    assert 1.0 < r < 2.0 and abs(r - math.pi / 2.0) > 1e-13


def test_coefficient_positivity_enforced():
    with pytest.raises(ValueError):
        SLProblem.from_strings(0.0, 1.0, "z - 0.5", "0", "1", (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        SLProblem.from_strings(0.0, 1.0, "1", "0", "-1", (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "a, b, p, q, message",
    [
        # NaN passed "p <= 0" and scalar p(-0.5) was complex
        (-1.0, 1.0, "1 + z^0.5", "0", r"p must be finite and positive .* p\(-1\.0\) = nan"),
        (0.0, 1.0, "1", "1/(z-0.5)", r"q must be finite .* q\(0\.5\) = inf"),
    ],
    ids=["nan_p", "inf_q"],
)
def test_non_finite_coefficient_samples_rejected(a, b, p, q, message):
    with pytest.raises(ValueError, match=message):
        SLProblem.from_strings(a, b, p, q, "1", (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("name", ["p", "q", "rho"])
def test_constant_division_by_zero_is_named(name):
    # the literal 1/0 is evaluated on arrays too, where it is inf, not an exception
    coeffs = {"p": "1", "q": "0", "rho": "1", name: "1/0 + z"}
    what = "finite" if name == "q" else "finite and positive"
    message = rf"^{name} must be {what} on the interval: {name}\(0.0\) = inf$"
    with pytest.raises(ValueError, match=message):
        SLProblem.from_strings(0, 1, coeffs["p"], coeffs["q"], coeffs["rho"], (1, 0), (1, 0))


def test_bc_tuple_validation():
    with pytest.raises(ValueError):
        SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (0.0, 0.0), (0.0, 1.0))


def test_csv_round_trip_precision():
    g = make_grid(Interval(0.0, 1.0), panels=4)
    f = grid_function(g, lambda z: np.exp(z) / 3.0)
    text = gridfunction_to_csv(f)
    lines = text.strip().splitlines()
    assert lines[0] == "z,value"
    vals = np.array([float(row.split(",")[1]) for row in lines[1:]])
    assert np.array_equal(vals, f.values)  # 17 significant digits round-trip
