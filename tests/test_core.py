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
    form_inner_product,
    grid_function,
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
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="endpoints must be finite"):
            Interval(a, b)


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_counts_reject_bools(flag):
    # True is a numbers.Integral, but no count: it used to read as 1
    with pytest.raises(ValueError, match="panels must be an integer >= 1, got "):
        make_grid(Interval(0.0, 1.0), flag)


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


def test_grid_ends_are_nodes_of_weight_zero():
    for a, b, panels in [(0.0, 1.0, 64), (-3.0, 7.5, 16), (1e-3, 2e-3, 5)]:
        g = make_grid(Interval(a, b), panels=panels)
        assert (g.nodes[0], g.nodes[-1]) == (a, b)
        assert (g.weights[0], g.weights[-1]) == (0.0, 0.0)
        assert np.all(np.diff(g.nodes) > 0.0)
    # composite Gauss stays exact through degree 15 on a dilated interval
    a, b = -3.0, 7.5
    g = make_grid(Interval(a, b))
    coef = np.random.default_rng(3).uniform(-1.0, 1.0, size=16)
    k = np.arange(1.0, 17.0)
    vals = np.polynomial.polynomial.polyval((g.nodes - a) / (b - a), coef)
    exact = (b - a) * float(np.sum(coef / k))
    assert np.dot(vals, g.weights) == pytest.approx(exact, abs=1e-13)


def test_boundary_values_read_the_end_nodes():
    g = make_grid(Interval(0.0, 1.0), panels=16)
    f = grid_function(g, np.exp, np.exp, np.exp)
    assert boundary_values(f) == (f.values[0], f.values[-1])
    assert boundary_values(f) == pytest.approx((1.0, math.e), rel=1e-15)
    assert boundary_derivatives(f) == (f.deriv[0], f.deriv[-1])
    bare = GridFunction(g, np.exp(g.nodes))
    assert boundary_values(bare) == boundary_values(f)
    with pytest.raises(MissingDerivativeError):
        boundary_derivatives(bare)


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
    assert find_root(np.cos, 1.0, 2.0) == pytest.approx(math.pi / 2.0, abs=1e-13)
    assert find_root(lambda s: s * s - 2.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-13
    )
    # several brackets in one call
    both = find_root(np.cos, [1.0, 4.0], [2.0, 5.0])
    assert both.shape == (2,)
    assert both == pytest.approx([math.pi / 2.0, 1.5 * math.pi], abs=1e-13)
    with pytest.raises(BracketError):
        find_root(lambda s: s * s + 1.0, 0.0, 1.0)
    with pytest.raises(BracketError, match="no sign change on \\[2.0, 3.0\\]"):
        find_root(np.cos, [1.0, 2.0], [2.0, 3.0])
    with pytest.raises(BracketError, match="non-finite"):
        find_root(lambda s: np.where(s == 2.0, np.inf, np.cos(s)), 1.0, 2.0)
    with pytest.raises(BracketError, match="non-finite"):
        find_root(lambda s: np.where(np.isin(s, (1.0, 2.0)), np.cos(s), np.nan), 1.0, 2.0)
    with pytest.raises(BracketError, match="non-finite function value at 5.0"):
        find_root(lambda s: np.where(s == 5.0, np.nan, np.cos(s)), [1.0, 4.0], [2.0, 5.0])


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


def _random_family(rng, grid, k):
    """k random members with derivative grids, as one family."""
    return GridFunction(grid, *rng.standard_normal((3, k, grid.size)))


def _members(family):
    return [GridFunction(family.grid, *rows)
            for rows in zip(family.values, family.deriv, family.deriv2)]


def test_family_products_equal_pairwise_products():
    prob = SLProblem.from_strings(0.0, 2.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5))
    g = make_grid(prob.interval, panels=16)
    rng = np.random.default_rng(5)
    F, G = _random_family(rng, g, 4), _random_family(rng, g, 3)
    products = [lambda f, h: inner_product_rho(f, h, prob.rho),
                lambda f, h: form_inner_product(prob, f, h, mu=2.5)]
    for product in products:
        gram = product(F, G)
        pairwise = np.array([[product(f, h) for h in _members(G)] for f in _members(F)])
        assert gram.shape == (4, 3)
        # a few ulps of the Gram's scale: only the summation order differs
        ulps = 8 * np.finfo(float).eps * np.max(np.abs(pairwise))
        assert np.max(np.abs(gram - pairwise)) <= ulps
        # a family against one function gives a vector, two functions a scalar
        h = _members(G)[1]
        assert product(F, h).shape == (4,)
        assert np.max(np.abs(product(F, h) - pairwise[:, 1])) <= ulps
        assert np.ndim(product(_members(F)[0], h)) == 0


def test_family_boundary_readings_and_residuals():
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, -0.5), (1.0, 0.5))
    F = _random_family(np.random.default_rng(6), make_grid(prob.interval, panels=4), 5)
    members = _members(F)
    for reading in (boundary_values, boundary_derivatives, lambda f: bc_residual(prob, f)):
        # (end, member): both ends of every member, as one call per member gives them
        assert np.array_equal(reading(F), np.transpose([reading(f) for f in members]))
    # one function still gives two scalars
    assert all(np.ndim(r) == 0 for r in bc_residual(prob, members[0]))


def test_family_checks_grid_derivatives_and_shapes():
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
    rng = np.random.default_rng(7)
    F = _random_family(rng, make_grid(prob.interval, panels=8), 3)
    other = _random_family(rng, make_grid(prob.interval, panels=16), 3)
    with pytest.raises(GridMismatchError):
        inner_product_rho(F, other, prob.rho)
    with pytest.raises(GridMismatchError):
        form_inner_product(prob, F, other)
    bare = GridFunction(F.grid, F.values)
    with pytest.raises(MissingDerivativeError):
        form_inner_product(prob, F, bare)
    with pytest.raises(MissingDerivativeError):
        bc_residual(prob, bare)
    with pytest.raises(MissingDerivativeError):
        apply_operator(prob, bare)
    # each derivative grid must have the shape of values, member for member
    with pytest.raises(ValueError, match="derivative grid shape"):
        GridFunction(F.grid, F.values, F.deriv[:2])
    with pytest.raises(ValueError, match="derivative grid shape"):
        GridFunction(F.grid, F.values, F.deriv, F.deriv2[0])
    with pytest.raises(ValueError, match="values shape"):
        GridFunction(F.grid, F.values[:, 1:])
    # integrate and norm_rho give one number, so they take one function only
    with pytest.raises(ValueError, match="integrate takes one function, not a family"):
        integrate(F)
    with pytest.raises(ValueError, match="norm_rho takes one function, not a family"):
        norm_rho(F, prob.rho)


def test_package_exports_each_module_all():
    import importlib

    import slspectra

    names = ("core", "expressions", "eigensolve", "fracspace", "semigroup", "oracle", "casestudy")
    modules = [importlib.import_module(f"slspectra.{name}") for name in names]
    assert slspectra.__all__ == [n for m in modules for n in m.__all__]
    assert len(set(slspectra.__all__)) == len(slspectra.__all__)
    for m in modules:
        for n in m.__all__:
            assert getattr(slspectra, n) is getattr(m, n), (m.__name__, n)
