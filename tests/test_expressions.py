"""Expression grammar: parsing, evaluation, differentiation, round trips."""

import math

import numpy as np
import pytest

from slspectra.expressions import CoeffExpr, ExprSyntaxError, parse_coeff


def test_scalar_and_array_evaluation_agree():
    e = parse_coeff("2 * exp(-z / 2) + sin(z)^2")
    zs = np.linspace(0.0, 1.0, 11)
    arr = e(zs)
    for z, v in zip(zs, arr):
        assert e(float(z)) == pytest.approx(v, abs=1e-15)


def test_precedence_and_associativity():
    assert parse_coeff("2 + 3 * 4")(0.0) == 14.0
    assert parse_coeff("2 ^ 3 ^ 2")(0.0) == 512.0  # right-associative
    assert parse_coeff("-2 ^ 2")(0.0) == -4.0      # unary minus binds looser than ^
    assert parse_coeff("(2 + 3) * 4")(0.0) == 20.0
    assert parse_coeff("6 / 3 / 2")(0.0) == 1.0    # left-associative


def test_functions():
    e = parse_coeff("sqrt(z) + cos(0) + exp(0)")
    assert e(4.0) == pytest.approx(4.0)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    for src in ("exp(-z / 2)", "z^3 - 2*z", "sin(3*z) * cos(z)", "1 / (1 + z)"):
        e = parse_coeff(src)
        d = e.derivative()
        for z in rng.uniform(0.1, 0.9, size=5):
            h = 1e-6
            fd = (e(z + h) - e(z - h)) / (2 * h)
            assert d(z) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_derivative_of_constant_is_zero():
    d = parse_coeff("7").derivative()
    assert d(0.3) == 0.0


def test_unparse_reparse_round_trip():
    for src in ("2*exp(-z/2) + sin(z)^2", "-z^2 + 3", "sqrt(1 + z*z)"):
        e = parse_coeff(src)
        again = parse_coeff(e.unparse())
        zs = np.linspace(0.0, 1.0, 7)
        assert np.allclose(e(zs), again(zs), rtol=0, atol=0)
        assert e == again


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_coeff("exp(")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_coeff("2 +")
    with pytest.raises(ExprSyntaxError):
        parse_coeff("foo(z)")
    with pytest.raises(ExprSyntaxError):
        parse_coeff("")


@pytest.mark.parametrize("src, offset", [("1e400", 0), ("z + 2*1E+999", 6)])
def test_non_finite_literal_rejected_at_parse(src, offset):
    # rejected before either evaluation path (scalar lambda, numpy array)
    # can see it: they used to disagree (inf on arrays, NameError on scalars)
    with pytest.raises(ExprSyntaxError, match="non-finite number literal") as exc:
        parse_coeff(src)
    assert exc.value.offset == offset


def test_largest_finite_literal_evaluates_on_both_paths():
    e = parse_coeff("1e308 * z")
    assert e(1.0) == 1e308
    assert np.array_equal(e(np.array([0.0, 1.0])), np.array([0.0, 1e308]))


def test_variable_exponent_has_no_symbolic_derivative():
    e = parse_coeff("2 ^ z")
    with pytest.raises(ValueError):
        e.derivative()
