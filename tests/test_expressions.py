"""Expression grammar: parsing, evaluation, differentiation, round trips."""

import math
import re

import numpy as np
import pytest

from slspectra.expressions import BinOp, CoeffExpr, ExprSyntaxError, Num, parse_coeff


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


def test_derivative_drops_constant_terms():
    # d/dz of a constant summand folds to 0, and x + 0, 0 + x, x - 0 to x
    for src in ("z*z + 2", "z*z - 2", "2 + z*z"):
        assert parse_coeff(src).derivative().source == "(z+z)", src


def test_unparse_reparse_round_trip():
    for src in ("2*exp(-z/2) + sin(z)^2", "-z^2 + 3", "sqrt(1 + z*z)"):
        e = parse_coeff(src)
        again = parse_coeff(e.unparse())
        zs = np.linspace(0.0, 1.0, 7)
        assert np.allclose(e(zs), again(zs), rtol=0, atol=0)
        assert e == again


def test_syntax_error_reports_offset():
    table = [
        ("exp(", 4, "unexpected token"),
        ("2 +", 3, "unexpected token"),
        ("foo(z)", 0, "unknown identifier"),
        ("", 0, "empty expression"),
        ("z $ 1", 2, "unexpected character"),
        ("1 2", 2, "unexpected trailing input"),
        ("1.2.3", 0, "bad number literal"),
        ("exp z", 4, "expected '('"),
        ("sin(z", 5, "expected ')'"),
    ]
    for source, offset, message in table:
        with pytest.raises(ExprSyntaxError, match=re.escape(message)) as exc:
            parse_coeff(source)
        assert exc.value.offset == offset, source


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


def test_folded_negative_constant_round_trips():
    # the fold 1-2 = -1 was emitted as -1.0^2.0, which reads -(1^2)
    d = parse_coeff("z*(1-2)^2").derivative()
    assert d(0.3) == 1.0
    assert np.array_equal(d(np.array([0.0, 0.3])), np.array([1.0, 1.0]))
    e = CoeffExpr("(-1)^2", BinOp("^", Num(-1.0), Num(2.0)))
    assert e.unparse() == "((-1.0)^2.0)"
    assert parse_coeff(e.unparse())(0.3) == 1.0


def test_fractional_power_of_negative_constant_is_not_complex():
    # float ** gave a complex number, whose real part arrays used to keep
    e = parse_coeff("(1-2)^0.5 * z")
    with pytest.raises(ValueError):
        e(1.0)
    with np.errstate(invalid="ignore"):
        assert np.isnan(e(np.array([1.0]))).all()


def test_derivative_leaves_non_finite_folds_unfolded():
    # 1/0 and 1e308*10 used to raise ZeroDivisionError or emit an inf literal
    for src in ("(1/0)*z", "(1e308*10)*z^2"):
        d = parse_coeff(src).derivative()
        assert "inf" not in d.source
        parse_coeff(d.source)


# ---------------------------------------------------------------------------
# Generated expressions (hypothesis, derandomized so Tier-1 stays
# deterministic).  Only constant exponents are drawn, so every expression
# has a derivative.

_ZS = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
# scalars use libm (math), arrays numpy's ufuncs: each elementary function
# may differ by an ulp or two, and a few cancellations amplify that
_SCALAR_RTOL = 1e-12


def _sources(st):
    num = st.sampled_from(["0", "0.5", "1", "2", "3", "0.25", "1e-3", "10"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            inner.map(lambda e: f"-{e}"),
            st.tuples(st.sampled_from(["exp", "sin", "cos", "sqrt"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            st.tuples(inner, st.sampled_from(["", "-"]), num).map(
                lambda t: f"({t[0]})^{t[1]}{t[2]}"
            ),
            inner.map(lambda e: f"({e})"),
        )

    return st.recursive(st.one_of(num, st.just("z")), extend, max_leaves=8)


def _outcome(f, z):
    """f(z), or the type of the error it raises."""
    try:
        return f(z)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
        return np.array_equal(x, y, equal_nan=True)
    return x is y


def _check_scalar_against_array(e: CoeffExpr):
    arr = _outcome(e, _ZS)
    for i, z in enumerate(_ZS):
        s = _outcome(e, float(z))
        assert not isinstance(s, complex), (e, z, s)
        if not isinstance(arr, np.ndarray):
            # constant arithmetic such as 1/0 raises on both paths
            assert not isinstance(s, float), (e, z, s, arr)
        elif np.isfinite(arr[i]) and isinstance(s, float):
            assert math.isclose(s, arr[i], rel_tol=_SCALAR_RTOL, abs_tol=_SCALAR_RTOL), (
                e, z, s, arr[i])


@pytest.mark.filterwarnings("ignore")
def test_generated_expressions_one_evaluator():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hyp.given(_sources(hyp.strategies))
    def check(src):
        with np.errstate(all="ignore"):
            e = parse_coeff(src)
            d = e.derivative()
            assert "inf" not in d.source and "nan" not in d.source
            for expr, text in ((e, e.unparse()), (d, d.source)):
                assert _same(_outcome(parse_coeff(text), _ZS), _outcome(expr, _ZS)), text
                _check_scalar_against_array(expr)

    check()
