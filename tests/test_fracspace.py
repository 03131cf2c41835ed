"""Fractional spaces: diagonal calculus, rescaled bases, scaling identity."""

import numpy as np
import pytest

from slspectra.eigensolve import ModalCoefficients, coefficients_of
from slspectra.fracspace import (
    apply_A_alpha,
    coercivity_gap,
    fractional_apply,
    fractional_space,
    in_domain_alpha,
    inner_product_alpha,
    norm_alpha,
    rescaled_basis,
    scaling_identity_check,
    shift_mu,
)


def test_construction_validation(dirichlet_dec):
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.0)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 4.5)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.5, epsilon=-1.0)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.5, mu=dirichlet_dec.gamma)  # not above spectrum
    with pytest.raises(ValueError):
        shift_mu(dirichlet_dec, 0.0)


def test_shift_and_explicit_mu(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5, epsilon=2.0)
    assert fs.mu == dirichlet_dec.gamma + 2.0
    fs0 = fractional_space(dirichlet_dec, 0.5, mu=0.0)
    assert fs0.mu == 0.0
    assert fs0.epsilon == -dirichlet_dec.gamma


def test_coercivity_gap(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 1.0, epsilon=1.0)
    e1 = np.zeros(20)
    e1[0] = 1.0
    c = ModalCoefficients(e1, dirichlet_dec)
    # single mode: the gap is exactly mu - lambda_1 = epsilon
    assert coercivity_gap(fs, c) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
        assert coercivity_gap(fs, c) > fs.epsilon
    with pytest.raises(ValueError):
        coercivity_gap(fs, ModalCoefficients(np.zeros(20), dirichlet_dec))


def test_fractional_apply_round_trip(dirichlet_dec):
    rng = np.random.default_rng(4)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    for alpha in (0.25, 0.5, 1.0, 1.5):
        fs = fractional_space(dirichlet_dec, alpha, epsilon=1.0)
        back = fractional_apply(fs, fractional_apply(fs, c, +1), -1)
        assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-12
    with pytest.raises(ValueError):
        fractional_apply(fs, c, 2)


def test_half_power_squares_to_full(dirichlet_dec):
    rng = np.random.default_rng(6)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    half = fractional_space(dirichlet_dec, 0.5, epsilon=1.0)
    full = fractional_space(dirichlet_dec, 1.0, epsilon=1.0)
    twice = fractional_apply(half, fractional_apply(half, c, +1), +1)
    once = fractional_apply(full, c, +1)
    assert np.allclose(twice.coefficients, once.coefficients, rtol=1e-13, atol=0)


def test_alpha_inner_product_and_norm(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5, epsilon=1.0)
    rng = np.random.default_rng(8)
    f = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    g = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    # <f, g>_alpha = <(mu I - A)^alpha f, (mu I - A)^alpha g>_rho
    sf = fractional_apply(fs, f, +1).coefficients
    sg = fractional_apply(fs, g, +1).coefficients
    assert inner_product_alpha(fs, f, g) == pytest.approx(float(np.dot(sf, sg)), rel=1e-13)
    assert norm_alpha(fs, f) == pytest.approx(float(np.linalg.norm(sf)), rel=1e-13)


def test_rescaled_basis_is_orthonormal_in_alpha(dirichlet_dec, transformed_dec50):
    # the alpha = 1.5 weights reach (mu - lambda_20)^3 ~ 6e10, which
    # amplifies projection round-off; 1e-8 leaves two orders of margin on
    # Dirichlet, and the case study (mu = 0) is held to 1e-6
    cases = [(dirichlet_dec, {"epsilon": 1.0}, 1e-8),
             (transformed_dec50.truncate(20), {"mu": 0.0}, 1e-6)]
    for dec, shift, bound in cases:
        for alpha in (0.25, 0.5, 1.0, 1.5):
            fs = fractional_space(dec, alpha, **shift)
            # project the rescaled grid functions back and form the alpha-Gram
            coefs = [coefficients_of(f, dec) for f in rescaled_basis(fs).functions]
            G = np.array(
                [[inner_product_alpha(fs, ci, cj) for cj in coefs] for ci in coefs]
            )
            assert np.max(np.abs(G - np.eye(dec.N))) < bound


def test_scaling_identity(dirichlet_dec):
    rng = np.random.default_rng(10)
    for alpha in (0.25, 0.5, 1.0, 1.5):
        fs = fractional_space(dirichlet_dec, alpha, epsilon=1.0)
        for _ in range(100):
            c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
            n = int(rng.integers(1, 21))
            lhs, rhs = scaling_identity_check(fs, c, n)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    with pytest.raises(ValueError):
        scaling_identity_check(fs, c, 21)


def test_domain_alpha_tail_verdicts(dirichlet_dec):
    from slspectra.core import grid_function

    fs2 = fractional_space(dirichlet_dec, 2.0, mu=0.0)
    f = grid_function(dirichlet_dec.grid, lambda z: z)
    c = coefficients_of(f, dirichlet_dec)
    # c_n ~ 1/n so (mu - lambda)^(2*2) c^2 ~ n^6: clearly out for alpha = 2
    assert in_domain_alpha(fs2, c).verdict == "out"
    e1 = np.zeros(20)
    e1[0] = 1.0
    assert in_domain_alpha(fs2, ModalCoefficients(e1, dirichlet_dec)).verdict == "in"


def test_apply_A_alpha_is_diagonal(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5, epsilon=1.0)
    rng = np.random.default_rng(12)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    out = apply_A_alpha(fs, c)
    assert np.array_equal(out.coefficients, dirichlet_dec.eigenvalues * c.coefficients)


def test_decomposition_mismatch_rejected(dirichlet_dec, neumann_dec):
    fs = fractional_space(dirichlet_dec, 0.5, epsilon=1.0)
    foreign = ModalCoefficients(np.ones(3), neumann_dec)
    with pytest.raises(ValueError):
        inner_product_alpha(fs, foreign, foreign)
