"""Fractional spaces: diagonal calculus, rescaled bases, scaling identity."""

import numpy as np
import pytest

from slspectra.core import grid_function, inner_product_rho
from slspectra.eigensolve import ModalCoefficients, coefficients_of, solve_spectrum
from slspectra.fracspace import (
    FractionalSpace,
    apply_A_alpha,
    coercivity_gap,
    fractional_apply,
    fractional_space,
    in_domain_alpha,
    inner_product_alpha,
    norm_alpha,
    rescaled_basis,
    scaling_identity_check,
)


def test_construction_validation(dirichlet_dec):
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.0)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 4.5)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.5, mu=dirichlet_dec.gamma - 1.0)
    with pytest.raises(ValueError):
        fractional_space(dirichlet_dec, 0.5, mu=dirichlet_dec.gamma)  # not above spectrum


@pytest.mark.parametrize("mu", [np.inf, np.nan])
def test_non_finite_shift_rejected(dirichlet_dec, mu):
    # mu = inf would pass mu > gamma and make every weight (mu - lambda_n)^(-alpha) zero
    with pytest.raises(ValueError, match="mu must be finite .* got mu = "):
        fractional_space(dirichlet_dec, 0.5, mu=mu)


def test_shift_and_explicit_mu(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5)
    assert fs.mu == dirichlet_dec.gamma + 1.0
    fs0 = fractional_space(dirichlet_dec, 0.5, mu=0.0)
    assert fs0.mu == 0.0
    assert fs0.epsilon == -dirichlet_dec.gamma


def test_shift_is_stored_once(dirichlet_dec):
    # mu is the only stored shift; epsilon = mu - gamma is derived from it
    with pytest.raises(TypeError):
        FractionalSpace(0.5, dirichlet_dec.gamma + 1.0, 5.0, dirichlet_dec)
    fs = FractionalSpace(0.5, dirichlet_dec.gamma + 2.0, dirichlet_dec)
    assert fs.epsilon == fs.mu - dirichlet_dec.gamma
    with pytest.raises(AttributeError):
        fs.epsilon = 5.0


def test_coercivity_gap(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 1.0)
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
        fs = fractional_space(dirichlet_dec, alpha)
        back = fractional_apply(fs, fractional_apply(fs, c, +1), -1)
        assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-12
    with pytest.raises(ValueError):
        fractional_apply(fs, c, 2)


def test_half_power_squares_to_full(dirichlet_dec):
    rng = np.random.default_rng(6)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    half = fractional_space(dirichlet_dec, 0.5)
    full = fractional_space(dirichlet_dec, 1.0)
    twice = fractional_apply(half, fractional_apply(half, c, +1), +1)
    once = fractional_apply(full, c, +1)
    assert np.allclose(twice.coefficients, once.coefficients, rtol=1e-13, atol=0)


def test_alpha_inner_product_and_norm(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5)
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
    cases = [(dirichlet_dec, {}, 1e-8),
             (transformed_dec50.truncate(20), {"mu": 0.0}, 1e-6)]
    for dec, shift, bound in cases:
        for alpha in (0.25, 0.5, 1.0, 1.5):
            fs = fractional_space(dec, alpha, **shift)
            # project the rescaled family back, c_in = <phi_{i,alpha}, phi_n>_rho
            # as coefficients_of computes it, and form the alpha-Gram
            # sum (mu - lambda_n)^(2 alpha) c_in c_jn
            C = inner_product_rho(rescaled_basis(fs), dec.modes, dec.problem.rho)
            G = (C * fs.weights(2.0 * fs.alpha)) @ C.T
            assert np.max(np.abs(G - np.eye(dec.N))) < bound


def test_scaling_identity(dirichlet_dec):
    rng = np.random.default_rng(10)
    for alpha in (0.25, 0.5, 1.0, 1.5):
        fs = fractional_space(dirichlet_dec, alpha)
        for _ in range(100):
            c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
            n = int(rng.integers(1, 21))
            lhs, rhs = scaling_identity_check(fs, c, n)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    with pytest.raises(ValueError, match="mode index out of range"):
        scaling_identity_check(fs, c, 21)
    with pytest.raises(ValueError, match=r"n must be an integer >= 1, got 2\.0"):
        scaling_identity_check(fs, c, 2.0)
    assert scaling_identity_check(fs, c, np.int64(2)) == scaling_identity_check(fs, c, 2)


def test_domain_alpha_tail_verdicts(dirichlet_dec):
    fs2 = fractional_space(dirichlet_dec, 2.0, mu=0.0)
    f = grid_function(dirichlet_dec.grid, lambda z: z)
    c = coefficients_of(f, dirichlet_dec)
    # c_n ~ 1/n so (mu - lambda)^(2*2) c^2 ~ n^6: clearly out for alpha = 2
    assert in_domain_alpha(fs2, c).verdict == "out"
    e1 = np.zeros(20)
    e1[0] = 1.0
    assert in_domain_alpha(fs2, ModalCoefficients(e1, dirichlet_dec)).verdict == "in"
    # phi_N: one nonzero term in the fitted tail, too few for a slope
    eN = np.zeros(20)
    eN[-1] = 1.0
    report = in_domain_alpha(fs2, ModalCoefficients(eN, dirichlet_dec))
    assert report.verdict == "in" and report.tail_exponent == -np.inf, report


@pytest.mark.parametrize("N", [50, 150])
def test_domain_alpha_thresholds_on_symmetric_data(N, dirichlet_problem, neumann_problem):
    # X_alpha = H^(2 alpha) below the threshold, where the boundary conditions
    # enter; every one of these f has infinitely many coefficients that are 0
    # exactly (Fujiwara 1967; Grisvard 1967)
    dirichlet = solve_spectrum(dirichlet_problem, N)
    neumann = solve_spectrum(neumann_problem, N)
    cases = [(dirichlet, lambda z: np.ones_like(z), 0.25), (neumann, lambda z: z, 0.75),
             (dirichlet, lambda z: z * (1.0 - z), 1.25)]
    for dec, f, threshold in cases:
        c = coefficients_of(grid_function(dec.grid, f), dec)
        for offset, verdict in ((-0.15, "in"), (0.15, "out")):
            report = in_domain_alpha(fractional_space(dec, threshold + offset), c)
            assert report.verdict == verdict, (threshold, offset, report)


def test_domain_alpha_rejects_non_finite_coefficients(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5)
    for bad in (np.nan, np.inf):
        c = np.zeros(20)
        c[1] = bad
        with pytest.raises(ValueError, match="finite"):
            in_domain_alpha(fs, ModalCoefficients(c, dirichlet_dec))


def test_apply_A_alpha_is_diagonal(dirichlet_dec):
    fs = fractional_space(dirichlet_dec, 0.5)
    rng = np.random.default_rng(12)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    out = apply_A_alpha(fs, c)
    assert np.array_equal(out.coefficients, dirichlet_dec.eigenvalues * c.coefficients)


def test_decomposition_mismatch_rejected(dirichlet_dec, neumann_dec):
    fs = fractional_space(dirichlet_dec, 0.5)
    foreign = ModalCoefficients(np.ones(3), neumann_dec)
    with pytest.raises(ValueError):
        inner_product_alpha(fs, foreign, foreign)


def test_tail_verdict_borderline(dirichlet_dec):
    # f = 1 has c_n ~ 1/n on odd n, so at alpha = 1/4 the summands
    # (mu - lambda_n)^(1/2) c_n^2 fall as n^-1, on the convergence threshold
    one = grid_function(dirichlet_dec.grid, np.ones_like)
    report = in_domain_alpha(fractional_space(dirichlet_dec, 0.25), coefficients_of(one, dirichlet_dec))
    assert report.verdict == "borderline"
    assert abs(report.tail_exponent + 1.0) <= 0.01
