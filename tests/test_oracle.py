"""Finite-difference oracle: convergence order, spectral agreement, time stepping."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from slspectra.core import SLProblem
from slspectra.eigensolve import solve_spectrum
from slspectra.oracle import FDOperator, assemble, crank_nicolson, fd_eigs, fd_eigs_extrapolated
from slspectra.casestudy import dcr_sl_problem, transformed_problem


def test_dirichlet_eigenvalues_second_order(dirichlet_problem):
    errs = []
    for M in (400, 800):
        op = assemble(dirichlet_problem, M=M)
        vals, _ = fd_eigs(op, 3)
        errs.append(abs(vals[0] + math.pi ** 2))
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4  # h^2 convergence across a mesh doubling


def test_robin_agreement_with_closed_form(model, cs_spec50):
    op = assemble(transformed_problem(model), M=4000)
    vals, _ = fd_eigs(op, 10)
    rel = np.abs(vals - cs_spec50.lam[:10]) / np.abs(cs_spec50.lam[:10])
    assert np.max(rel) < 1e-3


def test_low_mode_agreement_invariant(model, cs_spec50):
    # |lambda_n - lambda_n^FD| <= 10 h^2 |lambda_n| holds for the low modes;
    # the second-order truncation error grows like |lambda|^2 h^2 so the
    # bound is checked at N = 6 (n <= N/2) where it is attainable
    op = assemble(transformed_problem(model), M=4000)
    h = op.h
    vals, _ = fd_eigs(op, 3)
    for n in range(3):
        exact = cs_spec50.lam[n]
        assert abs(vals[n] - exact) <= 10.0 * h * h * abs(exact)


def test_weighted_problem_agreement(model, weighted_dec):
    op = assemble(dcr_sl_problem(model), M=4000)
    vals, _ = fd_eigs(op, 5)
    rel = np.abs(vals - weighted_dec.eigenvalues[:5]) / np.abs(vals)
    assert np.max(rel) < 1e-3


def test_extrapolated_oracle_matches_solver(model, weighted_dec):
    # two Richardson steps over M = 200, 400, 800: 1e-9 where plain FD at
    # M = 4000 is checked to 1e-3
    p1z2 = SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5))
    for prob, lam in ((p1z2, solve_spectrum(p1z2, N=10).eigenvalues),
                      (dcr_sl_problem(model), weighted_dec.eigenvalues)):
        ref = fd_eigs_extrapolated(prob, 10, 200)
        assert np.max(np.abs(ref - lam[:10]) / np.abs(lam[:10])) <= 1e-9


def _matvec(op, x):
    """A_h x from the operator's three diagonals."""
    y = op.diag * x
    y[:-1] += op.sup[:-1] * x[1:]
    y[1:] += op.sub[1:] * x[:-1]
    return y


def test_symmetrized_matrix_consistency(model):
    op = assemble(transformed_problem(model), M=64)
    d, e = op.symmetric_tridiagonal()
    # similarity preserves the matvec spectrum: check via a Rayleigh quotient
    rng = np.random.default_rng(9)
    x = rng.standard_normal(op.size)
    w = op.cell_weights
    lhs = float(np.dot(w * x, _matvec(op, x)))
    y = np.sqrt(w) * x
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    rhs = float(y @ T @ y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eigenvectors_normalized_and_sign_fixed(model):
    op = assemble(transformed_problem(model), M=500)
    vals, vecs = fd_eigs(op, 4)
    for v in vecs:
        assert op.norm_rho(v) == pytest.approx(1.0, rel=1e-12)
        assert v[0] > 0.0
    assert np.all(np.diff(vals) < 0.0)  # descending toward -infinity


def test_crank_nicolson_single_mode_decay(model, cs_spec50):
    op = assemble(transformed_problem(model), M=2000)
    vals, vecs = fd_eigs(op, 1)
    x = crank_nicolson(op, vecs[0], 0.1, 1e-4)
    exact = vecs[0] * math.exp(vals[0] * 0.1)
    assert op.norm_rho(x - exact) < 1e-8


def test_crank_nicolson_fractional_final_step(dirichlet_problem):
    op = assemble(dirichlet_problem, M=200)
    x0 = np.sin(math.pi * op.nodes)
    # 0.0105 is not a multiple of dt = 1e-3: remainder handled by one short step
    vals, _ = fd_eigs(op, 1)
    x = crank_nicolson(op, x0, 0.0105, 1e-3)
    exact = x0 * math.exp(vals[0] * 0.0105)
    assert op.norm_rho(x - exact) / op.norm_rho(exact) < 1e-6


def _steps_to(step, x, t, dt):
    """Full steps of dt, then one remainder step, as crank_nicolson splits t."""
    nfull = int(np.floor(t / dt + 1e-12))
    for _ in range(nfull):
        x = step(x, dt)
    rem = t - nfull * dt
    if rem > 1e-14 * max(t, 1.0):
        x = step(x, rem)
    return x


def _crank_nicolson_per_step(op, x0, t, dt):
    """Reference: in y = W^(1/2) x, rebuild and solve the symmetric banded
    system I - tau/2 S at every step; y+ = 2 (I - tau/2 S)^(-1) y - y."""
    d, e = op.symmetric_tridiagonal()

    def step(y, tau):
        ab = np.zeros((2, op.size))
        ab[0, 1:] = -(tau / 2.0) * e
        ab[1] = 1.0 - (tau / 2.0) * d
        return 2.0 * solveh_banded(ab, y) - y

    sqrt_w = np.sqrt(op.cell_weights)
    return _steps_to(step, sqrt_w * np.array(x0, dtype=float), t, dt) / sqrt_w


def _crank_nicolson_general_form(op, x0, t, dt):
    """Reference: (I - tau/2 A_h) x+ = (I + tau/2 A_h) x, one matvec and one
    pivoted banded solve per step."""
    def step(x, tau):
        rhs = x + (tau / 2.0) * _matvec(op, x)
        ab = np.zeros((3, op.size))
        ab[0, 1:] = -(tau / 2.0) * op.sup[:-1]
        ab[1] = 1.0 - (tau / 2.0) * op.diag
        ab[2, :-1] = -(tau / 2.0) * op.sub[1:]
        return solve_banded((1, 1), ab, rhs)

    return _steps_to(step, np.array(x0, dtype=float), t, dt)


@pytest.mark.parametrize("which", ["dcr", "neumann"])
def test_crank_nicolson_matches_per_step_solve_exactly(model, which):
    if which == "dcr":
        prob = transformed_problem(model)
    else:
        prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
    op = assemble(prob, M=200)
    x0 = np.cos(3.0 * op.nodes) + op.nodes ** 2
    # 10 full steps of dt plus a remainder step, each with its own factors
    x = crank_nicolson(op, x0, 0.0105, 1e-3)
    assert np.array_equal(x, _crank_nicolson_per_step(op, x0, 0.0105, 1e-3))


@pytest.mark.parametrize("which", ["dcr", "neumann"])
def test_crank_nicolson_agrees_with_general_form(model, neumann_problem, which):
    # the symmetric form and the general form differ only in round-off:
    # 8.2e-15 (dcr) and 8.1e-15 (neumann) relative over these 11 steps
    op = assemble(transformed_problem(model) if which == "dcr" else neumann_problem, M=200)
    x0 = np.cos(3.0 * op.nodes) + op.nodes ** 2
    x = crank_nicolson(op, x0, 0.0105, 1e-3)
    ref = _crank_nicolson_general_form(op, x0, 0.0105, 1e-3)
    assert op.norm_rho(x - ref) <= 1e-13 * op.norm_rho(ref)


def test_crank_nicolson_high_modes_to_round_off(model):
    # an FD eigenvector v_k steps to r(tau lambda_k)^n v_k, r(x) = (1 + x/2)/(1 - x/2).
    # On the six highest modes at tau lambda_k ~ -1600 the symmetric step
    # stays within 2.2e-16; the general form (matvec + pivoted solve) is off
    # by 4.8e-15 to 2.8e-14 there
    op = assemble(dcr_sl_problem(model), M=64)
    vals, vecs = fd_eigs(op, op.size)
    tau, n = 0.1, 3
    for lam, v in zip(vals[-6:], vecs[-6:]):
        r = (1.0 + tau * lam / 2.0) / (1.0 - tau * lam / 2.0)
        x = crank_nicolson(op, v, n * tau, tau)
        assert op.norm_rho(x - r ** n * v) <= 1e-15


def test_crank_nicolson_singular_system_raises(dirichlet_problem):
    dt = 1e-3
    n = 20
    op = FDOperator(
        dirichlet_problem, n + 1, 1.0 / (n + 1), np.linspace(0.05, 0.95, n),
        np.zeros(n), np.full(n, 2.0 / dt), np.zeros(n), np.full(n, 0.05),
    )
    assert np.all(1.0 - (dt / 2.0) * op.diag == 0.0)  # I - dt/2 A_h is zero
    with pytest.raises(LinAlgError):
        crank_nicolson(op, np.ones(n), 0.01, dt)


def test_crank_nicolson_indefinite_system_names_tau():
    # A = f'' + 1000 f: lambda_max(A_h) ~ 990, so I - tau/2 A_h is indefinite
    # at tau = 1e-2 (CN's factor on the top mode is negative) and positive
    # definite at tau = 1e-3
    prob = SLProblem.from_strings(0.0, 1.0, "1", "-1000", "1", (0.0, 1.0), (0.0, 1.0))
    op = assemble(prob, M=32)
    x0 = np.sin(math.pi * op.nodes)
    lam_max = fd_eigs(op, 1)[0][0]
    assert 1e-3 * lam_max < 2.0 < 1e-2 * lam_max
    with pytest.raises(LinAlgError, match=r"tau = 0\.01: .*tau \* lambda_max\(A_h\) < 2"):
        crank_nicolson(op, x0, 0.1, 1e-2)
    assert np.all(np.isfinite(crank_nicolson(op, x0, 0.01, 1e-3)))


def test_crank_nicolson_rejects_non_finite_state(dirichlet_problem):
    op = assemble(dirichlet_problem, M=32)
    x0 = np.sin(math.pi * op.nodes)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be"):
            crank_nicolson(op, x0, t, 1e-3)
    x0[5] = np.nan
    with pytest.raises(ValueError):
        crank_nicolson(op, x0, 0.01, 1e-3)


def test_crank_nicolson_time_zero_returns_copy(dirichlet_problem):
    op = assemble(dirichlet_problem, M=32)
    x0 = np.sin(math.pi * op.nodes)
    x = crank_nicolson(op, x0, 0.0, 1e-3)
    assert np.array_equal(x, x0)
    x[0] = 7.0
    assert x0[0] != 7.0


def test_assemble_validation(dirichlet_problem):
    with pytest.raises(ValueError):
        assemble(dirichlet_problem, M=8)
