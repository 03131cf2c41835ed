"""Finite-difference oracle: convergence order, spectral agreement, time stepping."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

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


def test_symmetrized_matrix_consistency(model):
    op = assemble(transformed_problem(model), M=64)
    d, e = op.symmetric_tridiagonal()
    # similarity preserves the matvec spectrum: check via a Rayleigh quotient
    rng = np.random.default_rng(9)
    x = rng.standard_normal(op.size)
    w = op.cell_weights
    lhs = float(np.dot(w * x, op.matvec(x)))
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


def _crank_nicolson_per_step(op, x0, t, dt):
    """Reference: rebuild and solve the banded system at every step."""
    def step(x, tau):
        rhs = x + (tau / 2.0) * op.matvec(x)
        ab = np.zeros((3, op.size))
        ab[0, 1:] = -(tau / 2.0) * op.sup[:-1]
        ab[1] = 1.0 - (tau / 2.0) * op.diag
        ab[2, :-1] = -(tau / 2.0) * op.sub[1:]
        return solve_banded((1, 1), ab, rhs)

    x = np.array(x0, dtype=float)
    nfull = int(np.floor(t / dt + 1e-12))
    for _ in range(nfull):
        x = step(x, dt)
    rem = t - nfull * dt
    if rem > 1e-14 * max(t, 1.0):
        x = step(x, rem)
    return x


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


def test_crank_nicolson_rejects_non_finite_state(dirichlet_problem):
    op = assemble(dirichlet_problem, M=32)
    x0 = np.sin(math.pi * op.nodes)
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
