"""Spectral solver: classical references, Robin cases, projections, serialization."""

import json
import math
import re

import numpy as np
import pytest

import slspectra.eigensolve as eigensolve
from slspectra.core import (
    GridFunction,
    SLProblem,
    bc_residual,
    grid_function,
    inner_product_rho,
)
from slspectra.eigensolve import (
    ModalCoefficients,
    SpectralDecomposition,
    coefficients_of,
    domain_membership,
    solve_spectrum,
    synthesize,
)
from slspectra.casestudy import transformed_problem, dcr_sl_problem


def test_dirichlet_eigenvalues(dirichlet_dec):
    n = np.arange(1.0, 21.0)
    exact = -(n * math.pi) ** 2
    rel = np.abs(dirichlet_dec.eigenvalues - exact) / np.abs(exact)
    assert np.max(rel) < 1e-10


def test_dirichlet_eigenfunctions(dirichlet_dec):
    z = dirichlet_dec.grid.nodes
    for n in (1, 5, 20):
        phi = dirichlet_dec.eigenfunctions[n - 1].values
        exact = math.sqrt(2.0) * np.sin(n * math.pi * z)
        assert np.max(np.abs(phi - exact)) < 1e-9


def test_neumann_spectrum(neumann_dec):
    # lambda_1 = 0 with constant eigenfunction, then -(n pi)^2
    assert abs(neumann_dec.eigenvalues[0]) < 1e-9
    phi1 = neumann_dec.eigenfunctions[0].values
    assert np.max(np.abs(phi1 - 1.0)) < 1e-8
    assert neumann_dec.eigenvalues[1] == pytest.approx(-math.pi ** 2, rel=1e-10)


def test_orthonormality(transformed_dec50):
    dec = transformed_dec50
    V = dec.values_matrix()
    w = dec.grid.weights  # rho = 1 here
    G = (V * w) @ V.T
    assert np.max(np.abs(G - np.eye(dec.N))) < 1e-10


def test_bc_residuals(transformed_dec50, model):
    prob = transformed_problem(model)
    for f in transformed_dec50.eigenfunctions:
        ra, rb = bc_residual(prob, f)
        assert max(abs(ra), abs(rb)) < 1e-8


def test_robin_eigenvalues_match_closed_form(transformed_dec50, cs_spec50):
    gap = np.abs(transformed_dec50.eigenvalues - cs_spec50.lam)
    assert np.max(gap / np.abs(cs_spec50.lam)) < 1e-10


def test_weighted_route_agrees_after_shift(weighted_dec, cs_spec50, model):
    # similarity invariance: weighted spectrum = -s_n^2 - kappa
    exact = cs_spec50.lam[:10] - model.kappa
    gap = np.abs(weighted_dec.eigenvalues - exact)
    assert np.max(gap / np.abs(exact)) < 1e-7


def test_weighted_eigenrelation(weighted_dec, model):
    # A phi_1 = lambda_1 phi_1 pointwise through the divergence form
    from slspectra.core import apply_operator

    prob = dcr_sl_problem(model)
    phi1 = weighted_dec.eigenfunctions[0]
    af = apply_operator(prob, phi1)
    resid = af.values - weighted_dec.eigenvalues[0] * phi1.values
    assert np.max(np.abs(resid)) < 1e-6


def test_projection_coefficients_linear_function(dirichlet_dec):
    f = grid_function(dirichlet_dec.grid, lambda z: z)
    c = coefficients_of(f, dirichlet_dec)
    n = np.arange(1.0, 21.0)
    exact = math.sqrt(2.0) * (-1.0) ** (n + 1) / (n * math.pi)
    assert np.max(np.abs(c.coefficients - exact)) < 1e-12


def test_synthesize_round_trip(dirichlet_dec):
    rng = np.random.default_rng(5)
    c = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
    f = synthesize(c)
    back = coefficients_of(f, dirichlet_dec)
    assert np.max(np.abs(back.coefficients - c.coefficients)) < 1e-10


def test_truncate(transformed_dec50):
    small = transformed_dec50.truncate(20)
    assert small.N == 20
    assert np.array_equal(small.eigenvalues, transformed_dec50.eigenvalues[:20])
    assert small.gamma == transformed_dec50.gamma


def test_json_round_trip(neumann_dec):
    doc = json.loads(neumann_dec.to_json())
    assert doc["schema_version"] == 1
    assert np.allclose(doc["eigenvalues"], neumann_dec.eigenvalues)
    V = np.array(doc["eigenfunctions"])
    assert V.shape == (neumann_dec.N, neumann_dec.grid.nodes.size)


def test_domain_membership_verdicts(dirichlet_dec):
    # single-mode data is trivially in D(A)
    e1 = np.zeros(20)
    e1[0] = 1.0
    assert domain_membership(ModalCoefficients(e1, dirichlet_dec)).verdict == "in"
    # f(z) = z has c_n ~ 1/n, so lambda^2 c^2 ~ n^2: far outside D(A)
    f = grid_function(dirichlet_dec.grid, lambda z: z)
    rep = domain_membership(coefficients_of(f, dirichlet_dec))
    assert rep.verdict == "out"


def test_eigenvalue_count_matches_oracle(transformed_dec50, model):
    from slspectra.oracle import assemble, fd_eigs

    op = assemble(transformed_problem(model), M=2000)
    vals, _ = fd_eigs(op, 10)
    assert np.max(np.abs(vals - transformed_dec50.eigenvalues[:10]) / np.abs(vals)) < 1e-3


def test_invalid_inputs(dirichlet_problem):
    with pytest.raises(ValueError):
        solve_spectrum(dirichlet_problem, N=0)


@pytest.fixture()
def work_counts(monkeypatch):
    """Counts `_integrate` calls and Pruefer RHS evaluations."""
    counts = {"integrate": 0, "rhs": 0}
    integrate = eigensolve._integrate

    def counting_integrate(*args, **kwargs):
        counts["integrate"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "_integrate", counting_integrate)
    for cls in (eigensolve._PlainRHS, eigensolve._ScaledRHS):

        def counting_call(self, *args, _call=cls.__call__):
            counts["rhs"] += 1
            return _call(self, *args)

        monkeypatch.setattr(cls, "__call__", counting_call)
    return counts


def test_solver_work_counts(work_counts, model):
    # Illinois halves the kept endpoint's miss only after the same endpoint is
    # replaced twice; halving on every iteration (with forced bisections)
    # needed 49 and 93 integrations here.
    counts = work_counts
    cases = [
        (SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)),
         20, 25, 60_000),
        (dcr_sl_problem(model), 10, 35, 50_000),
    ]
    for prob, N, max_integrate, max_rhs in cases:
        counts.update(integrate=0, rhs=0)
        solve_spectrum(prob, N=N)
        assert counts["integrate"] <= max_integrate, counts
        assert counts["rhs"] <= max_rhs, counts


def test_folded_negative_constant_in_q():
    # q' is 1; the fold 1-2 = -1 used to be emitted as -1.0^2.0, which reads
    # -(1^2), and the eigenvalues moved 3.4e-4 off the FD oracle
    lams = [
        solve_spectrum(
            SLProblem.from_strings(0.0, 1.0, "1", q, "1", (1.0, -0.5), (1.0, 0.5)), N=5
        ).eigenvalues
        for q in ("(1-2)^2*z", "z")
    ]
    assert np.array_equal(lams[0], lams[1])


def test_recovery_reads_dense_output(work_counts):
    # Constant coefficients need a few steps; stopping at each of the 512 grid
    # nodes would cost over 3000 RHS calls per Pruefer form.
    decs = {}
    for name, bc, max_rhs in (("dirichlet", (0.0, 1.0), 2000), ("neumann", (1.0, 0.0), 3000)):
        work_counts.update(rhs=0)
        decs[name] = solve_spectrum(SLProblem.from_strings(0.0, 1.0, "1", "0", "1", bc, bc), N=50)
        assert work_counts["rhs"] <= max_rhs, (name, work_counts)
    z = decs["dirichlet"].grid.nodes
    for n, f in enumerate(decs["dirichlet"].eigenfunctions, start=1):
        w = n * math.pi
        assert np.max(np.abs(f.values - math.sqrt(2.0) * np.sin(w * z))) <= 1e-10, n
        assert np.max(np.abs(f.deriv / w - math.sqrt(2.0) * np.cos(w * z))) <= 1e-10, n


class _CosRHS:
    """theta' = cos z + 0.5: theta(b) = theta(a) + sin b - sin a + (b - a) / 2."""

    def initial_step(self, lams, span):
        return 0.01

    def __call__(self, z, y, lams, ncomp):
        return np.full_like(y, math.cos(z) + 0.5)

    def exact(self, a, b, theta0):
        return theta0 + math.sin(b) - math.sin(a) + 0.5 * (b - a)


class _LinearRHS(_CosRHS):
    """theta' = theta cos z, so the stage arguments matter too."""

    def __call__(self, z, y, lams, ncomp):
        return y * math.cos(z)

    def exact(self, a, b, theta0):
        return theta0 * math.exp(math.sin(b) - math.sin(a))


@pytest.mark.parametrize("rhs", [_CosRHS(), _LinearRHS()], ids=["cos", "linear"])
def test_integrator_closed_form(rhs):
    a, b, theta0 = 0.0, 3.0, np.array([0.25, 1.0])
    end = eigensolve._integrate(rhs, np.zeros(2), a, b, theta0, 1e-12)
    exact = [rhs.exact(a, b, t) for t in theta0]
    assert np.max(np.abs(end[0] - exact)) <= 1e-11
    # the dense output between steps is as accurate as the end state
    z_out = np.linspace(a, b, 61)[1:]
    rows = eigensolve._integrate(rhs, np.zeros(2), a, b, theta0, 1e-12, z_out=z_out)
    for zt, row in zip(z_out, rows):
        assert np.max(np.abs(row[0] - [rhs.exact(a, zt, t) for t in theta0])) <= 1e-11


def test_dense_output_matches_scipy_interpolant():
    # scipy's RK45 writes the same DOPRI5 continuous extension as a power basis
    from scipy.integrate import RK45

    rng = np.random.default_rng(3)
    K = rng.standard_normal((7, 2, 3))
    y, h = rng.standard_normal((2, 3)), 0.37
    ynew = y + h * np.tensordot(RK45.B, K[:6], 1)
    theta = np.linspace(0.0, 1.0, 11)
    got = eigensolve._dense(theta, y, ynew, h, K[0], *K[2:])
    powers = theta[:, None] ** np.arange(1, 5)
    want = y + h * np.tensordot(powers, np.tensordot(RK45.P.T, K, 1), 1)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize(
    "z_out, match",
    [([0.5, 0.2, 3.0], "0.2 follows 0.5"), ([0.5, 3.5], "3.5 is outside"),
     ([-0.1, 1.0], "-0.1 is outside")],
)
def test_integrate_rejects_bad_z_out(z_out, match):
    with pytest.raises(ValueError, match=match):
        eigensolve._integrate(_CosRHS(), np.zeros(1), 0.0, 3.0, np.zeros(1), 1e-12, z_out=z_out)


class _NaNRHS(eigensolve._PlainRHS):
    """Finite up to z = 1, NaN past it."""

    def __init__(self):
        pass

    def __call__(self, z, y, lams, ncomp):
        return np.full_like(y, 1.0 if z <= 1.0 else math.nan)


def test_step_underflow_names_where():
    with pytest.raises(RuntimeError) as info:
        eigensolve._integrate(_NaNRHS(), np.array([2.0, 5.0]), 0.0, 3.0, np.zeros(2), 1e-12)
    msg = str(info.value)
    assert msg.startswith("plain Pruefer ODE step size underflow"), msg
    assert "lambda in [2.0, 5.0]" in msg, msg
    z = float(re.search(r"z=(\S+),", msg).group(1))
    h = float(re.search(r"h=(\S+),", msg).group(1))
    assert 0.9 < z <= 1.0 and 0.0 < h < 3e-14, msg  # 1e-14 * max(1, |z1|)
