"""Spectral solver: classical references, Robin cases, projections, serialization."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import slspectra
import slspectra.eigensolve as eigensolve
from slspectra.core import (
    GridFunction,
    GridMismatchError,
    SLProblem,
    apply_operator,
    bc_residual,
    grid_function,
    make_grid,
)
from slspectra.eigensolve import (
    ModalCoefficients,
    coefficients_of,
    solve_spectrum,
    synthesize,
)
from slspectra.fracspace import fractional_space, in_domain_alpha
from slspectra.casestudy import DCRModel, dcr_sl_problem, solve_case_study, transformed_problem


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
    # lambda_1 is the one plain-form eigenvalue here; with no cap on the plain
    # form's steps their error estimate failed and it landed 4.8e-11 off
    gap = np.abs(transformed_dec50.eigenvalues - cs_spec50.lam)
    assert np.max(gap / np.abs(cs_spec50.lam)) <= 1e-12


def test_plain_form_step_cap():
    # lambda_1 = -0.77 is the one plain-form eigenvalue here; with plain-form
    # steps up to 1/4 long it landed 2.8e-11 off this reference, a solve at
    # rtol 1e-14 with steps up to 1/64
    prob = SLProblem.from_strings(
        0.0, 1.0, "1 + 0.5123823134831604*z + 0.8167364359696581*z^2",
        "0.19630107548010534 + 1.9236545571892218*z^3", "exp(0.7346671036848293*z)",
        (1.0, -0.7424806575442979), (1.0, -0.06585358652345774),
    )
    lam1 = solve_spectrum(prob, N=1).eigenvalues[0]
    assert abs(lam1 / -0.7708512551035408 - 1.0) <= 1e-11, lam1


def test_weighted_route_agrees_after_shift(weighted_dec, cs_spec50, model):
    # similarity invariance: weighted spectrum = -s_n^2 - kappa
    exact = cs_spec50.lam[:10] - model.kappa
    gap = np.abs(weighted_dec.eigenvalues - exact)
    assert np.max(gap / np.abs(exact)) < 1e-7


@pytest.mark.parametrize("D", (0.05, 0.02))
def test_weighted_dcr_at_small_D(D):
    # rho = e^(-z/D) falls by 9 and 22 decades.  With the margin of 1 only in
    # L rho - q, every index shot the plain form: at D = 0.05 the eigenvalue
    # was 7.3e-5 off after 2.3 s, at D = 0.02 the modes were nan.
    model = DCRModel(D, 0.75)
    dec = solve_spectrum(dcr_sl_problem(model), N=1)
    assert all(np.all(np.isfinite(v)) for v in (dec.values, dec.deriv, dec.deriv2))
    exact = solve_case_study(model, 1).lam[0] - model.kappa
    # the bound of verify's dcr_transformed_vs_closed_1e-8
    assert abs(dec.eigenvalues[0] - exact) <= 1e-8, (dec.eigenvalues[0], exact)


@pytest.mark.parametrize("layer", ["search", "recovery"])
def test_non_finite_result_names_index_form_and_layer(layer, dirichlet_problem, monkeypatch):
    if layer == "recovery":
        recover = eigensolve._Shooter.recover

        def nan_recover(self, lams):
            values, deriv, deriv2 = recover(self, lams)
            deriv[1] = np.nan
            return values, deriv, deriv2

        monkeypatch.setattr(eigensolve._Shooter, "recover", nan_recover)
    else:
        monkeypatch.setattr(eigensolve._UnitMap, "lam",
                            lambda self, lam_hat: np.where(lam_hat > 20.0, np.inf, lam_hat))
    message = rf"eigenvalue 2 not finite after {layer}: L in \[.*\], scaled Pruefer form at hi"
    with pytest.raises(eigensolve.EigenvalueBracketError, match=message):
        solve_spectrum(dirichlet_problem, N=3)


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


def test_projection_rejects_non_finite_values(dirichlet_dec):
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones_like(dirichlet_dec.grid.nodes)
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            coefficients_of(GridFunction(dirichlet_dec.grid, values), dirichlet_dec)


def test_projection_rejects_a_family(dirichlet_dec):
    # ModalCoefficients holds one coefficient vector: fracspace's modal sums
    # and the semigroup's time broadcast would mix the rows of a family
    with pytest.raises(ValueError, match="one function"):
        coefficients_of(dirichlet_dec.modes, dirichlet_dec)


def test_projection_rejects_another_grid(dirichlet_dec):
    coarse = make_grid(dirichlet_dec.problem.interval, dirichlet_dec.grid.panels // 2)
    with pytest.raises(GridMismatchError, match="not on the decomposition grid"):
        coefficients_of(grid_function(coarse, np.sin), dirichlet_dec)


def test_decomposition_rejects_equal_eigenvalues(dirichlet_dec):
    from dataclasses import replace

    lams = dirichlet_dec.eigenvalues.copy()
    lams[1] = lams[0]
    with pytest.raises(ValueError, match="strictly decreasing"):
        replace(dirichlet_dec, eigenvalues=lams)


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


def test_truncate_rejects_non_integer_order(transformed_dec50):
    with pytest.raises(ValueError, match=r"n must be an integer >= 1, got 2\.5"):
        transformed_dec50.truncate(2.5)
    with pytest.raises(ValueError, match="bad truncation order"):
        transformed_dec50.truncate(51)
    assert transformed_dec50.truncate(np.int64(3)).N == 3
    # a bool is no order, though Python counts True as 1
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="n must be an integer >= 1, got "):
            transformed_dec50.truncate(flag)
        with pytest.raises(ValueError, match="N must be an integer >= 1, got "):
            solve_spectrum(transformed_dec50.problem, N=flag)


def test_modal_coefficients_length_must_match(dirichlet_dec):
    # a short vector used to fail later, inside numpy's broadcasting
    with pytest.raises(ValueError, match=r"shape \(5,\) .* N = 20"):
        ModalCoefficients(np.ones(5), dirichlet_dec)
    with pytest.raises(ValueError, match=r"shape \(1, 20\)"):
        ModalCoefficients(np.ones((1, 20)), dirichlet_dec)


def test_mode_array_layout(transformed_dec50):
    dec = transformed_dec50
    rows = (dec.N, dec.grid.size)
    for arr in (dec.values, dec.deriv, dec.deriv2):
        assert arr.shape == rows
        assert not arr.flags.writeable
    assert dec.values_matrix() is dec.values
    modes = dec.modes  # the whole family, without a copy
    assert modes.grid is dec.grid
    assert modes.values is dec.values and modes.deriv is dec.deriv and modes.deriv2 is dec.deriv2
    f = dec.eigenfunctions[7]
    for got, arr in ((f.values, dec.values), (f.deriv, dec.deriv), (f.deriv2, dec.deriv2)):
        assert np.shares_memory(got, arr[7]) and not np.shares_memory(got, arr[8])
        assert np.array_equal(got, arr[7])
    small = dec.truncate(20)
    for name in ("values", "deriv", "deriv2"):
        assert np.shares_memory(getattr(small, name), getattr(dec, name))
        assert np.array_equal(getattr(small, name), getattr(dec, name)[:20])


def test_recovery_peak_memory(dirichlet_problem):
    # Recovery integrates both Pruefer forms before it allocates the mode
    # rows, so at N = 200 the peak is the rows plus the dense Pruefer states,
    # 1.70x the rows.  Rows allocated before integrating read 1.95x, and
    # whole-array formulas over the modes 3.4x.
    solve_spectrum(dirichlet_problem, N=3)  # compile the coefficients outside the measurement
    tracemalloc.start()
    try:
        dec = solve_spectrum(dirichlet_problem, N=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = sum(a.nbytes for a in (dec.values, dec.deriv, dec.deriv2))
    assert peak <= 1.8 * rows, peak / rows


def test_json_round_trip(neumann_dec):
    doc = json.loads(json.dumps(neumann_dec.to_dict()))
    assert doc["schema_version"] == 1
    assert np.allclose(doc["eigenvalues"], neumann_dec.eigenvalues)
    V = np.array(doc["eigenfunctions"])
    assert V.shape == (neumann_dec.N, neumann_dec.grid.nodes.size)


def test_domain_membership_verdicts(dirichlet_dec):
    # D(A) = X_1; with mu = 0 its norm sums lambda_n^2 c_n^2
    domain = fractional_space(dirichlet_dec, 1.0, mu=0.0)
    # single-mode data is trivially in D(A)
    e1 = np.zeros(20)
    e1[0] = 1.0
    assert in_domain_alpha(domain, ModalCoefficients(e1, dirichlet_dec)).verdict == "in"
    # f(z) = z has c_n ~ 1/n, so lambda^2 c^2 ~ n^2: far outside D(A)
    f = grid_function(dirichlet_dec.grid, lambda z: z)
    rep = in_domain_alpha(domain, coefficients_of(f, dirichlet_dec))
    assert rep.verdict == "out"


def test_eigenvalue_count_matches_oracle(transformed_dec50, model):
    from slspectra.oracle import assemble, fd_eigs

    op = assemble(transformed_problem(model), M=2000)
    vals, _ = fd_eigs(op, 10)
    assert np.max(np.abs(vals - transformed_dec50.eigenvalues[:10]) / np.abs(vals)) < 1e-3


def test_invalid_inputs(dirichlet_problem):
    with pytest.raises(ValueError):
        solve_spectrum(dirichlet_problem, N=0)


def _count_work(mp):
    """Counts `_integrate` calls and Pruefer RHS evaluations (stages) while mp is active."""
    counts = {"integrate": 0, "rhs": 0}
    integrate, slope = eigensolve._integrate, eigensolve._slope

    def counting_integrate(*args, **kwargs):
        counts["integrate"] += 1
        return integrate(*args, **kwargs)

    def counting_slope(*args):
        counts["rhs"] += 1
        return slope(*args)

    mp.setattr(eigensolve, "_integrate", counting_integrate)
    mp.setattr(eigensolve, "_slope", counting_slope)
    return counts


@pytest.fixture()
def work_counts(monkeypatch):
    return _count_work(monkeypatch)


@pytest.fixture(scope="module")
def anchor_counts(model):
    """Work counts of one solve of each anchor: p=1+z^2 Robin (N=20), weighted DCR (N=10)."""
    anchors = {
        "p1z2": (SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)),
                 20),
        "dcr": (dcr_sl_problem(model), 10),
    }
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_work(mp)
        for name, (prob, N) in anchors.items():
            counts.update(integrate=0, rhs=0)
            solve_spectrum(prob, N=N)
            # a counter that no longer sees the work would pass every bound below
            assert counts["integrate"] > 0 and counts["rhs"] > 0, (name, counts)
            out[name] = dict(counts)
    return out


def test_solver_work_counts(anchor_counts):
    # An Illinois search that halved the kept endpoint's miss on every
    # iteration (with forced bisections) needed 49 and 93 integrations here;
    # see test_search_rounds for the multi-point search's own bounds.
    for name, max_integrate, max_rhs in (("p1z2", 25, 60_000), ("dcr", 35, 50_000)):
        counts = anchor_counts[name]
        assert counts["integrate"] <= max_integrate, (name, counts)
        assert counts["rhs"] <= max_rhs, (name, counts)


def test_search_rounds(anchor_counts):
    # One batch per round of the multi-point search; a one-point-per-index
    # Illinois search made 21 and 30 integrations on these two problems.
    for name, max_integrate in (("p1z2", 18), ("dcr", 20)):
        assert anchor_counts[name]["integrate"] <= max_integrate, (name, anchor_counts[name])


def test_interpolated_search_work(anchor_counts):
    # The inverse cubic estimate took 9 and 13 integrations (25.0k and 17.5k
    # RHS calls with Dormand-Prince 5(4) steps) here; the secant estimate
    # with its fan took 15 and 17.
    for name, max_integrate, max_rhs in (("p1z2", 11, 29_000), ("dcr", 15, 20_000)):
        counts = anchor_counts[name]
        assert counts["integrate"] <= max_integrate, (name, counts)
        assert counts["rhs"] <= max_rhs, (name, counts)


def test_dop853_work(anchor_counts):
    # Dormand-Prince 5(4) steps made 25.0k and 17.5k RHS calls in 9 and 13
    # integrations; on the weighted DCR the margin of 1 in lambda units (see
    # test_form_threshold_is_the_node_rule) took 13 integrations and 9565
    # RHS calls to 9 and 8850
    for name, max_integrate, max_rhs in (("p1z2", 9, 16_000), ("dcr", 9, 8_850)):
        counts = anchor_counts[name]
        assert counts["integrate"] <= max_integrate, (name, counts)
        assert counts["rhs"] <= max_rhs, (name, counts)


@pytest.mark.parametrize(
    "prob",
    [SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)),
     SLProblem.from_strings(0.0, 1.0, "1", "-100", "1", (0.0, 1.0), (0.0, 1.0)),
     SLProblem.from_strings(0.0, 1.0, "1", "1e4*z^4", "1", (0.0, 1.0), (0.0, 1.0)),
     SLProblem.from_strings(0.0, 50.0, "1.5 + sin(2*z)", "3*z - 40", "exp(-z/20)",
                            (1.0, 0.3), (0.0, 1.0))],
    ids=["p1z2", "negative-q", "stiff-q", "dilated"],
)
def test_form_threshold_is_the_node_rule(prob):
    # lambda >= lambda* shoots the scaled form exactly where lambda rho - q >= 1
    # at s = 0, every node and s = 1, or lambda - q / rho >= 1 there (all in
    # unit variables).  Within 4 ulp of lambda* rounding may decide either
    # way; either form is valid there.
    sh = eigensolve._Shooter(prob, make_grid(prob.interval))
    star = sh.lam_star
    rng = np.random.default_rng(11)
    n = 2500
    lams = star + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, 1.0, n) * max(1.0, abs(star))
    lams = lams[np.abs(lams - star) > 4.0 * np.spacing(star)]
    rule = ((np.min(lams[:, None] * sh.rho_s - sh.q_s, axis=1) >= 1.0)
            | (np.min(lams[:, None] - sh.q_s / sh.rho_s, axis=1) >= 1.0))
    assert np.array_equal(sh.is_scaled(lams), rule)
    assert 0 < np.count_nonzero(rule) < lams.size


def test_default_grid_grows_with_N():
    # 64 panels of 8 points left the rho-Gram of Neumann-Dirichlet off by
    # 1.2e-3 at N = 200; up to N = 64 the default grid is unchanged
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 0.0), (0.0, 1.0))
    assert solve_spectrum(prob, N=64).grid.panels == 64
    N = 200
    dec = solve_spectrum(prob, N=N)
    assert dec.grid.panels == N
    V = dec.values_matrix()
    gram = (V * dec.grid.weights) @ V.T
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-6
    assert max(max(map(abs, bc_residual(prob, f))) for f in dec.eigenfunctions) <= 1e-8
    exact = -((np.arange(N) + 0.5) * math.pi) ** 2
    assert np.max(np.abs(dec.eigenvalues - exact) / np.abs(exact)) <= 1e-10


def test_no_lambda_shot_twice(monkeypatch):
    # the ladder, its pushed edges and the search rounds never repeat a lambda
    seen = []
    miss = eigensolve._Shooter.miss
    monkeypatch.setattr(
        eigensolve._Shooter, "miss", lambda sh, lams, kidx: seen.extend(lams) or miss(sh, lams, kidx)
    )
    for prob, N in (
        (SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, -0.3), (1.0, 0.2)), 30),
        (SLProblem.from_strings(0.0, 50.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0)), 10),
        (SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)), 5),
    ):
        seen.clear()
        solve_spectrum(prob, N=N)
        assert len(set(seen)) == len(seen), (prob, len(seen) - len(set(seen)))


def test_bracketing_is_one_ladder(monkeypatch):
    # the ladder's bottom, guesses and top are shot in one miss call, and
    # with Dirichlet ends no edge needs a push: not for q >= 0, nor for a
    # strongly negative q, whose last Weyl guess is negative
    calls, before_search = [], []
    miss, search = eigensolve._Shooter.miss, eigensolve._search
    monkeypatch.setattr(
        eigensolve._Shooter, "miss", lambda sh, lams, kidx: calls.append(lams) or miss(sh, lams, kidx)
    )
    monkeypatch.setattr(
        eigensolve, "_search", lambda *args: before_search.append(len(calls)) or search(*args)
    )
    for q in ("30*z", "-100"):
        calls.clear()
        before_search.clear()
        prob = SLProblem.from_strings(0.0, 1.0, "1", q, "1", (0.0, 1.0), (0.0, 1.0))
        solve_spectrum(prob, N=2)
        assert before_search == [1], (q, calls)


@pytest.mark.parametrize("N", [2.5, 3.0, "3", np.float64(4.0)])
def test_non_integer_N_rejected_before_any_integration(N, dirichlet_problem, work_counts):
    with pytest.raises(ValueError, match=re.escape(repr(N))):
        solve_spectrum(dirichlet_problem, N=N)
    assert work_counts["integrate"] == 0


@pytest.mark.parametrize("panels", [64.0, 2.5, "8"])
def test_non_integer_panels_rejected(panels, dirichlet_problem):
    with pytest.raises(ValueError, match=re.escape(repr(panels))):
        make_grid(dirichlet_problem.interval, panels)


def test_numpy_integer_N_accepted(dirichlet_problem):
    dec = solve_spectrum(dirichlet_problem, N=np.int64(3))
    assert dec.N == 3
    assert make_grid(dirichlet_problem.interval, np.int64(8)).panels == 8


def _dilated(p, q, rho, bc_a, bc_b, k, m, j):
    """The problem on [0, c] with p c-dilated and times P, rho times R, q and alpha
    to match (c = 2^k, R = 2^m, P = 2^j), and its lambda / unit lambda."""
    c, R, P = 2.0 ** k, 2.0 ** m, 2.0 ** j

    def at(src):
        return src.replace("z", f"(z/{c!r})")

    prob = SLProblem.from_strings(
        0.0, c, f"{P!r}*({at(p)})", f"{P / c ** 2!r}*({at(q)})", f"{R!r}*({at(rho)})",
        (bc_a[0] * c, bc_a[1]), (bc_b[0] * c, bc_b[1]),
    )
    return prob, P / (R * c * c)


@pytest.mark.parametrize(
    "unit, N",
    [(("1", "0", "1", (1.0, -0.3), (1.0, 0.2)), 30),
     (("1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)), 3)],
    ids=["robin", "varcoef"],
)
def test_dilation_is_exact(unit, N, work_counts):
    # power-of-two factors map the problem onto its unit problem without rounding
    base = solve_spectrum(SLProblem.from_strings(0.0, 1.0, *unit), N=N)
    base_counts = dict(work_counts)
    for k, m, j in ((5, -3, 2), (-4, 6, -1), (10, 0, 7)):
        prob, scale = _dilated(*unit, k, m, j)
        work_counts.update(integrate=0, rhs=0)
        dec = solve_spectrum(prob, N=N)
        assert np.array_equal(dec.eigenvalues, scale * base.eigenvalues), (k, m, j)
        assert work_counts == base_counts, (k, m, j, work_counts, base_counts)


def test_neumann_cost_and_accuracy_do_not_depend_on_length(work_counts):
    N = 10
    rhs = {}
    for L in (1.0, 50.0, 0.02):
        prob = SLProblem.from_strings(0.0, L, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
        work_counts.update(rhs=0)
        dec = solve_spectrum(prob, N=N)
        rhs[L] = work_counts["rhs"]
        exact = -((np.arange(N) * math.pi / L) ** 2)
        err = np.abs(dec.eigenvalues - exact) * L ** 2  # in unit variables
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(exact) * L ** 2)), (L, err)
        V = dec.values_matrix()
        gram = (V * dec.grid.weights) @ V.T
        assert np.max(np.abs(gram - np.eye(N))) <= 1e-6, L
        for n, f in enumerate(dec.eigenfunctions):
            assert max(map(abs, bc_residual(prob, f))) <= 1e-8, L
            # f = sqrt(2/L) cos(n pi z/L) up to sign, with f'' = lambda f
            if n:
                w = n * math.pi / L
                assert np.allclose(f.values ** 2 + (f.deriv / w) ** 2, 2.0 / L, rtol=1e-8), (L, n)
                assert np.allclose(f.deriv2 / w ** 2, -f.values, atol=1e-8 / math.sqrt(L)), (L, n)
    assert rhs[50.0] <= 2 * rhs[1.0] and rhs[0.02] <= 2 * rhs[1.0], rhs


def _window(msg):
    return [float(x) for x in re.search(r"L in \[(\S+), (\S+)\]", msg).groups()]


@pytest.mark.parametrize(
    "unit_q, q, bc_a, what",
    [("0", "0", (1.0, 5.0), "eigenvalue 1 not bracketed below"),
     ("1e4*z^8", "4*(z/50)^8", (0.0, 1.0), "eigenvalue 3 not bracketed")],
    ids=["scan", "ladder"],
)
def test_bracket_errors_in_caller_units(unit_q, q, bc_a, what, monkeypatch):
    # [0, 50] maps onto [0, 1] with lambda = lambda^ / 2500; the scan starts at
    # lambda^ = min q^ - 1 and the ladder ends at the guesses' top
    monkeypatch.setattr(eigensolve, "MAX_BRACKET_EXPANSIONS", 0)
    msgs = []
    for b, q_src, alpha in ((1.0, unit_q, bc_a[0] / 50.0), (50.0, q, bc_a[0])):
        prob = SLProblem.from_strings(0.0, b, "1", q_src, "1", (alpha, bc_a[1]), (0.0, 1.0))
        with pytest.raises(eigensolve.EigenvalueBracketError) as info:
            solve_spectrum(prob, N=3)
        msgs.append(str(info.value))
    for msg in msgs:
        assert msg.startswith(what + ": L in [") and msg.endswith(", plain Pruefer form at hi"), msg
    assert np.allclose(np.array(_window(msgs[1])) * 2500.0, _window(msgs[0]), rtol=1e-9), msgs
    if what.endswith("below"):
        assert _window(msgs[1]) == [-0.0004, -0.0004], msgs


@pytest.mark.parametrize("kappa", [1e10, 1e3])
def test_recovery_failure_is_a_bracket_error(kappa):
    # Robin f'(0) = -kappa f(0), Dirichlet at 1: phi_1 falls as e^(-kappa z).
    # At 1e10 it is 0 at every node of nonzero weight, so its norm is 0; at
    # 1e3 the amplitude shot from a overflows on the way to b
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, kappa), (0.0, 1.0))
    with pytest.raises(eigensolve.EigenvalueBracketError,
                       match=r"^eigenvalue 1 not finite after recovery: L in \["):
        solve_spectrum(prob, N=2)


def test_round_cap_error_in_caller_units(monkeypatch):
    prob = SLProblem.from_strings(0.0, 50.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
    sh = eigensolve._Shooter(prob, make_grid(prob.interval))
    monkeypatch.setattr(sh, "miss", lambda lams, kidx: np.full(len(lams), np.nan))
    with pytest.raises(eigensolve.EigenvalueBracketError) as info:
        eigensolve._search(sh, [100.0], [200.0], [-1.0], [1.0], np.array([2.0]))
    msg = str(info.value)
    assert msg == ("eigenvalue 3 not converged in 200 rounds: L in [0.04, 0.08], "
                   "scaled Pruefer form at hi"), msg


def test_step_underflow_in_caller_units(monkeypatch):
    # the first integration is the scan edge lambda^ = -1, i.e. lambda = -1/2500
    plain = eigensolve._PlainRHS.tables

    def nan_past(self, zs, lams):
        tables = plain(self, zs, lams)
        for t in tables:
            t[np.array(zs) > 0.4] = math.nan
        return tables

    monkeypatch.setattr(eigensolve._PlainRHS, "tables", nan_past)
    prob = SLProblem.from_strings(0.0, 50.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(eigensolve.EigenvalueBracketError) as info:
        solve_spectrum(prob, N=3)
    msg = str(info.value)
    assert msg.startswith("plain Pruefer ODE step size underflow"), msg
    assert "L in [-0.0004, -0.0004]" in msg, msg
    z = float(re.search(r"z=(\S+),", msg).group(1))
    h = float(re.search(r"h=(\S+),", msg).group(1))
    assert 19.0 < z <= 20.0 and 0.0 < h < 50 * 1e-14, msg


@pytest.mark.parametrize("q, N", [("-100", 2), ("-1000", 3)])
def test_ladder_expands_upwards_below_zero(q, N, monkeypatch):
    # a ladder top below 0 used to be pushed further down (2 top + 10), so the
    # solve ran to the expansion cap at ever larger |lambda| and never returned
    monkeypatch.setattr(eigensolve, "MAX_BRACKET_EXPANSIONS", 5)
    prob = SLProblem.from_strings(0.0, 1.0, "1", q, "1", (0.0, 1.0), (0.0, 1.0))
    dec = solve_spectrum(prob, N=N)
    exact = -((np.arange(1.0, N + 1.0) * math.pi) ** 2) - float(q)
    assert np.max(np.abs(dec.eigenvalues - exact) / np.abs(exact)) < 1e-10


def test_ladder_pushes_lower_edge_below_robin_eigenvalue(monkeypatch):
    # f'(0) + 5 f(0) = 0 puts lambda_1 = 25 above 1 - min(q / rho), so the
    # ladder's bottom, -1 in L = -lambda, is pushed down by 10, then by 20
    ladders = []
    miss = eigensolve._Shooter.miss
    monkeypatch.setattr(eigensolve._Shooter, "miss",
                        lambda sh, lams, kidx: ladders.append(np.array(lams)) or miss(sh, lams, kidx))
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 5.0), (1.0, 0.0))
    dec = solve_spectrum(prob, N=3)
    assert ladders[0][0] == -1.0 and ladders[1].tolist() == [-11.0] and ladders[2].tolist() == [-31.0]
    # k^2 with k tanh k = 5, then -s^2 with s tan s = -5, to 15 digits
    exact = np.array([25.0045362875995, -3.76789959117967, -30.8009478311256])
    assert np.max(np.abs(dec.eigenvalues / exact - 1.0)) < 1e-10


class _NoisyMiss:
    """A batched miss x - r_k + 1e-12 sin(1e15 (x - r_k)): many sign changes
    within 1e-12 of each root r_k, and exactly 0 at r_k itself."""

    lam_scale = 1.0  # the search's lambdas are the caller's

    def __init__(self, roots):
        self.roots = np.asarray(roots, dtype=float)
        self.calls = 0

    def f(self, lams, kidx):
        d = np.asarray(lams) - self.roots[np.asarray(kidx, dtype=int)]
        return d + 1e-12 * np.sin(1e15 * d)

    def miss(self, lams, kidx):
        self.calls += 1
        return self.f(lams, kidx)

    def is_scaled(self, lams):
        return np.ones(len(lams), dtype=bool)


def test_search_on_noisy_miss():
    roots = np.array([0.3, 7.0, 250.0, -40.0, 1e4])
    kidx = np.arange(roots.size, dtype=float)
    lo = roots - [1.3, 0.01, 40.0, 3.0, 500.0]
    hi = roots + [0.9, 5.0, 0.0, 1e-9, 2000.0]  # hi = 250 has miss exactly 0
    stub = _NoisyMiss(roots)
    flo, fhi = stub.f(lo, kidx), stub.f(hi, kidx)
    assert fhi[2] == 0.0
    lo, hi, flo, fhi = eigensolve._search(stub, lo, hi, flo, fhi, kidx)
    assert np.all(hi - lo <= eigensolve.ROOT_RTOL * np.maximum(1.0, np.abs(hi)))
    assert np.array_equal(flo, stub.f(lo, kidx)) and np.array_equal(fhi, stub.f(hi, kidx))
    assert np.all(flo < 0.0) and np.all(fhi >= 0.0)
    assert stub.calls <= 8, stub.calls


class _SqrtMiss(_NoisyMiss):
    """A smooth batched miss sqrt(x) - sqrt(r_k): curved enough over a wide
    bracket that its secant estimate lands far from the root."""

    def f(self, lams, kidx):
        return np.sqrt(np.asarray(lams)) - np.sqrt(self.roots[np.asarray(kidx, dtype=int)])


def test_interpolated_search_on_smooth_miss():
    # brackets [r/100, 100 r]; the secant estimate with its fan took 9 miss() calls
    roots = np.array([0.5, 3.0, 40.0, 700.0, 9e3])
    kidx = np.arange(roots.size, dtype=float)
    lo, hi = roots / 100.0, roots * 100.0
    stub = _SqrtMiss(roots)
    lo, hi, flo, fhi = eigensolve._search(stub, lo, hi, stub.f(lo, kidx), stub.f(hi, kidx), kidx)
    assert np.all(hi - lo <= eigensolve.ROOT_RTOL * np.maximum(1.0, np.abs(hi)))
    assert np.all(flo < 0.0) and np.all(fhi >= 0.0)
    assert np.allclose(lo, roots, rtol=1e-12, atol=0.0)
    assert stub.calls <= 4, stub.calls


class _NaNMiss(_NoisyMiss):
    def miss(self, lams, kidx):
        return np.full(len(lams), np.nan)


def test_search_fails_loudly_at_the_round_cap():
    # a miss that is never finite inside the bracket never closes it
    with pytest.raises(eigensolve.EigenvalueBracketError) as info:
        eigensolve._search(_NaNMiss([0.5]), [0.0], [1.0], [-1.0], [1.0], np.array([3.0]))
    msg = str(info.value)
    assert "eigenvalue 4 not converged in 200 rounds" in msg, msg
    assert "[0.0, 1.0], scaled Pruefer form at hi" in msg, msg


def test_coefficient_derivatives_cached_on_problem(monkeypatch):
    from dataclasses import replace

    from slspectra.expressions import CoeffExpr, parse_coeff

    prob = SLProblem.from_strings(0.0, 1.0, "1+z", "z^2", "1+z", (0.0, 1.0), (0.0, 1.0))
    solve_spectrum(prob, N=1)
    calls = []
    derivative = CoeffExpr.derivative
    monkeypatch.setattr(CoeffExpr, "derivative", lambda e: calls.append(e) or derivative(e))
    solve_spectrum(prob, N=1)
    assert calls == []
    # a replaced problem derives its own, never the stale ones
    new = replace(prob, q=parse_coeff("z^3"), rho=parse_coeff("exp(z)"))
    z = np.linspace(0.0, 1.0, 5)
    assert np.allclose(new.dq(z), 3.0 * z ** 2) and np.allclose(new.drho(z), np.exp(z))


def test_replaced_p_derives_its_own_derivative():
    # replace() used to copy the old p' = 0: lambda_1 read -1.2487, not -1.3560
    from dataclasses import replace

    from slspectra.expressions import parse_coeff

    unit = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, -0.5), (1.0, 0.5))
    replaced = replace(unit, p=parse_coeff("1+z^2"))
    fresh = SLProblem.from_strings(0.0, 1.0, "1+z^2", "0", "1", (1.0, -0.5), (1.0, 0.5))
    decs = [solve_spectrum(prob, N=3) for prob in (replaced, fresh)]
    assert np.array_equal(decs[0].eigenvalues, decs[1].eigenvalues)
    f = decs[1].eigenfunctions[0]
    assert np.array_equal(apply_operator(replaced, f).values, apply_operator(fresh, f).values)


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
    """theta' = w (cos ws + 1/2): theta(s) = theta(0) + sin ws + ws / 2."""

    max_step = math.inf
    trig = (np.cos, np.sin)

    def __init__(self, w=3.0):
        self.w = w

    def initial_step(self, lams):
        return 0.01

    def tables(self, zs, lams):
        w = self.w
        W = np.add.outer(w * (np.cos(w * np.array(zs)) + 0.5), np.zeros_like(lams))
        return W, 0.0 * W, 0.0 * W, 0.0 * W

    def exact(self, s, theta0):
        return theta0 + math.sin(self.w * s) + 0.5 * self.w * s


def _half(th2, out):
    return np.multiply(th2, 0.5, out=out)


class _LinearRHS(_CosRHS):
    """theta' = w theta cos ws, so the stage arguments matter too: W = 0,
    G = w cos ws and T1(2 theta) = theta."""

    trig = (_half, _half)

    def tables(self, zs, lams):
        G = np.add.outer(self.w * np.cos(self.w * np.array(zs)), np.zeros_like(lams))
        return 0.0 * G, G, 0.0 * G, G

    def exact(self, s, theta0):
        return theta0 * math.exp(math.sin(self.w * s))


@pytest.mark.parametrize("rhs", [_CosRHS, _LinearRHS], ids=["cos", "linear"])
def test_integrator_closed_form(rhs):
    theta0 = np.array([0.25, 1.0])
    end = eigensolve._integrate(rhs(), np.zeros(2), theta0)
    exact = [rhs().exact(1.0, t) for t in theta0]
    assert np.max(np.abs(end[0] - exact)) <= 1e-11
    # the dense output between steps is as accurate as the end state when
    # a step of DENSE_MAX_STEP spans w h = 1/8 radian of the solution (w = 1);
    # at w = 3 it spans 3/8, and the interpolant is off by up to 2.9e-11
    slow = rhs(1.0)
    z_out = np.linspace(0.0, 1.0, 61)[1:]
    rows = eigensolve._integrate(slow, np.zeros(2), theta0, z_out=z_out)
    for zt, row in zip(z_out, rows):
        assert np.max(np.abs(row[0] - [slow.exact(zt, t) for t in theta0])) <= 1e-11


def test_dop853_tableau_matches_scipy():
    # the tableau is read from scipy's file without importing scipy.integrate;
    # the import here checks it against the module scipy itself uses
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(eigensolve, "_" + name), getattr(ref, name)), name


def test_import_loads_no_scipy_solvers():
    # scipy.integrate adds about 0.4 s and 22 MiB of peak RSS to `import slspectra`,
    # and scipy.linalg about 0.3 s and 27 MiB; the DOP853 tableau is read from
    # scipy's file without importing scipy, so no scipy module is loaded at all
    src = os.path.dirname(os.path.dirname(slspectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, slspectra; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]", res.stdout


def test_missing_dop853_coefficient_file_names_the_path(tmp_path, monkeypatch):
    import scipy

    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(eigensolve.importlib.util, "find_spec", lambda name: fake)
    path = os.path.join(str(tmp_path), "integrate", "_ivp", "dop853_coefficients.py")
    with pytest.raises(ImportError, match=re.escape(path)) as err:
        eigensolve._dop853_coefficients()
    assert f"scipy {scipy.__version__}" in str(err.value)


def test_dense_output_matches_scipy_interpolant():
    # scipy's DOP853 dense output evaluates the same contd8 polynomial from F
    from scipy.integrate._ivp.dop853_coefficients import B, D
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    rng = np.random.default_rng(3)
    K = rng.standard_normal((16, 2, 3))
    y, h = rng.standard_normal((2, 3)), 0.37
    ynew = y + h * np.tensordot(B, K[:12], 1)
    theta = np.linspace(0.0, 1.0, 11)
    got = eigensolve._contd8(theta, y, ynew, h, K)
    dy = (ynew - y).ravel()
    F = np.vstack([dy, h * K[0].ravel() - dy, 2 * dy - h * (K[12] + K[0]).ravel(),
                   h * np.dot(D, K.reshape(16, -1))])
    want = Dop853DenseOutput(0.0, h, y.ravel(), F)(theta * h).T.reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 1e-14


def _unit_coeffs(prob, s):
    """p^, q^, rho^, p^', q^', rho^' at one s, from the problem's own
    expressions as factor * e(a + ell s) on Python floats (see _UnitMap)."""
    a, ell = prob.interval.a, prob.interval.length
    P, R = prob.p(a), prob.rho(a)
    factors = (1.0 / P, ell * ell / P, 1.0 / R, ell / P, ell * ell * ell / P, ell / R)
    exprs = (prob.p, prob.q, prob.rho, prob.dp, prob.dq, prob.drho)
    z = a + ell * s
    return [k * e(z) for k, e in zip(factors, exprs)]


def _pointwise_rhs(form, coeffs, theta, lams):
    """theta' and the amplitude's log-derivative at one point, by the Pruefer
    formulas in double angles (the module docstring), one lambda per column."""
    th2 = 2.0 * theta
    pz, qz, rz, dpz, dqz, drz = coeffs
    if form == "plain":
        hp, hu = 0.5 / pz, lams * (0.5 * rz) - 0.5 * qz
        return (hp + hu) + (hp - hu) * np.cos(th2), (hp - hu) * np.sin(th2)
    u = lams * rz - qz
    g = (lams * (0.25 * drz) - 0.25 * dqz) / u + 0.25 * dpz / pz
    return np.sqrt(u / pz) + g * np.sin(th2), g - g * np.cos(th2)


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("form", ["plain", "scaled"])
def test_stage_tables_match_pointwise_formulas(form, ncomp):
    # a dilated, reweighted problem, so the unit map's factors are not all 1
    prob = SLProblem.from_strings(0.5, 2.5, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5))
    sh = eigensolve._Shooter(prob, make_grid(prob.interval))
    rhs = sh.plain if form == "plain" else sh.scaled
    rng = np.random.default_rng(5)
    zs = rng.uniform(0.0, 1.0, 12)
    lo = sh.lam_star if form == "scaled" else -50.0
    lams = lo + rng.uniform(0.0, 1e3, 7)
    base, slope = eigensolve._tables(rhs, zs, lams, ncomp)
    assert base.shape == slope.shape == (12, ncomp, 7)
    for i, z in enumerate(zs.tolist()):
        theta = rng.uniform(-10.0, 10.0, lams.size)
        k = np.empty((ncomp, lams.size))
        eigensolve._slope(k, 2.0 * theta, base[i], slope[i], rhs.trig[:ncomp])
        want = _pointwise_rhs(form, _unit_coeffs(prob, z), theta, lams)[:ncomp]
        for c in range(ncomp):
            assert np.array_equal(k[c], want[c]), (form, ncomp, i, c)


class _NaNRHS(eigensolve._PlainRHS):
    """Finite up to z = 1/3, NaN past it; z and lambda are the caller's."""

    def __init__(self):
        unit = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (0.0, 1.0), (0.0, 1.0))
        super().__init__(eigensolve._UnitMap(unit))

    def tables(self, zs, lams):
        W = np.add.outer(np.where(np.array(zs) <= 1.0 / 3.0, 1.0, math.nan), np.zeros_like(lams))
        return W, 0.0 * W, W, 0.0 * W


def test_step_underflow_names_where():
    with pytest.raises(eigensolve.EigenvalueBracketError) as info:
        eigensolve._integrate(_NaNRHS(), np.array([2.0, 5.0]), np.zeros(2))
    msg = str(info.value)
    assert msg.startswith("plain Pruefer ODE step size underflow"), msg
    assert "L in [2.0, 5.0]" in msg, msg
    z = float(re.search(r"z=(\S+),", msg).group(1))
    h = float(re.search(r"h=(\S+),", msg).group(1))
    assert 0.3 < z <= 1.0 / 3.0 and 0.0 < h < 1e-14, msg
