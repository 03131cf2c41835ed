"""DCR case study: closed-form spectrum, the form of the operator, H^1
identification, observability."""

import math

import numpy as np
import pytest

from slspectra.core import (
    GridFunction,
    GridMismatchError,
    MissingDerivativeError,
    SLProblem,
    apply_operator,
    find_root,
    form_inner_product,
    grid_function,
    inner_product_rho,
    make_grid,
)
from slspectra.casestudy import (
    DCRModel,
    boundary_trace_closed_form,
    characteristic,
    closed_form_eigenfunction,
    dcr_sl_problem,
    norm_equivalence,
    observability_from_values,
    observability_test,
    poincare_check,
    solve_case_study,
    transform_state,
    transformed_problem,
    trig_corpus,
)
from slspectra.eigensolve import solve_spectrum
from slspectra.fracspace import fractional_space, rescaled_basis
from slspectra.oracle import assemble, fd_eigs

S1 = 0.9601888739147829  # first characteristic root, frozen from bisection


def test_model_validation_and_kappa():
    assert DCRModel(1.0, 0.75).kappa == pytest.approx(1.0)
    assert DCRModel(2.0, 0.5).kappa == pytest.approx(0.625)
    with pytest.raises(ValueError):
        DCRModel(0.0, 1.0)
    with pytest.raises(ValueError):
        DCRModel(1.0, -1.0)


def test_weighted_problem_coefficients(model):
    prob = dcr_sl_problem(model)
    z = np.linspace(0.0, 1.0, 9)
    assert prob.rho(0.0) == pytest.approx(1.0)
    assert prob.rho(1.0) == pytest.approx(math.exp(-1.0))
    assert np.allclose(prob.p(z) / prob.rho(z), model.D)
    assert np.allclose(prob.q(z) / prob.rho(z), model.k0)
    assert prob.bc_a == (1.0, -1.0)
    assert prob.bc_b == (1.0, 0.0)


def test_transform_round_trip_and_norm_carry(model, std_grid):
    x = grid_function(std_grid, lambda z: np.cos(z) + z)
    xi = transform_state(x, model, "forward")
    assert np.max(np.abs(xi.values - x.values * np.exp(-std_grid.nodes / 2))) == 0.0
    back = transform_state(xi, model, "inverse")
    assert np.max(np.abs(back.values - x.values)) < 1e-14
    l2 = float(np.dot(xi.values ** 2, std_grid.weights))
    rho = inner_product_rho(x, x, dcr_sl_problem(model).rho)
    assert l2 == pytest.approx(rho, rel=1e-14)
    with pytest.raises(ValueError):
        transform_state(x, model, "sideways")


def test_transform_carries_derivatives(std_grid):
    # at D = 1/2 forward multiplies by e^-z: xi = e^-z sin z, xi' = e^-z (cos z - sin z)
    # and xi'' = -2 e^-z cos z; inverse gives back the derivatives of sin z
    z = std_grid.nodes
    x = grid_function(std_grid, np.sin, np.cos, lambda t: -np.sin(t))
    model = DCRModel(0.5, 0.75)
    xi = transform_state(x, model, "forward")
    assert np.max(np.abs(xi.deriv - np.exp(-z) * (np.cos(z) - np.sin(z)))) <= 1e-13
    assert np.max(np.abs(xi.deriv2 + 2.0 * np.exp(-z) * np.cos(z))) <= 1e-13
    back = transform_state(xi, model, "inverse")
    assert np.max(np.abs(back.deriv - x.deriv)) <= 1e-13
    assert np.max(np.abs(back.deriv2 - x.deriv2)) <= 1e-13


def test_characteristic_roots(cs_spec50):
    assert 0.5 < cs_spec50.s[0] < math.pi / 2.0
    assert cs_spec50.s[0] == pytest.approx(S1, abs=1e-13)
    assert np.all(np.diff(cs_spec50.s) > 0.0)
    assert np.max(cs_spec50.residuals()[:20]) <= 1e-10
    # tan-form residual away from poles, via the pole-free identity
    s = cs_spec50.s[:20]
    tan_resid = np.abs(np.tan(s) - 4.0 * s / (4.0 * s * s - 1.0))
    assert np.max(tan_resid) < 1e-10
    # asymptotically s_{m+1} settles just above m pi
    m = np.arange(1, 50)
    assert np.all(cs_spec50.s[1:] > m * math.pi)
    assert np.all(cs_spec50.s[1:] < m * math.pi + math.pi / 2.0)


# small D puts the first roots in the upper half of their period, large D in the
# lower half; at D = 1/pi and 1/(3 pi) a root lies on a half-period point
D_VALUES = (1e-3, 0.01, 0.02, 0.05, 0.2, 1.0 / math.pi - 1e-3, 1.0 / math.pi,
            1.0 / math.pi + 1e-3, 1.0 / (3.0 * math.pi), 1.0, 2.0, 10.0, 100.0)


def test_root_brackets_change_sign():
    # g_D(m pi) = -4 D m pi (-1)^m and g_D(m pi + pi/2) = (-1)^m (4 D^2 s^2 - 1),
    # so each half period with a sign change holds one root
    m = np.arange(1, 10_001, dtype=float)
    for D in D_VALUES:
        assert np.array_equal(np.sign(characteristic(m * math.pi, D)), (-1.0) ** (m + 1))
        s = m * math.pi + math.pi / 2.0
        far = np.abs(4.0 * D * D * s * s - 1.0) > 1e-6
        assert np.array_equal(np.sign(characteristic(s, D))[far],
                              ((-1.0) ** m * np.sign(4.0 * D * D * s * s - 1.0))[far])
        # a dense scan of g_D over (0, N pi) finds the N roots, one in each
        # period, and solve_case_study returns them, none missed
        N = 10
        roots = solve_case_study(DCRModel(D, 0.75), N).s
        x = np.linspace(0.0, N * math.pi, 400_003)[1:]
        cell = np.flatnonzero(np.diff(np.sign(characteristic(x, D))) != 0.0)
        assert cell.size == N, D
        assert np.all((x[cell] <= roots) & (roots <= x[cell + 1])), D
        assert np.all((np.arange(N) * math.pi < roots) & (roots < m[:N] * math.pi)), D


def test_roots_against_an_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for D in D_VALUES:
        d = mpmath.mpf(D)
        g = lambda s: mpmath.sin(s) * (4 * d * d * s * s - 1) - 4 * d * s * mpmath.cos(s)
        s = solve_case_study(DCRModel(D, 0.75), 20).s
        ref = np.array([float(mpmath.findroot(g, mpmath.mpf(x))) for x in s])
        # within two doubles: the double nearest the root, or one with as small a |g_D|
        assert np.all(np.abs(s - ref) <= 2.0 * np.spacing(ref)), D


def test_closed_forms_at_every_D(std_grid):
    # k_n against quadrature of phi_n^2, and the solver on the transformed
    # problem against lambda_n = -D s_n^2
    for D in D_VALUES:
        model = DCRModel(D, 0.75)
        spec = solve_case_study(model, 10)
        phi = closed_form_eigenfunction(spec, np.arange(1, 11), std_grid)
        assert np.max(np.abs(phi.values ** 2 @ std_grid.weights - 1.0)) <= 1e-14, D
        # the traces phi_n(z0) / (sqrt(D) s_n) at mu = 0, at the ends of the grid
        for z0, end in ((0.0, 0), (1.0, -1)):
            trace = phi.values[:, end] / (math.sqrt(D) * spec.s)
            assert np.max(np.abs(boundary_trace_closed_form(spec, z0) - trace)) <= 1e-14, D
        assert np.array_equal(spec.lam, -D * spec.s * spec.s)
        lam = solve_spectrum(transformed_problem(model), N=10).eigenvalues
        assert np.max(np.abs(lam / spec.lam - 1.0)) <= 1e-13, D


def test_guards(model, std_grid):
    # D = 2 has its own closed forms, which the solver matches
    other = DCRModel(2.0, 0.75)
    spec = solve_case_study(other, 5)
    lam = solve_spectrum(transformed_problem(other), N=5).eigenvalues
    assert np.max(np.abs(lam / spec.lam - 1.0)) <= 1e-13
    assert np.max(spec.residuals()) <= 1e-10
    with pytest.raises(ValueError):
        solve_case_study(model, 0)
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {bad!r}"):
            solve_case_study(model, bad)
    assert solve_case_study(model, np.int64(3)).N == 3
    for bad in (2.5, -1, "3"):
        with pytest.raises(ValueError, match=f"size must be an integer >= 0, got {bad!r}"):
            trig_corpus(std_grid, bad)
    assert trig_corpus(std_grid, np.int64(3)).values.shape[0] == 3


def test_roots_are_the_double_with_the_smallest_residual(model):
    s = solve_case_study(model, 200).s
    g = np.abs(characteristic(s, 1.0))
    assert np.all(g <= np.abs(characteristic(np.nextafter(s, 0.0), 1.0)))
    assert np.all(g <= np.abs(characteristic(np.nextafter(s, np.inf), 1.0)))


def test_normalization_constants(cs_spec50, std_grid):
    for n in range(1, 21):
        phi = closed_form_eigenfunction(cs_spec50, n, std_grid)
        nrm = math.sqrt(float(np.dot(phi.values ** 2, std_grid.weights)))
        assert abs(nrm - 1.0) <= 1e-8
    s = cs_spec50.s
    assert np.allclose(cs_spec50.k, 2.0 * math.sqrt(2.0) * s / np.sqrt(4 * s * s + 5))


def test_transformed_route_matches_closed_form(transformed_dec50, cs_spec50):
    assert np.max(np.abs(transformed_dec50.eigenvalues[:10] - cs_spec50.lam[:10])) <= 1e-8


def test_form_inner_product_examples(model, neumann_problem, std_grid):
    one = grid_function(std_grid, lambda z: np.ones_like(z), lambda z: np.zeros_like(z))
    lin = grid_function(std_grid, lambda z: z, lambda z: np.ones_like(z))
    # the transformed DCR at mu = 0: f(1) g(1) / 2 + f(0) g(0) / 2 + int f' g'
    dcr = transformed_problem(model)
    assert form_inner_product(dcr, one, one) == pytest.approx(1.0, abs=1e-14)
    assert form_inner_product(dcr, one, lin) == pytest.approx(0.5, abs=1e-14)
    assert form_inner_product(dcr, lin, lin) == pytest.approx(1.5, abs=1e-14)
    # Neumann, p = rho = 1, at mu = 1: the full H^1 product
    assert form_inner_product(neumann_problem, lin, lin, mu=1.0) == pytest.approx(
        4.0 / 3.0, abs=1e-14
    )
    with pytest.raises(MissingDerivativeError):
        form_inner_product(dcr, one, grid_function(std_grid, lambda z: z))
    coarse = grid_function(make_grid(std_grid.interval, 8), lambda z: z, lambda z: np.ones_like(z))
    with pytest.raises(GridMismatchError):
        form_inner_product(dcr, lin, coarse)


def test_h1_gram_identity(model, cs_spec50, std_grid):
    # the form of the transformed operator at mu = 0 makes {phi_n / s_n}
    # orthonormal: the computational witness that X_{1/2} carries the H^1 norm
    prob = transformed_problem(model)
    half = closed_form_eigenfunction(cs_spec50, np.arange(1, 21), std_grid)
    half = half.scaled(1.0 / cs_spec50.s[:20, None])
    G = form_inner_product(prob, half, half)
    assert np.max(np.abs(G - np.eye(20))) < 1e-6


def test_closed_form_family_rows_are_the_single_modes(cs_spec50, std_grid):
    family = closed_form_eigenfunction(cs_spec50, np.array([3, 1, 7]), std_grid)
    for row, n in enumerate((3, 1, 7)):
        one = closed_form_eigenfunction(cs_spec50, n, std_grid)
        assert one.values.shape == std_grid.nodes.shape
        for name in ("values", "deriv", "deriv2"):
            assert np.array_equal(getattr(family, name)[row], getattr(one, name))
    with pytest.raises(ValueError, match="out of range"):
        closed_form_eigenfunction(cs_spec50, np.array([1, 51]), std_grid)
    empty = closed_form_eigenfunction(cs_spec50, np.array([], dtype=int), std_grid)
    assert empty.values.shape == empty.deriv2.shape == (0, std_grid.size)


@pytest.mark.parametrize(
    "n", [2.0, np.array([1.0, 2.0]), 0, [], True, np.array([True])],
    ids=["float", "float-array", "zero", "empty-list", "bool", "bool-array"],
)
def test_closed_form_mode_index_must_be_an_integer(cs_spec50, std_grid, n):
    with pytest.raises(ValueError, match="n must be an integer >= 1, got "):
        closed_form_eigenfunction(cs_spec50, n, std_grid)


def _form_pair(prob, f):
    """(-<Af, f>_rho, a_0(f, f)); integration by parts makes them equal on D(A)."""
    return -inner_product_rho(apply_operator(prob, f), f, prob.rho), form_inner_product(prob, f, f)


def _sum(f, g):
    return GridFunction(
        f.grid, f.values + g.values, deriv=f.deriv + g.deriv, deriv2=f.deriv2 + g.deriv2
    )


def test_quadratic_form_identity(model, cs_spec50, std_grid):
    prob = transformed_problem(model)
    f1 = closed_form_eigenfunction(cs_spec50, 1, std_grid)
    f2 = closed_form_eigenfunction(cs_spec50, 2, std_grid)
    s1, s2 = cs_spec50.s[0] ** 2, cs_spec50.s[1] ** 2
    for f, expected in ((f1, s1), (f2, s2), (_sum(f1, f2), s1 + s2)):
        lhs, rhs = _form_pair(prob, f)
        assert abs(lhs - rhs) <= 1e-8
        assert lhs == pytest.approx(expected, rel=1e-10)


@pytest.fixture(scope="module")
def form_decs(model):
    """N = 20 solves of problems beyond the closed forms, for the form's tests."""
    probs = {
        "dcr_D2": transformed_problem(DCRModel(2.0, model.k0)),
        "p1z2": SLProblem.from_strings(0.0, 1.0, "1+z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)),
        "weighted_dcr": dcr_sl_problem(model),
        "dirichlet_robin": SLProblem.from_strings(
            2.0, 5.0, "2+sin(z)", "0.3*z", "1+z", (0.0, 1.0), (1.0, 0.3)
        ),
    }
    return {name: solve_spectrum(prob, N=20) for name, prob in probs.items()}


def test_form_identity_on_solver_eigenfunctions(form_decs, weighted_dec):
    decs = [form_decs["dcr_D2"], form_decs["p1z2"], weighted_dec, form_decs["dirichlet_robin"]]
    for dec in decs:
        f1, f2 = dec.eigenfunctions[:2]
        for f in (f1, f2, _sum(f1, f2)):
            lhs, rhs = _form_pair(dec.problem, f)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (dec.problem, lhs, rhs)


def test_rescaled_basis_orthonormal_under_form(form_decs):
    # X_{1/2} without modal sums: at mu = gamma + 1 the form a_mu is the
    # inner product of the form domain of mu - A
    for name in ("p1z2", "weighted_dcr", "dirichlet_robin"):
        fs = fractional_space(form_decs[name], 0.5)
        half = rescaled_basis(fs)
        G = form_inner_product(fs.dec.problem, half, half, fs.mu)
        assert np.max(np.abs(G - np.eye(20))) <= 1e-10, name


def test_central_theorem_as_grams_on_variable_coefficients(form_decs):
    # X_{1/2} through the form a_mu and X_1 = D(A) through
    # <(mu - A) f, (mu - A) g>_rho: no modal sums on either side
    dec = form_decs["p1z2"]
    prob = dec.problem
    half = rescaled_basis(fractional_space(dec, 0.5))
    fs = fractional_space(dec, 1.0)
    one = rescaled_basis(fs)
    shifted = GridFunction(dec.grid, fs.mu * one.values - apply_operator(prob, one).values)
    for G in (form_inner_product(prob, half, half, fs.mu),
              inner_product_rho(shifted, shifted, prob.rho)):
        assert G.shape == (20, 20)
        assert np.max(np.abs(G - np.eye(20))) <= 1e-10


def test_poincare_examples(std_grid):
    # on one member the constant is that member's own ratio
    # (x(0)^2 / 2 + ||x'||^2) / ||x||^2: 9/2 over 9 for x = 3, 1 over 1/3 for x = z
    const = grid_function(std_grid, lambda z: [3 * np.ones_like(z)], lambda z: [np.zeros_like(z)])
    assert poincare_check(const) == pytest.approx(0.5, abs=1e-12)
    assert poincare_check(_one_member_lin(std_grid)) == pytest.approx(3.0, abs=1e-12)


def _one_member_lin(grid):
    """The family whose one member is x = z."""
    return grid_function(grid, lambda z: [z], lambda z: [np.ones_like(z)])


def _member_ratios(model, neumann_problem, family):
    """Each member's own equivalence ratio, from the diagonals of two form
    Grams: transformed DCR at mu = 0 over the Neumann problem p = rho = 1
    at mu = 1."""
    num = form_inner_product(transformed_problem(model), family, family)
    den = form_inner_product(neumann_problem, family, family, mu=1.0)
    return np.diagonal(num) / np.diagonal(den)


def test_poincare_and_equivalence_corpus(model, neumann_problem, std_grid):
    corpus = trig_corpus(std_grid, 16)
    assert corpus.values.shape == corpus.deriv.shape == (16, std_grid.size)
    assert poincare_check(corpus) >= 0.25
    report = norm_equivalence(corpus)
    assert report.min_ratio >= 0.125 - 1e-10
    assert report.max_ratio >= report.min_ratio
    assert report.corpus_size == 16
    # the extremes over the span bound every member's own ratio
    ratios = _member_ratios(model, neumann_problem, corpus)
    assert np.all(ratios >= report.min_ratio * (1.0 - 1e-12))
    assert np.all(ratios <= report.max_ratio * (1.0 + 1e-12))


def test_poincare_ritz_decreases_to_h1_infimum(std_grid):
    # over H^1 the infimum is s^2 with s tan s = 1/2; nested spans can only
    # bring the Ritz minimum down towards it
    s = find_root(lambda x: x * np.tan(x) - 0.5, 0.1, 1.0)
    assert s * s == pytest.approx(0.4267632, abs=1e-7)
    consts = [poincare_check(trig_corpus(std_grid, n)) for n in (8, 12, 16, 22)]
    assert np.all(np.diff(consts) < 0.0), consts
    assert min(consts) > s * s
    assert consts[2] - s * s <= 3e-3


def test_equivalence_extremes_bound_combinations(model, neumann_problem, std_grid):
    corpus = trig_corpus(std_grid, 16)
    report = norm_equivalence(corpus)
    # 50 random combinations of the corpus, as one family
    c = np.random.default_rng(11).standard_normal((50, 16))
    combos = GridFunction(std_grid, c @ corpus.values, deriv=c @ corpus.deriv)
    r = _member_ratios(model, neumann_problem, combos)
    assert np.all(report.min_ratio * (1.0 - 1e-12) <= r)
    assert np.all(r <= report.max_ratio * (1.0 + 1e-12))


def test_ritz_rejects_repeated_member(std_grid):
    # a repeated member leaves Cholesky a tiny positive pivot at some places,
    # so every place is tried
    corpus = trig_corpus(std_grid, 16)
    for k in range(16):
        rows = np.append(np.arange(16), k)
        dup = GridFunction(std_grid, corpus.values[rows], corpus.deriv[rows], corpus.deriv2[rows])
        for check in (norm_equivalence, poincare_check):
            with pytest.raises(ValueError, match="linearly dependent"):
                check(dup)


def test_norm_equivalence_linear_example(std_grid):
    report = norm_equivalence(_one_member_lin(std_grid))
    assert report.min_ratio == pytest.approx(9.0 / 8.0, abs=1e-12)


def test_norm_equivalence_rejects_empty(std_grid):
    with pytest.raises(ValueError):
        norm_equivalence(trig_corpus(std_grid, 0))


def test_observability_both_boundaries(transformed_dec50, cs_spec50):
    # the solver's traces at mu = 0, against the closed forms
    fs = fractional_space(transformed_dec50, 0.5, mu=0.0)
    r0 = observability_test(fs, 0.0)
    r1 = observability_test(fs, 1.0)
    assert r0.verdict and r1.verdict
    assert np.all(r0.values > 0.0) and np.all(r1.values > 0.0)
    # z0 = 0 traces decay monotonically; the minimum is the last mode
    assert np.all(np.diff(r0.values) < 0.0)
    s50 = cs_spec50.s[49]
    assert r0.minimum == pytest.approx(
        2.0 * math.sqrt(2.0) / math.sqrt(4.0 * s50 * s50 + 5.0), rel=1e-12
    )
    for r in (r0, r1):
        closed = np.abs(boundary_trace_closed_form(cs_spec50, r.z0))
        assert np.max(np.abs(r.values - closed)) <= 1e-12


def test_observability_neumann_traces(neumann_dec):
    # mu = gamma + 1 = 1: phi_1 = 1, phi_n(0) = sqrt(2) and lambda_n = -((n-1) pi)^2
    r = observability_test(fractional_space(neumann_dec, 0.5), 0.0)
    m = np.arange(neumann_dec.N) * math.pi
    exact = np.where(m == 0.0, 1.0, math.sqrt(2.0)) / np.sqrt(1.0 + m * m)
    assert np.max(np.abs(r.values - exact)) <= 1e-14


def test_observability_weighted_dcr_against_fd(model, weighted_dec):
    # variable coefficients: the FD oracle keeps its Robin and Neumann end
    # nodes, so its vector end entries are O(h^2) traces
    fs = fractional_space(weighted_dec, 0.5)
    traces = [observability_test(fs, z0).values for z0 in (0.0, 1.0)]
    gaps = []
    for M in (1000, 2000):
        lam, vecs = fd_eigs(assemble(dcr_sl_problem(model), M), weighted_dec.N)
        fd = np.abs((fs.mu - lam) ** -fs.alpha * vecs[:, [0, -1]].T)
        gaps.append([float(np.max(np.abs(t - f))) for t, f in zip(traces, fd)])
    gaps = np.array(gaps)
    assert np.all(gaps[1] <= 1e-6), gaps
    assert np.all(gaps[0] / gaps[1] > 3.5), gaps


def test_observability_forced_zero():
    values = np.array([0.5, 0.25, 0.0, 0.1])
    report = observability_from_values(values, 0.0, 0.5)
    assert not report.verdict
    assert report.offending_index == 3
    assert report.minimum == 0.0


def test_observability_interior_point_rejected(transformed_dec50, cs_spec50):
    with pytest.raises(ValueError):
        observability_test(fractional_space(transformed_dec50, 0.5, mu=0.0), 0.5)
    for z0 in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"z0 in \[0, 1\]"):
            boundary_trace_closed_form(cs_spec50, z0)


def test_eigenrelation_through_weighted_coefficients(model, weighted_dec, std_grid):
    # the weighted operator applied to its own first eigenfunction
    prob = dcr_sl_problem(model)
    phi1 = weighted_dec.eigenfunctions[0]
    af = apply_operator(prob, phi1)
    lam1 = weighted_dec.eigenvalues[0]
    assert np.max(np.abs(af.values - lam1 * phi1.values)) < 1e-6
