"""Diffusion-convection-reaction (DCR) model on (0, 1), solved end to end.

The PDE  x_t = D x_zz - x_z - k0 x  with boundary conditions
D x_z(0) = x(0), x_z(1) = 0 fits the Sturm-Liouville frame with weight
rho = exp(-z/D), p = D rho, q = k0 rho.  The substitution
xi(z) = exp(-z/(2 D)) x(z) turns it into the constant-coefficient Robin
problem  xi_t = D xi_zz - kappa xi,  kappa = k0 + 1/(4 D),
with D xi'(0) = xi(0)/2 and D xi'(1) = -xi(1)/2.

For D = 1 the spectrum of the unshifted operator A = d^2/dz^2 (same BCs)
is lambda_n = -s_n^2 where the s_n are the positive roots of
tan(s) = 4 s / (4 s^2 - 1); the L^2-normalized eigenfunctions are
phi_n(z) = k_n [cos(s_n z) + sin(s_n z) / (2 s_n)],
k_n = 2 sqrt(2) s_n / sqrt(4 s_n^2 + 5).

With mu = 0 and alpha = 1/2 the fractional space carries the
boundary-plus-gradient inner product
<f, g>_{1/2} = f(1) g(1) / 2 + f(0) g(0) / 2 + int f' g',
equivalent to the full H^1 inner product with lower constant 1/8, and the
point observations phi_{n,1/2}(0), phi_{n,1/2}(1) are nonzero for every n,
which is the modal test for infinite-time approximate observability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BoundaryData,
    Grid,
    GridFunction,
    Interval,
    MissingDerivativeError,
    SLProblem,
    bc_residual,
    boundary_values,
    find_root,
    apply_operator,
    inner_product_rho,
    make_grid,
)
from .expressions import parse_coeff

__all__ = [
    "DCRModel",
    "CaseStudySpectrum",
    "ObservabilityReport",
    "EquivalenceReport",
    "dcr_sl_problem",
    "transform_state",
    "transformed_problem",
    "solve_case_study",
    "characteristic",
    "closed_form_eigenfunction",
    "h1_inner_product",
    "h1_full_inner_product",
    "quadratic_form_identity",
    "poincare_check",
    "norm_equivalence",
    "trig_corpus",
    "observability_test",
    "observability_from_values",
    "boundary_trace_closed_form",
]

DEFAULT_OBSERVABILITY_TOL = 1e-9


@dataclass(frozen=True)
class DCRModel:
    """Diffusion coefficient D and kinetic constant k0, both positive."""

    D: float
    k0: float

    def __post_init__(self):
        if self.D <= 0.0 or self.k0 <= 0.0:
            raise ValueError("D and k0 must be positive")

    @property
    def kappa(self) -> float:
        return self.k0 + 1.0 / (4.0 * self.D)


def dcr_sl_problem(model: DCRModel) -> SLProblem:
    """The weighted divergence form: rho = e^(-z/D), p = D rho, q = k0 rho."""
    d = model.D
    return SLProblem(
        interval=Interval(0.0, 1.0),
        p=parse_coeff(f"{d!r} * exp(-z / {d!r})"),
        q=parse_coeff(f"{model.k0!r} * exp(-z / {d!r})"),
        rho=parse_coeff(f"exp(-z / {d!r})"),
        bc_a=(d, -1.0),
        bc_b=(1.0, 0.0),
    )


def transform_state(
    x: GridFunction, model: DCRModel, direction: Literal["forward", "inverse"]
) -> GridFunction:
    """Multiply pointwise by e^(-z/(2D)) (forward) or e^(+z/(2D)) (inverse).

    Forward maps the physical state x to the similarity variable xi; the
    two are mutually inverse and carry ||x||_rho onto the plain L^2 norm.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    sgn = -1.0 if direction == "forward" else +1.0
    c = sgn / (2.0 * model.D)
    z = x.grid.nodes
    w = np.exp(c * z)
    values = x.values * w
    deriv = None
    deriv2 = None
    if x.deriv is not None:
        deriv = w * (x.deriv + c * x.values)
        if x.deriv2 is not None:
            deriv2 = w * (x.deriv2 + 2.0 * c * x.deriv + c * c * x.values)
    boundary = None
    if x.boundary is not None:
        a, b = x.grid.interval.a, x.grid.interval.b
        wa, wb = math.exp(c * a), math.exp(c * b)
        da = db = None
        if x.boundary.deriv_a is not None and x.boundary.deriv_b is not None:
            da = wa * (x.boundary.deriv_a + c * x.boundary.value_a)
            db = wb * (x.boundary.deriv_b + c * x.boundary.value_b)
        boundary = BoundaryData(
            value_a=x.boundary.value_a * wa,
            value_b=x.boundary.value_b * wb,
            deriv_a=da,
            deriv_b=db,
        )
    return GridFunction(x.grid, values, deriv=deriv, deriv2=deriv2, boundary=boundary)


def transformed_problem(model: DCRModel) -> SLProblem:
    """Constant-coefficient Robin problem for xi: the unshifted operator
    A = D d^2/dz^2 (spectrum -s_n^2 for D=1); the generator is A - kappa I."""
    d = model.D
    return SLProblem(
        interval=Interval(0.0, 1.0),
        p=parse_coeff(f"{d!r}"),
        q=parse_coeff("0"),
        rho=parse_coeff("1"),
        bc_a=(d, -0.5),
        bc_b=(d, 0.5),
    )


def characteristic(s):
    """Pole-free characteristic g(s) = sin(s)(4 s^2 - 1) - 4 s cos(s).

    Shares its positive zeros with tan(s) = 4 s / (4 s^2 - 1) but is smooth
    across the tangent poles, so every root sits in a clean sign-change
    bracket.
    """
    s = np.asarray(s, dtype=np.float64)
    out = np.sin(s) * (4.0 * s * s - 1.0) - 4.0 * s * np.cos(s)
    return float(out) if out.ndim == 0 else out


def _polish_root(s: float) -> float:
    """Move to the neighbouring double with the smallest |g|."""
    best = s
    gbest = abs(characteristic(s))
    for cand in (np.nextafter(s, 0.0), np.nextafter(s, np.inf)):
        g = abs(characteristic(float(cand)))
        if g < gbest:
            best, gbest = float(cand), g
    return best


@dataclass(frozen=True)
class CaseStudySpectrum:
    s: np.ndarray
    lam: np.ndarray
    k: np.ndarray
    N: int

    def residuals(self) -> np.ndarray:
        return np.abs(characteristic(self.s))

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "s": self.s.tolist(),
            "lambda": self.lam.tolist(),
            "k": self.k.tolist(),
            "residuals": self.residuals().tolist(),
        }


def solve_case_study(model: DCRModel, N: int) -> CaseStudySpectrum:
    """Roots of the characteristic plus the closed-form lambda_n, k_n.

    Root m+1 lives in (m pi, m pi + pi/2); the first root has the seed
    bracket (1/2, pi/2).  Each bracket has a sign change: for m >= 1,
    g(m pi) = -4 m pi (-1)^m and g(m pi + pi/2) = (-1)^m (4 s^2 - 1).
    """
    if model.D != 1.0:
        raise ValueError("closed-form spectrum requires D = 1")
    if N < 1:
        raise ValueError("N must be at least 1")
    roots = np.empty(N)
    for m in range(N):
        lo, hi = (0.5, math.pi / 2.0) if m == 0 else (m * math.pi, m * math.pi + math.pi / 2.0)
        roots[m] = _polish_root(find_root(characteristic, lo, hi, tol=1e-15))
    k = 2.0 * math.sqrt(2.0) * roots / np.sqrt(4.0 * roots * roots + 5.0)
    return CaseStudySpectrum(roots, -roots * roots, k, N)


def closed_form_eigenfunction(
    spec: CaseStudySpectrum, n: int, grid: Grid
) -> GridFunction:
    """phi_n(z) = k_n [cos(s_n z) + sin(s_n z)/(2 s_n)] with exact derivatives."""
    if not 1 <= n <= spec.N:
        raise ValueError("mode index out of range")
    s = float(spec.s[n - 1])
    k = float(spec.k[n - 1])

    def val(z):
        return k * (np.cos(s * z) + np.sin(s * z) / (2.0 * s))

    def dval(z):
        return k * (-s * np.sin(s * z) + np.cos(s * z) / 2.0)

    z = grid.nodes
    a, b = grid.interval.a, grid.interval.b
    boundary = BoundaryData(
        value_a=float(val(np.float64(a))),
        value_b=float(val(np.float64(b))),
        deriv_a=float(dval(np.float64(a))),
        deriv_b=float(dval(np.float64(b))),
    )
    values = val(z)
    return GridFunction(
        grid, values, deriv=dval(z), deriv2=-s * s * values, boundary=boundary
    )


def h1_inner_product(f: GridFunction, g: GridFunction) -> float:
    """Boundary-plus-gradient form: f(1)g(1)/2 + f(0)g(0)/2 + int f' g'.

    This is the concrete realization of <.,.>_{1/2} (mu = 0) for the
    transformed DCR operator; its Gram on the rescaled eigenfunctions is
    the identity.
    """
    if f.deriv is None or g.deriv is None:
        raise MissingDerivativeError("h1_inner_product needs derivative grids")
    fa, fb = boundary_values(f)
    ga, gb = boundary_values(g)
    grad = float(np.dot(f.deriv * g.deriv, f.grid.weights))
    return 0.5 * fb * gb + 0.5 * fa * ga + grad


def h1_full_inner_product(f: GridFunction, g: GridFunction) -> float:
    """Standard H^1 form: int f g + int f' g'."""
    if f.deriv is None or g.deriv is None:
        raise MissingDerivativeError("h1_full_inner_product needs derivative grids")
    w = f.grid.weights
    return float(np.dot(f.values * g.values, w) + np.dot(f.deriv * g.deriv, w))


def quadratic_form_identity(prob: SLProblem, f: GridFunction) -> Tuple[float, float]:
    """(-<Af, f>_rho, <f, f>_{1/2}); the two agree for f in the domain.

    Integration by parts with these dissipative Robin conditions gives
    <Af, f> = -(f(1)^2/2 + f(0)^2/2 + int (f')^2), so the positive
    quadratic form equals minus the operator pairing.  The boundary
    conditions are prechecked, to 1e-8 relative to max |f|.
    """
    ra, rb = bc_residual(prob, f)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if max(abs(ra), abs(rb)) > 1e-8 * scale:
        raise ValueError("f does not satisfy the Robin boundary conditions")
    af = apply_operator(prob, f)
    lhs = -inner_product_rho(af, f, prob.rho)
    rhs = h1_inner_product(f, f)
    return lhs, rhs


def poincare_check(f: GridFunction) -> Tuple[float, float, float]:
    """(lhs, rhs, margin) for  ||x||^2 / 4 <= x(0)^2 / 2 + ||x'||^2."""
    if f.deriv is None:
        raise MissingDerivativeError("poincare_check needs a derivative grid")
    w = f.grid.weights
    lhs = 0.25 * float(np.dot(f.values * f.values, w))
    fa, _ = boundary_values(f)
    rhs = 0.5 * fa * fa + float(np.dot(f.deriv * f.deriv, w))
    return lhs, rhs, rhs - lhs


@dataclass(frozen=True)
class EquivalenceReport:
    min_ratio: float
    max_ratio: float
    corpus_size: int
    corpus_seed: Optional[int]
    argmin: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "corpus_seed": self.corpus_seed,
            "corpus_size": self.corpus_size,
        }


def norm_equivalence(
    corpus: Sequence[GridFunction], seed: Optional[int] = None
) -> EquivalenceReport:
    """Per-function ratios ||x||^2_{1/2} / ||x||^2_{H^1} over a corpus.

    The lower equivalence constant is 1/8; the reported maximum is an
    empirical upper constant, not a sharp one.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    ratios = np.empty(len(corpus))
    for i, f in enumerate(corpus):
        num = h1_inner_product(f, f)
        den = h1_full_inner_product(f, f)
        if den == 0.0:
            raise ValueError("corpus contains the zero function")
        ratios[i] = num / den
    imin = int(np.argmin(ratios))
    return EquivalenceReport(
        float(ratios[imin]), float(np.max(ratios)), len(corpus), seed, imin
    )


def trig_corpus(grid: Grid, size: int, seed: int) -> List[GridFunction]:
    """Seeded trigonometric polynomials a0 + b0 z + sum_k a_k cos(k pi z) + b_k sin(k pi z).

    k runs to 10.  Coefficients are uniform in [-1, 1]; derivatives and
    boundary data are analytic, so every member is a legitimate H^1 test
    function.
    """
    degree = 10
    rng = np.random.default_rng(seed)
    z = grid.nodes
    ks = np.arange(1, degree + 1) * math.pi
    cos_b = np.cos(np.outer(ks, z))            # (degree, M)
    sin_b = np.sin(np.outer(ks, z))
    a, b = grid.interval.a, grid.interval.b
    ends = np.array([a, b])
    cos_e, sin_e = np.cos(np.outer(ks, ends)), np.sin(np.outer(ks, ends))
    out: List[GridFunction] = []
    for _ in range(size):
        c = rng.uniform(-1.0, 1.0, size=2 * degree + 2)
        a0, b0 = c[0], c[1]
        ac, bs = c[2 : degree + 2], c[degree + 2 :]
        values = a0 + b0 * z + ac @ cos_b + bs @ sin_b
        deriv = b0 - (ac * ks) @ sin_b + (bs * ks) @ cos_b
        deriv2 = -(ac * ks * ks) @ cos_b - (bs * ks * ks) @ sin_b
        v_e = a0 + b0 * ends + ac @ cos_e + bs @ sin_e
        d_e = b0 - (ac * ks) @ sin_e + (bs * ks) @ cos_e
        boundary = BoundaryData(v_e[0], v_e[1], d_e[0], d_e[1])
        out.append(GridFunction(grid, values, deriv=deriv, deriv2=deriv2, boundary=boundary))
    return out


@dataclass(frozen=True)
class ObservabilityReport:
    z0: float
    alpha: float
    values: np.ndarray          # |phi_{n,alpha}(z0)|, nonnegative
    minimum: float
    verdict: bool
    tol: float
    offending_index: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "z0": self.z0,
            "alpha": self.alpha,
            "values": self.values.tolist(),
            "min": self.minimum,
            "verdict": self.verdict,
            "tol": self.tol,
            "offending_index": self.offending_index,
        }


def boundary_trace_closed_form(spec: CaseStudySpectrum, z0: float) -> np.ndarray:
    """phi_{n,1/2}(z0) for z0 in {0, 1}, signed, by the closed forms."""
    s = spec.s
    root = np.sqrt(4.0 * s * s + 5.0)
    if z0 == 0.0:
        return 2.0 * math.sqrt(2.0) / root
    if z0 == 1.0:
        return (
            2.0 * math.sqrt(2.0) * np.cos(s) / root
            * (4.0 * s * s + 1.0) / (4.0 * s * s - 1.0)
        )
    raise ValueError("closed-form traces exist only at z0 = 0 or 1")


def _direct_traces(spec: CaseStudySpectrum, z0: float, N: int) -> np.ndarray:
    """phi_{n,1/2}(z0) by grid sampling + boundary extrapolation, no stored data.

    The grid is refined with the largest root so the end-panel polynomial
    extrapolation stays far below the 1e-8 agreement budget.
    """
    s_max = float(spec.s[N - 1])
    panels = max(64, int(math.ceil(1.2 * s_max)))
    grid = make_grid(Interval(0.0, 1.0), panels=panels)
    vals = np.empty(N)
    for n in range(1, N + 1):
        phi = closed_form_eigenfunction(spec, n, grid)
        bare = GridFunction(grid, phi.values / float(spec.s[n - 1]))
        va, vb = boundary_values(bare)
        vals[n - 1] = va if z0 == 0.0 else vb
    return vals


def observability_test(
    spec: CaseStudySpectrum,
    z0: float,
    N: Optional[int] = None,
    tol: float = DEFAULT_OBSERVABILITY_TOL,
) -> ObservabilityReport:
    """Modal observability at a boundary point: every |phi_{n,1/2}(z0)| > tol.

    The traces are computed twice — closed forms and direct grid
    evaluation — and must agree within 1e-8; disagreement flags a solver
    bug rather than a verdict.
    """
    if N is None:
        N = spec.N
    if not 1 <= N <= spec.N:
        raise ValueError("N exceeds the solved spectrum")
    closed = boundary_trace_closed_form(spec, float(z0))[:N]
    direct = _direct_traces(spec, float(z0), N)
    gap = float(np.max(np.abs(closed - direct)))
    if gap > 1e-8:
        raise RuntimeError(
            f"closed-form and direct trace values disagree by {gap:.3e}"
        )
    return observability_from_values(np.abs(closed), float(z0), 0.5, tol)


def observability_from_values(
    values: np.ndarray, z0: float, alpha: float, tol: float = DEFAULT_OBSERVABILITY_TOL
) -> ObservabilityReport:
    """Build a report from raw trace magnitudes (synthetic inputs allowed)."""
    values = np.abs(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise ValueError("empty trace vector")
    imin = int(np.argmin(values))
    minimum = float(values[imin])
    verdict = minimum > tol
    return ObservabilityReport(
        z0, alpha, values, minimum, verdict, tol,
        offending_index=None if verdict else imin + 1,
    )
