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

With mu = 0 and alpha = 1/2 the inner product of the fractional space
is the form of the transformed operator, core.form_inner_product at D = 1
and mu = 0:
<f, g>_{1/2} = f(1) g(1) / 2 + f(0) g(0) / 2 + int f' g',
equivalent to the full H^1 inner product with lower constant 1/8, which
norm_equivalence computes by Rayleigh-Ritz from the form's Gram matrices
over the span of the trig_corpus family (poincare_check likewise the
Poincare constant, bound 1/4),
and the point observations phi_{n,1/2}(0), phi_{n,1/2}(1) are nonzero for
every n, the modal test for infinite-time approximate observability.
observability_test reads these traces from a solved decomposition of any
problem; boundary_trace_closed_form gives them in closed form for D = 1,
the oracle the solver's traces are checked against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal, Optional, Tuple

import numpy as np

from .core import (
    Grid,
    GridFunction,
    Interval,
    SLProblem,
    find_root,
    form_inner_product,
    inner_product_rho,
)
from .expressions import parse_coeff
from .fracspace import FractionalSpace

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
    "poincare_check",
    "norm_equivalence",
    "trig_corpus",
    "observability_test",
    "check_observation",
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
        if not (0.0 < self.D < math.inf and 0.0 < self.k0 < math.inf):
            raise ValueError("D and k0 must be positive and finite")

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
    return GridFunction(x.grid, values, deriv=deriv, deriv2=deriv2)


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


@dataclass(frozen=True)
class CaseStudySpectrum:
    s: np.ndarray
    lam: np.ndarray
    k: np.ndarray

    @property
    def N(self) -> int:
        return self.s.size

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
    One find_root call bisects all N brackets, so each root is the double
    with the smaller |g| of the two adjacent doubles around the zero.
    """
    if model.D != 1.0:
        raise ValueError("closed-form spectrum requires D = 1")
    if not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    m = np.arange(N)
    lo = np.where(m == 0, 0.5, m * math.pi)
    roots = find_root(characteristic, lo, m * math.pi + math.pi / 2.0)
    k = 2.0 * math.sqrt(2.0) * roots / np.sqrt(4.0 * roots * roots + 5.0)
    return CaseStudySpectrum(roots, -roots * roots, k)


def closed_form_eigenfunction(spec: CaseStudySpectrum, n, grid: Grid) -> GridFunction:
    """phi_n(z) = k_n [cos(s_n z) + sin(s_n z)/(2 s_n)] with exact derivatives;
    for an array of indices n, the family of those modes."""
    n = np.asarray(n)
    if not np.all((1 <= n) & (n <= spec.N)):
        raise ValueError("mode index out of range")
    # a trailing axis, so an array of indices gives one row per mode
    s, k = spec.s[n - 1][..., None], spec.k[n - 1][..., None]
    cos, sin = np.cos(s * grid.nodes), np.sin(s * grid.nodes)
    values = k * (cos + sin / (2.0 * s))
    return GridFunction(grid, values, deriv=k * (-s * sin + cos / 2.0), deriv2=-s * s * values)


def _ritz_extremes(A: np.ndarray, B: np.ndarray) -> Tuple[float, float]:
    """Smallest and largest a(f, f) / b(f, f) over f in the span of a corpus,
    given the corpus's Gram matrices A of a and B of b.

    By the Courant-Fischer min-max principle these are the extreme
    eigenvalues of the pencil (A, B), those of L^-1 A L^-T with B = L L^T.
    The factorizations read only the lower triangles of the Grams.
    """
    n = len(B) if np.ndim(B) == 2 else 0
    if n == 0:
        raise ValueError("corpus must be a nonempty family")
    try:
        # numpy's rank rule first: a repeated member can leave a tiny positive pivot
        if np.linalg.matrix_rank(B, hermitian=True) < n:
            raise np.linalg.LinAlgError
        Linv = np.linalg.inv(np.linalg.cholesky(B))
    except np.linalg.LinAlgError:
        raise ValueError("corpus is linearly dependent: its Gram matrix is singular") from None
    ev = np.linalg.eigvalsh(Linv @ A @ Linv.T)
    return float(ev[0]), float(ev[-1])


def poincare_check(corpus: GridFunction) -> float:
    """The Poincare constant min (x(0)^2 / 2 + ||x'||^2) / ||x||^2 over span(corpus).

    The numerator is a_0 of p = rho = 1, q = 0, Robin (1, -1/2) at 0 and
    Neumann at 1.  The paper's bound is 1/4; over H^1 the infimum is s^2,
    s tan s = 1/2 (0.4268).
    """
    prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, -0.5), (1.0, 0.0))
    return _ritz_extremes(form_inner_product(prob, corpus, corpus),
                          inner_product_rho(corpus, corpus, prob.rho))[0]


@dataclass(frozen=True)
class EquivalenceReport:
    min_ratio: float
    max_ratio: float
    corpus_size: int


def norm_equivalence(corpus: GridFunction) -> EquivalenceReport:
    """Extremes of ||x||^2_{1/2} / ||x||^2_{H^1} over span(corpus).

    ||x||^2_{1/2} = x(1)^2 / 2 + x(0)^2 / 2 + ||x'||^2 is a_0 of the
    transformed D = 1 problem (k0 does not enter it), ||x||^2_{H^1} =
    ||x||^2 + ||x'||^2 is a_1 of p = rho = 1, q = 0 with Neumann ends.  The
    paper's lower equivalence constant is 1/8.
    """
    dcr = transformed_problem(DCRModel(1.0, 1.0))
    neumann = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))
    lo, hi = _ritz_extremes(form_inner_product(dcr, corpus, corpus),
                            form_inner_product(neumann, corpus, corpus, mu=1.0))
    return EquivalenceReport(lo, hi, len(corpus.values))


def trig_corpus(grid: Grid, size: int) -> GridFunction:
    """The family cos(k pi z), k = 0 .. size - 1, with exact derivatives: the
    Neumann eigenfunctions, an orthogonal basis of H^1(0, 1), so their Gram
    matrices stay well conditioned."""
    w = np.arange(size)[:, None] * math.pi
    c, s = np.cos(w * grid.nodes), np.sin(w * grid.nodes)
    return GridFunction(grid, c, -w * s, -w * w * c)


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


def observability_test(
    fs: FractionalSpace, z0: float, tol: float = DEFAULT_OBSERVABILITY_TOL
) -> ObservabilityReport:
    """Modal observability at an end z0 of the interval: every |phi_{n,alpha}(z0)| > tol.

    phi_{n,alpha}(z0) = (mu - lambda_n)^(-alpha) phi_n(z0), with phi_n(z0)
    read from the end node of each mode row: the grid's first and last
    nodes are a and b.
    """
    end = check_observation(fs.dec.problem.interval, z0, tol)
    traces = fs.weights(-fs.alpha) * fs.dec.values[:, end]
    return observability_from_values(traces, float(z0), fs.alpha, tol)


def check_observation(interval: Interval, z0: float, tol: float) -> int:
    """Check observability_test's z0 and tol without a decomposition.

    Raises ValueError unless z0 is an end of the interval and tol is finite
    and >= 0.  Returns the index of z0's node in a mode row: 0 at a, -1 at b.
    """
    if z0 not in (interval.a, interval.b):
        raise ValueError(f"z0 must be an end of the interval, {interval.a!r} or {interval.b!r}")
    _check_tol(tol)
    return 0 if z0 == interval.a else -1


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")


def observability_from_values(
    values: np.ndarray, z0: float, alpha: float, tol: float = DEFAULT_OBSERVABILITY_TOL
) -> ObservabilityReport:
    """Build a report from raw trace magnitudes (synthetic inputs allowed)."""
    values = np.abs(np.asarray(values, dtype=np.float64))
    if values.ndim != 1 or values.size == 0:
        raise ValueError("trace values must be a nonempty vector")
    if not (np.all(np.isfinite(values)) and math.isfinite(z0) and math.isfinite(alpha)):
        raise ValueError("trace values, z0 and alpha must be finite")
    _check_tol(tol)
    imin = int(np.argmin(values))
    minimum = float(values[imin])
    verdict = minimum > tol
    return ObservabilityReport(
        z0, alpha, values, minimum, verdict, tol,
        offending_index=None if verdict else imin + 1,
    )
