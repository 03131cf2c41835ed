"""Grids, quadrature, weighted inner products and the differential operator.

Everything here is plain data plus pure functions.  The grid is a composite
Gauss-Legendre rule (P panels of g points); Gauss nodes are interior to the
interval, so boundary values are obtained either from stored analytic
boundary data or by Lagrange extrapolation of the end panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .expressions import CoeffExpr, parse_coeff

__all__ = [
    "Interval",
    "Grid",
    "BoundaryData",
    "GridFunction",
    "SLProblem",
    "BracketError",
    "GridMismatchError",
    "MissingDerivativeError",
    "make_grid",
    "grid_function",
    "integrate",
    "inner_product_rho",
    "norm_rho",
    "apply_operator",
    "bc_residual",
    "boundary_values",
    "boundary_derivatives",
    "find_root",
]

DEFAULT_PANELS = 64
DEFAULT_POINTS = 8


class BracketError(ValueError):
    """find_root called without a sign change (or with non-finite values)."""


class GridMismatchError(ValueError):
    """Two grid functions that must share a grid do not."""


class MissingDerivativeError(ValueError):
    """An operation needed derivative grids that were not supplied."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Grid:
    """Composite Gauss-Legendre quadrature grid on an interval."""

    interval: Interval
    nodes: np.ndarray
    weights: np.ndarray
    panels: int
    points: int

    @property
    def size(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        return (
            self.interval == other.interval
            and self.panels == other.panels
            and self.points == other.points
        )


def make_grid(
    interval: Interval, panels: int = DEFAULT_PANELS, points: int = DEFAULT_POINTS
) -> Grid:
    if panels < 1 or points < 2:
        raise ValueError("need panels >= 1 and points >= 2")
    x, w = np.polynomial.legendre.leggauss(points)
    h = interval.length / panels
    left = interval.a + h * np.arange(panels)
    nodes = (left[:, None] + (x[None, :] + 1.0) * (h / 2.0)).ravel()
    weights = np.tile(w * h / 2.0, panels)
    return Grid(interval, nodes, weights, panels, points)


@dataclass(frozen=True)
class BoundaryData:
    """Analytic endpoint values, carried when the source function is known."""

    value_a: float
    value_b: float
    deriv_a: Optional[float] = None
    deriv_b: Optional[float] = None


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray
    deriv: Optional[np.ndarray] = None
    deriv2: Optional[np.ndarray] = None
    boundary: Optional[BoundaryData] = None

    def __post_init__(self):
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("values shape does not match grid")
        for d in (self.deriv, self.deriv2):
            if d is not None and d.shape != self.grid.nodes.shape:
                raise ValueError("derivative grid shape does not match grid")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @property
    def interval(self) -> Interval:
        return self.grid.interval

    def scaled(self, c: float) -> "GridFunction":
        bd = self.boundary
        if bd is not None:
            bd = BoundaryData(
                c * bd.value_a,
                c * bd.value_b,
                None if bd.deriv_a is None else c * bd.deriv_a,
                None if bd.deriv_b is None else c * bd.deriv_b,
            )
        return GridFunction(
            self.grid,
            c * self.values,
            None if self.deriv is None else c * self.deriv,
            None if self.deriv2 is None else c * self.deriv2,
            bd,
        )


def grid_function(
    grid: Grid,
    fn: Callable[[np.ndarray], np.ndarray],
    dfn: Callable[[np.ndarray], np.ndarray] | None = None,
    d2fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GridFunction:
    """Sample an analytic function (and optional derivatives) on a grid."""
    a, b = grid.interval.a, grid.interval.b
    z = grid.nodes
    values = np.asarray(fn(z), dtype=float) + np.zeros_like(z)
    deriv = None if dfn is None else np.asarray(dfn(z), dtype=float) + np.zeros_like(z)
    deriv2 = None if d2fn is None else np.asarray(d2fn(z), dtype=float) + np.zeros_like(z)
    boundary = BoundaryData(
        float(fn(a)),
        float(fn(b)),
        None if dfn is None else float(dfn(a)),
        None if dfn is None else float(dfn(b)),
    )
    return GridFunction(grid, values, deriv, deriv2, boundary)


# ---------------------------------------------------------------------------
# Sturm-Liouville problem data


@dataclass(frozen=True)
class SLProblem:
    """A f = (1/rho) ((p f')' - q f) with separated Robin conditions.

    bc_a = (alpha_a, beta_a) encodes alpha_a f'(a) + beta_a f(a) = 0,
    and likewise bc_b at the right endpoint.
    """

    interval: Interval
    p: CoeffExpr
    q: CoeffExpr
    rho: CoeffExpr
    bc_a: Tuple[float, float]
    bc_b: Tuple[float, float]
    dp: CoeffExpr = None  # type: ignore[assignment]
    # q' and rho' are derived, never copied: replace() must not keep stale ones
    dq: CoeffExpr = field(init=False, repr=False, compare=False)
    drho: CoeffExpr = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bc_a == (0.0, 0.0) or self.bc_b == (0.0, 0.0):
            raise ValueError("boundary condition pair must not be (0, 0)")
        if self.dp is None:
            object.__setattr__(self, "dp", self.p.derivative())
        object.__setattr__(self, "dq", self.q.derivative())
        object.__setattr__(self, "drho", self.rho.derivative())
        z = np.linspace(self.interval.a, self.interval.b, 65)
        with np.errstate(all="ignore"):
            samples = [("p", self.p(z), 0.0), ("rho", self.rho(z), 0.0), ("q", self.q(z), -np.inf)]
        for name, v, floor in samples:
            # tests what must hold, since NaN compares False with everything
            bad = np.flatnonzero(~(np.isfinite(v) & (v > floor)))
            if bad.size:
                what = "finite" if floor == -np.inf else "finite and positive"
                zi, vi = float(z[bad[0]]), float(v[bad[0]])
                raise ValueError(f"{name} must be {what} on the interval: {name}({zi!r}) = {vi!r}")

    @staticmethod
    def from_strings(a, b, p, q, rho, bc_a, bc_b, dp=None) -> "SLProblem":
        return SLProblem(
            Interval(float(a), float(b)),
            parse_coeff(p),
            parse_coeff(q),
            parse_coeff(rho),
            (float(bc_a[0]), float(bc_a[1])),
            (float(bc_b[0]), float(bc_b[1])),
            None if dp is None else parse_coeff(dp),
        )


# ---------------------------------------------------------------------------
# Quadrature and inner products


def integrate(f: GridFunction) -> float:
    """Composite Gauss quadrature: exact for per-panel degree <= 2g-1."""
    return float(np.dot(f.values, f.weights))


def inner_product_rho(f: GridFunction, g: GridFunction, rho: CoeffExpr) -> float:
    """<f, g>_rho = integral of f * g * rho over the shared grid."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("inner_product_rho requires a shared grid")
    # f*g is computed first, so the summation order is symmetric in (f, g)
    return float(np.dot(f.values * g.values, rho(f.nodes) * f.weights))


def norm_rho(f: GridFunction, rho: CoeffExpr) -> float:
    return float(np.sqrt(max(inner_product_rho(f, f, rho), 0.0)))


# ---------------------------------------------------------------------------
# Boundary evaluation: stored data first, end-panel Lagrange otherwise


def _lagrange_extrapolate(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    n = xs.size
    # barycentric weights for the panel's Gauss nodes
    w = np.ones(n)
    for j in range(n):
        w[j] = 1.0 / np.prod(xs[j] - np.delete(xs, j))
    d = x - xs
    return float(np.sum(w / d * ys) / np.sum(w / d))


def _extrapolate_ends(f: GridFunction, v: np.ndarray) -> Tuple[float, float]:
    """v (values on f's grid) at a and b, from the Gauss nodes of each end panel."""
    g = f.grid.points
    return (
        _lagrange_extrapolate(f.nodes[:g], v[:g], f.interval.a),
        _lagrange_extrapolate(f.nodes[-g:], v[-g:], f.interval.b),
    )


def boundary_values(f: GridFunction) -> Tuple[float, float]:
    if f.boundary is not None:
        return f.boundary.value_a, f.boundary.value_b
    return _extrapolate_ends(f, f.values)


def boundary_derivatives(f: GridFunction) -> Tuple[float, float]:
    if f.boundary is not None and f.boundary.deriv_a is not None:
        return f.boundary.deriv_a, f.boundary.deriv_b
    if f.deriv is None:
        raise MissingDerivativeError("no derivative grid or boundary data")
    return _extrapolate_ends(f, f.deriv)


# ---------------------------------------------------------------------------
# Operator application and boundary residuals


def apply_operator(prob: SLProblem, f: GridFunction) -> GridFunction:
    """Pointwise A f = (1/rho) (p' f' + p f'' - q f).

    The caller must supply f', f'' (analytic or integrator-produced); this
    function never differentiates numerically.
    """
    if f.deriv is None or f.deriv2 is None:
        raise MissingDerivativeError("apply_operator needs f' and f'' grids")
    z = f.nodes
    values = (
        prob.dp(z) * f.deriv + prob.p(z) * f.deriv2 - prob.q(z) * f.values
    ) / prob.rho(z)
    return GridFunction(f.grid, values)


def bc_residual(prob: SLProblem, f: GridFunction) -> Tuple[float, float]:
    """Residuals of the Robin conditions at both endpoints (zero on D(A))."""
    fa, fb = boundary_values(f)
    dfa, dfb = boundary_derivatives(f)
    ra = prob.bc_a[0] * dfa + prob.bc_a[1] * fa
    rb = prob.bc_b[0] * dfb + prob.bc_b[1] * fb
    return ra, rb


# ---------------------------------------------------------------------------
# Bracketed root finding (Brent)


def find_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Brent's method (scipy's brentq): inverse quadratic / secant with a
    bisection fallback.

    Requires a sign change on [lo, hi]; the bracket width at return is <= tol
    (plus a machine-epsilon floor proportional to the root magnitude).  After
    max_iter iterations the last iterate is returned.
    """
    # imported here: scipy.optimize is slow to import, and only this needs it
    from scipy.optimize import brentq

    def checked(x: float) -> float:
        fx = fn(x)
        if not np.isfinite(fx):
            raise BracketError(f"non-finite function value at {x}")
        return fx

    try:
        return brentq(
            checked, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps,
            maxiter=max_iter, disp=False,
        )
    except BracketError:
        raise
    except ValueError as exc:  # brentq's own checks: no sign change, bad tol
        raise BracketError(f"{exc} on [{lo}, {hi}]") from exc


# ---------------------------------------------------------------------------
# CSV serialization of grid functions


def gridfunction_to_csv(f: GridFunction) -> str:
    """CSV columns (z, value) with 17 significant decimal digits."""
    lines = ["z,value"]
    for z, v in zip(f.nodes, f.values):
        lines.append(f"{z:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
