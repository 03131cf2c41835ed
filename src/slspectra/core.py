"""Grids, quadrature, weighted inner products, the differential operator and
its form.

Everything here is plain data plus pure functions.  The grid is a composite
Gauss-Legendre rule (P panels of g points) with the interval ends a and b
added as its first and last nodes, each with quadrature weight 0, so every
sampled function carries its boundary values in its own arrays.

A GridFunction holds one function, or a family of k functions as (k, nodes)
rows.  The products, the form and the boundary readings take either: a
scalar for two functions, else a vector or the Gram matrix of two families.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .expressions import CoeffExpr, parse_coeff

__all__ = [
    "Interval",
    "Grid",
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
    "form_inner_product",
    "boundary_values",
    "boundary_derivatives",
    "find_root",
]

DEFAULT_PANELS = 64
DEFAULT_POINTS = 8


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer (numpy's too, not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
    """Composite Gauss-Legendre quadrature grid on an interval, whose first
    and last nodes are the interval ends (weight 0)."""

    interval: Interval
    nodes: np.ndarray
    weights: np.ndarray
    panels: int

    @property
    def size(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        return self.interval == other.interval and self.panels == other.panels


def make_grid(interval: Interval, panels: int = DEFAULT_PANELS) -> Grid:
    """panels Gauss-Legendre panels of DEFAULT_POINTS nodes each, between a
    and b as the first and last nodes, which have weight 0."""
    _check_count("panels", panels, 1)
    x, w = np.polynomial.legendre.leggauss(DEFAULT_POINTS)
    a, b = interval.a, interval.b
    h = interval.length / panels
    left = a + h * np.arange(panels)
    gauss = (left[:, None] + (x[None, :] + 1.0) * (h / 2.0)).ravel()
    nodes = np.concatenate([[a], gauss, [b]])
    weights = np.concatenate([[0.0], np.tile(w * h / 2.0, panels), [0.0]])
    return Grid(interval, nodes, weights, panels)


@dataclass(frozen=True)
class GridFunction:
    """Values of shape (nodes,) for one function, or (..., nodes) for a
    family whose members are the rows; deriv and deriv2 have the same shape."""

    grid: Grid
    values: np.ndarray
    deriv: Optional[np.ndarray] = None
    deriv2: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.values.shape[-1:] != self.grid.nodes.shape:
            raise ValueError("values shape does not match grid")
        for d in (self.deriv, self.deriv2):
            if d is not None and d.shape != self.values.shape:
                raise ValueError("derivative grid shape does not match values")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    def scaled(self, c) -> "GridFunction":
        """c times the function; a column c of shape (k, 1) scales a family row by row."""
        arrays = (self.values, self.deriv, self.deriv2)
        return GridFunction(self.grid, *(None if x is None else c * x for x in arrays))


def grid_function(
    grid: Grid,
    fn: Callable[[np.ndarray], np.ndarray],
    dfn: Callable[[np.ndarray], np.ndarray] | None = None,
    d2fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GridFunction:
    """Sample an analytic function (and optional derivatives) on a grid."""
    z = grid.nodes
    values = np.asarray(fn(z), dtype=float) + np.zeros_like(z)
    deriv = None if dfn is None else np.asarray(dfn(z), dtype=float) + np.zeros_like(z)
    deriv2 = None if d2fn is None else np.asarray(d2fn(z), dtype=float) + np.zeros_like(z)
    return GridFunction(grid, values, deriv, deriv2)


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
    # p', q' and rho' are derived, never copied: replace() must not keep stale
    # ones.  dp stays an init argument only for callers that pass
    # replace(..., dp=None) (perfbench/workloads.py); any value passed in is
    # replaced by p.derivative().
    dp: CoeffExpr = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    dq: CoeffExpr = field(init=False, repr=False, compare=False)
    drho: CoeffExpr = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite([*self.bc_a, *self.bc_b])):
            raise ValueError("boundary condition entries must be finite")
        if self.bc_a == (0.0, 0.0) or self.bc_b == (0.0, 0.0):
            raise ValueError("boundary condition pair must not be (0, 0)")
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
    def from_strings(a, b, p, q, rho, bc_a, bc_b) -> "SLProblem":
        return SLProblem(
            Interval(float(a), float(b)),
            parse_coeff(p),
            parse_coeff(q),
            parse_coeff(rho),
            (float(bc_a[0]), float(bc_a[1])),
            (float(bc_b[0]), float(bc_b[1])),
        )


# ---------------------------------------------------------------------------
# Quadrature and inner products


def integrate(f: GridFunction) -> float:
    """Composite Gauss quadrature: exact for per-panel degree <= 2g-1."""
    if f.values.ndim != 1:
        raise ValueError("integrate takes one function, not a family")
    return float(np.dot(f.values, f.weights))


def inner_product_rho(f: GridFunction, g: GridFunction, rho: CoeffExpr):
    """<f, g>_rho = integral of f * g * rho over the shared grid, for every
    pair of members: a scalar, a vector, or the Gram matrix of two families."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("inner_product_rho requires a shared grid")
    return np.inner(f.values * (rho(f.nodes) * f.weights), g.values)


def norm_rho(f: GridFunction, rho: CoeffExpr) -> float:
    if f.values.ndim != 1:
        raise ValueError("norm_rho takes one function, not a family")
    return float(np.sqrt(max(inner_product_rho(f, f, rho), 0.0)))


# ---------------------------------------------------------------------------
# Boundary evaluation: the first and last grid nodes are a and b


def boundary_values(f: GridFunction):
    """f(a) and f(b): the first and last node columns, scalars for one function."""
    return np.take(f.values, 0, axis=-1), np.take(f.values, -1, axis=-1)


def boundary_derivatives(f: GridFunction):
    if f.deriv is None:
        raise MissingDerivativeError("no derivative grid")
    return np.take(f.deriv, 0, axis=-1), np.take(f.deriv, -1, axis=-1)


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


def bc_residual(prob: SLProblem, f: GridFunction):
    """Residuals of the Robin conditions at both endpoints (zero on D(A)),
    one per member of a family."""
    fa, fb = boundary_values(f)
    dfa, dfb = boundary_derivatives(f)
    ra = prob.bc_a[0] * dfa + prob.bc_a[1] * fa
    rb = prob.bc_b[0] * dfb + prob.bc_b[1] * fb
    return ra, rb


def form_inner_product(prob: SLProblem, f: GridFunction, g: GridFunction, mu: float = 0.0):
    """The form of mu - A: a_mu(f, g) = int (p f' g' + (q + mu rho) f g)
    + p(b) (beta_b / alpha_b) f(b) g(b) - p(a) (beta_a / alpha_a) f(a) g(a).

    A Dirichlet end (alpha = 0) adds no term.  Integration by parts gives
    a_mu(f, f) = <(mu - A) f, f>_rho on D(A); for mu above the spectrum a_mu
    is the inner product of X_{1/2}, the form domain of mu - A.  The boundary
    terms read p, f and g at the grid's end nodes, which are a and b.  Like
    inner_product_rho it pairs every member of f with every member of g.
    """
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("form_inner_product requires a shared grid")
    if f.deriv is None or g.deriv is None:
        raise MissingDerivativeError("form_inner_product needs derivative grids")
    z, w = f.nodes, f.weights
    p = prob.p(z)
    form = (np.inner(f.deriv * (p * w), g.deriv)
            + np.inner(f.values * ((prob.q(z) + mu * prob.rho(z)) * w), g.values))
    ends = zip((-1.0, 1.0), (prob.bc_a, prob.bc_b), (p[0], p[-1]),
               boundary_values(f), boundary_values(g))
    for sign, (alpha, beta), p_end, f_end, g_end in ends:
        if alpha != 0.0:
            form += sign * p_end * (beta / alpha) * np.multiply.outer(f_end, g_end)
    return form


# ---------------------------------------------------------------------------
# Bracketed root finding (bisection over arrays of brackets)


def find_root(fn: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Bisect every bracket [lo, hi] at once; fn maps an array to an array.

    lo and hi broadcast to one array of brackets, each with a sign change.
    Each bracket is halved until its ends are adjacent doubles or one end is
    an exact zero, and returns the end with the smaller |fn|.  A float for
    scalar lo and hi, else an array of their broadcast shape.
    """
    lo, hi = (np.array(v, dtype=np.float64) for v in np.broadcast_arrays(lo, hi))

    def checked(x):
        fx = np.asarray(fn(x), dtype=np.float64)
        bad = ~np.isfinite(fx)
        if bad.any():
            raise BracketError(f"non-finite function value at {x[bad][0]}")
        return fx

    flo, fhi = checked(lo), checked(hi)
    same = np.sign(flo) * np.sign(fhi) > 0
    if same.any():
        raise BracketError(f"no sign change on [{lo[same][0]}, {hi[same][0]}]")
    while True:
        mid = lo + 0.5 * (hi - lo)
        open_ = (mid != lo) & (mid != hi) & (flo != 0.0) & (fhi != 0.0)
        if not open_.any():
            break
        fmid = checked(mid)
        left = open_ & (np.sign(fmid) == np.sign(flo))
        right = open_ & ~left
        lo, flo = np.where(left, mid, lo), np.where(left, fmid, flo)
        hi, fhi = np.where(right, mid, hi), np.where(right, fmid, fhi)
    x = np.where(np.abs(fhi) < np.abs(flo), hi, lo)
    return float(x) if x.ndim == 0 else x

