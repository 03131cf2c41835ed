"""First-N eigenpairs of A = -(Sturm-Liouville operator) by Pruefer shooting.

The second-order problem -(p f')' + q f = L rho f is rewritten in Pruefer
polar variables.  Two parametrizations are used:

plain (any L):      f = r sin(theta),  p f' = r cos(theta)
    theta' = cos^2(theta)/p + (L rho - q) sin^2(theta)
    (log r)' = sin(theta) cos(theta) (1/p + q - L rho)

scaled (L rho - q > 0 on [a, b]):  S f = w sin(theta), p f' = w cos(theta)
with S = sqrt(p (L rho - q)):
    theta' = omega(z) + (S'/S) sin(theta) cos(theta),  omega = sqrt((L rho - q)/p)
    (log w)' = (S'/S) sin^2(theta)

Both are evaluated in double angles (sin theta cos theta = sin(2 theta)/2,
sin^2 theta = (1 - cos 2 theta)/2), which takes fewer array operations.

The scaled form removes the fast oscillation from the right-hand side (for
constant coefficients theta' is exactly omega), which is what makes high
eigenvalue indices affordable.  In both forms theta(b; L) increases through
the boundary-angle targets one pi per index, so every eigenvalue is found by
bracketed iteration on the phase miss with its index guaranteed.  A round
of that search costs one integration whatever its batch width, so rounds,
not lambda values, are what it saves (multi-point search, as in SLEIGN2 and
Pryce 1993, ch. 5): each open bracket evaluates a root estimate and a fan
of points around it, then keeps the tightest sign change among them.  The
estimate interpolates the inverse of the miss through the bracket ends and
the points just outside them (Alefeld, Potra & Shi, ACM TOMS 748, 1995).
The phase ODE is integrated with the adaptive embedded Dormand-Prince 5(4)
pair, stages written out as in the DOPRI5 code of Hairer, Norsett & Wanner
(first stage of a step = last stage of the step before), vectorized across
the batch of eigenvalue candidates.  Eigenfunctions on the grid come from the
DOPRI5 continuous extension (HNW II.6, contd5): the steps run from a to b as
the controller chooses, and the nodes inside each accepted step are filled
from its seven stages at no extra RHS cost.  That interpolant is 4th order,
one below the step, so dense-output integrations run at DENSE_TOL_FACTOR
times rtol and atol, which keeps interpolated nodes as accurate as step
endpoints.  The eigenvalue search never asks for dense output.

The solver works in units-free variables (Pryce 1993, ch. 5): with
ell = b - a, P = p(a) and R = rho(a) it solves for s = (z - a)/ell, p/P,
rho/R, q ell^2/P and L R ell^2/P, with each Robin alpha divided by ell
(_UnitMap).  Every
constant above (the scaled-form margin, the scan window, the stopping rule,
the step sizes) then acts on dimensionless quantities, so a dilated or
reweighted problem costs what its unit problem costs.  Eigenvalues and
eigenfunctions are mapped back once, on exit, as are the numbers in error
messages; on [0, 1] with p(0) = rho(0) = 1 the map is exactly the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul
from typing import List, NamedTuple, Optional

import numpy as np

from .core import (
    DEFAULT_PANELS,
    DEFAULT_POINTS,
    BoundaryData,
    Grid,
    GridFunction,
    GridMismatchError,
    SLProblem,
    make_grid,
)
from .expressions import compile_scalar

__all__ = [
    "SpectralDecomposition",
    "ModalCoefficients",
    "EigenvalueBracketError",
    "TailReport",
    "solve_spectrum",
    "coefficients_of",
    "synthesize",
    "domain_membership",
]

SCHEMA_VERSION = 1

# The root iteration stops once hi - lo <= ROOT_RTOL * max(1, |hi|).
ROOT_RTOL = 1e-13
# Fan points on each side of the root estimate in each search round.
FAN = 4
# |lambda| <= ZERO_EIGENVALUE_TOL reads as lambda = 0: ten stopping
# tolerances, where max(1, |lambda|) = 1.
ZERO_EIGENVALUE_TOL = 10.0 * ROOT_RTOL


class EigenvalueBracketError(RuntimeError):
    """An eigenvalue could not be bracketed, or its bracket did not close.

    The message names the index, the window of L = -lambda searched (in the
    caller's units) and the Pruefer form at its upper end.
    """


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)


# Dense-output (z_out) integrations run at this fraction of rtol and atol.
# At 1 the interpolant is off by 1.65e-11 on a linear closed form that step
# endpoints meet to 3e-12; at 0.1 recovery takes 25% more RHS calls than at 0.3.
DENSE_TOL_FACTOR = 0.3

# d-weights of k1, k3..k7 in the DOPRI5 continuous extension (HNW contd5)
_D1, _D3 = -12715105075 / 11282082432, 87487479700 / 32700410799
_D4, _D5 = -10690763975 / 1880347072, 701980252875 / 199316789632
_D6, _D7 = -1453857185 / 822651844, 69997945 / 29380423


def _dense(theta, y, ynew, h, k1, k3, k4, k5, k6, k7):
    """States at z + theta h (theta of shape (m,)) inside one accepted step."""
    ydiff = ynew - y
    bspl = h * k1 - ydiff
    r4 = ydiff - h * k7 - bspl
    r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
    t = theta[:, None, None]
    t1 = 1.0 - t
    return y + t * (ydiff + t1 * (bspl + t * (r4 + t1 * r5)))


def _integrate(rhs, lams, z0, z1, theta0, rtol, z_out=None, amplitude=False):
    """Integrate a Pruefer system from z0 to z1 for all lams at once.

    The step is shared across the batch and controlled by the worst
    per-component error, so results are deterministic regardless of how a
    batch is split.  Returns the final states (ncomp, n), or with z_out (a
    sorted sequence in [z0, z1]) the states (len(z_out), ncomp, n) there,
    read off the continuous extension of the steps taken towards z1.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    ncomp = 2 if amplitude else 1
    y = np.zeros((ncomp, n))
    y[0] = theta0
    atol = 1e-12

    out = None
    if z_out is not None:
        z_out = np.asarray(z_out, dtype=float)
        outside = np.where((z_out < z0) | (z_out > z1))[0]
        if outside.size:
            raise ValueError(
                f"z_out point {float(z_out[outside[0]])!r} is outside "
                f"[{float(z0)!r}, {float(z1)!r}]"
            )
        drop = np.where(np.diff(z_out) < 0.0)[0]
        if drop.size:
            raise ValueError(
                f"z_out is not sorted: {float(z_out[drop[0] + 1])!r} "
                f"follows {float(z_out[drop[0]])!r}"
            )
        out = np.empty((z_out.size, ncomp, n))
        rtol, atol = DENSE_TOL_FACTOR * rtol, DENSE_TOL_FACTOR * atol
        i_out = 0

    dz = rhs.initial_step(lams, z1 - z0)

    def f(zs, ys):
        return rhs(zs, ys, lams, ncomp)

    z = z0
    k1 = f(z, y)
    while z < z1 - 1e-15 * max(1.0, abs(z1)):
        h = min(dz, z1 - z)
        while True:
            k2 = f(z + 0.2 * h, y + (0.2 * h) * k1)
            k3 = f(z + 0.3 * h, y + (3 / 40 * h) * k1 + (9 / 40 * h) * k2)
            k4 = f(z + 0.8 * h, y + (44 / 45 * h) * k1 - (56 / 15 * h) * k2 + (32 / 9 * h) * k3)
            y5 = (
                y + (19372 / 6561 * h) * k1 - (25360 / 2187 * h) * k2
                + (64448 / 6561 * h) * k3 - (212 / 729 * h) * k4
            )
            k5 = f(z + 8 / 9 * h, y5)
            y6 = (
                y + (9017 / 3168 * h) * k1 - (355 / 33 * h) * k2 + (46732 / 5247 * h) * k3
                + (49 / 176 * h) * k4 - (5103 / 18656 * h) * k5
            )
            k6 = f(z + h, y6)
            # 5th-order solution; its slope k7 is the next step's k1
            ynew = (
                y + (35 / 384 * h) * k1 + (500 / 1113 * h) * k3 + (125 / 192 * h) * k4
                - (2187 / 6784 * h) * k5 + (11 / 84 * h) * k6
            )
            k7 = f(z + h, ynew)
            errv = (
                (71 / 57600 * h) * k1 - (71 / 16695 * h) * k3 + (71 / 1920 * h) * k4
                - (17253 / 339200 * h) * k5 + (22 / 525 * h) * k6 - (1 / 40 * h) * k7
            )
            err = np.abs(errv) / (atol + rtol * np.maximum(np.abs(ynew), np.abs(y)))
            emax = float(err.max()) if err.size else 0.0
            if emax <= 1.0:
                break
            h *= min(0.9, max(0.2, 0.9 * emax ** -0.2))
            if h < 1e-14 * max(1.0, abs(z1)):
                unit = rhs.unit  # report where and for what, in the caller's units
                raise RuntimeError(
                    f"{rhs.form} Pruefer ODE step size underflow at z={float(unit.z(z))!r}, "
                    f"h={h * unit.ell:.3g}, lambda in [{float(unit.lam(lams.min()))!r}, "
                    f"{float(unit.lam(lams.max()))!r}]"
                )
        if out is not None:
            # outputs in [z, z + h): theta = 0 gives y exactly
            i_end = int(np.searchsorted(z_out, z + h, side="left"))
            if i_end > i_out:
                theta = (z_out[i_out:i_end] - z) / h
                out[i_out:i_end] = _dense(theta, y, ynew, h, k1, k3, k4, k5, k6, k7)
                i_out = i_end
        z += h
        y, k1 = ynew, k7
        grow = 0.9 * emax ** -0.2 if emax > 1e-8 else 5.0
        dz = h * min(5.0, max(0.2, grow))
    if out is None:
        return y
    out[i_out:] = y  # z1 itself (and points within rounding of it)
    return out


class _UnitMap:
    """The affine map of a problem into units-free variables, built once per solve.

    s = (z - a)/ell, p^ = p/P, rho^ = rho/R, q^ = q ell^2/P, L^ = L R ell^2/P
    and Robin alpha^ = alpha/ell (alpha f' + beta f = 0 and f' = f_s/ell),
    with ell = b - a, P = p(a) and R = rho(a).  On [0, 1] with
    p(0) = rho(0) = 1 every factor is 1.0, so the map is exactly the identity.
    """

    def __init__(self, prob: SLProblem):
        a, ell = prob.interval.a, prob.interval.length
        P, R = prob.p(a), prob.rho(a)
        self.a, self.ell = a, ell
        self.lam_scale = P / (R * ell * ell)
        # from p, q, rho, p', q', rho' at z to p^, q^, rho^ and their s-derivatives
        self.factors = (1.0 / P, ell * ell / P, 1.0 / R, ell / P, ell * ell * ell / P, ell / R)
        self.exprs = (prob.p, prob.q, prob.rho, prob.dp, prob.dq, prob.drho)
        self.bc_a = (prob.bc_a[0] / ell, prob.bc_a[1])
        self.bc_b = (prob.bc_b[0] / ell, prob.bc_b[1])
        self.identity = (a, ell, P, R) == (0.0, 1.0, 1.0, 1.0)

    def z(self, s):
        return self.a + self.ell * s

    def lam(self, lam_hat):
        """L in the caller's units from L^ (and lambda from lambda^)."""
        return self.lam_scale * lam_hat

    def coeffs(self, s: np.ndarray):
        """p^, q^, rho^ and dp^/ds on an array of s."""
        z = self.z(s)
        return tuple(k * e(z) for k, e in zip(self.factors, self.exprs[:4]))

    def scalar(self, n: int):
        """One call s -> the first n of p^, q^, rho^, p^', q^', rho^' at a scalar s."""
        fn = compile_scalar(*self.exprs[:n])
        if self.identity:  # every factor is 1.0: skip the wrapper's cost per RHS call
            return fn
        a, ell, k = self.a, self.ell, self.factors[:n]
        return lambda s: tuple(map(mul, k, fn(a + ell * s)))

    def eigenfunction(self, grid: Grid, values, ds, dss, fa, fb, dfa, dfb) -> GridFunction:
        """The GridFunction of z on grid from values and d/ds, d2/ds2 at its nodes."""
        ell = self.ell
        return GridFunction(
            grid, values, ds / ell, dss / (ell * ell), BoundaryData(fa, fb, dfa / ell, dfb / ell)
        )


class _PlainRHS:
    form = "plain"

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(3)

    def initial_step(self, lams, span):
        freq = math.sqrt(max(float(np.max(np.abs(lams))), 1.0))
        return max(min(0.1 / freq, abs(span) * 0.25), 1e-12)

    def __call__(self, z, y, lams, ncomp):
        pz, qz, rz = self.coeffs(z)
        # cos^2/p + u sin^2 = (1/p + u)/2 + (1/p - u)/2 cos 2theta, u = L rho - q
        hp, hu = 0.5 / pz, lams * (0.5 * rz) - 0.5 * qz
        th2 = 2.0 * y[0]
        dtheta = (hp + hu) + (hp - hu) * np.cos(th2)
        if ncomp == 1:
            return dtheta
        out = np.empty_like(y)
        out[0], out[1] = dtheta, (hp - hu) * np.sin(th2)
        return out


class _ScaledRHS:
    """Valid only where L rho - q > 0 for every batch member."""

    form = "scaled"

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(6)

    def initial_step(self, lams, span):
        return max(min(0.01, abs(span) * 0.25), 1e-12)

    def __call__(self, z, y, lams, ncomp):
        pz, qz, rz, dpz, dqz, drz = self.coeffs(z)
        u = lams * rz - qz  # > 0 by mode selection
        omega = np.sqrt(u / pz)
        # g = S'/S / 2 = p'/(4p) + (L rho' - q')/(4u): theta' = omega + g sin 2theta
        g = (lams * (0.25 * drz) - 0.25 * dqz) / u + 0.25 * dpz / pz
        th2 = 2.0 * y[0]
        dtheta = omega + g * np.sin(th2)
        if ncomp == 1:
            return dtheta
        out = np.empty_like(y)
        out[0], out[1] = dtheta, g - g * np.cos(th2)
        return out


# ---------------------------------------------------------------------------
# Decomposition data


@dataclass(frozen=True)
class SpectralDecomposition:
    """Truncated spectrum of A = -(SL operator): lambda_1 > ... > lambda_N."""

    problem: SLProblem
    eigenvalues: np.ndarray
    eigenfunctions: List[GridFunction]
    grid: Grid

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) >= 0):
            raise ValueError("eigenvalues must be strictly decreasing")

    @property
    def N(self) -> int:
        return self.eigenvalues.size

    @property
    def gamma(self) -> float:
        return float(self.eigenvalues[0])

    def values_matrix(self) -> np.ndarray:
        return np.vstack([f.values for f in self.eigenfunctions])

    def truncate(self, n: int) -> "SpectralDecomposition":
        if not 1 <= n <= self.N:
            raise ValueError("bad truncation order")
        return SpectralDecomposition(
            self.problem, self.eigenvalues[:n], self.eigenfunctions[:n], self.grid
        )

    def to_dict(self) -> dict:
        prob = self.problem
        return {
            "schema_version": SCHEMA_VERSION,
            "problem": {
                "interval": [prob.interval.a, prob.interval.b],
                "p": prob.p.source,
                "q": prob.q.source,
                "rho": prob.rho.source,
                "bc_a": list(prob.bc_a),
                "bc_b": list(prob.bc_b),
            },
            "grid": {
                "panels": self.grid.panels,
                "points": self.grid.points,
                "nodes": self.grid.nodes.tolist(),
            },
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenfunctions": [f.values.tolist() for f in self.eigenfunctions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class ModalCoefficients:
    """Truncated expansion coefficients c_n = <f, phi_n>_rho."""

    coefficients: np.ndarray
    decomposition: SpectralDecomposition

    @property
    def N(self) -> int:
        return self.coefficients.size

    def scaled(self, factors) -> "ModalCoefficients":
        return ModalCoefficients(self.coefficients * factors, self.decomposition)


# ---------------------------------------------------------------------------
# Shooting driver


class _Shooter:
    """Phase misses and eigenfunctions of a problem, computed in its unit variables.

    Every lambda passed in or returned is lambda^ (see _UnitMap).
    """

    def __init__(self, prob: SLProblem, grid: Grid, rtol: float):
        self.prob = prob
        self.grid = grid
        self.rtol = rtol
        self.unit = unit = _UnitMap(prob)
        self.lam_scale = unit.lam_scale
        self.plain = _PlainRHS(unit)
        self.scaled = _ScaledRHS(unit)
        # s at the grid nodes, with the end s = 1 appended for recovery
        self.s_out = np.append((grid.nodes - unit.a) / unit.ell, 1.0)
        self.weights = grid.weights / unit.ell
        # p^, q^, rho^, p^' at s = 0, the nodes and s = 1; the ends exactly as the RHS sees them
        self.p_s, self.q_s, self.rho_s, self.dp_s = (
            np.concatenate([[ca], v, [cb]])
            for ca, v, cb in zip(
                self.scaled.coeffs(0.0), unit.coeffs(self.s_out[:-1]), self.scaled.coeffs(1.0)
            )
        )

    def is_scaled(self, lams: np.ndarray) -> np.ndarray:
        margin = 1.0
        # a lower bound on min(lambda rho - q) over the nodes settles most lambdas
        low = np.minimum(lams * self.rho_s.min(), lams * self.rho_s.max()) - self.q_s.max()
        out = low >= margin
        rest = np.flatnonzero(~out)
        out[rest] = np.min(lams[rest, None] * self.rho_s - self.q_s, axis=1) >= margin
        return out

    def _s_at(self, lams, z_end: str):
        end = 0 if z_end == "a" else -1
        return np.sqrt(self.p_s[end] * (lams * self.rho_s[end] - self.q_s[end]))

    def theta(self, lams: np.ndarray, use_scaled: bool, z_end: str) -> np.ndarray:
        """Boundary angle per lambda: in [0, pi) at z_end "a", in (0, pi] at "b"."""
        end = 0 if z_end == "a" else -1
        alpha, beta = self.unit.bc_a if z_end == "a" else self.unit.bc_b
        s_fac = self._s_at(lams, z_end) if use_scaled else np.ones_like(lams)
        th = np.arctan2(-alpha * s_fac, self.p_s[end] * beta)
        if z_end == "a":  # th is in [-pi, pi]
            return np.where(th < 0.0, th + math.pi, np.where(th >= math.pi, th - math.pi, th))
        th = np.where(th <= 0.0, th + math.pi, th)
        return np.where(th <= 0.0, th + math.pi, th)  # -pi takes two turns

    def _shoot(self, lams: np.ndarray, **kwargs):
        """(indices, use_scaled, theta at a, _integrate states) per Pruefer form in lams."""
        mask = self.is_scaled(lams)
        for use_scaled in (False, True):
            sel = np.flatnonzero(mask == use_scaled)
            if sel.size:
                rhs = self.scaled if use_scaled else self.plain
                th0 = self.theta(lams[sel], use_scaled, "a")
                states = _integrate(rhs, lams[sel], 0.0, 1.0, th0, self.rtol, **kwargs)
                yield sel, use_scaled, th0, states

    def miss(self, lams: np.ndarray, kidx: np.ndarray) -> np.ndarray:
        """theta(b; L) - (theta(L at b) + k pi) for each (L, k) pair."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty_like(lams)
        for sel, use_scaled, _, states in self._shoot(lams):
            out[sel] = states[0] - self.theta(lams[sel], use_scaled, "b") - math.pi * kidx[sel]
        return out

    def recover(self, lams: np.ndarray) -> List[GridFunction]:
        """Eigenfunctions on the caller's grid (with derivative grids and exact
        boundary data), rho-normalized there."""
        p_g, q_g, rho_g, dp_g = (v[1:-1] for v in (self.p_s, self.q_s, self.rho_s, self.dp_s))
        p_a, p_b = self.p_s[0], self.p_s[-1]
        wrho = self.prob.rho(self.grid.nodes) * self.grid.weights
        funcs: List[Optional[GridFunction]] = [None] * lams.size
        for sel, use_scaled, th0, states in self._shoot(lams, z_out=self.s_out, amplitude=True):
            for j, i in enumerate(sel):
                lam = lams[i]
                theta = states[:-1, 0, j]
                amp = np.exp(states[:-1, 1, j])
                th_b, amp_b = states[-1, 0, j], math.exp(states[-1, 1, j])
                if use_scaled:
                    s_nodes = np.sqrt(p_g * (lam * rho_g - q_g))
                    values = amp * np.sin(theta) / s_nodes
                    sa, sb = self._s_at(lam, "a"), self._s_at(lam, "b")
                    fa = math.sin(th0[j]) / sa
                    fb = amp_b * math.sin(th_b) / sb
                else:
                    values = amp * np.sin(theta)
                    fa = math.sin(th0[j])
                    fb = amp_b * math.sin(th_b)
                deriv = amp * np.cos(theta) / p_g
                dfa = math.cos(th0[j]) / p_a
                dfb = amp_b * math.cos(th_b) / p_b
                deriv2 = ((q_g - lam * rho_g) * values - dp_g * deriv) / p_g
                f = self.unit.eigenfunction(self.grid, values, deriv, deriv2, fa, fb, dfa, dfb)
                nrm = math.sqrt(float(np.dot(f.values * f.values, wrho)))
                sign = -1.0 if (fa <= 1e-10 * nrm and dfa < 0.0) else 1.0
                funcs[i] = f.scaled(sign / nrm)
        return funcs  # type: ignore[return-value]


def _bracket_error(sh, k, what: str, lo: float, hi: float) -> EigenvalueBracketError:
    """Names index k + 1, the window [lo, hi] of L^ in the caller's units, and
    the Pruefer form at hi."""
    form = "scaled" if sh.is_scaled(np.array([float(hi)]))[0] else "plain"
    lo, hi = float(sh.lam_scale * lo), float(sh.lam_scale * hi)
    return EigenvalueBracketError(
        f"eigenvalue {int(k) + 1} {what}: L in [{lo!r}, {hi!r}], {form} Pruefer form at hi"
    )


def _neville_at_zero(xs, fs):
    """x at f = 0 of the polynomials x(f) through the first 2, 3, ... of the
    points (xs[i], fs[i]) (arrays of one shape): secant, inverse quadratic, ..."""
    p, out = list(xs), []
    for k in range(1, len(xs)):
        p = [(fs[i + k] * p[i] - fs[i] * p[i + 1]) / (fs[i + k] - fs[i]) for i in range(len(p) - 1)]
        out.append(p[0])
    return out


def _search(sh, lo, hi, flo, fhi, kidx):
    """Shrink brackets flo < 0 <= fhi on roots of sh.miss(L, k) to the stopping rule.

    A round makes one miss() call: each open bracket's estimate x and fan
    x +- u 4^-j (j < FAN, offsets >= tol/2), u kept in [tol, width/2].  The
    estimate is the inverse cubic (Alefeld, Potra & Shi 1995) through the
    bracket ends and the points evaluated just outside them in the last
    round, with u four times its distance to the inverse quadratic through
    the ends and the nearer of those points.  Without both points, or when
    the cubic is not finite or not inside the bracket, x is the clipped
    secant and u four times the last move of x (width/4 at first).  Each
    bracket keeps the tightest adjacent sign change among its endpoints and
    the new points.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    x_prev = np.full(lo.size, np.nan)
    # the points evaluated just below and above each bracket in the last round
    xl, fl, xr, fr = np.full((4, lo.size), np.nan)
    for rounds in range(201):
        tol = ROOT_RTOL * np.maximum(1.0, np.abs(hi))
        idx = np.flatnonzero(hi - lo > tol)
        if idx.size == 0:
            return lo, hi, flo, fhi
        if rounds == 200:
            i = idx[0]
            raise _bracket_error(sh, kidx[i], "not converged in 200 rounds", lo[i], hi[i])
        a, b, fa, fb, t = lo[idx], hi[idx], flo[idx], fhi[idx], tol[idx]
        w = b - a
        # the outside point with the smaller |miss| goes third, so quad is the better quadratic
        near_left = np.abs(fl[idx]) <= np.abs(fr[idx])
        n1x, n2x = np.where(near_left, xl[idx], xr[idx]), np.where(near_left, xr[idx], xl[idx])
        n1f, n2f = np.where(near_left, fl[idx], fr[idx]), np.where(near_left, fr[idx], fl[idx])
        with np.errstate(divide="ignore", invalid="ignore"):  # equal misses give inf or nan
            secant, quad, cubic = _neville_at_zero((a, b, n1x, n2x), (fa, fb, n1f, n2f))
            u_cubic = 4.0 * np.abs(cubic - quad)
        x = np.clip(secant, a + 1e-3 * w, b - 1e-3 * w)
        u = np.where(np.isnan(x_prev[idx]), 0.25 * w, 4.0 * np.abs(x - x_prev[idx]))
        ok = (cubic > a) & (cubic < b) & np.isfinite(u_cubic)  # false where a neighbour is nan
        x, u = np.where(ok, cubic, x), np.where(ok, u_cubic, u)
        u = np.minimum(np.maximum(u, t), 0.5 * w)
        x_prev[idx] = x
        off = u[:, None] * 0.25 ** np.arange(FAN)
        off[off < 0.5 * t[:, None]] = np.nan
        X = np.column_stack([a, x[:, None] - off, x, x[:, None] + off[:, ::-1], b])  # ascending
        row, col = np.nonzero((X > a[:, None]) & (X < b[:, None]))
        F = np.full(X.shape, np.nan)
        F[:, 0], F[:, -1] = fa, fb
        F[row, col] = sh.miss(X[row, col], kidx[idx[row]])
        # a point not evaluated, or with a non-finite miss, repeats the one before it
        keep = np.maximum.accumulate(np.where(np.isfinite(F), np.arange(X.shape[1]), 0), axis=1)
        X, F = np.take_along_axis(X, keep, 1), np.take_along_axis(F, keep, 1)
        gap = np.where((F[:, :-1] < 0.0) & (F[:, 1:] >= 0.0), np.diff(X, axis=1), np.inf)
        r, j = np.arange(idx.size), np.argmin(gap, axis=1)
        lo[idx], flo[idx], hi[idx], fhi[idx] = X[r, j], F[r, j], X[r, j + 1], F[r, j + 1]
        # the last point below the new lo and the first above the new hi, as
        # columns of X padded with nan on both sides
        below = np.sum(X < X[r, j, None], axis=1)
        above = np.sum(X <= X[r, j + 1, None], axis=1) + 1
        X, F = (np.pad(v, ((0, 0), (1, 1)), constant_values=np.nan) for v in (X, F))
        xl[idx], fl[idx], xr[idx], fr[idx] = X[r, below], F[r, below], X[r, above], F[r, above]


def solve_spectrum(
    prob: SLProblem,
    N: int = 64,
    panels: Optional[int] = None,
    points: int = DEFAULT_POINTS,
    ode_rtol: float = 1e-12,
    max_bracket_expansions: int = 60,
) -> SpectralDecomposition:
    """Compute the first N eigenpairs of A = -(SL operator).

    Eigenvalues of the positive form -(pf')' + qf = L rho f are located by
    phase-count bracketing plus a multi-point bracketed search over all
    indices at once (see _search), then returned as lambda_n = -L_n.
    Eigenfunctions come from the amplitude equation, rho-normalized, with
    phi_n(a) > 0 (or phi_n'(a) > 0 for a Dirichlet left end).  Either edge of
    the bracketing scan is pushed out at most max_bracket_expansions times
    before EigenvalueBracketError is raised.  The default grid has
    max(DEFAULT_PANELS, N) panels, about one per mode, so high modes stay
    resolved.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = make_grid(prob.interval, max(DEFAULT_PANELS, N) if panels is None else panels, points)
    sh = _Shooter(prob, grid, ode_rtol)  # from here on, everything is in unit variables
    kvec = np.arange(N, dtype=float)

    # Weyl-style guesses: phase gain ~ sqrt(L) J with J = integral sqrt(rho/p)
    p_g, q_g, rho_g = sh.p_s[1:-1], sh.q_s[1:-1], sh.rho_s[1:-1]
    J = float(np.dot(np.sqrt(rho_g / p_g), sh.weights))
    q_shift = float(np.median(q_g / rho_g))
    guesses = ((kvec + 1.0) * math.pi / J) ** 2 + q_shift

    # lower edge of the scan window: push down until miss for index 0 < 0
    lo0 = top = float(np.min(q_g / rho_g)) - 1.0
    step = max(10.0, abs(lo0))
    f0 = sh.miss(np.array([lo0]), np.zeros(1))[0]
    for _ in range(max_bracket_expansions):
        if f0 < 0.0:
            break
        lo0 -= step
        step *= 2.0
        f0 = sh.miss(np.array([lo0]), np.zeros(1))[0]
    if not f0 < 0.0:
        raise _bracket_error(sh, 0, "not bracketed below", lo0, top)

    # one vectorized ladder sweep brackets every index; the guesses lie above
    # lo0, whose miss the scan has already computed
    ladder = np.unique(np.concatenate([guesses, [guesses[-1] * 1.3 + 10.0]]))
    phases = np.concatenate([[f0], sh.miss(ladder, np.zeros(ladder.size))])  # miss for k=0
    ladder = np.concatenate([[lo0], ladder])
    for _ in range(max_bracket_expansions):
        if phases[-1] - math.pi * kvec[-1] > 0.0:
            break
        ladder = np.append(ladder, max(ladder[-1] * 2.0, 0.0) + 10.0)
        phases = np.append(phases, sh.miss(ladder[-1:], np.zeros(1)))
    if not phases[-1] - math.pi * kvec[-1] > 0.0:
        raise _bracket_error(sh, N - 1, "not bracketed", lo0, ladder[-1])

    # phases[0] < 0 < phases[-1] - pi (N - 1), so every index has a sign change
    lo, hi = np.empty(N), np.empty(N)
    flo, fhi = np.empty(N), np.empty(N)
    for k in range(N):
        rel = phases - math.pi * k
        i_lo, i_hi = np.flatnonzero(rel < 0.0)[-1], np.flatnonzero(rel >= 0.0)[0]
        lo[k], hi[k] = ladder[i_lo], ladder[i_hi]
        flo[k], fhi[k] = rel[i_lo], rel[i_hi]

    lo, hi, flo, fhi = _search(sh, lo, hi, flo, fhi, kvec)
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)

    eigenfunctions = sh.recover(root)
    return SpectralDecomposition(prob, -sh.unit.lam(root), eigenfunctions, grid)


# ---------------------------------------------------------------------------
# Modal analysis / synthesis


def coefficients_of(f: GridFunction, dec: SpectralDecomposition) -> ModalCoefficients:
    """c_n = <f, phi_n>_rho for every computed mode."""
    if not f.grid.same_as(dec.grid):
        raise GridMismatchError("function is not on the decomposition grid")
    wrho = dec.grid.weights * dec.problem.rho(dec.grid.nodes)
    coeffs = dec.values_matrix() @ (wrho * f.values)
    return ModalCoefficients(coeffs, dec)


def synthesize(c: ModalCoefficients) -> GridFunction:
    """Sum c_n phi_n on the decomposition grid (with derivative grids)."""
    dec = c.decomposition
    co = c.coefficients
    values = co @ dec.values_matrix()
    deriv = deriv2 = None
    if all(f.deriv is not None for f in dec.eigenfunctions):
        deriv = co @ np.vstack([f.deriv for f in dec.eigenfunctions])
    if all(f.deriv2 is not None for f in dec.eigenfunctions):
        deriv2 = co @ np.vstack([f.deriv2 for f in dec.eigenfunctions])
    bd = None
    if all(f.boundary is not None for f in dec.eigenfunctions):
        bds = [f.boundary for f in dec.eigenfunctions]
        bd = BoundaryData(
            float(np.dot(co, [b_.value_a for b_ in bds])),
            float(np.dot(co, [b_.value_b for b_ in bds])),
            float(np.dot(co, [b_.deriv_a for b_ in bds])),
            float(np.dot(co, [b_.deriv_b for b_ in bds])),
        )
    return GridFunction(dec.grid, values, deriv, deriv2, bd)


class TailReport(NamedTuple):
    value: float
    tail_exponent: float
    verdict: str  # "in" | "borderline" | "out"


def _tail_verdict(summands: np.ndarray, total: float) -> TailReport:
    """Fit |summand_n| ~ n^e over the last half of the modes.

    The infinite-sum membership criteria can only be approximated from a
    truncation; the fitted exponent with a half-unit band around the
    convergence threshold -1 is the documented heuristic.
    """
    n = summands.size
    tail = summands[n // 2 :]
    idx = np.arange(n // 2, n) + 1.0
    if np.all(np.abs(tail) <= 1e-300) or np.sum(np.abs(tail)) <= 1e-13 * max(
        abs(total), 1e-300
    ):
        return TailReport(total, -math.inf, "in")
    mask = np.abs(tail) > 0
    if np.count_nonzero(mask) < 2:
        return TailReport(total, -math.inf, "in")
    slope = np.polyfit(np.log(idx[mask]), np.log(np.abs(tail[mask])), 1)[0]
    if slope <= -1.5:
        verdict = "in"
    elif slope >= -0.5:
        verdict = "out"
    else:
        verdict = "borderline"
    return TailReport(total, float(slope), verdict)


def domain_membership(c: ModalCoefficients) -> TailReport:
    """Finite truncation of the D(A) criterion sum lambda_n^2 c_n^2."""
    lam = c.decomposition.eigenvalues
    summands = lam ** 2 * c.coefficients ** 2
    return _tail_verdict(summands, float(np.sum(summands)))
