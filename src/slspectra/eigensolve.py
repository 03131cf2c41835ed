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

The scaled form removes the fast oscillation from the right-hand side (for
constant coefficients theta' is exactly omega), which is what makes high
eigenvalue indices affordable.  In both forms theta(b; L) increases through
the boundary-angle targets one pi per index, so every eigenvalue is found by
bracketed iteration on the phase miss with its index guaranteed.  That
iteration is Illinois regula falsi (Dowell & Jarratt 1971): the kept
endpoint's miss is halved only when the same endpoint has been kept twice in
a row, and an index whose bracket has not halved over its last two
iterations takes a bisection step instead.  The phase ODE is integrated with
the adaptive embedded Dormand-Prince 5(4) pair, stages written out as in
the DOPRI5 code of Hairer, Norsett & Wanner (first stage of a step = last
stage of the step before), vectorized across the batch of eigenvalue
candidates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    inner_product_rho,
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
# |lambda| <= ZERO_EIGENVALUE_TOL reads as lambda = 0: ten stopping
# tolerances, where max(1, |lambda|) = 1.
ZERO_EIGENVALUE_TOL = 10.0 * ROOT_RTOL


class EigenvalueBracketError(RuntimeError):
    """An eigenvalue could not be bracketed inside the scan window."""


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)


def _integrate(rhs, lams, z0, z1, theta0, rtol, z_out=None, amplitude=False):
    """Integrate a Pruefer system from z0 for all lams at once.

    The step is shared across the batch and controlled by the worst
    per-component error, so results are deterministic regardless of how a
    batch is split.  Returns final states (ncomp, n), or (len(z_out), ncomp, n).
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    ncomp = 2 if amplitude else 1
    y = np.zeros((ncomp, n))
    y[0] = theta0
    atol = 1e-12

    dz = rhs.initial_step(lams, z1 - z0)
    targets = [z1] if z_out is None else list(z_out)
    out = np.empty((len(targets), ncomp, n)) if z_out is not None else None

    def f(zs, ys):
        return rhs(zs, ys, lams, ncomp)

    z = z0
    k1 = f(z, y)
    for i_t, zt in enumerate(targets):
        while z < zt - 1e-15 * max(1.0, abs(zt)):
            h = min(dz, zt - z)
            while True:
                k2 = f(z + 0.2 * h, y + h * (0.2 * k1))
                k3 = f(z + 0.3 * h, y + h * (3 / 40 * k1 + 9 / 40 * k2))
                k4 = f(z + 0.8 * h, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
                y5 = y + h * (
                    19372 / 6561 * k1 - 25360 / 2187 * k2
                    + 64448 / 6561 * k3 - 212 / 729 * k4
                )
                k5 = f(z + 8 / 9 * h, y5)
                y6 = y + h * (
                    9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                    + 49 / 176 * k4 - 5103 / 18656 * k5
                )
                k6 = f(z + h, y6)
                # 5th-order solution; its slope k7 is the next step's k1
                ynew = y + h * (
                    35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                    - 2187 / 6784 * k5 + 11 / 84 * k6
                )
                k7 = f(z + h, ynew)
                errv = h * (
                    71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                    - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7
                )
                err = np.abs(errv) / (atol + rtol * np.maximum(np.abs(ynew), np.abs(y)))
                emax = float(np.max(err)) if err.size else 0.0
                if emax <= 1.0:
                    z += h
                    y, k1 = ynew, k7
                    grow = 0.9 * emax ** -0.2 if emax > 1e-8 else 5.0
                    dz = h * min(5.0, max(0.2, grow))
                    break
                h *= min(0.9, max(0.2, 0.9 * emax ** -0.2))
                if h < 1e-14 * max(1.0, abs(zt)):
                    raise RuntimeError("phase ODE step size underflow")
        if out is not None:
            out[i_t] = y
    return y if out is None else out


class _PlainRHS:
    def __init__(self, prob: SLProblem):
        self.coeffs = compile_scalar(prob.p, prob.q, prob.rho)

    def initial_step(self, lams, span):
        freq = math.sqrt(max(float(np.max(np.abs(lams))), 1.0))
        return max(min(0.1 / freq, abs(span) * 0.25), 1e-12)

    def __call__(self, z, y, lams, ncomp):
        pz, qz, rz = self.coeffs(z)
        th = y[0]
        s, c = np.sin(th), np.cos(th)
        out = np.empty_like(y)
        out[0] = c * c / pz + (lams * rz - qz) * s * s
        if ncomp > 1:
            out[1] = s * c * (1.0 / pz + qz - lams * rz)
        return out


class _ScaledRHS:
    """Valid only where L rho - q > 0 for every batch member."""

    def __init__(self, prob: SLProblem):
        self.coeffs = compile_scalar(
            prob.p, prob.q, prob.rho, prob.dp, prob.q.derivative(), prob.rho.derivative()
        )

    def initial_step(self, lams, span):
        return max(min(0.01, abs(span) * 0.25), 1e-12)

    def __call__(self, z, y, lams, ncomp):
        pz, qz, rz, dpz, dqz, drz = self.coeffs(z)
        u = lams * rz - qz  # > 0 by mode selection
        du = lams * drz - dqz
        omega = np.sqrt(u / pz)
        g = 0.5 * (dpz * u + pz * du) / (pz * u)  # S'/S
        th = y[0]
        s, c = np.sin(th), np.cos(th)
        out = np.empty_like(y)
        out[0] = omega + g * s * c
        if ncomp > 1:
            out[1] = g * s * s
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
    def __init__(self, prob: SLProblem, grid: Grid, rtol: float):
        self.prob = prob
        self.grid = grid
        self.rtol = rtol
        self.plain = _PlainRHS(prob)
        self.scaled = _ScaledRHS(prob)
        self.a, self.b = prob.interval.a, prob.interval.b
        zs = np.concatenate([[self.a], grid.nodes, [self.b]])
        self.rho_s = prob.rho(zs)
        self.q_s = prob.q(zs)
        self.p_a, self.p_b = prob.p(self.a), prob.p(self.b)
        self.rho_a, self.rho_b = prob.rho(self.a), prob.rho(self.b)
        self.q_a, self.q_b = prob.q(self.a), prob.q(self.b)

    def is_scaled(self, lams: np.ndarray) -> np.ndarray:
        margin = 1.0
        m = np.min(lams[:, None] * self.rho_s[None, :] - self.q_s[None, :], axis=1)
        return m >= margin

    def _s_at(self, lam, z_end: str) -> float:
        if z_end == "a":
            return math.sqrt(self.p_a * (lam * self.rho_a - self.q_a))
        return math.sqrt(self.p_b * (lam * self.rho_b - self.q_b))

    def theta_a(self, lam: float, use_scaled: bool) -> float:
        alpha, beta = self.prob.bc_a
        s_fac = self._s_at(lam, "a") if use_scaled else 1.0
        th = math.atan2(-alpha * s_fac, self.p_a * beta)
        while th < 0.0:
            th += math.pi
        while th >= math.pi:
            th -= math.pi
        return th

    def theta_b(self, lam: float, use_scaled: bool) -> float:
        alpha, beta = self.prob.bc_b
        s_fac = self._s_at(lam, "b") if use_scaled else 1.0
        th = math.atan2(-alpha * s_fac, self.p_b * beta)
        while th <= 0.0:
            th += math.pi
        while th > math.pi:
            th -= math.pi
        return th

    def miss(self, lams: np.ndarray, kidx: np.ndarray) -> np.ndarray:
        """theta(b; L) - (theta_b(L) + k pi) for each (L, k) pair."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty_like(lams)
        mask = self.is_scaled(lams)
        for use_scaled in (False, True):
            sel = np.where(mask == use_scaled)[0]
            if sel.size == 0:
                continue
            rhs = self.scaled if use_scaled else self.plain
            th0 = np.array([self.theta_a(l, use_scaled) for l in lams[sel]])
            th_end = _integrate(rhs, lams[sel], self.a, self.b, th0, self.rtol)[0]
            th_t = np.array([self.theta_b(l, use_scaled) for l in lams[sel]])
            out[sel] = th_end - th_t - math.pi * kidx[sel]
        return out

    def recover(self, lams: np.ndarray) -> List[GridFunction]:
        """Eigenfunctions (with derivative grids and exact boundary data)."""
        prob, grid = self.prob, self.grid
        zg = grid.nodes
        p_g, q_g, rho_g, dp_g = prob.p(zg), prob.q(zg), prob.rho(zg), prob.dp(zg)
        mask = self.is_scaled(lams)
        funcs: List[Optional[GridFunction]] = [None] * lams.size
        for use_scaled in (False, True):
            sel = np.where(mask == use_scaled)[0]
            if sel.size == 0:
                continue
            rhs = self.scaled if use_scaled else self.plain
            sub = lams[sel]
            th0 = np.array([self.theta_a(l, use_scaled) for l in sub])
            states = _integrate(
                rhs, sub, self.a, self.b, th0, self.rtol,
                z_out=np.append(zg, self.b), amplitude=True,
            )
            for j, i in enumerate(sel):
                lam = sub[j]
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
                dfa = math.cos(th0[j]) / self.p_a
                dfb = amp_b * math.cos(th_b) / self.p_b
                deriv2 = ((q_g - lam * rho_g) * values - dp_g * deriv) / p_g
                f = GridFunction(
                    grid, values, deriv, deriv2, BoundaryData(fa, fb, dfa, dfb)
                )
                nrm = math.sqrt(inner_product_rho(f, f, prob.rho))
                sign = -1.0 if (fa <= 1e-10 * nrm and dfa < 0.0) else 1.0
                funcs[i] = f.scaled(sign / nrm)
        return funcs  # type: ignore[return-value]


def solve_spectrum(
    prob: SLProblem,
    N: int = 64,
    panels: int = DEFAULT_PANELS,
    points: int = DEFAULT_POINTS,
    ode_rtol: float = 1e-12,
    max_bracket_expansions: int = 60,
) -> SpectralDecomposition:
    """Compute the first N eigenpairs of A = -(SL operator).

    Eigenvalues of the positive form -(pf')' + qf = L rho f are located by
    phase-count bracketing plus bracketed (Illinois) iteration per index,
    then returned as lambda_n = -L_n.  Eigenfunctions come from the
    amplitude equation, rho-normalized, with phi_n(a) > 0 (or phi_n'(a) > 0
    for a Dirichlet left end).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = make_grid(prob.interval, panels, points)
    sh = _Shooter(prob, grid, ode_rtol)
    kvec = np.arange(N, dtype=float)

    # Weyl-style guesses: phase gain ~ sqrt(L) J with J = integral sqrt(rho/p)
    zg = grid.nodes
    rho_g, p_g, q_g = prob.rho(zg), prob.p(zg), prob.q(zg)
    J = float(np.dot(np.sqrt(rho_g / p_g), grid.weights))
    q_shift = float(np.median(q_g / rho_g))
    guesses = ((kvec + 1.0) * math.pi / J) ** 2 + q_shift

    # lower edge of the scan window: push down until miss for index 0 < 0
    lo0 = float(np.min(q_g / rho_g)) - 1.0
    step = max(10.0, abs(lo0))
    for _ in range(max_bracket_expansions):
        if sh.miss(np.array([lo0]), np.zeros(1))[0] < 0.0:
            break
        lo0 -= step
        step *= 2.0
    else:
        raise EigenvalueBracketError(f"no lower bracket below L={lo0}")

    # one vectorized ladder sweep brackets every index
    ladder = np.unique(np.concatenate([[lo0], guesses, [guesses[-1] * 1.3 + 10.0]]))
    phases = sh.miss(ladder, np.zeros(ladder.size))  # miss relative to k=0
    hi_edge = float(ladder[-1])
    for _ in range(max_bracket_expansions):
        if phases[-1] - math.pi * kvec[-1] > 0.0:
            break
        hi_edge = hi_edge * 2.0 + 10.0
        ladder = np.append(ladder, hi_edge)
        phases = np.append(phases, sh.miss(np.array([hi_edge]), np.zeros(1))[0])
    else:
        raise EigenvalueBracketError(
            f"eigenvalue {N} not inside scan window [{lo0}, {hi_edge}]"
        )

    lo, hi = np.empty(N), np.empty(N)
    flo, fhi = np.empty(N), np.empty(N)
    for k in range(N):
        rel = phases - math.pi * k
        below = np.where(rel < 0.0)[0]
        above = np.where(rel >= 0.0)[0]
        if below.size == 0 or above.size == 0:
            raise EigenvalueBracketError(
                f"eigenvalue {k + 1} not bracketed in [{lo0}, {hi_edge}]"
            )
        i_lo, i_hi = below[-1], above[0]
        lo[k], hi[k] = ladder[i_lo], ladder[i_hi]
        flo[k], fhi[k] = rel[i_lo], rel[i_hi]

    # Illinois iteration, vectorized over the unconverged indices
    active = np.ones(N, dtype=bool)
    last = np.zeros(N)  # endpoint the last iteration replaced: -1 lo, +1 hi
    width1 = np.full(N, np.inf)  # bracket widths one and two iterations ago
    width2 = np.full(N, np.inf)
    for _ in range(200):
        active &= (hi - lo) > ROOT_RTOL * np.maximum(1.0, np.abs(hi))
        if not active.any():
            break
        idx = np.where(active)[0]
        x = (lo[idx] * fhi[idx] - hi[idx] * flo[idx]) / (fhi[idx] - flo[idx])
        w = hi[idx] - lo[idx]
        x = np.clip(x, lo[idx] + 1e-3 * w, hi[idx] - 1e-3 * w)
        # bisect where the bracket did not halve over the last two iterations
        stalled = w > 0.5 * width2[idx]
        x[stalled] = 0.5 * (lo[idx] + hi[idx])[stalled]
        width2[idx], width1[idx] = width1[idx], w
        fx = sh.miss(x, kvec[idx])
        neg = fx < 0.0
        # the same endpoint replaced twice in a row: halve the kept one's miss
        fhi[idx[neg & (last[idx] < 0)]] *= 0.5
        flo[idx[~neg & (last[idx] > 0)]] *= 0.5
        last[idx] = np.where(neg, -1.0, 1.0)
        lo[idx[neg]], flo[idx[neg]] = x[neg], fx[neg]
        hi[idx[~neg]], fhi[idx[~neg]] = x[~neg], fx[~neg]
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)

    eigenfunctions = sh.recover(root)
    return SpectralDecomposition(prob, -root, eigenfunctions, grid)


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
