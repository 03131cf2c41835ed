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
Written as f = r sin(theta) / S, the plain form has S = 1.  One threshold,
L* = min(max((q^ + 1)/rho^), max(q^/rho^) + 1) over the grid nodes, a and b
among them, is computed per solve in the units-free q^ and rho^ below:
L >= L* is shot in the scaled form, where L rho^ - q^ >= 1 at every node or
L - q^/rho^ >= 1 at every node, and L < L* in the plain form.

The scaled form removes the fast oscillation from the right-hand side (for
constant coefficients theta' is exactly omega), which is what makes high
eigenvalue indices affordable.  In both forms theta(b; L) increases through
the boundary-angle targets one pi per index, so every eigenvalue is found by
bracketed iteration on the phase miss with its index guaranteed.  The
brackets of all indices come from one ladder of L values, shot together for
index 0: min(q/rho) - 1, the Weyl guesses and a point above them.  While
its lowest miss is not negative, or its highest not above pi (N - 1), that
edge is pushed out, both edges in one shot; index k's bracket is then the
pair of adjacent ladder points whose misses straddle k pi.  A round of the
search costs one integration whatever its batch width, so rounds, not
lambda values, are what it saves (multi-point search, as in SLEIGN2 and
Pryce 1993, ch. 5): each open bracket evaluates a root estimate and a fan
of points around it, then keeps the tightest sign change among them.  The
estimate interpolates the inverse of the miss through the bracket ends and
the points just outside them (Alefeld, Potra & Shi, ACM TOMS 748, 1995).
The phase ODE is integrated with the adaptive Dormand-Prince 8(5,3) pair
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), which at rtol
1e-12 takes a third to a quarter of the steps of a 5(4) pair.  The step is
shared by the batch of eigenvalue candidates.  Both forms read
theta' = W + G T1(2 theta) and (log amplitude)' = C + D T2(2 theta) with
W, G, C, D depending on z and L alone (plain: T1 = cos, T2 = sin; scaled:
T1 = sin, T2 = cos).  So each step attempt evaluates p, q, rho (and their
derivatives) once per stage node, tabulates W, G, C, D at its twelve nodes
for the whole batch, and then costs per stage one stage sum (a dot product
of a tableau row with the stacked stages), one trig call per component and
a multiply-add with the table rows.  A step's last stage is the next step's
first.  Eigenfunctions on the grid come from the DOP853 continuous
extension (HNW II.6, contd8, 7th order): the steps run from a to b as the
controller chooses, at most DENSE_MAX_STEP long, and the nodes inside each
accepted step are filled from its stages and three more, tabulated only for
steps that hold nodes.  The grid's first and last nodes are a and b, so the
boundary values come out as the first and last entries of each mode row.
The eigenvalue search never asks for dense output.  The tableau is scipy's,
read from its dop853_coefficients file without importing scipy.integrate.

The solver works in units-free variables (Pryce 1993, ch. 5): with
ell = b - a, P = p(a) and R = rho(a) it solves for s = (z - a)/ell, p/P,
rho/R, q ell^2/P and L R ell^2/P, with each Robin alpha divided by ell
(_UnitMap).  Every constant above (the margin of 1 in L*, the ladder,
the stopping rule, the step sizes, ODE_RTOL) then acts on dimensionless
quantities, so a dilated or reweighted problem costs what its unit problem
costs.  Eigenvalues and eigenfunctions are mapped back once, on exit, as
are the numbers in error messages; on [0, 1] with p(0) = rho(0) = 1 the
map is exactly the identity.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (
    DEFAULT_PANELS,
    DEFAULT_POINTS,
    Grid,
    GridFunction,
    GridMismatchError,
    SLProblem,
    _check_count,
    inner_product_rho,
    make_grid,
)
from .expressions import compile_scalar

__all__ = [
    "SpectralDecomposition",
    "ModalCoefficients",
    "EigenvalueBracketError",
    "solve_spectrum",
    "coefficients_of",
    "synthesize",
]

SCHEMA_VERSION = 1

# The root iteration stops once hi - lo <= ROOT_RTOL * max(1, |hi|).
ROOT_RTOL = 1e-13
# Relative tolerance of every Pruefer integration (absolute: 1e-12).
ODE_RTOL = 1e-12
# Fan points on each side of the root estimate in each search round.
FAN = 4
# Either edge of the bracketing ladder is pushed out at most this many times.
MAX_BRACKET_EXPANSIONS = 60
# |lambda| <= ZERO_EIGENVALUE_TOL reads as lambda = 0: ten stopping
# tolerances, where max(1, |lambda|) = 1.
ZERO_EIGENVALUE_TOL = 10.0 * ROOT_RTOL


class EigenvalueBracketError(RuntimeError):
    """An eigenvalue could not be bracketed, its bracket did not close, the
    eigenpair came out not finite (a mode of norm 0 included), or a Pruefer
    integration's step underflowed.

    The message names the window of L = -lambda (in the caller's units) and
    the Pruefer form; the index too, except for a step underflow, which names
    where it happened instead.
    """


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3)


def _dop853_coefficients():
    """scipy's dop853_coefficients module, executed from its file: importing
    scipy.integrate would add about 0.4 s and 22 MiB to `import slspectra`."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("_slspectra_dop853", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except FileNotFoundError:
        import scipy  # only to name its version

        raise ImportError(f"no DOP853 coefficients at {path} (scipy {scipy.__version__})")
    return module


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10, and
# their dop853 code).  Stages 0-11 make a step, with 8th-order weights _B (row
# 12 of _A); stage 12 is the slope at the step's end, which is the next step's
# stage 0; stages 13-15 serve only the dense output.  _E5 and _E3 weigh stages
# 0-12 into the 5th- and 3rd-order error estimates, and _D weighs all 16 into
# the top four terms of the continuous extension.
_tableau = _dop853_coefficients()
_A, _B, _C, _D = _tableau.A, _tableau.B, _tableau.C, _tableau.D
_E3, _E5 = _tableau.E3, _tableau.E5
_E = np.vstack([_E5, _E3])

# Dense-output (z_out) integrations take steps of at most this length.  On
# longer steps the interpolant is 2.0e-11 off a linear closed form that it
# meets to 2.0e-12 with the cap.
DENSE_MAX_STEP = 0.125


def _contd8(theta, y, ynew, h, K):
    """States at z + theta h (theta of shape (m,)) inside one accepted step,
    from its 16 stages K (HNW contd8, a 7th-order continuous extension)."""
    dy = ynew - y
    f3, f4, f5, f6 = h * np.dot(_D, K.reshape(16, -1)).reshape((4,) + y.shape)
    t = theta[:, None, None]
    t1 = 1.0 - t
    inner = f3 + t * (f4 + t1 * (f5 + t * f6))
    return y + t * (dy + t1 * (h * K[0] - dy + t * (2.0 * dy - h * (K[12] + K[0]) + t1 * inner)))


def _tables(rhs, zs, lams, ncomp):
    """(base, slope), each (len(zs), ncomp, n): the first ncomp of [W, C] and
    [G, D] of rhs at the points zs (an array) for each lambda."""
    W, G, C, D = rhs.tables(zs, lams)
    if ncomp == 1:
        return W[:, None], G[:, None]
    return np.stack((W, C), 1), np.stack((G, D), 1)


def _slope(k, th2, base, slope, trig):
    """The Pruefer right-hand side at one stage, written into k (ncomp, n):
    k[c] = base[c] + slope[c] trig[c](th2), where th2 is twice the angle."""
    for c, t in enumerate(trig):
        t(th2, out=k[c])
    k *= slope
    k += base


def _integrate(rhs, lams, theta0, z_out=None):
    """Integrate a Pruefer system over s in [0, 1] for all lams at once, at
    relative tolerance ODE_RTOL.

    The step is shared across the batch and controlled by the worst
    per-component error, so a member's result depends, to within the
    tolerance, on which other members share its batch.  Steps are at most
    rhs.max_step long, and with z_out at most DENSE_MAX_STEP.  Returns the
    final angles (1, n), or with z_out (a sorted array in [0, 1]) the
    angles and log amplitudes (len(z_out), 2, n) there, read off the
    continuous extension of the steps taken towards 1.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    ncomp = 1 if z_out is None else 2
    shape = (ncomp, n)
    y = np.zeros(shape)
    y[0] = theta0
    atol = 1e-12
    max_step = rhs.max_step
    trig = rhs.trig[:ncomp]

    out = None
    if z_out is not None:
        out = np.empty((z_out.size,) + shape)
        max_step = min(max_step, DENSE_MAX_STEP)
        i_out = 0

    def stage(s, A2h, base, slope):
        """K[s] from its stage sum.  The slopes need 2 theta only, and
        y2 + (the sum with 2h A) equals 2 (y + the sum with h A) to the last
        bit, as doubling is exact.  The sum runs over all components and keeps
        theta's: summing theta's rows alone changes the order of additions."""
        th2 = np.dot(A2h[s, :s], prefix[s])[:n]
        th2 += y2
        _slope(K[s], th2, base, slope, trig)

    dz = rhs.initial_step(lams)
    K = np.empty((16,) + shape)
    rows = K.reshape(16, -1)  # the stages as rows of one array, for the stage sums
    prefix = [rows[:s] for s in range(16)]  # what stage s sums over

    z = 0.0
    y2 = 2.0 * y[0]
    base, slope = _tables(rhs, np.array([z]), lams, ncomp)
    _slope(K[0], y2, base[0], slope[0], trig)
    while z < 1.0 - 1e-15:
        h = min(dz, max_step, 1.0 - z)
        while True:
            A2h = (2.0 * h) * _A
            # the coefficients at stages 1-12, z + c h (c = 1 at stage 12)
            base, slope = _tables(rhs, z + _C[1:13] * h, lams, ncomp)
            for s in range(1, 12):
                stage(s, A2h, base[s - 1], slope[s - 1])
            ynew = y + np.dot(h * _B, rows[:12]).reshape(shape)
            y2new = 2.0 * ynew[0]
            _slope(K[12], y2new, base[11], slope[11], trig)
            # the dop853 estimate h err5^2 / sqrt(err5^2 + err3^2 / 100), per component
            scale = atol + ODE_RTOL * np.maximum(np.abs(ynew), np.abs(y)).reshape(-1)
            e5, e3 = np.square(np.dot(_E, rows[:13]) / scale)
            # (the floor on the denominator makes 0 of 0 / 0 and keeps nan)
            emax = h * float(np.max(e5 / np.sqrt(np.maximum(e5 + 0.01 * e3, 1e-300))))
            if emax <= 1.0:  # false for a nan estimate too
                break
            h *= max(1.0 / 3.0, 0.9 * emax ** -0.125)
            if h < 1e-14:
                unit = rhs.unit  # report where and for what, in the caller's units
                raise EigenvalueBracketError(
                    f"{rhs.form} Pruefer ODE step size underflow at z={float(unit.z(z))!r}, "
                    f"h={h * unit.ell:.3g}, L in [{float(unit.lam(lams.min()))!r}, "
                    f"{float(unit.lam(lams.max()))!r}]"
                )
        if out is not None:
            # outputs in [z, z + h): theta = 0 gives y exactly
            i_end = int(np.searchsorted(z_out, z + h, side="left"))
            if i_end > i_out:
                base, slope = _tables(rhs, z + _C[13:] * h, lams, ncomp)
                for s in range(13, 16):
                    stage(s, A2h, base[s - 13], slope[s - 13])
                theta = (z_out[i_out:i_end] - z) / h
                out[i_out:i_end] = _contd8(theta, y, ynew, h, K)
                i_out = i_end
        z += h
        y, y2 = ynew, y2new
        K[0] = K[12]
        dz = h * (min(6.0, 0.9 * emax ** -0.125) if emax > 0.0 else 6.0)
    if out is None:
        return y
    out[i_out:] = y  # 1 itself (and points within rounding of it)
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
        """s (an array) -> (n, s.size): the first n of p^, q^, rho^, p^', q^',
        rho^' at each s, the expressions evaluated on Python floats at
        z = a + ell s, one call per point."""
        fn = compile_scalar(*self.exprs[:n])
        a, ell, k = self.a, self.ell, np.array(self.factors[:n])[:, None]
        return lambda s: k * np.array([fn(a + ell * x) for x in s.tolist()]).T


class _PlainRHS:
    """theta' = W + G cos 2theta and (log r)' = C + D sin 2theta, tabulated.

    cos^2/p + u sin^2 = (1/p + u)/2 + (1/p - u)/2 cos 2theta with u = L rho - q,
    so W = hp + hu, G = D = hp - hu and C = 0 (hp = 1/(2p), hu = u/2).
    """

    form = "plain"
    # On longer steps the error estimate fails: with a cap of 1/4 a plain
    # lambda_1 landed 2.8e-11 off, and uncapped the transformed DCR's 4.8e-11.
    max_step = 0.125
    trig = (np.cos, np.sin)

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(3)

    def initial_step(self, lams):
        freq = math.sqrt(max(float(np.max(np.abs(lams))), 1.0))
        return max(0.1 / freq, 1e-12)

    def scale(self, lams, p, q, rho):
        """S in f = r sin(theta) / S: here S = 1."""
        return np.ones(np.broadcast(lams, rho).shape)

    def tables(self, zs, lams):
        """W, G, C, D (len(zs), n) at the points zs (an array) for each lambda."""
        pz, qz, rz = self.coeffs(zs)[:, :, None]
        hp, hu = 0.5 / pz, lams * (0.5 * rz) - 0.5 * qz
        g = hp - hu
        return hp + hu, g, np.zeros_like(g), g


class _ScaledRHS:
    """theta' = W + G sin 2theta and (log w)' = C + D cos 2theta, tabulated.

    W = omega and G = C = -D = g = S'/(2S) = p'/(4p) + (L rho' - q')/(4u),
    with u = L rho - q.  Valid only where u > 0 for every batch member.
    """

    form = "scaled"
    max_step = math.inf  # a cap costs time here and gains nothing
    trig = (np.sin, np.cos)

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(6)

    def initial_step(self, lams):
        return 0.01

    def scale(self, lams, p, q, rho):
        """S in f = w sin(theta) / S: here S = sqrt(p (L rho - q))."""
        return np.sqrt(p * (lams * rho - q))

    def tables(self, zs, lams):
        """W, G, C, D (len(zs), n) at the points zs (an array) for each lambda."""
        pz, qz, rz, dpz, dqz, drz = self.coeffs(zs)[:, :, None]
        u = lams * rz - qz  # > 0 by mode selection
        g = (lams * (0.25 * drz) - 0.25 * dqz) / u + 0.25 * dpz / pz
        return np.sqrt(u / pz), g, g, -g


# ---------------------------------------------------------------------------
# Decomposition data


@dataclass(frozen=True)
class SpectralDecomposition:
    """Truncated spectrum of A = -(SL operator): lambda_1 > ... > lambda_N.

    Mode n is row n - 1 of the (N, nodes) arrays values, deriv and deriv2
    (phi_n, phi_n' and phi_n'' at the grid nodes, whose first and last are a
    and b).  Construction makes all three arrays read-only.
    """

    problem: SLProblem
    eigenvalues: np.ndarray
    grid: Grid
    values: np.ndarray
    deriv: np.ndarray
    deriv2: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) >= 0):
            raise ValueError("eigenvalues must be strictly decreasing")
        for v in (self.values, self.deriv, self.deriv2):
            v.flags.writeable = False

    @property
    def N(self) -> int:
        return self.eigenvalues.size

    @property
    def gamma(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def modes(self) -> GridFunction:
        """All N modes as one family, a view on values, deriv and deriv2."""
        return GridFunction(self.grid, self.values, self.deriv, self.deriv2)

    @property
    def eigenfunctions(self) -> List[GridFunction]:
        """phi_n as GridFunctions whose arrays are views on the mode rows."""
        rows = zip(self.values, self.deriv, self.deriv2)
        return [GridFunction(self.grid, *row) for row in rows]

    def values_matrix(self) -> np.ndarray:
        """The (N, nodes) mode matrix values itself, not a copy."""
        return self.values

    def truncate(self, n: int) -> "SpectralDecomposition":
        _check_count("n", n, 1)
        if n > self.N:
            raise ValueError("bad truncation order")
        return SpectralDecomposition(
            self.problem, self.eigenvalues[:n], self.grid,
            self.values[:n], self.deriv[:n], self.deriv2[:n],
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
                "points": DEFAULT_POINTS,
                "nodes": self.grid.nodes.tolist(),
            },
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenfunctions": self.values.tolist(),
        }


@dataclass(frozen=True)
class ModalCoefficients:
    """Truncated expansion coefficients c_n = <f, phi_n>_rho, one per mode."""

    coefficients: np.ndarray
    decomposition: SpectralDecomposition

    def __post_init__(self):
        if np.shape(self.coefficients) != (self.decomposition.N,):
            raise ValueError(f"coefficients of shape {np.shape(self.coefficients)} for a "
                             f"decomposition of N = {self.decomposition.N} modes")

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

    def __init__(self, prob: SLProblem, grid: Grid):
        self.prob = prob
        self.grid = grid
        self.unit = unit = _UnitMap(prob)
        self.lam_scale = unit.lam_scale
        self.plain = _PlainRHS(unit)
        self.scaled = _ScaledRHS(unit)
        # s at the grid nodes: exactly 0 at the first and 1 at the last
        self.s_out = (grid.nodes - unit.a) / unit.ell
        self.weights = grid.weights / unit.ell
        # p^, q^, rho^, p^' at the nodes; the ends exactly as the RHS sees them
        self.p_s, self.q_s, self.rho_s, self.dp_s = unit.coeffs(self.s_out)
        ends = self.scaled.coeffs(np.array([0.0, 1.0]))
        for v, c in zip((self.p_s, self.q_s, self.rho_s, self.dp_s), ends):
            v[[0, -1]] = c
        # The scaled form is used where L rho - q >= 1 at every node, or where
        # L - q/rho >= 1 at every node (rho > 0): the lower threshold wins, and
        # the second does not grow as a weight falls by decades.
        q, rho = self.q_s, self.rho_s
        self.lam_star = min(float(np.max((q + 1.0) / rho)), float(np.max(q / rho)) + 1.0)

    def is_scaled(self, lams: np.ndarray) -> np.ndarray:
        return lams >= self.lam_star

    def theta(self, lams: np.ndarray, rhs, z_end: str) -> np.ndarray:
        """Boundary angle per lambda: in [0, pi) at z_end "a", in (0, pi] at "b"."""
        end = 0 if z_end == "a" else -1
        alpha, beta = self.unit.bc_a if z_end == "a" else self.unit.bc_b
        s_fac = rhs.scale(lams, self.p_s[end], self.q_s[end], self.rho_s[end])
        th = np.mod(np.arctan2(-alpha * s_fac, self.p_s[end] * beta), math.pi)
        return th if z_end == "a" else np.where(th == 0.0, math.pi, th)

    def _shoot(self, lams: np.ndarray, z_out=None):
        """(indices, Pruefer RHS, _integrate states) per Pruefer form in lams."""
        mask = self.is_scaled(lams)
        for use_scaled, rhs in ((False, self.plain), (True, self.scaled)):
            sel = np.flatnonzero(mask == use_scaled)
            if sel.size:
                th0 = self.theta(lams[sel], rhs, "a")
                states = _integrate(rhs, lams[sel], th0, z_out)
                yield sel, rhs, states

    def miss(self, lams: np.ndarray, kidx: np.ndarray) -> np.ndarray:
        """theta(b; L) - (theta(L at b) + k pi) for each (L, k) pair."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty_like(lams)
        for sel, rhs, states in self._shoot(lams):
            out[sel] = states[0] - self.theta(lams[sel], rhs, "b") - math.pi * kidx[sel]
        return out

    def recover(self, lams: np.ndarray):
        """values, deriv, deriv2 (N, nodes) of the eigenfunctions on the
        caller's grid, rho-normalized there.

        Both Pruefer forms are integrated before the mode rows are allocated,
        so the integrators' work arrays and the rows are never live together.
        An amplitude that overflows, or a norm that is 0 or not finite, leaves
        its row not finite.
        """
        shots = list(self._shoot(lams, self.s_out))
        p, q, rho, dp = self.p_s, self.q_s, self.rho_s, self.dp_s
        ell = self.unit.ell
        wrho = self.prob.rho(self.grid.nodes) * self.grid.weights
        values, deriv, deriv2 = np.empty((3, lams.size, self.grid.size))
        factor = np.empty(lams.size)
        with np.errstate(all="ignore"):
            for sel, rhs, states in shots:
                for j, i in enumerate(sel):
                    lam = lams[i]
                    theta = states[:, 0, j]
                    amp = np.exp(states[:, 1, j])
                    # f = amp sin(theta) / S at the nodes; d/ds, then d/dz
                    f = values[i]
                    f[:] = amp * np.sin(theta) / rhs.scale(lam, p, q, rho)
                    ds = amp * np.cos(theta) / p
                    deriv[i] = ds / ell
                    deriv2[i] = ((q - lam * rho) * f - dp * ds) / p / (ell * ell)
                    nrm = np.sqrt(np.dot(f * f, wrho))
                    factor[i] = (-1.0 if (f[0] <= 1e-10 * nrm and ds[0] < 0.0) else 1.0) / nrm
            for v in (values, deriv, deriv2):
                v *= factor[:, None]
        return values, deriv, deriv2


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


def solve_spectrum(prob: SLProblem, N: int = 64) -> SpectralDecomposition:
    """Compute the first N eigenpairs of A = -(SL operator).

    Eigenvalues of the positive form -(pf')' + qf = L rho f are located by
    phase-count bracketing plus a multi-point bracketed search over all
    indices at once (see _search), then returned as lambda_n = -L_n.
    Eigenfunctions come from the amplitude equation, rho-normalized, with
    phi_n(a) > 0 (or phi_n'(a) > 0 for a Dirichlet left end).  Either edge of
    the bracketing ladder is pushed out at most MAX_BRACKET_EXPANSIONS times
    before EigenvalueBracketError is raised, as it is for a bracket still open
    after 200 search rounds, an eigenvalue or mode row that is not finite
    (naming the layer, search or recovery; a mode of norm 0 is one) and a
    Pruefer step that underflows; N must be an integer.  The grid
    has max(DEFAULT_PANELS, N) panels of DEFAULT_POINTS Gauss points, about
    one panel per mode, so high modes stay resolved.  Every phase integration
    runs at relative tolerance ODE_RTOL, and every bracket is closed to
    ROOT_RTOL.
    """
    _check_count("N", N, 1)
    grid = make_grid(prob.interval, max(DEFAULT_PANELS, N))
    sh = _Shooter(prob, grid)  # from here on, everything is in unit variables
    kvec = np.arange(N, dtype=float)

    # Weyl-style guesses: phase gain ~ sqrt(L) J with J = integral sqrt(rho/p)
    J = float(np.dot(np.sqrt(sh.rho_s / sh.p_s), sh.weights))
    q_rho = sh.q_s / sh.rho_s
    q_shift = float(np.median(q_rho))
    guesses = ((kvec + 1.0) * math.pi / J) ** 2 + q_shift

    # one ladder brackets every index; its bottom lies below the spectrum
    # unless a Robin end pulls the spectrum lower
    bottom = float(np.min(q_rho)) - 1.0
    step = max(10.0, abs(bottom))
    g = guesses[-1]  # the top lies above the last guess whatever its sign
    ladder = np.unique(np.concatenate([[bottom], guesses, [max(g * 1.3, g * 0.7) + 10.0]]))
    phases = sh.miss(ladder, np.zeros(ladder.size))  # miss for k = 0
    for _ in range(MAX_BRACKET_EXPANSIONS):
        # push out each edge that lacks its sign, both in one miss call
        low = [] if phases[0] < 0.0 else [ladder[0] - step]
        high = [] if phases[-1] - math.pi * kvec[-1] > 0.0 else [max(ladder[-1] * 2.0, 0.0) + 10.0]
        if not (low or high):
            break
        if low:
            step *= 2.0
        f = sh.miss(np.array(low + high), np.zeros(len(low) + len(high)))
        ladder = np.concatenate([low, ladder, high])
        phases = np.concatenate([f[:len(low)], phases, f[len(low):]])
    if not phases[0] < 0.0:
        raise _bracket_error(sh, 0, "not bracketed below", ladder[0], bottom)
    if not phases[-1] - math.pi * kvec[-1] > 0.0:
        raise _bracket_error(sh, N - 1, "not bracketed", ladder[0], ladder[-1])

    # phases[0] < 0 < phases[-1] - pi (N - 1) and the phases rise with L, so
    # index k's bracket ends at the first ladder point whose phase reaches pi k
    level = math.pi * kvec
    i_hi = np.sum(phases < level[:, None], axis=1)
    lo, hi = ladder[i_hi - 1], ladder[i_hi]
    flo, fhi = phases[i_hi - 1] - level, phases[i_hi] - level

    lo, hi, flo, fhi = _search(sh, lo, hi, flo, fhi, kvec)
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)
    lams, modes = -sh.unit.lam(root), sh.recover(root)
    rows = np.all([np.isfinite(v).all(axis=1) for v in modes], axis=0)
    for layer, ok in (("search", np.isfinite(lams)), ("recovery", rows)):
        if not ok.all():  # a bug to report, not an input error
            k = int(np.argmin(ok))
            raise _bracket_error(sh, k, f"not finite after {layer}", lo[k], hi[k])
    return SpectralDecomposition(prob, lams, grid, *modes)


# ---------------------------------------------------------------------------
# Modal analysis / synthesis


def coefficients_of(f: GridFunction, dec: SpectralDecomposition) -> ModalCoefficients:
    """c_n = <f, phi_n>_rho for every computed mode, of one function."""
    if not f.grid.same_as(dec.grid):
        raise GridMismatchError("function is not on the decomposition grid")
    if f.values.ndim != 1:
        raise ValueError("coefficients_of projects one function, not a family")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("function values must be finite at the grid nodes")
    return ModalCoefficients(inner_product_rho(f, dec.modes, dec.problem.rho), dec)


def synthesize(c: ModalCoefficients) -> GridFunction:
    """Sum c_n phi_n on the decomposition grid (with derivative grids)."""
    dec, co = c.decomposition, c.coefficients
    return GridFunction(dec.grid, co @ dec.values, co @ dec.deriv, co @ dec.deriv2)
