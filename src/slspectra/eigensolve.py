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
L* = max((q + 1)/rho) over a, the grid nodes and b, is computed per solve:
L >= L* is shot in the scaled form (L rho - q >= 1 at every one of those
points), L < L* in the plain form.

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
The phase ODE is integrated with the adaptive Dormand-Prince 8(5,3) pair
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), which at rtol
1e-12 takes a third to a quarter of the steps of a 5(4) pair.  The step is
shared by the batch of eigenvalue candidates, each stage sum is one dot
product of a tableau row with the stacked stages, and a step's last stage is
the next step's first.  Eigenfunctions on the grid come from the DOP853
continuous extension (HNW II.6, contd8, 7th order): the steps run from a to
b as the controller chooses, at most DENSE_MAX_STEP long, and the nodes
inside each accepted step are filled from its stages and three more RHS
calls.  The eigenvalue search never asks for dense output.

The solver works in units-free variables (Pryce 1993, ch. 5): with
ell = b - a, P = p(a) and R = rho(a) it solves for s = (z - a)/ell, p/P,
rho/R, q ell^2/P and L R ell^2/P, with each Robin alpha divided by ell
(_UnitMap).  Every constant above (the margin of 1 in L*, the scan window,
the stopping rule, the step sizes, ODE_RTOL) then acts on dimensionless
quantities, so a dilated or reweighted problem costs what its unit problem
costs.  Eigenvalues and eigenfunctions are mapped back once, on exit, as
are the numbers in error messages; on [0, 1] with p(0) = rho(0) = 1 the
map is exactly the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul
from typing import List, Optional

import numpy as np

from .core import (
    DEFAULT_PANELS,
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
# Either edge of the bracketing scan is pushed out at most this many times.
MAX_BRACKET_EXPANSIONS = 60
# |lambda| <= ZERO_EIGENVALUE_TOL reads as lambda = 0: ten stopping
# tolerances, where max(1, |lambda|) = 1.
ZERO_EIGENVALUE_TOL = 10.0 * ROOT_RTOL


class EigenvalueBracketError(RuntimeError):
    """An eigenvalue could not be bracketed, or its bracket did not close.

    The message names the index, the window of L = -lambda searched (in the
    caller's units) and the Pruefer form at its upper end.
    """


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3)

# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10, and
# their dop853 code).  Stages 0-11 make a step, with 8th-order weights _B (row
# 12 of _A); stage 12 is the slope at the step's end, which is the next step's
# stage 0; stages 13-15 serve only the dense output.  _E5 and _E3 weigh stages
# 0-12 into the 5th- and 3rd-order error estimates, and _D weighs all 16 into
# the top four terms of the continuous extension.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0,
    1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3,
]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138,
]
_B = _A[12, :12]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [
        -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
        0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
    ],
    [
        0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
        0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
    ],
    [
        0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
    ],
    [
        -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
        0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
    ],
]
_C_STEP = tuple(_C.tolist())  # the stage nodes as Python floats, for the RHS calls
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


def _integrate(rhs, lams, z0, z1, theta0, rtol, z_out=None, amplitude=False):
    """Integrate a Pruefer system from z0 to z1 for all lams at once.

    The step is shared across the batch and controlled by the worst
    per-component error, so a member's result depends, to within the
    tolerance, on which other members share its batch.  Steps are at most
    rhs.max_step long, and with z_out at most DENSE_MAX_STEP.  Returns the
    final states (ncomp, n), or with z_out (a sorted sequence in [z0, z1])
    the states (len(z_out), ncomp, n) there, read off the continuous
    extension of the steps taken towards z1.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    ncomp = 2 if amplitude else 1
    shape = (ncomp, n)
    y = np.zeros(shape)
    y[0] = theta0
    atol = 1e-12
    max_step = rhs.max_step

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
        out = np.empty((z_out.size,) + shape)
        max_step = min(max_step, DENSE_MAX_STEP)
        i_out = 0

    dz = rhs.initial_step(lams, z1 - z0)
    K = np.empty((16,) + shape)
    rows = K.reshape(16, -1)  # the stages as rows of one array, for the stage sums

    def stage(s, z, h, Ah):
        K[s] = rhs(z + _C_STEP[s] * h, y + np.dot(Ah[s, :s], rows[:s]).reshape(shape), lams, ncomp)

    z = z0
    K[0] = rhs(z, y, lams, ncomp)
    while z < z1 - 1e-15 * max(1.0, abs(z1)):
        h = min(dz, max_step, z1 - z)
        while True:
            Ah = h * _A
            for s in range(1, 12):
                stage(s, z, h, Ah)
            ynew = y + np.dot(Ah[12, :12], rows[:12]).reshape(shape)
            K[12] = rhs(z + h, ynew, lams, ncomp)
            # the dop853 estimate h err5^2 / sqrt(err5^2 + err3^2 / 100), per component
            scale = atol + rtol * np.maximum(np.abs(ynew), np.abs(y)).reshape(-1)
            e5, e3 = np.square(np.dot(_E, rows[:13]) / scale)
            # (the floor on the denominator makes 0 of 0 / 0 and keeps nan)
            emax = h * float(np.max(e5 / np.sqrt(np.maximum(e5 + 0.01 * e3, 1e-300))))
            if emax <= 1.0:  # false for a nan estimate too
                break
            h *= max(1.0 / 3.0, 0.9 * emax ** -0.125)
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
                for s in range(13, 16):
                    stage(s, z, h, Ah)
                theta = (z_out[i_out:i_end] - z) / h
                out[i_out:i_end] = _contd8(theta, y, ynew, h, K)
                i_out = i_end
        z += h
        y = ynew
        K[0] = K[12]
        dz = h * (min(6.0, 0.9 * emax ** -0.125) if emax > 0.0 else 6.0)
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


class _PlainRHS:
    form = "plain"
    # On longer steps the error estimate fails: with a cap of 1/4 a plain
    # lambda_1 landed 2.8e-11 off, and uncapped the transformed DCR's 4.8e-11.
    max_step = 0.125

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(3)

    def initial_step(self, lams, span):
        freq = math.sqrt(max(float(np.max(np.abs(lams))), 1.0))
        return max(min(0.1 / freq, abs(span) * 0.25), 1e-12)

    def scale(self, lams, p, q, rho):
        """S in f = r sin(theta) / S: here S = 1."""
        return np.ones(np.broadcast(lams, rho).shape)

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
    max_step = math.inf  # a cap costs time here and gains nothing

    def __init__(self, unit: _UnitMap):
        self.unit = unit
        self.coeffs = unit.scalar(6)

    def initial_step(self, lams, span):
        return max(min(0.01, abs(span) * 0.25), 1e-12)

    def scale(self, lams, p, q, rho):
        """S in f = w sin(theta) / S: here S = sqrt(p (L rho - q))."""
        return np.sqrt(p * (lams * rho - q))

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
    """Truncated spectrum of A = -(SL operator): lambda_1 > ... > lambda_N.

    Mode n is row n - 1 of the (N, nodes) arrays values, deriv and deriv2
    (phi_n, phi_n' and phi_n'' at the grid nodes) and column n - 1 of the
    (4, N) array boundary (phi_n(a), phi_n(b), phi_n'(a), phi_n'(b)).
    Construction makes all four arrays read-only.
    """

    problem: SLProblem
    eigenvalues: np.ndarray
    grid: Grid
    values: np.ndarray
    deriv: np.ndarray
    deriv2: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) >= 0):
            raise ValueError("eigenvalues must be strictly decreasing")
        for v in (self.values, self.deriv, self.deriv2, self.boundary):
            v.flags.writeable = False

    @property
    def N(self) -> int:
        return self.eigenvalues.size

    @property
    def gamma(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def eigenfunctions(self) -> List[GridFunction]:
        """phi_n as GridFunctions whose arrays are views on the mode rows."""
        return [
            GridFunction(self.grid, v, d, d2, BoundaryData(*bd))
            for v, d, d2, bd in zip(self.values, self.deriv, self.deriv2, self.boundary.T)
        ]

    def values_matrix(self) -> np.ndarray:
        """The (N, nodes) mode matrix values itself, not a copy."""
        return self.values

    def truncate(self, n: int) -> "SpectralDecomposition":
        if not 1 <= n <= self.N:
            raise ValueError("bad truncation order")
        return SpectralDecomposition(
            self.problem, self.eigenvalues[:n], self.grid,
            self.values[:n], self.deriv[:n], self.deriv2[:n], self.boundary[:, :n],
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
            "eigenfunctions": self.values.tolist(),
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

    def __init__(self, prob: SLProblem, grid: Grid):
        self.prob = prob
        self.grid = grid
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
        # The scaled form is used where L rho - q >= 1 (a margin of 1) at s = 0,
        # every node and s = 1.  As rho > 0, that is L >= (q + 1)/rho there.
        self.lam_star = float(np.max((self.q_s + 1.0) / self.rho_s))

    def is_scaled(self, lams: np.ndarray) -> np.ndarray:
        return lams >= self.lam_star

    def theta(self, lams: np.ndarray, rhs, z_end: str) -> np.ndarray:
        """Boundary angle per lambda: in [0, pi) at z_end "a", in (0, pi] at "b"."""
        end = 0 if z_end == "a" else -1
        alpha, beta = self.unit.bc_a if z_end == "a" else self.unit.bc_b
        s_fac = rhs.scale(lams, self.p_s[end], self.q_s[end], self.rho_s[end])
        th = np.mod(np.arctan2(-alpha * s_fac, self.p_s[end] * beta), math.pi)
        return th if z_end == "a" else np.where(th == 0.0, math.pi, th)

    def _shoot(self, lams: np.ndarray, **kwargs):
        """(indices, Pruefer RHS, theta at a, _integrate states) per Pruefer form in lams."""
        mask = self.is_scaled(lams)
        for use_scaled, rhs in ((False, self.plain), (True, self.scaled)):
            sel = np.flatnonzero(mask == use_scaled)
            if sel.size:
                th0 = self.theta(lams[sel], rhs, "a")
                states = _integrate(rhs, lams[sel], 0.0, 1.0, th0, ODE_RTOL, **kwargs)
                yield sel, rhs, th0, states

    def miss(self, lams: np.ndarray, kidx: np.ndarray) -> np.ndarray:
        """theta(b; L) - (theta(L at b) + k pi) for each (L, k) pair."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty_like(lams)
        for sel, rhs, _, states in self._shoot(lams):
            out[sel] = states[0] - self.theta(lams[sel], rhs, "b") - math.pi * kidx[sel]
        return out

    def recover(self, lams: np.ndarray):
        """values, deriv, deriv2 (N, nodes) and boundary (4, N) of the
        eigenfunctions on the caller's grid, rho-normalized there.

        Both Pruefer forms are integrated before the mode rows are allocated,
        so the integrators' work arrays and the rows are never live together.
        """
        shots = list(self._shoot(lams, z_out=self.s_out, amplitude=True))
        p_g, q_g, rho_g, dp_g = (v[1:-1] for v in (self.p_s, self.q_s, self.rho_s, self.dp_s))
        p_a, p_b = self.p_s[0], self.p_s[-1]
        ell = self.unit.ell
        wrho = self.prob.rho(self.grid.nodes) * self.grid.weights
        values, deriv, deriv2 = np.empty((3, lams.size, self.grid.size))
        boundary = np.empty((4, lams.size))
        factor = np.empty(lams.size)
        for sel, rhs, th0, states in shots:
            for j, i in enumerate(sel):
                lam = lams[i]
                theta = states[:-1, 0, j]
                amp = np.exp(states[:-1, 1, j])
                th_b, amp_b = states[-1, 0, j], math.exp(states[-1, 1, j])
                # f = amp sin(theta) / S at s = 0, the nodes and s = 1; d/ds, then d/dz
                S = rhs.scale(lam, self.p_s, self.q_s, self.rho_s)
                f = values[i]
                f[:] = amp * np.sin(theta) / S[1:-1]
                fa = math.sin(th0[j]) / S[0]
                fb = amp_b * math.sin(th_b) / S[-1]
                ds = amp * np.cos(theta) / p_g
                dfa = math.cos(th0[j]) / p_a
                dfb = amp_b * math.cos(th_b) / p_b
                deriv[i] = ds / ell
                deriv2[i] = ((q_g - lam * rho_g) * f - dp_g * ds) / p_g / (ell * ell)
                boundary[:, i] = fa, fb, dfa / ell, dfb / ell
                nrm = math.sqrt(float(np.dot(f * f, wrho)))
                factor[i] = (-1.0 if (fa <= 1e-10 * nrm and dfa < 0.0) else 1.0) / nrm
        for v in (values, deriv, deriv2):
            v *= factor[:, None]
        boundary *= factor
        return values, deriv, deriv2, boundary


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
) -> SpectralDecomposition:
    """Compute the first N eigenpairs of A = -(SL operator).

    Eigenvalues of the positive form -(pf')' + qf = L rho f are located by
    phase-count bracketing plus a multi-point bracketed search over all
    indices at once (see _search), then returned as lambda_n = -L_n.
    Eigenfunctions come from the amplitude equation, rho-normalized, with
    phi_n(a) > 0 (or phi_n'(a) > 0 for a Dirichlet left end).  Either edge of
    the bracketing scan is pushed out at most MAX_BRACKET_EXPANSIONS times
    before EigenvalueBracketError is raised.  The default grid has
    max(DEFAULT_PANELS, N) panels of DEFAULT_POINTS Gauss points, about one
    panel per mode, so high modes stay resolved.  Every phase integration
    runs at relative tolerance ODE_RTOL, and every bracket is closed to
    ROOT_RTOL.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = make_grid(prob.interval, max(DEFAULT_PANELS, N) if panels is None else panels)
    sh = _Shooter(prob, grid)  # from here on, everything is in unit variables
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
    for _ in range(MAX_BRACKET_EXPANSIONS):
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
    for _ in range(MAX_BRACKET_EXPANSIONS):
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

    return SpectralDecomposition(prob, -sh.unit.lam(root), grid, *sh.recover(root))


# ---------------------------------------------------------------------------
# Modal analysis / synthesis


def coefficients_of(f: GridFunction, dec: SpectralDecomposition) -> ModalCoefficients:
    """c_n = <f, phi_n>_rho for every computed mode."""
    if not f.grid.same_as(dec.grid):
        raise GridMismatchError("function is not on the decomposition grid")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("function values must be finite at the grid nodes")
    wrho = dec.grid.weights * dec.problem.rho(dec.grid.nodes)
    coeffs = dec.values @ (wrho * f.values)
    return ModalCoefficients(coeffs, dec)


def synthesize(c: ModalCoefficients) -> GridFunction:
    """Sum c_n phi_n on the decomposition grid (with derivative grids)."""
    dec, co = c.decomposition, c.coefficients
    bd = BoundaryData(*(float(np.dot(co, row)) for row in dec.boundary))
    return GridFunction(dec.grid, co @ dec.values, co @ dec.deriv, co @ dec.deriv2, bd)
