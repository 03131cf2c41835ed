"""Modal simulation of the analytic semigroup generated by A (minus a shift).

With modal coefficients c_n(0), the solution of x' = (A - kappa I) x is
c_n(t) = exp((lambda_n - kappa) t) c_n(0).  Everything here is exact up to
floating point; the only approximation is the spectral truncation itself.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .eigensolve import ZERO_EIGENVALUE_TOL, ModalCoefficients, SpectralDecomposition
from .fracspace import FractionalSpace, norm_alpha

__all__ = [
    "SemigroupTrajectory",
    "evolve",
    "trajectory",
    "is_exponentially_stable",
    "is_compact",
    "growth_bound",
    "trajectory_to_csv",
]

_TINY = np.finfo(np.float64).tiny  # smallest positive normal


def _flow(c0: ModalCoefficients, t, kappa: float) -> np.ndarray:
    """exp((lambda_n - kappa) t) c_n(0) for a time t, or one row per time of
    a column t; subnormal magnitudes flush to zero.  A coefficient that
    overflows raises ValueError naming the first time and mode."""
    if not (math.isfinite(kappa) and ((0.0 <= t) & (t < math.inf)).all()):
        raise ValueError("times must be finite and >= 0, and kappa finite")
    with np.errstate(over="ignore", invalid="ignore"):
        out = c0.coefficients * np.exp((c0.decomposition.eigenvalues - kappa) * t)
    out[..., c0.coefficients == 0.0] = 0.0  # 0 e^(huge) is 0, not nan
    if not np.isfinite(out).all():
        i, n = np.argwhere(~np.isfinite(np.atleast_2d(out)))[0]
        raise ValueError(f"the coefficient of mode {n + 1} at t = {np.ravel(t)[i]:g} is not finite")
    out[np.abs(out) < _TINY] = 0.0
    return out


def evolve(c0: ModalCoefficients, t: float, kappa: float = 0.0) -> ModalCoefficients:
    """Coefficients at time t >= 0, in the decomposition of c0, all finite."""
    return ModalCoefficients(_flow(c0, np.float64(t), kappa), c0.decomposition)


@dataclass(frozen=True)
class SemigroupTrajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), N) of modal coefficients
    norms_rho: np.ndarray
    norms_alpha: Optional[np.ndarray]
    space_alpha: Optional[FractionalSpace]
    kappa: float
    decomposition: SpectralDecomposition

    def to_dict(self) -> dict:
        doc = {
            "schema_version": 1,
            "kappa": self.kappa,
            "eigenvalues": self.decomposition.eigenvalues.tolist(),
            "times": self.times.tolist(),
            "coefficients": self.states.tolist(),
            "norms_rho": self.norms_rho.tolist(),
        }
        if self.norms_alpha is not None:
            doc["norms_alpha"] = self.norms_alpha.tolist()
            doc["alpha"] = self.space_alpha.alpha
            doc["mu"] = self.space_alpha.mu
        return doc


def trajectory(
    c0: ModalCoefficients,
    times: Sequence[float],
    alpha_space: Optional[FractionalSpace] = None,
    kappa: float = 0.0,
) -> SemigroupTrajectory:
    """Evaluate the trajectory, with finite coefficients and norms, on an
    increasing grid of times >= 0."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    states = _flow(c0, t[:, None], kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        # one dot per row, as np.linalg.norm computes it
        norms_rho = np.sqrt([np.dot(row, row) for row in states])
        norms_a = None
        if alpha_space is not None:
            norms_a = np.array([norm_alpha(alpha_space, ModalCoefficients(row, c0.decomposition))
                                for row in states])
    for kind, norms in (("rho", norms_rho), ("alpha", norms_a)):
        if norms is not None and not np.isfinite(norms).all():
            i = np.isfinite(norms).argmin()
            raise ValueError(f"the {kind} norm at t = {t[i]:g} is not finite")
    return SemigroupTrajectory(t, states, norms_rho, norms_a, alpha_space, kappa,
                               c0.decomposition)


def is_exponentially_stable(dec: SpectralDecomposition) -> Tuple[bool, float]:
    """(stable, decay rate): stable iff gamma < 0, rate = -gamma when stable.

    A gamma within ZERO_EIGENVALUE_TOL of 0 is solver round-off of a zero
    eigenvalue and reads as 0, so it is not stable.
    """
    gamma = dec.gamma
    stable = gamma < -ZERO_EIGENVALUE_TOL
    return stable, (-gamma if stable else 0.0)


def is_compact(eigenvalues) -> bool:
    """Finite surrogate for compactness of the resolvent/semigroup tail.

    True when only finitely many eigenvalues are >= 0 within the window
    (strictly fewer than N) and the sequence is strictly decreasing, the
    behaviour an SL spectrum must show.  Eigenvalues within
    ZERO_EIGENVALUE_TOL of 0 count as 0.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0:
        raise ValueError("empty eigenvalue sequence")
    nonneg = int(np.sum(lam >= -ZERO_EIGENVALUE_TOL))
    decreasing = bool(np.all(np.diff(lam) < 0.0))
    return nonneg < lam.size and decreasing


def growth_bound(traj: SemigroupTrajectory) -> np.ndarray:
    """Per-time ratios ||c(t)|| / (exp(gamma t) ||c(0)||), each <= 1 + eps."""
    n0 = traj.norms_rho[0]
    if n0 == 0.0:
        raise ValueError("growth bound undefined for the zero initial state")
    gamma = traj.decomposition.gamma
    envelope = np.exp((gamma - traj.kappa) * (traj.times - traj.times[0])) * n0
    return traj.norms_rho / envelope


def trajectory_to_csv(traj: SemigroupTrajectory) -> str:
    """CSV text: the header t, c_1, ..., c_N, then one full-precision row per time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"c_{n}" for n in range(1, traj.decomposition.N + 1)])
    for ti, row in zip(traj.times, traj.states):
        writer.writerow([f"{ti:.17g}"] + [f"{v:.17g}" for v in row])
    return buf.getvalue()
