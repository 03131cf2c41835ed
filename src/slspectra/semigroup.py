"""Modal simulation of the analytic semigroup generated by A (minus a shift).

With modal coefficients c_n(0), the solution of x' = (A - kappa I) x is
c_n(t) = exp((lambda_n - kappa) t) c_n(0).  Everything here is exact up to
floating point; the only approximation is the spectral truncation itself.
"""

from __future__ import annotations

import csv
import json
import sys
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
    "trajectory_to_json",
]

_TINY = np.finfo(np.float64).tiny  # smallest positive normal


def evolve(
    dec: SpectralDecomposition,
    c0: ModalCoefficients,
    t: float,
    kappa: float = 0.0,
) -> ModalCoefficients:
    """Coefficients at time t >= 0; subnormal magnitudes flush to zero."""
    if t < 0.0:
        raise ValueError("semigroup is defined for t >= 0 only")
    factors = np.exp((dec.eigenvalues - kappa) * t)
    out = c0.coefficients * factors
    out[np.abs(out) < _TINY] = 0.0
    return ModalCoefficients(out, dec)


@dataclass(frozen=True)
class SemigroupTrajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), N) of modal coefficients
    norms_rho: np.ndarray
    norms_alpha: Optional[np.ndarray]
    space_alpha: Optional[FractionalSpace]
    kappa: float
    decomposition: SpectralDecomposition

    def state(self, i: int) -> ModalCoefficients:
        return ModalCoefficients(self.states[i].copy(), self.decomposition)


def trajectory(
    dec: SpectralDecomposition,
    c0: ModalCoefficients,
    times: Sequence[float],
    alpha_space: Optional[FractionalSpace] = None,
    kappa: float = 0.0,
) -> SemigroupTrajectory:
    """Evaluate the trajectory on an increasing grid of times >= 0."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing and non-negative")
    states = np.empty((t.size, dec.N))
    norms_rho = np.empty(t.size)
    norms_a = np.empty(t.size) if alpha_space is not None else None
    for i, ti in enumerate(t):
        c = evolve(dec, c0, float(ti), kappa)
        states[i] = c.coefficients
        norms_rho[i] = float(np.linalg.norm(c.coefficients))
        if alpha_space is not None:
            norms_a[i] = norm_alpha(alpha_space, c)
    return SemigroupTrajectory(t, states, norms_rho, norms_a, alpha_space, kappa, dec)


def is_exponentially_stable(dec: SpectralDecomposition) -> Tuple[bool, float]:
    """(stable, decay rate): stable iff gamma < 0, rate = -gamma when stable.

    A gamma within ZERO_EIGENVALUE_TOL of 0 is solver round-off of a zero
    eigenvalue and reads as 0, so it is not stable.
    """
    gamma = dec.gamma
    stable = gamma < -ZERO_EIGENVALUE_TOL
    return stable, (-gamma if stable else 0.0)


def is_compact(dec_or_eigs) -> bool:
    """Finite surrogate for compactness of the resolvent/semigroup tail.

    True when only finitely many eigenvalues are >= 0 within the window
    (strictly fewer than N) and the sequence is strictly decreasing, the
    behaviour an SL spectrum must show.  Eigenvalues within
    ZERO_EIGENVALUE_TOL of 0 count as 0.
    """
    if isinstance(dec_or_eigs, SpectralDecomposition):
        lam = dec_or_eigs.eigenvalues
    else:
        lam = np.asarray(dec_or_eigs, dtype=np.float64)
    if lam.size == 0:
        raise ValueError("empty eigenvalue sequence")
    nonneg = int(np.sum(lam >= -ZERO_EIGENVALUE_TOL))
    decreasing = bool(np.all(np.diff(lam) < 0.0))
    return nonneg < lam.size and decreasing


def growth_bound(
    dec: SpectralDecomposition, traj: SemigroupTrajectory
) -> np.ndarray:
    """Per-time ratios ||c(t)|| / (exp(gamma t) ||c(0)||), each <= 1 + eps."""
    n0 = traj.norms_rho[0]
    if n0 == 0.0:
        raise ValueError("growth bound undefined for the zero initial state")
    envelope = np.exp((dec.gamma - traj.kappa) * (traj.times - traj.times[0])) * n0
    return traj.norms_rho / envelope


def trajectory_to_csv(traj: SemigroupTrajectory, path_or_file) -> None:
    """Rows: t, then the N modal coefficients, full precision."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"c_{n}" for n in range(1, traj.decomposition.N + 1)])
        for ti, row in zip(traj.times, traj.states):
            writer.writerow([f"{ti:.17g}"] + [f"{v:.17g}" for v in row])
    finally:
        if own:
            fh.close()


def trajectory_to_json(traj: SemigroupTrajectory) -> str:
    doc = {
        "schema_version": 1,
        "kappa": traj.kappa,
        "eigenvalues": traj.decomposition.eigenvalues.tolist(),
        "times": traj.times.tolist(),
        "coefficients": traj.states.tolist(),
        "norms_rho": traj.norms_rho.tolist(),
    }
    if traj.norms_alpha is not None:
        doc["norms_alpha"] = traj.norms_alpha.tolist()
        doc["alpha"] = traj.space_alpha.alpha
        doc["mu"] = traj.space_alpha.mu
    return json.dumps(doc, sort_keys=True, indent=2)
