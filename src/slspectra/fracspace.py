"""Fractional-power Hilbert spaces built on a spectral decomposition.

With mu above the whole spectrum, (mu I - A)^alpha acts diagonally on modal
coefficients with the positive weights (mu - lambda_n)^alpha.  The space
X_alpha carries <f, g>_alpha = sum (mu - lambda_n)^(2 alpha) f_n g_n, and
the rescaled eigenfunctions (mu - lambda_n)^(-alpha) phi_n are orthonormal
in it.  rescaled_basis returns them as one family, so that its Gram matrix
in a_mu (X_{1/2}) or in <(mu - A) f, (mu - A) g>_rho (X_1) is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .core import GridFunction, _check_count
from .eigensolve import ModalCoefficients, SpectralDecomposition

__all__ = [
    "FractionalSpace",
    "TailReport",
    "fractional_space",
    "coercivity_gap",
    "fractional_apply",
    "in_domain_alpha",
    "inner_product_alpha",
    "norm_alpha",
    "rescaled_basis",
    "scaling_identity_check",
    "apply_A_alpha",
]

MAX_ALPHA = 4.0
# in_domain_alpha's fit reads |c_n| <= ROUNDOFF_KAPPA eps sqrt(sum c_n^2 * nodes)
# as 0.  At ROUNDOFF_KAPPA = 1, for f = 1 and z(1 - z) (Dirichlet) and z
# (Neumann) at N = 50 and 150, the largest c_n that is 0 exactly was 0.50 of
# that floor and the smallest other c_n 3.9e7 times it.
ROUNDOFF_KAPPA = 4.0


@dataclass(frozen=True)
class FractionalSpace:
    alpha: float
    mu: float
    dec: SpectralDecomposition

    def __post_init__(self):
        if not 0.0 < self.alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must lie in (0, {MAX_ALPHA}]")
        if not (math.isfinite(self.mu) and self.mu > self.dec.gamma):
            raise ValueError(
                f"mu must be finite and exceed the largest eigenvalue, got mu = {self.mu!r}")

    @property
    def epsilon(self) -> float:
        """mu - gamma, the coercivity margin of mu I - A."""
        return self.mu - self.dec.gamma

    @property
    def gaps(self) -> np.ndarray:
        """(mu - lambda_n), all strictly positive."""
        return self.mu - self.dec.eigenvalues

    def weights(self, power: float) -> np.ndarray:
        return self.gaps ** power


def fractional_space(
    dec: SpectralDecomposition, alpha: float, mu: float | None = None
) -> FractionalSpace:
    """Construct X_alpha with shift mu, by default gamma + 1.

    An explicit mu covers the case-study choice mu = 0, legitimate
    whenever 0 exceeds the whole spectrum.
    """
    return FractionalSpace(alpha, dec.gamma + 1.0 if mu is None else mu, dec)


def _check_same(fs: FractionalSpace, c: ModalCoefficients):
    if c.decomposition is not fs.dec and not np.array_equal(
        c.decomposition.eigenvalues, fs.dec.eigenvalues
    ):
        raise ValueError("coefficients belong to a different decomposition")


def coercivity_gap(fs: FractionalSpace, c: ModalCoefficients) -> float:
    """Rayleigh ratio <(mu I - A) f, f>_rho / ||f||_rho^2, always > epsilon."""
    _check_same(fs, c)
    c2 = c.coefficients ** 2
    denom = float(np.sum(c2))
    if denom == 0.0:
        raise ValueError("coercivity gap undefined for the zero function")
    return float(np.sum(fs.gaps * c2)) / denom


def fractional_apply(
    fs: FractionalSpace, c: ModalCoefficients, sign: int = +1
) -> ModalCoefficients:
    """(mu I - A)^(sign * alpha) acting on modal coefficients."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_same(fs, c)
    return c.scaled(fs.weights(sign * fs.alpha))


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


def in_domain_alpha(fs: FractionalSpace, c: ModalCoefficients) -> TailReport:
    """Truncated sum (mu - lambda_n)^(2 alpha) c_n^2 with a tail verdict.

    X_1 is D(A), so alpha = 1 is the domain-membership test (any admissible
    mu gives an equivalent norm; mu = 0 sums lambda_n^2 c_n^2).  The value is
    the whole sum; the fit reads c_n within round-off (ROUNDOFF_KAPPA) as 0.
    """
    _check_same(fs, c)
    co = c.coefficients
    if not np.all(np.isfinite(co)):
        raise ValueError("coefficients must be finite")
    summands = fs.weights(2.0 * fs.alpha) * co ** 2
    floor = ROUNDOFF_KAPPA * np.finfo(float).eps * math.sqrt(np.sum(co ** 2) * fs.dec.grid.size)
    return _tail_verdict(np.where(np.abs(co) > floor, summands, 0.0), float(np.sum(summands)))


def inner_product_alpha(
    fs: FractionalSpace, f: ModalCoefficients, g: ModalCoefficients
) -> float:
    """<f, g>_alpha = sum (mu - lambda_n)^(2 alpha) f_n g_n."""
    _check_same(fs, f)
    _check_same(fs, g)
    return float(np.sum(fs.weights(2.0 * fs.alpha) * f.coefficients * g.coefficients))


def norm_alpha(fs: FractionalSpace, f: ModalCoefficients) -> float:
    return math.sqrt(max(inner_product_alpha(fs, f, f), 0.0))


def rescaled_basis(fs: FractionalSpace) -> GridFunction:
    """phi_{n,alpha} = (mu - lambda_n)^(-alpha) phi_n as one family, row n - 1."""
    return fs.dec.modes.scaled(fs.weights(-fs.alpha)[:, None])


def scaling_identity_check(
    fs: FractionalSpace, c: ModalCoefficients, n: int
) -> Tuple[float, float]:
    """Both sides of <f, phi_{n,alpha}>_alpha = (mu - lambda_n)^alpha <f, phi_n>_rho.

    The left side goes through inner_product_alpha with the rescaled-basis
    coefficient vector, the right side through direct scaling.
    """
    _check_count("n", n, 1)
    if n > fs.dec.N:
        raise ValueError("mode index out of range")
    _check_same(fs, c)
    e = np.zeros(fs.dec.N)
    e[n - 1] = fs.weights(-fs.alpha)[n - 1]
    lhs = inner_product_alpha(fs, c, ModalCoefficients(e, fs.dec))
    rhs = float(fs.gaps[n - 1] ** fs.alpha * c.coefficients[n - 1])
    return lhs, rhs


def apply_A_alpha(fs: FractionalSpace, c: ModalCoefficients) -> ModalCoefficients:
    """A acting on rho-coefficients: identical diagonal action lambda_n c_n.

    On X_alpha the operator has the same eigenvalues with the rescaled
    eigenfunctions; the representation equality is a tested property, not a
    second code path.
    """
    _check_same(fs, c)
    return c.scaled(fs.dec.eigenvalues)
