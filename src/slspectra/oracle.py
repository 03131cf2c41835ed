"""Independent finite-difference reference for the spectral machinery.

A second-order flux discretization of A f = (1/rho)((p f')' - q f) on a
uniform mesh, with Robin conditions absorbed into the boundary rows through
the boundary flux (equivalent to second-order ghost-node elimination) and
half-width boundary cells.  The operator is similar to a symmetric
tridiagonal matrix via diag(sqrt(rho_i h_i)), which is what fd_eigs
diagonalizes.  Crank-Nicolson stepping provides the trajectory oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .core import SLProblem

__all__ = ["FDOperator", "assemble", "fd_eigs", "crank_nicolson"]


@dataclass(frozen=True)
class FDOperator:
    problem: SLProblem
    M: int
    h: float
    nodes: np.ndarray  # mesh nodes carrying unknowns (Dirichlet ends removed)
    sub: np.ndarray  # A_h subdiagonal
    diag: np.ndarray  # A_h diagonal
    sup: np.ndarray  # A_h superdiagonal
    cell_weights: np.ndarray  # rho_i * h_i, the discrete rho-inner-product

    @property
    def size(self) -> int:
        return self.nodes.size

    def symmetric_tridiagonal(self) -> Tuple[np.ndarray, np.ndarray]:
        """d, e of diag(w)^(1/2) A_h diag(w)^(-1/2), exactly symmetric."""
        w = self.cell_weights
        e = self.sup[:-1] * np.sqrt(w[:-1] / w[1:])
        return self.diag.copy(), e

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.sup[:-1] * x[1:]
        y[1:] += self.sub[1:] * x[:-1]
        return y

    def norm_rho(self, x: np.ndarray) -> float:
        return float(np.sqrt(np.dot(self.cell_weights, x * x)))


def assemble(prob: SLProblem, M: int) -> FDOperator:
    """Discretize A on a uniform mesh of M cells (M+1 nodes).

    A Dirichlet end (alpha = 0) eliminates its node; a Robin end keeps the
    node with a half cell and the flux p f' replaced via the boundary
    condition, which is second-order accurate.
    """
    if M < 16:
        raise ValueError("need M >= 16")
    a, b = prob.interval.a, prob.interval.b
    h = (b - a) / M
    nodes = a + h * np.arange(M + 1)
    mid = prob.p(nodes[:-1] + h / 2.0)  # p at cell midpoints, length M
    q_n = prob.q(nodes)
    rho_n = prob.rho(nodes)

    alpha_a, beta_a = prob.bc_a
    alpha_b, beta_b = prob.bc_b
    dir_a = alpha_a == 0.0
    dir_b = alpha_b == 0.0

    n_full = M + 1
    sub = np.zeros(n_full)
    diag = np.zeros(n_full)
    sup = np.zeros(n_full)
    wts = np.zeros(n_full)

    # interior rows: (1/rho_i) [p_{i-1/2} f_{i-1} - (p_{i-1/2}+p_{i+1/2}) f_i
    #                           + p_{i+1/2} f_{i+1}] / h^2 - q_i f_i / rho_i
    i = np.arange(1, M)
    sub[i] = mid[i - 1] / (rho_n[i] * h * h)
    sup[i] = mid[i] / (rho_n[i] * h * h)
    diag[i] = -(mid[i - 1] + mid[i]) / (rho_n[i] * h * h) - q_n[i] / rho_n[i]
    wts[i] = rho_n[i] * h

    # Robin rows: half cell, boundary flux p f' = -(beta/alpha) p f
    if not dir_a:
        c = 2.0 / (rho_n[0] * h * h)
        sup[0] = c * mid[0]
        diag[0] = (
            -c * mid[0]
            + (2.0 / (rho_n[0] * h)) * prob.p(a) * (beta_a / alpha_a)
            - q_n[0] / rho_n[0]
        )
        wts[0] = rho_n[0] * h / 2.0
    if not dir_b:
        c = 2.0 / (rho_n[M] * h * h)
        sub[M] = c * mid[M - 1]
        diag[M] = (
            -c * mid[M - 1]
            - (2.0 / (rho_n[M] * h)) * prob.p(b) * (beta_b / alpha_b)
            - q_n[M] / rho_n[M]
        )
        wts[M] = rho_n[M] * h / 2.0

    keep = slice(0 if not dir_a else 1, n_full if not dir_b else M)
    return FDOperator(
        prob, M, h, nodes[keep], sub[keep], diag[keep], sup[keep], wts[keep]
    )


def fd_eigs(op: FDOperator, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k largest eigenvalues of the discretized A, with rho-normalized vectors.

    Returns (eigenvalues descending, vectors as rows), eigenvalues via the
    symmetric-tridiagonal form.  Sign convention matches the shooting
    solver: positive value (or slope) at the left end.
    """
    n = op.size
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    d, e = op.symmetric_tridiagonal()
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(n - k, n - 1))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    # undo the similarity and rho-normalize on the mesh
    funcs = vecs / np.sqrt(op.cell_weights)[:, None]
    nr = np.sqrt(np.einsum("i,ij,ij->j", op.cell_weights, funcs, funcs))
    funcs = funcs / nr
    for j in range(k):
        v = funcs[:, j]
        lead = v[0] if abs(v[0]) > 1e-10 else v[1] - v[0]
        if lead < 0:
            funcs[:, j] = -v
    return vals, funcs.T


def crank_nicolson(
    op: FDOperator, x0: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """Trapezoidal stepping of x' = A_h x from x0 to time t.

    Full steps of dt followed by one fractional step; each step solves the
    tridiagonal system (I - dt/2 A_h) x+ = (I + dt/2 A_h) x.  The matrix is
    LU-factored (pivoted, LAPACK gttrf) once per step size, so a step costs
    one matvec and one gttrs solve.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != op.nodes.shape:
        raise ValueError("x0 shape does not match mesh")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    def stepper(tau):
        h = tau / 2.0
        dl, d, du = -h * op.sub[1:], 1.0 - h * op.diag, -h * op.sup[:-1]
        if not all(np.isfinite(v).all() for v in (dl, d, du)):
            raise ValueError("I - tau/2 A_h must be finite")
        lu = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if lu[-1] > 0:
            raise LinAlgError("singular matrix")

        def step(x):
            # gttrs on the gttrf factors is the elimination gtsv (and so
            # solve_banded((1, 1), ...)) performs: bit-identical results
            return dgttrs(*lu[:-1], x + h * op.matvec(x), overwrite_b=1)[0]

        return step

    nfull = int(np.floor(t / dt + 1e-12))
    if nfull:
        step = stepper(dt)
        for _ in range(nfull):
            x = step(x)
    rem = t - nfull * dt
    if rem > 1e-14 * max(t, 1.0):
        x = stepper(rem)(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("Crank-Nicolson produced non-finite values")
    return x
