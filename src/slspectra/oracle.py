"""Independent finite-difference reference for the spectral machinery.

A second-order flux discretization of A f = (1/rho)((p f')' - q f) on a
uniform mesh, with Robin conditions absorbed into the boundary rows through
the boundary flux (equivalent to second-order ghost-node elimination) and
half-width boundary cells.  The operator is similar to a symmetric
tridiagonal matrix via diag(sqrt(rho_i h_i)), which is what fd_eigs
diagonalizes; fd_eigs_extrapolated combines three meshes into low
eigenvalues accurate to about 1e-10.  Crank-Nicolson stepping provides the
trajectory oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import SLProblem

__all__ = ["FDOperator", "assemble", "fd_eigs", "fd_eigs_extrapolated", "crank_nicolson"]


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

    # Robin rows: half cell, boundary flux p f' = -(beta/alpha) p f, which
    # the row takes as -(p f')(a) at a and +(p f')(b) at b
    for i, j, off, (alpha, beta), z, sign in (
        (0, 0, sup, prob.bc_a, a, 1.0), (M, M - 1, sub, prob.bc_b, b, -1.0)
    ):
        if alpha != 0.0:
            c = 2.0 / (rho_n[i] * h * h)
            off[i] = c * mid[j]
            flux = sign * (2.0 / (rho_n[i] * h)) * prob.p(z) * (beta / alpha)
            diag[i] = -c * mid[j] + flux - q_n[i] / rho_n[i]
            wts[i] = rho_n[i] * h / 2.0

    # a Dirichlet end (alpha = 0) drops its node
    keep = slice(int(prob.bc_a[0] == 0.0), M + int(prob.bc_b[0] != 0.0))
    return FDOperator(
        prob, M, h, nodes[keep], sub[keep], diag[keep], sup[keep], wts[keep]
    )


def fd_eigs(op: FDOperator, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """k largest eigenvalues of the discretized A, with rho-normalized vectors.

    Returns (eigenvalues descending, vectors as rows), eigenvalues via the
    symmetric-tridiagonal form.  Sign convention matches the shooting
    solver: positive value (or slope) at the left end.
    """
    # imported here: scipy.linalg is slow to import, and only the oracle needs it
    from scipy.linalg import eigh_tridiagonal

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
    # the value at the first node, or the first difference where that is ~0
    lead = np.where(np.abs(funcs[0]) > 1e-10, funcs[0], funcs[1] - funcs[0])
    return vals, (funcs * np.where(lead < 0.0, -1.0, 1.0)).T


def fd_eigs_extrapolated(prob: SLProblem, k: int, M: int) -> np.ndarray:
    """k largest eigenvalues of A from fd_eigs on M, 2M and 4M cells.

    The error of the scheme is a series in h^2, so two Richardson steps
    (factors 4 and 16) remove its h^2 and h^4 terms.  The series holds while
    k h is small, so keep k well under M.
    """
    lam = [fd_eigs(assemble(prob, m), k)[0] for m in (M, 2 * M, 4 * M)]
    for ratio in (4.0, 16.0):
        lam = [(ratio * fine - coarse) / (ratio - 1.0) for coarse, fine in zip(lam, lam[1:])]
    return lam[0]


def crank_nicolson(
    op: FDOperator, x0: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """Trapezoidal stepping of x' = A_h x from x0 to time t.

    Full steps of dt followed by one fractional step; each step solves the
    tridiagonal system (I - dt/2 A_h) x+ = (I + dt/2 A_h) x.  The matrix is
    LU-factored (pivoted, LAPACK gttrf) once per step size, so a step costs
    one matvec and one gttrs solve.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgttrf, dgttrs

    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
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
