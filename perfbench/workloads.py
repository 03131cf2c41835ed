"""Seeded request lists for the three workloads, with their correctness checks.

A request is one call into the public API of ``slspectra`` (or into
``slspectra.cli.main``).  Its check runs after the timed pass and compares
the output with a reference computed outside the library where one exists.
The bounds are the ones the repository's tests and ``slspectra verify``
already use; none is looser.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional

import numpy as np
from scipy.optimize import brentq

import slspectra
import slspectra.cli
from slspectra import (
    DCRModel,
    Interval,
    SLProblem,
    assemble,
    bc_residual,
    dcr_sl_problem,
    fd_eigs,
    parse_coeff,
    solve_case_study,
    transformed_problem,
)

from tracing import CountingCoeff

MODEL = DCRModel(1.0, 0.75)


@dataclass
class Request:
    """One timed call: ``call(traced)`` runs it, ``check(out, outs)`` judges it.

    ``check`` returns None when the output is correct and a message when it
    is not; ``outs`` maps every request name of the pass to its output.
    """

    name: str
    call: Callable[[bool], Any]
    check: Callable[[Any, dict], Optional[str]]
    rescaled: bool = False


def _fmt(x: float) -> str:
    return repr(float(x))


def _rel_gap(got, ref, floor=0.0) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), floor)))


def _bound(what: str, value: float, bound: float) -> Optional[str]:
    if value <= bound:
        return None
    return f"{what} {value:.3e} exceeds {bound:g}"


# ---------------------------------------------------------------------------
# Library workloads: each request is solve_spectrum on one problem


@functools.lru_cache(maxsize=None)
def _case_study_lams(N: int) -> np.ndarray:
    return solve_case_study(MODEL, N).lam


def _problem(prob: SLProblem, tracer) -> SLProblem:
    """The same problem with counting coefficients, for the traced run."""

    def counted(c):
        return CountingCoeff(c.source, tracer=tracer)

    return replace(prob, p=counted(prob.p), q=counted(prob.q), rho=counted(prob.rho), dp=None)


def _solve_request(name, prob, N, tracer, check, rescaled=False) -> Request:
    counted = _problem(prob, tracer) if tracer is not None else None

    def call(traced: bool):
        return slspectra.solve_spectrum(counted if traced else prob, N=N)

    return Request(name, call, check, rescaled)


def _decomposition_checks(prob: SLProblem, dec, N: int) -> Optional[str]:
    """rho-Gram deviation <= 1e-6 and Robin residuals <= 1e-8, as `eigs` enforces."""
    if dec.N != N:
        return f"{dec.N} eigenpairs instead of {N}"
    V = dec.values_matrix()
    W = prob.rho(dec.grid.nodes) * dec.grid.weights
    gram = float(np.max(np.abs((V * W) @ V.T - np.eye(N))))
    bc = max(max(abs(ra), abs(rb)) for ra, rb in (bc_residual(prob, f) for f in dec.eigenfunctions))
    return _bound("rho-Gram deviation", gram, 1e-6) or _bound("BC residual", bc, 1e-8)


def _random_positive(rng) -> str:
    kind = rng.integers(3)
    if kind == 0:
        return f"1 + {_fmt(rng.uniform(0, 1))}*z + {_fmt(rng.uniform(0, 1))}*z^2"
    if kind == 1:
        return f"exp({_fmt(rng.uniform(-1, 1))}*z)"
    return f"1.5 + sin({_fmt(rng.uniform(1, 3))}*z + {_fmt(rng.uniform(0, 3))})"


def _random_q(rng) -> str:
    terms = [
        f"{_fmt(rng.uniform(-2, 2))}",
        f"{_fmt(rng.uniform(-2, 2))}*z^{int(rng.integers(1, 4))}",
        f"{_fmt(rng.uniform(-1, 1))}*exp({_fmt(rng.uniform(-2, 2))}*z)",
        f"{_fmt(rng.uniform(-1, 1))}*sin({_fmt(rng.uniform(1, 5))}*z)",
    ]
    keep = rng.permutation(len(terms))[: int(rng.integers(2, 5))]
    return " + ".join(terms[i] for i in sorted(keep))


def varcoef(seed: int, tracer, small: bool, ref_scale: float) -> List[Request]:
    """The two ROADMAP anchors plus seeded variable-coefficient Robin problems."""
    rng = np.random.default_rng(seed)
    members = [
        ("anchor_dcr_weighted", dcr_sl_problem(MODEL), 3 if small else 10),
    ]
    if not small:
        members.append((
            "anchor_p1z2_robin",
            SLProblem.from_strings(0.0, 1.0, "1 + z^2", "z", "exp(z)", (1.0, -0.5), (1.0, 0.5)),
            20,
        ))
    for i in range(1 if small else 2):
        prob = SLProblem(
            Interval(0.0, 1.0),
            parse_coeff(_random_positive(rng)),
            parse_coeff(_random_q(rng)),
            parse_coeff(_random_positive(rng)),
            (1.0, float(rng.uniform(-1, 1))),
            (1.0, float(rng.uniform(-1, 1))),
        )
        members.append((f"generated_{i}", prob, 3 if small else int(rng.integers(6, 11))))

    requests = []
    for name, prob, N in members:
        fd_ref = {}

        def check(dec, outs, prob=prob, N=N, name=name, fd_ref=fd_ref):
            bad = _decomposition_checks(prob, dec, N)
            if bad:
                return bad
            if name == "anchor_dcr_weighted":
                ref = _case_study_lams(N) - MODEL.kappa
                bad = _bound("gap to -s_n^2 - kappa",
                             _rel_gap(dec.eigenvalues, ref_scale * ref), 1e-7)
                if bad:
                    return bad
            if "vals" not in fd_ref:
                fd_ref["vals"] = fd_eigs(assemble(prob, M=4000), N)[0]
            # floor 1: an eigenvalue near 0 is compared on the unit scale
            return _bound("gap to fd_eigs(M=4000)",
                          _rel_gap(dec.eigenvalues, ref_scale * fd_ref["vals"], 1.0), 1e-3)

        requests.append(_solve_request(name, prob, N, tracer, check))
    return requests


# constant coefficients: unit problems on [0, 1] with p = rho = 1, q = 0


@functools.lru_cache(maxsize=None)
def _robin_reference(beta_a: float, beta_b: float, N: int) -> np.ndarray:
    """-s^2 at the first N roots of (bb - ba) s cos s - (s^2 + ba bb) sin s.

    These are the eigenvalues of f'' = lambda f with f'(0) + ba f(0) = 0
    and f'(1) + bb f(1) = 0; with ba < 0 < bb every root is positive.
    """

    def g(s):
        return (beta_b - beta_a) * s * math.cos(s) - (s * s + beta_a * beta_b) * math.sin(s)

    grid = np.linspace(1e-3, (N + 1) * math.pi, 64 * (N + 1))
    vals = np.array([g(s) for s in grid])
    roots = []
    for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:N]:
        roots.append(brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return -np.array(roots) ** 2


def _unit_kinds(rng, small: bool):
    """(kind, bc_a, bc_b, N, reference eigenvalues) of the unit members.

    The reference is a function, so it is computed at check time and stays
    out of the set-up time.
    """
    out = []
    lo, hi = math.log(5), math.log(8 if small else 200)
    # one member per quarter of [log 5, log hi], so the total size is steady
    strata = rng.permutation(4)
    for k, kind in enumerate(("dirichlet", "neumann", "mixed", "robin")):
        N = int(round(math.exp(lo + (strata[k] + rng.uniform()) * (hi - lo) / 4)))
        n = np.arange(1.0, N + 1.0)
        if kind == "dirichlet":
            out.append((kind, (0.0, 1.0), (0.0, 1.0), N, lambda n=n: -(n * math.pi) ** 2))
        elif kind == "neumann":
            out.append((kind, (1.0, 0.0), (1.0, 0.0), N, lambda n=n: -((n - 1.0) * math.pi) ** 2))
        elif kind == "mixed":
            ends = [(0.0, 1.0), (1.0, 0.0)]
            if rng.random() < 0.5:
                ends.reverse()
            out.append((kind, ends[0], ends[1], N, lambda n=n: -((n - 0.5) * math.pi) ** 2))
        else:
            # |beta| <= 0.3 keeps lambda_1 under 1, so index 1 takes the plain
            # form at unit scale, as it does for Neumann ends and the DCR
            ba = -(10.0 ** rng.uniform(-1.5, -0.5))
            bb = 10.0 ** rng.uniform(-1.5, -0.5)
            out.append((kind, (1.0, ba), (1.0, bb), N,
                        functools.partial(_robin_reference, ba, bb, N)))
    return out


def constcoef(seed: int, tracer, small: bool, ref_scale: float) -> List[Request]:
    """Unit-scale classical problems, the transformed DCR, and rescaled copies.

    A copy on [0, c] with rho = R and the unit member's conditions (alpha
    scaled by c) has eigenvalues lambda_unit / (R c^2).  The solver leaves
    its scaled Pruefer form for an index whose lambda*rho - q falls under
    1, which happens when c^2 exceeds that index's unit eigenvalue; R
    scales the eigenvalues but not lambda*rho.  Copy j of 8 takes
    log10(c^2) from the j-th eighth of [-2, 2], with the unit kinds in a
    fixed order, so every seed puts the same kinds on the same side of the
    switch at about the same cost; log10(p / rho) = -log10(R) is uniform on
    [-2, 2].  Keeping p = 1 matters: with p = P the plain form's cost also
    depends on c / P, and the copies' cost then spreads over a factor 6.

    Checks are on eigenvalues only.  Past about N = 128 the default grid
    (64 panels of 8 Gauss points) no longer resolves the eigenfunctions: the
    rho-Gram deviation is 3.8e-6 at N = 150 and 1.2e-3 at N = 200, over the
    1e-6 that `slspectra eigs` enforces, and Robin residuals pass 1e-8 near
    N = 200.  The varcoef workload (N <= 20) carries those checks.
    """
    rng = np.random.default_rng(seed)
    requests = []
    units = _unit_kinds(rng, small)
    for kind, bc_a, bc_b, N, exact in units:
        prob = SLProblem.from_strings(0.0, 1.0, "1", "0", "1", bc_a, bc_b)

        def check(dec, outs, exact=exact):
            return _bound("gap to closed form",
                          _rel_gap(dec.eigenvalues, ref_scale * exact(), 1.0), 1e-8)

        requests.append(_solve_request(f"unit_{kind}", prob, N, tracer, check))

    n_dcr = 10 if small else 50
    dcr = transformed_problem(MODEL)

    def check_dcr(dec, outs):
        ref = _case_study_lams(n_dcr)
        return _bound("gap to solve_case_study",
                      _rel_gap(dec.eigenvalues, ref_scale * ref), 1e-10)

    requests.append(_solve_request("unit_dcr_transformed", dcr, n_dcr, tracer, check_dcr))

    copies = 2 if small else 8
    jitter = rng.uniform(size=copies // 2)
    for j in range(copies):
        kind, bc_a, bc_b, N, _ = units[j % len(units)]
        # copies 2i and 2i+1 sit at mirrored places in their strata, so
        # their summed cost barely depends on the seed
        u = jitter[j // 2] if j % 2 == 0 else 1.0 - jitter[j // 2]
        c, R = 10.0 ** ((-2.0 + (j + u) * 4.0 / copies) / 2.0), 10.0 ** rng.uniform(-2, 2)
        prob = SLProblem.from_strings(
            0.0, c, "1", "0", _fmt(R), (bc_a[0] * c, bc_a[1]), (bc_b[0] * c, bc_b[1]))
        scale = 1.0 / (R * c * c)

        def check(dec, outs, kind=kind, scale=scale):
            unit = outs.get(f"unit_{kind}")
            if unit is None:
                return "unit member has no output"
            ref = ref_scale * scale * unit.eigenvalues
            return _bound("gap to the dilated unit member",
                          _rel_gap(dec.eigenvalues, ref, scale), 1e-8)

        requests.append(
            _solve_request(f"rescaled_{j}_{kind}", prob, N, tracer, check, rescaled=True))
    return requests


# ---------------------------------------------------------------------------
# CLI workload: slspectra.cli.main(argv) writing into a scratch directory


def _random_smooth(rng) -> str:
    terms = [
        _fmt(rng.uniform(0.5, 1.5)),
        f"{_fmt(rng.uniform(-1, 1))}*z",
        f"{_fmt(rng.uniform(-1, 1))}*z^2",
        f"{_fmt(rng.uniform(-0.5, 0.5))}*exp({_fmt(rng.uniform(-1, 1))}*z)",
        f"{_fmt(rng.uniform(-0.5, 0.5))}*sin({_fmt(rng.uniform(1, 4))}*z)",
        f"{_fmt(rng.uniform(-0.5, 0.5))}*cos({_fmt(rng.uniform(1, 4))}*z)",
    ]
    keep = [0] + sorted(1 + rng.permutation(5)[: int(rng.integers(1, 4))])
    return " + ".join(terms[i] for i in keep)


def _times(rng, total: float) -> str:
    """Three increasing times summing to `total`, so every request steps
    Crank-Nicolson the same number of times (it restarts from 0 for each).
    Each gap is at least total / 24, so the times stay distinct when printed."""
    x = np.cumsum(rng.uniform(0.25, 1.0, size=3))
    t = total * x / x.sum()
    return ",".join(f"{v:.6f}" for v in t)


def cli_dcr(seed: int, small: bool, ref_scale: float, workdir: str) -> List[Request]:
    """simulate --verify on the presets, eigs, observe and verify requests."""
    rng = np.random.default_rng(seed)
    cfg = {}
    for preset in ("dcr", "dirichlet", "neumann"):
        cfg[preset] = os.path.join(workdir, f"{preset}.json")
        with open(cfg[preset], "w") as fh:
            json.dump({"preset": preset}, fh)

    modes = 10 if small else 50
    total = 0.02 if small else 0.6
    argvs = []
    for i, preset in enumerate(["dcr"] if small else ["dcr", "dcr", "dirichlet", "neumann"]):
        x0 = _random_smooth(rng)
        if preset == "dirichlet":
            # an initial state in the domain: it vanishes at both ends
            x0 = f"z*(1 - z)*({x0})"
        argv = ["simulate", cfg[preset], "--x0", x0, "--times", _times(rng, total), "--verify"]
        if preset == "dcr":
            argv += ["--alpha", "0.5"]
        argvs.append((f"simulate_{i}_{preset}", argv))
    argvs.append(("eigs", ["eigs", cfg["dcr"], "--modes", str(modes)]))
    for z0 in ("0", "1"):
        argvs.append((f"observe_z0_{z0}", ["observe", cfg["dcr"], "--z0", z0, "--modes", str(modes)]))
    argvs.append(("verify", ["verify", "--suite", "core" if small else "all", "--seed", str(seed)]))

    requests = []
    for name, argv in argvs:
        argv = argv + ["--out", os.path.join(workdir, f"{name}.out.json")]

        def call(traced: bool, argv=argv):
            return slspectra.cli.main(argv)

        def check(code, outs, name=name, argv=argv):
            if code != 0:
                return f"exit code {code}"
            with open(argv[-1]) as fh:
                doc = json.load(fh)
            if name.startswith("simulate"):
                want = [float(t) for t in argv[argv.index("--times") + 1].split(",")]
                if doc["times"] != want:
                    return "output times differ from the request"
                return _bound("oracle l2_discrepancy", max(doc["oracle"]["l2_discrepancy"]), 1e-3)
            if name == "eigs":
                return _bound("gap to solve_case_study",
                              _rel_gap(doc["eigenvalues"], ref_scale * _case_study_lams(modes)),
                              1e-10)
            if name == "verify":
                return None if doc["passed"] is True else "verify reported passed=false"
            return None if doc["verdict"] is True else "observability verdict false"

        requests.append(Request(name, call, check))
    return requests
