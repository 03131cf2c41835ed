"""Command-line front end: eigs, simulate, observe, and verify subcommands.

Problem definitions come from a JSON config file — either explicit
coefficient expressions or a named preset — validated against a published
schema; `observe` takes a config or a `--synthetic` trace file, not both.
Each cmd_* returns its document, verdict, tolerances and config text, and
`main` writes every subcommand through one path: JSON (deterministic key
order, shortest round-trip floats) to `--out` or stdout and, with `--out`,
a sidecar run manifest with the same keys for all four (`seed` null except
for `verify`, `config_sha256` null without a config), so results can be
reproduced byte for byte.  `simulate --csv` writes its CSV time series
first; every file is written atomically, so a failed write leaves no
partial or truncated file.

Exit codes: 0 all checks pass, 1 input error or solver failure
(EigenvalueBracketError, one `error:` line and no document), 2 numerical
tolerance violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from typing import List, Optional, Tuple

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import __version__
from .core import (
    GridFunction,
    Interval,
    SLProblem,
    apply_operator,
    bc_residual,
    find_root,
    form_inner_product,
    grid_function,
    inner_product_rho,
    integrate,
    make_grid,
)
from .expressions import parse_coeff
from .eigensolve import (
    EigenvalueBracketError,
    ModalCoefficients,
    coefficients_of,
    solve_spectrum,
    synthesize,
)
from .fracspace import fractional_space, rescaled_basis, scaling_identity_check
from .semigroup import (
    evolve,
    growth_bound,
    is_compact,
    is_exponentially_stable,
    trajectory,
    trajectory_to_csv,
)
from .oracle import assemble, crank_nicolson
from .casestudy import (
    DEFAULT_OBSERVABILITY_TOL,
    DCRModel,
    boundary_trace_closed_form,
    check_observation,
    closed_form_eigenfunction,
    norm_equivalence,
    observability_from_values,
    observability_test,
    poincare_check,
    solve_case_study,
    transformed_problem,
    trig_corpus,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2

# the interval and each boundary-condition pair: two numbers
_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "slspectra problem config",
    "oneOf": [
        {
            "type": "object",
            "required": ["interval", "p", "q", "rho", "bc_a", "bc_b"],
            "additionalProperties": False,
            "properties": {
                "interval": _PAIR,
                "p": {"type": "string"},
                "q": {"type": "string"},
                "rho": {"type": "string"},
                "bc_a": _PAIR,
                "bc_b": _PAIR,
            },
        },
        {
            "type": "object",
            "required": ["preset"],
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["dirichlet", "neumann", "dcr"]},
                "D": {"type": "number", "exclusiveMinimum": 0},
                "k0": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    ],
}

# built once: jsonschema.validate would re-check the meta-schema per call;
# best_match picks the same error jsonschema.validate would raise
CONFIG_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def _preset_problem(name: str) -> SLProblem:
    """The dirichlet or neumann preset: p = rho = 1 and q = 0 on [0, 1]."""
    bc = (0.0, 1.0) if name == "dirichlet" else (1.0, 0.0)
    return SLProblem.from_strings(0.0, 1.0, "1", "0", "1", bc, bc)


def load_config(path: str) -> Tuple[SLProblem, Optional[DCRModel], str]:
    """Read, schema-validate, and materialize a problem config.

    Returns the problem, the DCR model of the dcr preset (else None), and
    the text that was read, which the run manifest hashes.  A bad value in
    the config raises ValueError.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    error = best_match(CONFIG_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ValueError(f"config rejected by schema: {error.message}")

    if "preset" in doc:
        name = doc["preset"]
        if name != "dcr":
            return _preset_problem(name), None, raw
        model = DCRModel(float(doc.get("D", 1.0)), float(doc.get("k0", 0.75)))
        # the transformed constant-coefficient operator A (unshifted)
        return transformed_problem(model), model, raw
    prob = SLProblem.from_strings(
        *doc["interval"], doc["p"], doc["q"], doc["rho"], doc["bc_a"], doc["bc_b"]
    )
    return prob, None, raw


def _fractional_space(dec, alpha: float, model: Optional[DCRModel]):
    """X_alpha: at the case study's mu = 0 on the dcr preset, else at gamma + 1."""
    return fractional_space(dec, alpha, mu=0.0 if model is not None else None)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".slspectra-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------- eigs

def cmd_eigs(args):
    prob, model, config_text = load_config(args.config)
    N = args.modes
    tolerances = {"orthonormality": 1e-6, "bc_residual": 1e-8}
    dec = solve_spectrum(prob, N=N)
    gram_err = float(np.max(np.abs(inner_product_rho(dec.modes, dec.modes, prob.rho) - np.eye(N))))
    res = np.abs(bc_residual(prob, dec.modes))
    max_bc = float(res.max())
    doc = dec.to_dict()
    doc["residuals"] = {
        "orthonormality": gram_err,
        "bc_a": res[0].tolist(),
        "bc_b": res[1].tolist(),
    }
    if model is not None:
        doc["case_study"] = solve_case_study(model, N).to_dict()
    passed = not (gram_err > tolerances["orthonormality"] or max_bc > tolerances["bc_residual"])
    return doc, passed, tolerances, config_text


# ------------------------------------------------------------ simulate

def _parse_times(raw: str) -> np.ndarray:
    """The --times list; trajectory checks that it is finite and increasing."""
    try:
        return np.array([float(v) for v in raw.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"bad --times list: {raw!r}")


def _initial_state(x0_expr, model: Optional[DCRModel], z: np.ndarray) -> np.ndarray:
    """x0 at the nodes z; for the dcr preset in the similarity variable."""
    with np.errstate(all="ignore"):  # coefficients_of rejects non-finite values
        x = x0_expr(z)
    if model is not None:
        x = x * np.exp(-z / (2.0 * model.D))
    return x


def cmd_simulate(args):
    prob, model, config_text = load_config(args.config)
    times = _parse_times(args.times)
    x0_expr = parse_coeff(args.x0)

    kappa = args.kappa
    if kappa is None:
        # the dcr preset simulates the full generator A - kappa I
        kappa = model.kappa if model is not None else 0.0

    dec = solve_spectrum(prob, N=args.modes)
    c0 = coefficients_of(
        GridFunction(dec.grid, _initial_state(x0_expr, model, dec.grid.nodes)), dec)

    fs = _fractional_space(dec, args.alpha, model) if args.alpha is not None else None
    traj = trajectory(c0, times, alpha_space=fs, kappa=kappa)
    doc = traj.to_dict()

    tolerances = {"oracle_l2": 1e-3}
    passed = True
    if args.verify:
        op = assemble(prob, M=args.oracle_cells)
        discrepancies = []
        # step on from the previous time's state (kappa is applied in closed form)
        x_fd, t_prev = _initial_state(x0_expr, model, op.nodes), 0.0
        for ti, c in zip(times, traj.states):
            xs = np.interp(op.nodes, dec.grid.nodes, synthesize(ModalCoefficients(c, dec)).values)
            if ti > t_prev:
                x_fd = crank_nicolson(op, x_fd, float(ti - t_prev), args.oracle_dt)
                t_prev = ti
            discrepancies.append(op.norm_rho(xs - x_fd * math.exp(-kappa * ti)))
        doc["oracle"] = {
            "cells": args.oracle_cells,
            "dt": args.oracle_dt,
            "l2_discrepancy": discrepancies,
            "tolerance": tolerances["oracle_l2"],
        }
        passed = not max(discrepancies) > tolerances["oracle_l2"]

    # the CSV goes before the document, so that a failed write leaves no output at all
    if args.csv:
        _atomic_write(args.csv, trajectory_to_csv(traj))
    return doc, passed, tolerances, config_text


# ------------------------------------------------------------- observe

def cmd_observe(args):
    if (args.config is None) == (args.synthetic is None):
        raise ValueError("observe needs a config file or --synthetic, not both")
    if args.synthetic is not None:
        try:
            with open(args.synthetic) as fh:
                doc_in = json.load(fh)
            values = np.asarray(doc_in["values"], dtype=np.float64)
            z0 = float(doc_in.get("z0", 0.0) if args.z0 is None else args.z0)
            alpha = float(doc_in.get("alpha", 0.5))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad synthetic report input: {exc}")
        report = observability_from_values(values, z0, alpha, tol=args.tol)
        config_text = None
    else:
        prob, model, config_text = load_config(args.config)
        z0 = prob.interval.a if args.z0 is None else args.z0
        check_observation(prob.interval, z0, args.tol)  # before the solve
        dec = solve_spectrum(prob, N=args.modes)
        fs = _fractional_space(dec, 0.5, model)
        report = observability_test(fs, z0, tol=args.tol)
    return report.to_dict(), report.verdict, {"trace_tol": args.tol}, config_text


# -------------------------------------------------------------- verify

def _suite_core(seed: int):
    checks = []
    g = make_grid(Interval(0.0, 1.0))
    # composite Gauss-Legendre with 8 points is exact through degree 15
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=16)
    exact = float(np.sum(coef / np.arange(1.0, 17.0)))
    got = integrate(GridFunction(g, np.polynomial.polynomial.polyval(g.nodes, coef)))
    checks.append(("quadrature_degree15_exact", abs(got - exact) < 1e-14, abs(got - exact)))
    r = find_root(np.cos, 1.0, 2.0)
    checks.append(("root_cos_halfpi", abs(r - math.pi / 2.0) < 1e-12, abs(r - math.pi / 2.0)))
    f = grid_function(g, np.sin, np.cos, lambda z: -np.sin(z))
    got = integrate(f)
    exact = 1.0 - math.cos(1.0)
    checks.append(("integral_sin", abs(got - exact) < 1e-14, abs(got - exact)))
    return checks


def _suite_eigs(seed: int):
    checks = []
    dec = solve_spectrum(_preset_problem("dirichlet"), N=5)
    exact = -np.pi ** 2 * np.arange(1.0, 6.0) ** 2
    rel = float(np.max(np.abs(dec.eigenvalues - exact) / np.abs(exact)))
    checks.append(("dirichlet_eigs_rel_1e-8", rel <= 1e-8, rel))
    model = DCRModel(1.0, 0.75)
    tprob = transformed_problem(model)
    dec2 = solve_spectrum(tprob, N=10)
    spec = solve_case_study(model, 10)
    gap = float(np.max(np.abs(dec2.eigenvalues - spec.lam)))
    checks.append(("dcr_transformed_vs_closed_1e-8", gap <= 1e-8, gap))
    mx = float(np.max(np.abs(bc_residual(tprob, dec2.modes))))
    checks.append(("bc_residuals_1e-8", mx <= 1e-8, mx))
    return checks


def _suite_fracspace(seed: int):
    checks = []
    dec = solve_spectrum(_preset_problem("dirichlet"), N=20)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5):
        fs = fractional_space(dec, alpha)
        for _ in range(25):
            c = ModalCoefficients(rng.standard_normal(20), dec)
            n = int(rng.integers(1, 21))
            lhs, rhs = scaling_identity_check(fs, c, n)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    checks.append(("scaling_identity_rel_1e-10", worst <= 1e-10, worst))
    # the same theorem as Grams, without modal sums, at mu = gamma + 1: the rescaled
    # bases are orthonormal in a_mu (X_{1/2}) and in <(mu - A) ., (mu - A) .>_rho (X_1)
    prob, fs = dec.problem, fractional_space(dec, 1.0)
    half, one = rescaled_basis(fractional_space(dec, 0.5)), rescaled_basis(fs)
    shifted = GridFunction(dec.grid, fs.mu * one.values - apply_operator(prob, one).values)
    grams = {"x_half_form_gram_1e-10": form_inner_product(prob, half, half, fs.mu),
             "x_one_operator_gram_1e-10": inner_product_rho(shifted, shifted, prob.rho)}
    for name, gram in grams.items():
        err = float(np.max(np.abs(gram - np.eye(dec.N))))
        checks.append((name, err <= 1e-10, err))
    return checks


def _suite_semigroup(seed: int):
    checks = []
    dec = solve_spectrum(_preset_problem("dirichlet"), N=12)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        c0 = ModalCoefficients(rng.standard_normal(12), dec)
        t, s = rng.uniform(0.0, 0.3, size=2)
        one = evolve(c0, t + s).coefficients
        two = evolve(evolve(c0, t), s).coefficients
        worst = max(worst, float(np.max(np.abs(one - two))))
    checks.append(("composition_1e-12", worst <= 1e-12, worst))
    c0 = ModalCoefficients(rng.standard_normal(12), dec)
    same = evolve(c0, 0.0).coefficients
    checks.append(("identity_at_zero", bool(np.all(same == c0.coefficients)), 0.0))
    traj = trajectory(c0, np.linspace(0.0, 1.0, 9))
    gb = float(np.max(growth_bound(traj)))
    checks.append(("growth_bound", gb <= 1.0 + 1e-10, gb))
    stable, rate = is_exponentially_stable(dec)
    checks.append(("dirichlet_stable", stable and abs(rate - math.pi ** 2) < 1e-6, rate))
    checks.append(("compactness_surrogate", is_compact(dec.eigenvalues), 0.0))
    return checks


def _suite_casestudy(seed: int):
    checks = []
    grid = make_grid(Interval(0.0, 1.0), panels=96)
    for model, tag in ((DCRModel(1.0, 0.75), ""), (DCRModel(0.05, 0.75), "_D0.05")):
        spec = solve_case_study(model, 20)
        res = float(spec.residuals().max())
        checks.append(("char_residual_1e-10" + tag, res <= 1e-10, res))
        phi = closed_form_eigenfunction(spec, np.arange(1, 21), grid)
        nrm_err = float(np.max(np.abs(np.sqrt(phi.values ** 2 @ grid.weights) - 1.0)))
        checks.append(("kn_normalization_1e-8" + tag, nrm_err <= 1e-8, nrm_err))
        # the solver's rescaled basis (mu = 0), checked against the closed forms
        prob = transformed_problem(model)
        fs = _fractional_space(solve_spectrum(prob, N=20), 0.5, model)
        half = rescaled_basis(fs)
        gerr = float(np.max(np.abs(form_inner_product(prob, half, half, fs.mu) - np.eye(20))))
        checks.append(("h1_gram_identity_1e-6" + tag, gerr <= 1e-6, gerr))
        if tag:  # suite eigs checks the D = 1 eigenvalues; the corpus has no D
            gap = float(np.max(np.abs(fs.dec.eigenvalues - spec.lam)))
            checks.append(("dcr_transformed_vs_closed_1e-8" + tag, gap <= 1e-8, gap))
        else:
            corpus = trig_corpus(grid, 16)  # Ritz constants over 16 Neumann cosines
            c = poincare_check(corpus)
            checks.append(("poincare_min_1_4", c >= 0.25, c))
            rep = norm_equivalence(corpus)
            checks.append(("equivalence_min_1_8", rep.min_ratio >= 0.125 - 1e-10, rep.min_ratio))
        for z0 in (0.0, 1.0):
            r = observability_test(fs, z0)
            checks.append((f"observability_z0_{int(z0)}{tag}", r.verdict, r.minimum))
            gap = float(np.max(np.abs(r.values - np.abs(boundary_trace_closed_form(spec, z0)))))
            checks.append((f"trace_vs_closed_z0_{int(z0)}_1e-8{tag}", gap <= 1e-8, gap))
    return checks


# the check registry: `verify` runs it, and so does tests/test_acceptance.py
SUITES = {
    "core": _suite_core,
    "eigs": _suite_eigs,
    "fracspace": _suite_fracspace,
    "semigroup": _suite_semigroup,
    "casestudy": _suite_casestudy,
}
VERIFY_SUITES = (*SUITES, "all")


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for cname, passed, value in SUITES[name](args.seed):
            checks.append({"suite": name, "name": cname,
                           "passed": bool(passed), "value": float(value)})
    ok = all(c["passed"] for c in checks)
    doc = {"schema_version": 1, "suite": args.suite, "seed": args.seed,
           "checks": checks, "passed": ok}
    return doc, ok, {}, None


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slspectra",
        description="Sturm-Liouville spectra, fractional spaces, and modal semigroups.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigs", help="solve the eigenproblem and emit the decomposition")
    p.add_argument("config", help="problem config JSON file")
    p.add_argument("--modes", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("simulate", help="evolve an initial state modally")
    p.add_argument("config")
    p.add_argument("--x0", required=True, help="initial-state expression in z")
    p.add_argument("--times", required=True, help="comma-separated increasing times")
    p.add_argument("--alpha", type=float, default=None,
                   help="also report norms in the fractional space X_alpha")
    p.add_argument("--kappa", type=float, default=None,
                   help="spectral shift (default: the dcr preset's own, else 0)")
    p.add_argument("--modes", type=int, default=32)
    p.add_argument("--verify", action="store_true",
                   help="compare against the Crank-Nicolson oracle")
    p.add_argument("--oracle-cells", type=int, default=2000)
    p.add_argument("--oracle-dt", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="write the modal trajectory CSV here")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("observe", help="boundary observability report at z0 = a or b")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--z0", type=float, default=None,
                   help="the end observed: a or b of the interval (default a; "
                        "with --synthetic, it overrides the file's z0, which "
                        "defaults to 0)")
    p.add_argument("--modes", type=int, default=50)
    p.add_argument("--tol", type=float, default=DEFAULT_OBSERVABILITY_TOL)
    p.add_argument("--synthetic", default=None,
                   help="JSON file with raw trace values instead of a config")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_observe)

    p = sub.add_parser("verify", help="run a module invariant suite")
    p.add_argument("--suite", default="all", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.monotonic()
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        try:
            args = ap.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; that slot means tolerance
            # violation here, so remap (help/version keep their 0)
            return EXIT_OK if exc.code == 0 else EXIT_INPUT
        doc, passed, tolerances, config_text = args.fn(args)
        text = _dump_json(doc)
        if not args.out:
            sys.stdout.write(text)
        else:  # the document first, then its manifest
            _atomic_write(args.out, text)
            sha = hashlib.sha256(config_text.encode()).hexdigest() if config_text else None
            manifest = {
                "command": argv,
                "config_sha256": sha,
                "seed": getattr(args, "seed", None),
                "tolerances": tolerances,
                "version": __version__,
                "wall_time_s": time.monotonic() - t0,
            }
            _atomic_write(args.out + ".manifest.json", _dump_json(manifest))
        return EXIT_OK if passed else EXIT_TOLERANCE
    except (ValueError, OSError, EigenvalueBracketError) as exc:
        # ValueError: a value the library rejects (an option, a config entry);
        # OSError: an output path that cannot be written; EigenvalueBracketError:
        # a spectrum the solver cannot compute
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
