"""Spans and counters recorded from outside the library.

The traced run replaces public functions of ``slspectra`` with wrappers, in
the module that defines each one and in every module that imported it by
name, so calls from ``slspectra.cli`` and ``slspectra.casestudy`` are seen
too.  Nothing under ``src/`` changes.  Coefficient evaluations are too many
to keep as spans, so ``CountingCoeff`` adds them to counters and to the
child time of the span that is open when they happen.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import slspectra
from slspectra import CoeffExpr

# (defining module, public name, span attributes from (arguments, result))
TRACED = [
    ("core", "find_root", None),
    ("core", "bc_residual", None),
    ("eigensolve", "solve_spectrum", lambda a, out: {"eigenpairs": out.N}),
    ("eigensolve", "coefficients_of", None),
    ("eigensolve", "synthesize", None),
    ("oracle", "assemble", None),
    ("oracle", "crank_nicolson", lambda a, out: {"steps": cn_steps(a["t"], a["dt"])}),
    ("cli", "main", lambda a, out: {"nonzero_exit": int(out != 0)}),
    ("cli", "load_config", None),
    ("casestudy", "solve_case_study", None),
    ("casestudy", "observability_test", None),
    ("casestudy", "trig_corpus", None),
    ("casestudy", "norm_equivalence", None),
    ("fracspace", "fractional_space", None),
    ("fracspace", "norm_alpha", None),
    ("fracspace", "scaling_identity_check", None),
    ("semigroup", "trajectory", None),
    ("semigroup", "evolve", None),
]


def cn_steps(t: float, dt: float) -> int:
    """Steps crank_nicolson takes for (t, dt): full steps plus a remainder."""
    nfull = int(np.floor(t / dt + 1e-12))
    rem = t - nfull * dt
    return nfull + (1 if rem > 1e-14 * max(t, 1.0) else 0)


@dataclass
class Span:
    """One call into a layer.  ``child`` is the time covered by the spans
    and coefficient evaluations opened directly inside it, so its self time
    is ``end - start - child``."""

    id: int
    parent: int
    request: str
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans and coefficient counters of one traced run."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.coeff = {"scalar_calls": 0, "array_calls": 0, "points": 0, "busy_s": 0.0}

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start

    def wrap(self, name: str, fn, attrs=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def coeff_call(self, scalar: bool, points: int, seconds: float) -> None:
        c = self.coeff
        c["scalar_calls" if scalar else "array_calls"] += 1
        c["points"] += points
        c["busy_s"] += seconds
        if self._stack:
            self._stack[-1].child += seconds

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore on exit."""
        modules = [slspectra] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("slspectra.")
        ]
        undo = []
        parse = slspectra.expressions.parse_coeff
        for mod, name, attrs in TRACED:
            orig = getattr(getattr(slspectra, mod), name)
            wrapper = self.wrap(f"{mod}.{name}", orig, attrs)
            for m in modules:
                if getattr(m, name, None) is orig:
                    undo.append((m, name, orig))
                    setattr(m, name, wrapper)
        counting = functools.wraps(parse)(lambda source: CountingCoeff(source, tracer=self))
        for m in modules:
            if getattr(m, "parse_coeff", None) is parse:
                undo.append((m, "parse_coeff", parse))
                setattr(m, "parse_coeff", counting)
        try:
            yield self
        finally:
            for m, name, orig in reversed(undo):
                setattr(m, name, orig)

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w") as fh:
            for sp in self.spans:
                doc = {"id": sp.id, "parent": sp.parent, "request": sp.request,
                       "name": sp.name, "start": sp.start, "end": sp.end,
                       "self_s": sp.end - sp.start - sp.child, **sp.attrs}
                fh.write(json.dumps(doc) + "\n")


class CountingCoeff(CoeffExpr):
    """A CoeffExpr whose evaluations, and those of its derivatives, are counted."""

    def __init__(self, source: str, ast=None, *, tracer: Tracer):
        super().__init__(source, ast)
        self.tracer = tracer

    def __call__(self, z):
        if not self.tracer.active:
            return super().__call__(z)
        t0 = time.perf_counter()
        out = super().__call__(z)
        self.tracer.coeff_call(np.isscalar(z), int(np.size(z)), time.perf_counter() - t0)
        return out

    def derivative(self) -> "CountingCoeff":
        d = super().derivative()
        return CountingCoeff(d.source, d.ast, tracer=self.tracer)


# Every per-layer metric with its unit; BENCHMARK.json lists the same.
PER_LAYER = {
    "expressions.coeff.scalar_calls": "count",
    "expressions.coeff.array_calls": "count",
    "expressions.coeff.points": "count",
    "expressions.coeff.busy_s": "s",
    "expressions.coeff.scalar_calls_per_eigenpair": "1/eigenpair",
    "eigensolve.solve_spectrum.calls": "count",
    "eigensolve.solve_spectrum.busy_s": "s",
    "eigensolve.solve_spectrum.self_s": "s",
    "eigensolve.solve_spectrum.eigenpairs": "count",
    "eigensolve.solve_spectrum.s_per_eigenpair": "s/eigenpair",
    "eigensolve.solve_spectrum.rescaled_busy_s": "s",
    "eigensolve.coefficients_of.busy_s": "s",
    "eigensolve.synthesize.busy_s": "s",
    "oracle.assemble.busy_s": "s",
    "oracle.crank_nicolson.calls": "count",
    "oracle.crank_nicolson.busy_s": "s",
    "oracle.crank_nicolson.steps": "count",
    "oracle.crank_nicolson.s_per_step": "s/step",
    "cli.main.calls": "count",
    "cli.main.nonzero_exits": "count",
    "cli.main.self_s": "s",
    "cli.load_config.busy_s": "s",
    "casestudy.solve_case_study.busy_s": "s",
    "casestudy.observability_test.busy_s": "s",
    "casestudy.trig_corpus.busy_s": "s",
    "casestudy.norm_equivalence.busy_s": "s",
    "fracspace.fractional_space.busy_s": "s",
    "fracspace.norm_alpha.calls": "count",
    "fracspace.scaling_identity_check.busy_s": "s",
    "semigroup.trajectory.busy_s": "s",
    "semigroup.evolve.calls": "count",
    "semigroup.evolve.busy_s": "s",
    "core.find_root.calls": "count",
    "core.find_root.busy_s": "s",
    "core.bc_residual.busy_s": "s",
    **{f"{m}.loc": "lines" for m in (
        "init", "casestudy", "cli", "core", "eigensolve", "expressions",
        "fracspace", "oracle", "semigroup", "src")},
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int, rescaled: set) -> dict:
    """Per-pass totals of the span and counter metrics in PER_LAYER.

    Ratios (per eigenpair, per step) are taken over the whole traced run
    and read 0 where their base is 0.
    """
    busy, self_s, calls, attrs = {}, {}, {}, {}
    resc = 0.0
    for sp in tracer.spans:
        d = sp.end - sp.start
        busy[sp.name] = busy.get(sp.name, 0.0) + d
        self_s[sp.name] = self_s.get(sp.name, 0.0) + d - sp.child
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for k, v in sp.attrs.items():
            attrs[(sp.name, k)] = attrs.get((sp.name, k), 0) + v
        if sp.name == "eigensolve.solve_spectrum" and sp.request in rescaled:
            resc += d

    m = {}
    for mod, name, _ in TRACED:
        key = f"{mod}.{name}"
        m[f"{key}.calls"] = calls.get(key, 0)
        m[f"{key}.busy_s"] = busy.get(key, 0.0)
        m[f"{key}.self_s"] = self_s.get(key, 0.0)
    eig = attrs.get(("eigensolve.solve_spectrum", "eigenpairs"), 0)
    steps = attrs.get(("oracle.crank_nicolson", "steps"), 0)
    m.update({f"expressions.coeff.{k}": v for k, v in tracer.coeff.items()})
    m["eigensolve.solve_spectrum.eigenpairs"] = eig
    m["eigensolve.solve_spectrum.rescaled_busy_s"] = resc
    m["oracle.crank_nicolson.steps"] = steps
    m["cli.main.nonzero_exits"] = attrs.get(("cli.main", "nonzero_exit"), 0)
    out = {k: m[k] / passes for k in PER_LAYER if k in m}
    out["expressions.coeff.scalar_calls_per_eigenpair"] = (
        tracer.coeff["scalar_calls"] / eig if eig else 0.0)
    out["eigensolve.solve_spectrum.s_per_eigenpair"] = (
        m["eigensolve.solve_spectrum.busy_s"] / eig if eig else 0.0)
    out["oracle.crank_nicolson.s_per_step"] = (
        m["oracle.crank_nicolson.busy_s"] / steps if steps else 0.0)
    return out


def source_lines(src_dir) -> dict:
    """Physical lines of each module named in PER_LAYER, and of all of src."""
    out = {}
    for path in sorted(src_dir.glob("*.py")):
        with open(path, "rb") as fh:
            out[path.stem] = float(sum(1 for _ in fh))
    loc = {"src.loc": sum(out.values())}
    for key in PER_LAYER:
        name = key[: -len(".loc")]
        if key.endswith(".loc") and name != "src":
            loc[key] = out.get("__init__" if name == "init" else name, 0.0)
    return loc
