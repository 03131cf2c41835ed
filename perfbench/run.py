#!/usr/bin/env python3
"""Benchmark of slspectra on three seeded workloads.

    python3 perfbench/run.py --workload spectra_varcoef --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client and one request in flight.
It repeats passes over its request list until --seconds have elapsed,
finishing the pass in flight, and checks every output after its pass,
outside the timed region.  --trace 0 reports the end-to-end metrics;
--trace 1 runs half the time untraced and half traced and reports the
per-layer metrics.  The last line of standard output is one JSON object.
The exit code is 0 only if every output was correct.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("spectra_varcoef", "spectra_constcoef", "cli_dcr")
SETUP_PROBES = 5
# Checks compare with references scaled by this much under --corrupt-reference.
CORRUPT_SCALE = 1.01

END_TO_END = {"setup_s": "s", "wall_s": "s", "request_p50_s": "s", "peak_rss_mb": "MiB"}


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_library():
    """Import slspectra from this checkout's src/ and nowhere else."""
    if not (SRC / "slspectra" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'slspectra'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import slspectra

    if Path(slspectra.__file__).resolve().parent != (SRC / "slspectra").resolve():
        raise SystemExit(f"error: slspectra was imported from {slspectra.__file__}")
    return slspectra


def build(args, tracer, workdir):
    import workloads

    scale = CORRUPT_SCALE if args.corrupt_reference else 1.0
    small = args.size == "small"
    if args.workload == "spectra_varcoef":
        return workloads.varcoef(args.seed, tracer, small, scale)
    if args.workload == "spectra_constcoef":
        return workloads.constcoef(args.seed, tracer, small, scale)
    return workloads.cli_dcr(args.seed, small, scale, workdir)


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def setup_seconds(args) -> float:
    """Median time from spawning a fresh interpreter to its first request.

    Each probe imports slspectra, generates the inputs from the seed and
    builds the problems or config files, then says "ready" and exits.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def measure(requests, seconds: float, tracer=None):
    """Closed loop over the request list; returns per-pass and per-request data.

    Passes repeat until `seconds` have elapsed; the pass in flight then
    finishes.  Checks run between passes, untimed.
    """
    walls, lats, failures = [], [], []
    rss = None
    t_start = time.perf_counter()
    while True:
        outs, errors = {}, {}
        t_pass = time.perf_counter()
        for r in requests:
            if tracer is not None:
                tracer.request, tracer.active = r.name, True
            t0 = time.perf_counter()
            try:
                outs[r.name] = r.call(tracer is not None)
            except Exception as exc:  # a failed request is recorded, the loop goes on
                errors[r.name] = f"raised {type(exc).__name__}: {exc}"
            lats.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        walls.append(time.perf_counter() - t_pass)
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for r in requests:
            msg = errors.get(r.name)
            if msg is None:
                try:
                    msg = r.check(outs[r.name], outs)
                except Exception as exc:  # a broken output can break its check
                    msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                failures.append(f"pass {len(walls)} {r.name}: {msg}")
        if time.perf_counter() - t_start >= seconds:
            return walls, lats, failures, rss


def run_workload(args) -> int:
    nproc = cap_threads()
    load_before = loadavg()
    slspectra = import_library()
    setup = setup_seconds(args) if args.trace == 0 else None
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        tracer = tracing.Tracer() if args.trace else None
        requests = build(args, tracer, workdir)
        if args.trace == 0:
            walls, lats, failures, rss = measure(requests, args.seconds)
            metrics = {
                "setup_s": setup,
                "wall_s": statistics.median(walls),
                "request_p50_s": statistics.median(lats),
                "peak_rss_mb": rss,
            }
            units = END_TO_END
        else:
            walls_u, lats, failures, _ = measure(requests, args.seconds / 2)
            with tracer.installed():
                walls, lats_t, fail_t, _ = measure(requests, args.seconds / 2, tracer)
            lats, failures = lats + lats_t, failures + fail_t
            rescaled = {r.name for r in requests if r.rescaled}
            metrics = tracing.layer_metrics(tracer, len(walls), rescaled)
            metrics.update(tracing.source_lines(SRC / "slspectra"))
            metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(walls_u)
            units = tracing.PER_LAYER
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "slspectra": slspectra.__version__,
        "nproc": nproc, "blas_threads": nproc,
        "loadavg_before": load_before, "loadavg_after": loadavg(),
    }
    result = {
        "correct": not failures,
        "attempted": len(lats),
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"env": env, "passes": walls, "latencies_s": lats, "failures": failures, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(walls)} pass(es) of "
          f"{len(requests)} requests, {len(lats)} requests in all")
    for k, m in result["metrics"].items():
        print(f"  {k:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {len(failures) / len(lats):.6g} ratio "
          f"({len(failures)}/{len(lats)})")
    for f in failures:
        print(f"  FAILED {f}")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.corrupt_reference:
            cmd.append("--corrupt-reference")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"error: {w} printed no result (exit {proc.returncode})")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: a few cheap requests per workload, for the self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=f"scale every reference by {CORRUPT_SCALE}, so checks must fail")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        cap_threads()
        import_library()
        sys.path.insert(0, str(HERE))
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=OUT, prefix="probe-")
        try:
            build(args, None, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
