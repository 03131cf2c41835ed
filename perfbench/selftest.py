#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs a small version of every workload, untraced and traced, and checks
that each metric of BENCHMARK.json is emitted with its unit.  Then checks
that a corrupted reference makes a run fail, and that the benchmark refuses
to run in a directory without the library's sources.  Exits 1 on the first
problem it finds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
           "--size", "small", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        for w in workloads:
            code, res = run("--workload", w, "--trace", str(trace))
            expect(code == 0 and res is not None, f"{w} trace {trace} exits 0 with a result")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace {trace} result has exactly the four keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace {trace} outputs are correct")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, f"{w} trace {trace} emits every {group} metric with its unit")
            expect(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                   f"{w} trace {trace} values are finite")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                if w.startswith("spectra"):
                    expect(m["expressions.coeff.scalar_calls"] > 0, f"{w} counts coefficient calls")
                else:
                    expect(m["oracle.crank_nicolson.steps"] > 0, f"{w} counts Crank-Nicolson steps")

    for w in workloads:
        code, res = run("--workload", w, "--corrupt-reference")
        expect(code != 0 and res is not None and res["failed"] / res["attempted"] > 0,
               f"{w} with a wrong reference has failed_frac > 0 and exits nonzero")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out", prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, res = run("--workload", "cli_dcr", cwd=bare)
        expect(code != 0 and res is None, "without src/ the benchmark exits nonzero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
