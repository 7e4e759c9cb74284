"""Benchmark of the kernelgreeks Delta pipeline.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload european_compare --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One client runs each workload closed loop in a fresh child process (the
library's default thread pool inside it). With ``--trace 0`` it prints the
end-to-end metrics: set-up time (median of several fresh interpreters that
import kernelgreeks and resolve every plan), samples per second and CPU
seconds per round, and the child's peak resident set. With ``--trace 1``
the child splits ``--seconds`` between untraced rounds and the same rounds
with every layer traced, and the client prints the per-layer metrics.
``--workload all`` runs every workload untraced and traced. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("european_compare", "asian_digital", "double_kernel", "small_n_sweep")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_STARTS = 7

#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS would start its own threads; the harness pool is the only
    # parallelism the benchmark allows
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(mode: str, workload: str, seed: int, extra=()) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in (("_ms_p50", "ms"), ("_mb", "MB"), ("_s", "s"), ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return correct/attempted/failed and its metrics."""
    outdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        setup_walls = []
        if not trace:
            for _ in range(SETUP_STARTS):
                setup_walls.append(_child("setup", workload, seed)[1])
        result, _ = _child("run", workload, seed, ["--seconds", str(seconds), "--trace",
                                                   str(int(trace)), "--outdir", str(outdir)])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": statistics.median(setup_walls), **metrics}
    for fail in result["fails"]:
        print(f"{workload}: CHECK FAILED: {fail}")
    print(f"{workload}: rounds {result['rounds']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()}, "
          f"sha256 of round-0 estimates {result.get('digest')}")
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value!r} {_unit(name)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernelgreeks Delta-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run (ignored by 'all', "
                             "which runs both)")
    ns = parser.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kernelgreeks" / "__init__.py").is_file():
        print(f"error: no kernelgreeks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if ns.workload != "all":
        print(json.dumps(run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_workload(workload, ns.seed, ns.seconds, trace)
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for name, metric in res["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
