"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

``setup`` imports kernelgreeks and resolves the plan (pilot bandwidth
selection) of every config of the workload, then exits: the client times
the whole process. ``run`` repeats rounds of the workload until their
bodies have taken ``--seconds``. With ``--trace 1`` the untraced rounds
take half of ``--seconds`` and the same rounds are then repeated with every
layer traced, so a traced run measures about as long as an untraced one.
Either mode prints one JSON line last.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports kernelgreeks)

IMPORT_S = time.perf_counter() - START

from kernelgreeks import estimators, models  # noqa: E402
from kernelgreeks.errors import DegenerateBiasWarning  # noqa: E402

import references  # noqa: E402
import tracing  # noqa: E402


def run_rounds(wl, seed: int, outdir: Path, fails: list, seconds=None, count=None, tracer=None):
    """Run whole rounds until their bodies took ``seconds`` or ``count`` are done."""
    walls, cpus, records = [], [], []
    attempted = failed = 0
    while len(walls) < workloads.MAX_ROUNDS:
        if count is not None and len(walls) >= count:
            break
        if count is None and walls and sum(walls) >= seconds:
            break
        rdir = outdir / f"round{len(walls)}"
        rdir.mkdir(parents=True)
        args = (workloads.round_seed(seed, len(walls)), rdir)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            state = tracer.run("bench.self_s", wl.body, args) if tracer else wl.body(*args)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            state = None
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        attempted += wl.ops
        if state is None:
            failed += wl.ops
        else:
            record = wl.check_round(state, fails)
            if record:
                records.append(record)
        shutil.rmtree(rdir)
    return walls, cpus, records, attempted, failed


def traced_metrics(tracer, rounds: int, untraced_walls, traced_walls, fails) -> dict:
    """Per-round layer metrics of the traced rounds; checks the span accounting."""
    summ = tracer.summary()
    per_round = {name: summ["self_s"].get(name, 0.0) / rounds for name in tracing.SELF_METRICS}
    per_round.update({name: tracer.counts.get(name, 0.0) / rounds
                      for name in tracing.COUNT_METRICS})
    self_sum = sum(summ["self_s"].values())
    if abs(self_sum - summ["overlap_s"] - summ["wall_s"]) > 1e-6 * summ["wall_s"]:
        fails.append(f"span self times {self_sum!r} - overlap {summ['overlap_s']!r} "
                     f"!= traced wall {summ['wall_s']!r}")
    peaks = {}
    for key, fn in (("asian", models.simulate_asian), ("double", estimators.estimate_double_kernel)):
        _, args, kwargs = tracer.replays.get(key, (0, None, None))
        peaks[key] = tracing.replay_peak_mb(fn, args, kwargs) if args is not None else 0.0
    per_round.update({
        "init.import_s": IMPORT_S,
        "models.asian_peak_mb": peaks["asian"],
        "estimators.double_peak_mb": peaks["double"],
        "harness.rep_ms_p50": tracing.median(tracer.rep_ms),
        "harness.workers": tracer.workers,
        "trace.wall_s": summ["wall_s"] / rounds,
        "trace.self_sum_s": self_sum / rounds,
        "trace.overlap_s": summ["overlap_s"] / rounds,
        "trace.untraced_wall_s": sum(untraced_walls) / rounds,
        "trace.overhead_s": (sum(traced_walls) - sum(untraced_walls)) / rounds,
    })
    return per_round


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--outdir", type=Path)
    ns = parser.parse_args()
    wl = workloads.WORKLOADS[ns.workload]
    # the exponential estimator's auto bandwidth always falls back; the
    # traced run counts the fallbacks instead of printing each warning
    warnings.simplefilter("ignore", DegenerateBiasWarning)

    if ns.mode == "setup":
        wl.plans(workloads.round_seed(ns.seed, 0))
        print(json.dumps({"import_s": IMPORT_S}))
        return 0

    fails: list[str] = []
    walls, cpus, records, attempted, failed = run_rounds(
        wl, ns.seed, ns.outdir, fails, seconds=ns.seconds / 2 if ns.trace else ns.seconds)
    rounds = len(walls)
    out = {"rounds": rounds}
    if ns.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_walls, _, t_records, t_att, t_failed = run_rounds(
                wl, ns.seed, ns.outdir, fails, count=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += t_att
        failed += t_failed
        records += t_records
        out["metrics"] = traced_metrics(tracer, rounds, walls, t_walls, fails)
    else:
        # read before the run-level checks, which allocate their own arrays
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["metrics"] = {
            "samples_per_s": wl.samples / tracing.median(walls),
            "cpu_s": tracing.median(cpus),
            "peak_rss_mb": peak_kib / 1024.0,
        }
    with contextlib.redirect_stdout(io.StringIO()):
        fails += [f"reference self-test {name} failed" for name in references.selftest()]
    if records:
        wl.check_run(records, fails, ns.seed)
        out["digest"] = records[0]["digest"].hex()
    else:
        fails.append("no round completed")
    out.update(correct=not fails, attempted=attempted, failed=failed, fails=fails)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
