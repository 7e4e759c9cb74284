"""The calls that the benchmark under perfbench/ makes into the package.

The benchmark is kept fixed while the package changes, so these tests hold
the names and signatures it reaches: the traced functions and methods, the
``run_replications`` that ``compare`` calls, the pool class whose tasks the
tracer parents, the ``kind`` keyword of ``Randomizer``, the bandwidth
that a double-kernel result reports, the pair that ``select_bandwidth``
returns and the keyword calls of the workloads' plans and checks.
"""

import importlib.util
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from kernelgreeks import ExperimentConfig, GbmParams, cli, digital_call, harness, models
from kernelgreeks.estimators import EstimatorConfig, SampleSet, estimate_double_kernel
from kernelgreeks.kernels import builtin_kernel
from kernelgreeks.models import AsianConfig
from kernelgreeks.randomizers import Randomizer
from kernelgreeks.rng import sweep_base

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODEL = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_finds_every_traced_name():
    # install looks up each traced function and method and fails on a missing one
    originals = harness.run_replications, harness.ThreadPoolExecutor
    tracer = _tracer()
    try:
        tracer.install()
        assert harness.run_replications is not originals[0]
    finally:
        tracer.uninstall()
    assert (harness.run_replications, harness.ThreadPoolExecutor) == originals


def test_compare_calls_the_harness_run_replications():
    # european_compare captures the results by patching this name on cli
    assert cli.run_replications is harness.run_replications


def test_reference_tasks_run_on_the_harness_pool(monkeypatch):
    # the tracer rebinds harness.ThreadPoolExecutor to parent the bump task
    # and the reference draws; a pool built elsewhere would escape it
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_REFERENCE_CHUNK", 300)
    monkeypatch.setattr(models, "_ASIAN_BLOCK", 5 * 64)
    model = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)
    harness.asian_fd_reference(model, digital_call(120.0), AsianConfig(steps=5), 3, n=1000)
    # chunks of 300, 300, 300 and 100 paths in blocks of 64 rows: each
    # chunk draws its first block itself and the rest on the pool
    draws = sum(-(-size // 64) - 1 for size in (300, 300, 300, 100))
    assert submitted[0] is harness.tune_fd_bump
    assert len(submitted) == 1 + draws


def test_randomizer_takes_a_kind_keyword():
    r = Randomizer(kind="uniform", epsilon=2.0)
    assert (r.epsilon, r.theta) == (2.0, 0.0)


def test_double_kernel_result_reports_its_bandwidth():
    cfg = ExperimentConfig(
        model=GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0),
        payoff=digital_call(120.0),
        estimator_id="double",
        bandwidth=6.0,
        n_samples=50,
        replications=2,
        seed=5,
    )
    res = harness.run_replications(cfg)
    assert res.h == res.plan.h == 6.0


def test_tracer_counts_an_automatic_bandwidth_selection():
    # the tracer reads select_bandwidth(...)[1].degenerate
    cfg = ExperimentConfig(model=MODEL, payoff=digital_call(120.0), estimator_id="uniform",
                           n_samples=1000, replications=2, seed=5)
    tracer = _tracer()
    try:
        tracer.install()
        plan = harness.resolve_run(cfg)
    finally:
        tracer.uninstall()
    assert tracer.counts["bandwidth.selections"] == 1
    assert tracer.counts["bandwidth.degenerate"] == int(plan.choice.degenerate)


def test_double_kernel_check_calls_by_keyword():
    # the direct-sum check of the double_kernel workload builds its sample,
    # config and estimate with these keywords
    rng = np.random.default_rng(3)
    h, eps = 6.0, 12.0
    lam = 120.0 - rng.uniform(-eps, eps, 200)
    z = models.simulate_terminal(MODEL, rng.standard_normal(200), spot=lam)
    phi = (z > 120.0).astype(float)
    randomizer = Randomizer(kind="uniform", epsilon=eps)
    k2 = builtin_kernel("p2")
    ss = SampleSet(lambda0=120.0, lambdas=lam, states=z, payoffs=phi, randomizer=randomizer)
    cfg = EstimatorConfig(kernel=k2, bandwidth=h, randomizer=randomizer, second_kernel=k2)
    assert math.isfinite(estimate_double_kernel(ss, cfg).value)


def test_workload_plan_and_reference_calls():
    # small_n_sweep resolves each grid point on its sweep stream block, and
    # asian_digital takes the reference with a keyword path count
    cfg = ExperimentConfig(model=MODEL, payoff=digital_call(120.0), estimator_id="uniform",
                           n_samples=100, replications=2, seed=5)
    plan = harness.resolve_run(replace(cfg, n_samples=316), sweep_base(1))
    assert plan.h > 0.0
    ref = harness.asian_fd_reference(MODEL, digital_call(120.0), AsianConfig(steps=2), 5, n=1000)
    assert math.isfinite(ref)


def test_tracer_counts_a_rate_fit_point_by_point():
    # small_n_sweep reads harness.reps and bandwidth.selections per round:
    # one run_replications and one automatic selection for each grid point
    cfg = ExperimentConfig(model=MODEL, payoff=digital_call(120.0), estimator_id="uniform",
                           n_samples=100, replications=3, seed=5)
    tracer = _tracer()
    try:
        tracer.install()
        harness.convergence_rate_fit(cfg, [100, 300, 1000, 10_000])
    finally:
        tracer.uninstall()
    assert tracer.counts["harness.reps"] == 4 * 3
    assert tracer.counts["bandwidth.selections"] == 4


def test_tracer_counts_one_kernel_evaluation_per_term():
    # european_compare reads kernels.evals: a formula evaluates K' once per
    # draw and K only with a tilt, and members that share a formula evaluate
    # it once; an antithetic pair evaluates each of its N / 2 draws twice
    base = ExperimentConfig(model=MODEL, payoff=digital_call(120.0), estimator_id="uniform",
                            bandwidth=6.0, n_samples=1000, replications=4, seed=5)
    runs = {
        4000: [[base], [replace(base, estimator_id=e) for e in ("hat", "check", "uniform")],
               [replace(base, antithetic=True)]],
        8000: [[replace(base, estimator_id="exponential", theta=0.05)]],
    }
    for evals, groups in runs.items():
        for cfgs in groups:
            tracer = _tracer()
            try:
                tracer.install()
                run = harness.CommonRun(cfgs, workers=1)
                for cfg in cfgs:
                    run.result(cfg)
            finally:
                tracer.uninstall()
            assert tracer.counts["kernels.evals"] == evals, cfgs
