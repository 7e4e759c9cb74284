"""The calls that the benchmark under perfbench/ makes into the package.

The benchmark is kept fixed while the package changes, so these tests hold
the names and signatures it reaches: the traced functions and methods, the
``run_replications`` that ``compare`` calls, the pool class whose tasks the
tracer parents, the ``kind`` keyword of ``Randomizer`` and the bandwidth
that a double-kernel result reports.
"""

import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from kernelgreeks import ExperimentConfig, GbmParams, cli, digital_call, harness, models
from kernelgreeks.models import AsianConfig
from kernelgreeks.randomizers import Randomizer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_name():
    # install looks up each traced function and method and fails on a missing one
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = harness.run_replications, harness.ThreadPoolExecutor
    tracer = tracing.Tracer()
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
