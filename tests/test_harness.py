"""Replication engine: streams, determinism, summaries, rate fits, references."""

import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kernelgreeks import (
    EstimatorConfig,
    ExperimentConfig,
    FdConfig,
    GbmParams,
    SampleSet,
    builtin_kernel,
    closed_form_digital_delta,
    convergence_rate_fit,
    digital_call,
    estimate_double_kernel,
    estimate_finite_difference,
    estimate_single_kernel_check,
    estimate_single_kernel_hat,
    identity_payoff,
    reference_value,
    run_replications,
    simulate_terminal,
    summarize,
    truncexp_randomizer,
    uniform_randomizer,
    vanilla_call,
)
from kernelgreeks import harness, models
from kernelgreeks.errors import (
    DegenerateBandwidth,
    DegenerateBump,
    InsufficientReplications,
    InsufficientSamples,
    NonFiniteEstimate,
    NonPositiveVariance,
    OutsideSupport,
    RandomizerMismatch,
)
from kernelgreeks.estimators import (
    estimate_exponential_opt,
    estimate_oracle_score,
    estimate_uniform_opt,
)
from kernelgreeks.harness import (
    PILOT_N,
    CommonRun,
    asian_fd_reference,
    fit_loglog,
    kde_grid,
    kde_of_estimates,
    resolve_run,
    tune_fd_bump,
)
from kernelgreeks.kernels import Kernel
from kernelgreeks.models import (
    AsianConfig,
    asian_unit_averages,
    closed_form_identity_delta,
    closed_form_vanilla_delta,
    constant_payoff,
    simulate_asian,
)
from kernelgreeks.rng import (
    PILOT_OFFSET,
    STREAM_REFERENCE,
    rekey,
    replication_ids,
    skip,
    stream,
    sweep_base,
)

PAPER = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)
K2 = builtin_kernel("p2")


def base_config(**overrides):
    kw = dict(
        model=PAPER,
        payoff=digital_call(120.0),
        estimator_id="uniform",
        bandwidth=8.0,
        n_samples=2000,
        replications=6,
        seed=4242,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


# -- config validation --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(estimator_id="pathwise")
    with pytest.raises(ValueError):
        base_config(n_samples=0)
    with pytest.raises(ValueError):
        base_config(bandwidth="adaptive")
    with pytest.raises(ValueError):
        base_config(bandwidth=-2.0)
    with pytest.raises(ValueError):
        base_config(estimator_id="fd", bandwidth=1.0, antithetic=True)
    with pytest.raises(ValueError):
        base_config(antithetic=True, n_samples=999)


def test_seeds_and_stream_ids_stay_below_2_64():
    base_config(seed=2**64 - 1)
    stream(2**64 - 1, 2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            base_config(seed=seed)
    for key in ((2**64, 0), (0, 2**64), (-1, 0)):
        with pytest.raises(ValueError):
            stream(*key)


def test_large_seeds_have_distinct_streams(recwarn):
    # a key passed as a plain list went through float64: these seeds all
    # shared one stream, and 2**64 - 1 reran seed 0
    seeds = (0, 1, 2**63, 2**63 + 5, 2**64 - 1024, 2**64 - 2, 2**64 - 1)
    draws = {tuple(stream(seed, 3).random(4)) for seed in seeds}
    assert len(draws) == len(seeds)
    assert not recwarn.list
    assert stream(2**64 - 1, 0).bit_generator.state["state"]["key"].tolist() == [2**64 - 1, 0]


def test_rekey_matches_a_fresh_stream():
    gen = stream(5, 1)
    gen.random(7)
    gen.standard_normal(3)  # leaves a used counter and a part-used buffer
    for seed in (4242, 2**64 - 1):
        for stream_id in (0, sweep_base(0), PILOT_OFFSET, STREAM_REFERENCE, 2**47 + 9):
            assert rekey(gen, seed, stream_id) is gen
            fresh = stream(seed, stream_id)
            assert np.array_equal(gen.random(5), fresh.random(5))
            assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))
            assert np.array_equal(gen.random(3), fresh.random(3))
    with pytest.raises(ValueError):
        rekey(gen, 2**64, 0)


# -- resolve_run ----------------------------------------------------------------


def test_resolve_run_fixed_bandwidth():
    plan = resolve_run(base_config(theta=None))
    assert plan.h == 8.0
    assert plan.theta == 0.0
    assert plan.randomizer.theta == 0.0
    assert plan.randomizer.epsilon == 8.0  # M * h for the built-in support
    assert plan.pilot is None


def test_resolve_run_double_gets_second_kernel():
    plan = resolve_run(base_config(estimator_id="double"))
    # widened support: the leave-one-out windows of all outer-weighted
    # draws must fit inside it
    assert plan.randomizer.epsilon == 2.0 * plan.h * plan.kernel.support_radius


def test_resolve_run_non_kernel_is_empty():
    plan = resolve_run(base_config(estimator_id="lr", bandwidth=1.0))
    assert plan.kernel is None and plan.h is None and plan.randomizer is None


def test_config_rejects_tilted_uniform():
    # a check that needs no draw belongs to the config, so no caller
    # resolves a plan or takes a reference first
    with pytest.raises(RandomizerMismatch, match="^a uniform randomizer cannot carry a tilt$"):
        base_config(theta=0.5)
    assert base_config(theta=0.0).theta == 0.0


def test_resolve_run_auto_is_reproducible():
    cfg = base_config(bandwidth="auto", n_samples=50_000)
    a = resolve_run(cfg)
    b = resolve_run(cfg)
    assert a.h == b.h
    assert a.pilot.pilot_N == PILOT_N
    assert a.choice.theta_star == 0.0
    assert a.randomizer.epsilon == a.h  # K2 support radius is 1


def test_resolve_run_auto_asian_pilot():
    cfg = base_config(bandwidth="auto", asian=AsianConfig(steps=10), n_samples=20_000)
    plan = resolve_run(cfg)
    assert plan.h > 0.0
    assert plan.pilot is not None


@pytest.mark.parametrize("eid", ["uniform", "double"])
def test_resolve_run_rejects_a_degenerate_pilot_bandwidth(eid):
    # the pilot of a model whose states overflow has no bandwidth, and no
    # randomizer may be built
    model = GbmParams(spot=120.0, rate=1000.0, vol=0.2, maturity=1.0)
    cfg = base_config(estimator_id=eid, bandwidth="auto", model=model)
    with np.errstate(all="ignore"), pytest.raises(DegenerateBandwidth):
        resolve_run(cfg)


# -- run_replications --------------------------------------------------------------


def test_zero_payoff_run():
    cfg = base_config(payoff=constant_payoff(0.0), replications=1)
    res = run_replications(cfg)
    assert res.estimates.tolist() == [0.0]


def test_worker_count_invariance():
    cfg = base_config(replications=8)
    a = run_replications(cfg, workers=1)
    b = run_replications(cfg, workers=8)
    assert np.array_equal(a.estimates, b.estimates)
    anti = base_config(replications=8, antithetic=True)
    assert np.array_equal(
        run_replications(anti, workers=1).estimates,
        run_replications(anti, workers=8).estimates,
    )


def test_replication_stream_layout():
    cfg = base_config(replications=3, seed=777, n_samples=1000)
    res = run_replications(cfg, stream_base=40)
    r = uniform_randomizer(8.0)
    for j in (0, 2):
        rng = stream(777, 40 + j)
        offsets = r.sample_offsets(rng.random(1000))
        gauss = rng.standard_normal(1000)
        lams = 120.0 - offsets
        states = simulate_terminal(PAPER, gauss, spot=lams)
        ss = SampleSet(120.0, lams, states, digital_call(120.0)(states), randomizer=r)
        assert res.estimates[j] == estimate_uniform_opt(ss, K2, 8.0).value


def test_antithetic_pairs_mirror_offsets():
    cfg = base_config(replications=1, antithetic=True, n_samples=2000, seed=99)
    res = run_replications(cfg)
    rng = stream(99, 0)
    r = uniform_randomizer(8.0)
    offsets = r.sample_offsets(rng.random(1000))
    gauss = rng.standard_normal(1000)

    def leg(lams):
        states = simulate_terminal(PAPER, gauss, spot=lams)
        ss = SampleSet(120.0, lams, states, digital_call(120.0)(states), randomizer=r)
        return estimate_uniform_opt(ss, K2, 8.0).value

    expect = 0.5 * (leg(120.0 - offsets) + leg(120.0 + offsets))
    assert res.estimates[0] == expect


def test_run_result_epsilon_bookkeeping():
    fd = run_replications(base_config(estimator_id="fd", bandwidth=1.0, fd_eps=0.75, replications=2))
    assert fd.plan.epsilon == 0.75 and fd.plan.h is None
    lr = run_replications(base_config(estimator_id="lr", bandwidth=1.0, replications=2))
    assert lr.plan.epsilon is None and lr.plan.theta is None


def test_replication_errors_carry_index():
    cfg = base_config(estimator_id="double", n_samples=1, replications=2)
    with pytest.raises(InsufficientSamples, match="replication 0"):
        run_replications(cfg)


class _TwoPartError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize(
    "error",
    [_TwoPartError("boom", "step 3"), UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte")],
)
def test_replication_errors_need_not_take_one_message(monkeypatch, error):
    # neither type can be rebuilt from a message alone
    def fail(samples, config):
        raise error

    monkeypatch.setattr(harness, "estimate_double_kernel", fail)
    with pytest.raises(RuntimeError, match="replication 0") as info:
        run_replications(base_config(estimator_id="double", replications=2), workers=1)
    assert info.value.__cause__ is error


def test_exponential_estimator_on_constant_payoff():
    # the tilted estimator differentiates a constant: mean replication value
    # must vanish within noise
    cfg = base_config(
        estimator_id="exponential",
        payoff=constant_payoff(2.0),
        bandwidth=6.0,
        theta=0.25,
        n_samples=100_000,
        replications=30,
    )
    res = run_replications(cfg)
    stderr = res.estimates.std(ddof=1) / math.sqrt(res.estimates.size)
    assert abs(res.estimates.mean()) <= 3.0 * stderr


def test_estimates_are_asymptotically_normal():
    cfg = base_config(bandwidth="auto", n_samples=100_000, replications=500)
    res = run_replications(cfg)
    standardized = (res.estimates - res.estimates.mean()) / res.estimates.std(ddof=1)
    assert abs(stats.skew(standardized)) <= 0.3
    assert abs(stats.kurtosis(standardized)) <= 0.6


# -- references ---------------------------------------------------------------------


def test_reference_values_closed_form():
    val, src = reference_value(base_config())
    assert src == "closed_form"
    assert val == closed_form_digital_delta(PAPER, 120.0)
    assert reference_value(base_config(payoff=vanilla_call(110.0)))[0] == pytest.approx(
        closed_form_vanilla_delta(PAPER, 110.0)
    )
    assert reference_value(base_config(payoff=identity_payoff()))[0] == pytest.approx(
        closed_form_identity_delta(PAPER)
    )
    assert reference_value(base_config(payoff=constant_payoff(9.0))) == (0.0, "closed_form")


@pytest.mark.parametrize("rate", [-0.05, 0.05])
def test_lr_agrees_with_the_closed_forms_at_a_nonzero_rate(rate):
    # lr is unbiased for d/dx E[phi(Z)], with no discount, as every closed
    # form is; a reference off by exp(-rT) would sit 15-40 standard errors
    # away here
    model = GbmParams(spot=120.0, rate=rate, vol=0.2, maturity=1.0)
    for payoff in (digital_call(120.0), vanilla_call(120.0), identity_payoff()):
        cfg = base_config(model=model, payoff=payoff, estimator_id="lr", n_samples=100_000,
                          replications=10, seed=21)
        estimates = run_replications(cfg).estimates
        reference, source = reference_value(cfg)
        assert source == "closed_form"
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - reference) <= 4.0 * se, payoff.kind


def test_tuned_bump_is_a_candidate():
    eps = tune_fd_bump(PAPER, digital_call(120.0), AsianConfig(steps=10), 7, 10**5, pilot_n=20_000)
    fractions = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08)
    assert any(eps == pytest.approx(f * 120.0, rel=1e-15) for f in fractions)


def test_asian_reference_smoke():
    ref = asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=10), 7, n=400_000)
    assert 0.005 < ref < 0.05


def serial_fd_reference(model, payoff, asian, seed, n, averages=None):
    """The FD reference as a direct serial loop: tune the bump, then draw and
    reduce one 200,000-path chunk after the other. ``averages``, when given,
    holds each chunk's unit-spot averages from an earlier call."""
    eps = harness.tune_fd_bump(model, payoff, asian, seed, n_target=n)
    if averages is None:
        rng = stream(seed, STREAM_REFERENCE + 1)
        sizes = [min(harness._REFERENCE_CHUNK, n - done)
                 for done in range(0, n, harness._REFERENCE_CHUNK)]
        averages = [asian_unit_averages(model, asian, rng, m) for m in sizes]
    up, down = model.spot + 0.5 * eps, model.spot - 0.5 * eps
    total = 0.0
    for base in averages:
        total += float(np.sum(payoff(up * base) - payoff(down * base)))
    return total / (n * eps), averages


REFERENCE_PAYOFFS = [digital_call(120.0), vanilla_call(110.0), identity_payoff(),
                     constant_payoff(3.0)]


@pytest.mark.parametrize("steps", [1, 7, 50])
@pytest.mark.parametrize("scheme", ["trapezoid", "left"])
def test_pipelined_reference_matches_serial_loop(monkeypatch, steps, scheme):
    # a small bump pilot keeps the grid quick; the pilot does not touch the
    # pipeline, and the real one runs in the next test
    tune = harness.tune_fd_bump
    monkeypatch.setattr(harness, "tune_fd_bump",
                        lambda *args, n_target: tune(*args, n_target=n_target, pilot_n=2000))
    asian = AsianConfig(steps=steps, scheme=scheme)
    rows = models._ASIAN_BLOCK // steps
    for n in (1, rows - 1, rows + 1, 200_001, 450_003):
        averages = None
        for payoff in REFERENCE_PAYOFFS:
            want, averages = serial_fd_reference(PAPER, payoff, asian, 11, n, averages)
            got = asian_fd_reference(PAPER, payoff, asian, 11, n=n)
            assert got.hex() == want.hex(), (n, payoff.kind)


def test_pipelined_reference_matches_serial_loop_with_full_pilot():
    asian = AsianConfig(steps=50)
    n = models._ASIAN_BLOCK // 50 + 1
    want, _ = serial_fd_reference(PAPER, digital_call(120.0), asian, 5, n)
    assert asian_fd_reference(PAPER, digital_call(120.0), asian, 5, n=n).hex() == want.hex()


def test_pipelined_reference_under_frequent_thread_switches(monkeypatch):
    # many small blocks and a short switch interval: a draw that overwrote a
    # block still being averaged, or ran out of order, would change the bits
    monkeypatch.setattr(models, "_ASIAN_BLOCK", 7 * 16)
    asian = AsianConfig(steps=7)
    want, _ = serial_fd_reference(PAPER, digital_call(120.0), asian, 2, 4001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = asian_fd_reference(PAPER, digital_call(120.0), asian, 2, n=4001)
    finally:
        sys.setswitchinterval(interval)
    assert got.hex() == want.hex()


class _DrawFault(Exception):
    pass


@pytest.mark.parametrize("where", ["reference", "bump"])
def test_reference_errors_propagate_and_threads_are_joined(monkeypatch, where):
    faulty_id = STREAM_REFERENCE + (1 if where == "reference" else 0)

    class FaultyGenerator:
        """Fails on its third draw."""

        def __init__(self, gen):
            self.gen, self.draws = gen, 0

        def standard_normal(self, *args, **kwargs):
            self.draws += 1
            if self.draws == 3:
                raise _DrawFault("third draw")
            return self.gen.standard_normal(*args, **kwargs)

    def patched_stream(seed, stream_id):
        gen = stream(seed, stream_id)
        return FaultyGenerator(gen) if stream_id == faulty_id else gen

    monkeypatch.setattr(harness, "stream", patched_stream)
    monkeypatch.setattr(models, "_ASIAN_BLOCK", 50 * 1000)
    before = threading.active_count()
    with pytest.raises(_DrawFault):
        asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=50), 3, n=10_000)
    assert threading.active_count() == before


def test_pipelined_reference_memory_is_bounded():
    # ring of two 2 MiB draw buffers, one 200,000-path chunk with its payoff
    # temporaries, and the bump pilot running alongside; the serial loop
    # peaked at 7.2 MiB
    asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=50), 5, n=1000)
    tracemalloc.start()
    try:
        asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=50), 5, n=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "call",
    [
        lambda: asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=5), 1, n=0),
        lambda: asian_fd_reference(PAPER, digital_call(120.0), AsianConfig(steps=5), 1, n=-5),
        lambda: tune_fd_bump(PAPER, digital_call(120.0), AsianConfig(steps=5), 1, 10, pilot_n=1),
        lambda: tune_fd_bump(PAPER, digital_call(120.0), AsianConfig(steps=5), 1, 10, pilot_n=0),
        lambda: tune_fd_bump(PAPER, digital_call(120.0), AsianConfig(steps=5), 1, 0),
    ],
)
def test_reference_inputs_are_checked_before_any_draw(monkeypatch, call):
    def no_stream(*args):
        raise AssertionError("drew before checking the inputs")

    monkeypatch.setattr(harness, "stream", no_stream)
    with pytest.raises(ValueError):
        call()


# -- summaries ---------------------------------------------------------------------


def test_summarize_hand_case():
    s = summarize(np.array([1.0, 2.0, 3.0]), 2.0)
    assert s.mean == 2.0
    assert s.bias == 0.0
    assert s.variance == 1.0
    assert s.mse == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s.stderr == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
    assert s.reference_source == "closed_form"


def test_summarize_constant_estimates():
    s = summarize(np.full(5, 3.25), 3.25)
    assert s.bias == 0.0 and s.variance == 0.0 and s.mse == 0.0 and s.stderr == 0.0


def test_summarize_without_reference():
    s = summarize(np.array([1.0, 2.0]), None)
    assert math.isnan(s.bias) and math.isnan(s.mse)
    assert s.reference_source == "none"


def test_summarize_needs_two():
    with pytest.raises(InsufficientReplications):
        summarize(np.array([1.0]), 1.0)


def test_summarize_refuses_an_overflowing_spread():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for est, reference in (([1e300, -1e300], None), ([1e300, 1e300], -1e300)):
            with pytest.raises(NonFiniteEstimate, match="variance or the MSE"):
                summarize(np.array(est), reference)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=40),
    st.floats(-100.0, 100.0),
    st.floats(-50.0, 50.0),
)
def test_summarize_identities(values, reference, delta):
    est = np.asarray(values)
    s = summarize(est, reference)
    r = est.size
    decomposed = s.bias**2 + (r - 1) / r * s.variance
    assert s.mse == pytest.approx(decomposed, rel=1e-12, abs=1e-12)
    assert s.mse >= s.bias**2 - 1e-12 * max(1.0, s.mse)
    shifted = summarize(est + delta, reference + delta)
    assert shifted.bias == pytest.approx(s.bias, rel=1e-9, abs=1e-9)
    assert shifted.variance == pytest.approx(s.variance, rel=1e-9, abs=1e-9)


# -- kde ------------------------------------------------------------------------------


def test_kde_grid_span():
    est = np.array([0.0, 2.0] * 6)
    grid = kde_grid(est)
    assert grid.size == 257
    spread = est.std(ddof=1)
    assert grid[0] == pytest.approx(1.0 - 4.0 * spread, rel=1e-12)
    assert grid[-1] == pytest.approx(1.0 + 4.0 * spread, rel=1e-12)


def test_kde_two_point_closed_form():
    est = np.array([-1.0, 1.0] * 5)
    bw = 1.06 * est.std(ddof=1) * est.size ** (-0.2)
    dens = kde_of_estimates(est, np.array([0.0]))
    expect = math.exp(-0.5 / bw**2) / (bw * math.sqrt(2.0 * math.pi))
    assert dens[0] == pytest.approx(expect, rel=1e-12)
    sym = kde_of_estimates(est, np.array([-0.7, 0.7]))
    assert sym[0] == pytest.approx(sym[1], rel=1e-12)


def test_kde_matches_normal_pdf():
    rng = np.random.default_rng(31)
    est = rng.standard_normal(10_000)
    grid = kde_grid(est)
    dens = kde_of_estimates(est, grid)
    assert np.max(np.abs(dens - stats.norm.pdf(grid))) <= 0.02
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-2)


def test_kde_tails_vanish():
    rng = np.random.default_rng(32)
    est = rng.standard_normal(5000)
    spread = est.std(ddof=1)
    center = est.mean()
    far = np.array([center - 6.0 * spread, center + 6.0 * spread])
    peak = kde_of_estimates(est, np.array([center]))[0]
    assert np.all(kde_of_estimates(est, far) < 1e-4 * peak)


def test_kde_guards():
    with pytest.raises(InsufficientReplications):
        kde_of_estimates(np.arange(9.0), np.array([0.0]))
    with pytest.raises(NonPositiveVariance):
        kde_of_estimates(np.full(12, 1.0), np.array([0.0]))


# -- rate fits ------------------------------------------------------------------------


def test_fit_loglog_exact_power_law():
    grid = np.array([10**4, 10**5, 10**6, 10**7], dtype=float)
    slope, intercept, r2 = fit_loglog(grid, grid ** (-2.0 / 3.0))
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog(grid, grid[:2])


def test_fit_loglog_refuses_an_mse_that_is_not_positive():
    grid = np.array([100.0, 1000.0, 10_000.0, 100_000.0])
    with pytest.raises(NonPositiveVariance, match="^the MSE at N = 1000 is 0,"):
        fit_loglog(grid, [1e-3, 0.0, 1e-5, 1e-6])


def test_convergence_fit_validation():
    cfg = base_config()
    with pytest.raises(ValueError):
        convergence_rate_fit(cfg, [100, 1000, 10000])
    with pytest.raises(ValueError):
        convergence_rate_fit(cfg, [100, 100, 1000, 10000])
    with pytest.raises(ValueError):
        convergence_rate_fit(cfg, [100, 200, 400, 800])


def test_convergence_fit_lr_parametric_rate():
    cfg = base_config(estimator_id="lr", bandwidth=1.0, replications=40)
    fit = convergence_rate_fit(cfg, [100, 1000, 10_000, 100_000])
    assert -1.2 <= fit.slope <= -0.8
    assert fit.r_squared > 0.95
    assert fit.h == (None, None, None, None)
    assert np.array_equal(fit.grid_N, [100, 1000, 10_000, 100_000])


def test_convergence_fit_resolves_every_plan_before_the_reference(monkeypatch):
    calls = []
    for name in ("resolve_run", "reference_value", "run_replications"):
        def recorded(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, recorded)
    convergence_rate_fit(base_config(bandwidth="auto", replications=3), [100, 300, 1000, 10_000])
    assert calls == 4 * ["resolve_run"] + ["reference_value"] + 4 * ["run_replications"]


@pytest.mark.slow
def test_asian_kernel_and_fd_agree():
    # The averaged state has no closed form, so the randomized-kernel and
    # bump-and-reprice estimators validate each other. The automatic
    # bandwidth minimizes one replication's MSE, which pins the smoothing
    # bias at about 0.7 of a single replication's standard deviation (the
    # optimum balances variance against p * bias^2), and that bias does not
    # average away over replications. The honest agreement scale is the
    # per-replication spread, not the standard error of the means.
    asian = AsianConfig(steps=50)
    payoff = digital_call(120.0)
    n, reps, seed = 10**6, 100, 20260814
    cfg_u = ExperimentConfig(
        model=PAPER,
        payoff=payoff,
        estimator_id="uniform",
        asian=asian,
        bandwidth="auto",
        n_samples=n,
        replications=reps,
        seed=seed,
    )
    eps = tune_fd_bump(PAPER, payoff, asian, seed, n_target=n * reps)
    cfg_f = ExperimentConfig(
        model=PAPER,
        payoff=payoff,
        estimator_id="fd",
        asian=asian,
        bandwidth=1.0,
        n_samples=n,
        replications=reps,
        seed=seed,
        fd_eps=eps,
    )
    # both read the same streams, so one common run draws the paths once;
    # each config's estimates are those of a run of its own, bit for bit
    common = CommonRun([cfg_u, cfg_f])
    res_u = run_replications(cfg_u, common=common)
    res_f = run_replications(cfg_f, common=common)
    mean_u, mean_f = res_u.estimates.mean(), res_f.estimates.mean()
    sd_u = res_u.estimates.std(ddof=1)
    sd_f = res_f.estimates.std(ddof=1)
    assert abs(mean_u - mean_f) <= 3.0 * math.hypot(sd_u, sd_f)
    # a sign or scale error in either estimator would blow this by orders
    # of magnitude: the gap sits near 0.7 per-replication SD, a factor-two
    # error would sit near 75
    ref, source = reference_value(cfg_f)
    assert source == "high_n_fd"
    se_f = sd_f / math.sqrt(reps)
    assert abs(mean_f - ref) <= 6.0 * se_f


# -- streamed Asian replications ------------------------------------------------


@pytest.mark.parametrize("estimator_id, antithetic", [("uniform", False), ("hat", True),
                                                      ("fd", False)])
def test_streamed_asian_replication_matches_one_full_draw(estimator_id, antithetic):
    # n spans more than two row blocks of 50 steps
    asian = AsianConfig(steps=50)
    n = 12_000
    cfg = base_config(estimator_id=estimator_id, asian=asian, n_samples=n, antithetic=antithetic)
    plan = resolve_run(cfg)
    rng = stream(cfg.seed, 3)
    if estimator_id == "fd":
        rng.random(n)  # the uniforms that precede every replication's noise
        gauss = rng.standard_normal((n, asian.steps))
        fd = FdConfig(alpha=cfg.fd_alpha, bump=cfg.fd_eps)
        want = estimate_finite_difference(PAPER, cfg.payoff, fd, gauss, asian=asian).value
    else:
        m = n // 2 if antithetic else n
        offsets = plan.randomizer.sample_offsets(rng.random(m))
        gauss = rng.standard_normal((m, asian.steps))

        def estimate(lams):
            states = simulate_asian(PAPER, asian, gauss, spot=lams)
            ss = SampleSet(120.0, lams, states, cfg.payoff(states), randomizer=plan.randomizer,
                           state_kind="asian")
            if estimator_id == "uniform":
                return estimate_uniform_opt(ss, plan.kernel, plan.h).value
            ec = EstimatorConfig(kernel=plan.kernel, bandwidth=plan.h, randomizer=plan.randomizer)
            return estimate_single_kernel_hat(ss, ec).value

        want = estimate(120.0 - offsets)
        if antithetic:
            want = 0.5 * (want + estimate(120.0 + offsets))
    (got,) = harness._evaluate_block([(cfg, plan)], 3, *harness._worker_buffers([(cfg, plan)], 1))
    assert got.tolist() == [want]


def test_asian_lr_has_no_score():
    # the config refuses it; the SampleSet path raises ScoreUnavailable
    with pytest.raises(ValueError, match="^the lr estimator needs the terminal state$"):
        ExperimentConfig(model=PAPER, payoff=digital_call(120.0), estimator_id="lr",
                         asian=AsianConfig(steps=4))


@pytest.mark.parametrize("steps", [50, 200])
def test_asian_replication_memory_is_bounded(steps):
    # the full (N, steps) arrays would take 38 MiB each at steps = 50
    cfg = base_config(asian=AsianConfig(steps=steps), n_samples=100_000)
    plan = resolve_run(cfg)
    tracemalloc.start()
    try:
        harness._evaluate_block([(cfg, plan)], 0, *harness._worker_buffers([(cfg, plan)], 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- replication blocks ------------------------------------------------------


def _lone_replication(cfg, stream_id):
    """Replication ``stream_id`` recomputed through the public estimators on
    (N,) arrays, one replication at a time."""
    plan = resolve_run(cfg)
    rng = stream(cfg.seed, stream_id)
    spot, eid = cfg.model.spot, cfg.estimator_id
    m = cfg.n_samples // 2 if cfg.antithetic else cfg.n_samples
    # every estimator reads its stream as m uniforms, then the noise
    uniforms = rng.random(m)
    offsets = plan.randomizer.sample_offsets(uniforms) if plan.randomizer else None
    if cfg.asian is None:
        gauss = rng.standard_normal(m)

        def states_at(spot):
            return simulate_terminal(PAPER, gauss, spot=spot)
    else:
        gauss = rng.standard_normal((m, cfg.asian.steps))

        def states_at(spot):
            return simulate_asian(PAPER, cfg.asian, gauss, spot=spot)
    if eid == "fd":
        fd = FdConfig(alpha=cfg.fd_alpha, bump=cfg.fd_eps)
        return estimate_finite_difference(PAPER, cfg.payoff, fd, gauss, asian=cfg.asian).value
    if eid == "lr":
        states = states_at(spot)
        ss = SampleSet(spot, np.full(m, spot), states, cfg.payoff(states))
        return estimate_oracle_score(ss, PAPER).value

    def estimate(lams):
        states = states_at(lams)
        ss = SampleSet(spot, lams, states, cfg.payoff(states), randomizer=plan.randomizer,
                       state_kind="terminal" if cfg.asian is None else "asian")
        if eid == "uniform":
            return estimate_uniform_opt(ss, plan.kernel, plan.h).value
        if eid == "exponential":
            return estimate_exponential_opt(ss, plan.kernel, plan.h, plan.theta).value
        ec = EstimatorConfig(kernel=plan.kernel, bandwidth=plan.h, randomizer=plan.randomizer,
                             second_kernel=plan.kernel)
        if eid == "double":
            return estimate_double_kernel(ss, ec).value
        single = estimate_single_kernel_hat if eid == "hat" else estimate_single_kernel_check
        return single(ss, ec).value

    value = estimate(spot - offsets)
    if cfg.antithetic:
        value = 0.5 * (value + estimate(spot + offsets))
    return value


_BLOCK_CASES = [
    (eid, antithetic, asian, n)
    for asian in (False, True)
    for eid, antithetic in [
        ("uniform", False), ("uniform", True), ("exponential", False), ("exponential", True),
        ("hat", False), ("hat", True), ("check", False), ("check", True), ("double", False),
        ("double", True), ("lr", False), ("fd", False),
    ]
    for n in (2, 3, 100, 317, 10_000)
    if not (asian and eid == "lr") and not (antithetic and n % 2)
    # leave-one-out needs two draws per replication
    and not (eid == "double" and antithetic and n < 4)
]


@pytest.mark.parametrize("eid, antithetic, asian, n", _BLOCK_CASES)
def test_blocks_match_lone_replications(monkeypatch, eid, antithetic, asian, n):
    extra = {"bandwidth": 1.0} if eid in ("lr", "fd") else {"bandwidth": 6.0}
    if eid in ("hat", "check"):
        extra.update(theta=0.05)
    elif eid == "exponential":
        extra.update(theta=-0.05)
    cfg = base_config(estimator_id=eid, antithetic=antithetic, n_samples=n, replications=11,
                      asian=AsianConfig(steps=3) if asian else None, seed=515, **extra)
    # blocks of 4 rows, or the real size where that already splits R = 11
    # unevenly (N = 10000: rows of 6, or 13 with antithetic pairs)
    m = n // 2 if antithetic else n
    if harness._BLOCK_ELEMENTS // m > 11:
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * m)
    want = [_lone_replication(cfg, 70 + j) for j in range(cfg.replications)]
    for workers in (1, 2, 4):
        got = run_replications(cfg, workers=workers, stream_base=70).estimates
        assert got.tolist() == want


class _FaultyStream:
    """A generator whose uniforms come out as ``value`` at one position of
    its stream, however many calls draw them."""

    def __init__(self, rng, value, position=1):
        self._rng, self._value, self._at = rng, value, position

    def random(self, out):
        self._rng.random(out=out)
        if 0 <= self._at < out.shape[-1]:
            out[..., self._at] = self._value
        self._at -= out.shape[-1]

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("value, error", [(1.5, ValueError), (np.nan, OutsideSupport)])
@pytest.mark.parametrize("workers", [1, 2])
def test_block_errors_name_the_first_failing_replication(monkeypatch, value, error, workers):
    # blocks of 4 rows: replications 6 and 9 fail, both inside a block
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * 50)

    def faulty(gen, seed, stream_id):
        rng = rekey(gen, seed, stream_id)
        return _FaultyStream(rng, value) if stream_id in (6, 9) else rng

    monkeypatch.setattr(harness, "rekey", faulty)
    cfg = base_config(n_samples=50, replications=11)
    with pytest.raises(error, match="^replication 6: ") as info:
        run_replications(cfg, workers=workers)
    assert isinstance(info.value.__cause__, error)


def test_non_finite_block_estimate_names_its_replication(monkeypatch):
    # an infinite normal makes the likelihood-ratio average infinite
    class Infinite(_FaultyStream):
        def standard_normal(self, out):
            self._rng.standard_normal(out=out)
            out[..., 0] = np.inf

    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * 40)
    monkeypatch.setattr(
        harness, "rekey",
        lambda gen, seed, i: Infinite(rekey(gen, seed, i), 0.0) if i == 4
        else rekey(gen, seed, i),
    )
    cfg = base_config(estimator_id="lr", bandwidth=1.0, n_samples=40, replications=7)
    with pytest.raises(NonFiniteEstimate, match="^replication 4: lr produced"):
        run_replications(cfg, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_antithetic_block_errors_name_the_first_failing_replication(monkeypatch, workers):
    # every member of the randomizer group fails before the mirrored pass
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * 25)
    monkeypatch.setattr(
        harness, "rekey",
        lambda gen, seed, i: _FaultyStream(rekey(gen, seed, i), np.nan) if i in (6, 9)
        else rekey(gen, seed, i),
    )
    cfgs = [base_config(estimator_id=eid, n_samples=50, replications=11, antithetic=True)
            for eid in ("hat", "uniform")]
    group = CommonRun(cfgs, workers=workers)
    for cfg in cfgs:
        with pytest.raises(OutsideSupport, match="^replication 6: ") as info:
            group.result(cfg)
        assert isinstance(info.value.__cause__, OutsideSupport)


def test_antithetic_non_finite_estimate_names_its_replication():
    cfg = base_config(estimator_id="exponential", theta=1e6, bandwidth=8.0, n_samples=100,
                      replications=2, antithetic=True)
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteEstimate, match="^replication 0: exponential produced"
    ):
        run_replications(cfg, workers=1)


@pytest.mark.parametrize("replications", [1000, 30_000])
def test_block_memory_is_bounded_by_the_block_budget(replications):
    # each of two workers holds two (rows, N) draw buffers of _BLOCK_ELEMENTS
    # doubles, and a block's temporaries stay below five more; R * N is
    # 1.5 and 46 such arrays here
    cfg = base_config(n_samples=100, replications=replications)
    run_replications(cfg, workers=2)  # warm up imports and caches
    tracemalloc.start()
    try:
        run_replications(cfg, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 7 * harness._BLOCK_ELEMENTS * 8


def test_each_worker_gets_a_block(monkeypatch):
    # at R = 2 and N = 1e4 the element budget alone would put both
    # replications into one block on one worker
    blocks = []
    evaluate = harness._evaluate_block

    def recorded(members, first_id, gen, draws, unit):
        blocks.append((first_id, unit.shape[0]))
        return evaluate(members, first_id, gen, draws, unit)

    monkeypatch.setattr(harness, "_evaluate_block", recorded)
    cfg = base_config(estimator_id="double", bandwidth=6.0, n_samples=10_000, replications=2)
    run_replications(cfg, workers=2)
    assert sorted(blocks) == [(0, 1), (1, 1)]


def test_block_runtime_is_shared_by_its_rows(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * 200)
    res = run_replications(base_config(n_samples=200, replications=7), workers=1)
    assert res.runtime_ms[0] == res.runtime_ms[1] == res.runtime_ms[2] > 0.0
    assert res.runtime_ms[6] > 0.0


# -- row leaves ----------------------------------------------------------------


@pytest.mark.parametrize("limit", [128, 200, 2**16])
def test_tree_sum_matches_numpy_sum(limit):
    rng = np.random.default_rng(8)
    for n in [*range(1, 301), 2**16 - 1, 2**16 + 1, 100_003, 10**6, 2**20 + 3]:
        # magnitudes over ten decades, so that any other order rounds differently
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        leaves = harness._tree_leaves(n, limit)
        assert [s for s, _ in leaves] == np.cumsum([0] + [k for _, k in leaves])[:-1].tolist()
        assert sum(k for _, k in leaves) == n and max(k for _, k in leaves) <= limit
        flat = harness._tree_add(n, limit, (np.sum(x[s : s + k]) for s, k in leaves))
        assert flat == np.sum(x), n
        row = x[None, :]
        rows = harness._tree_add(n, limit, (np.sum(row[:, s : s + k], axis=-1) for s, k in leaves))
        assert rows.tolist() == np.sum(row, axis=-1).tolist(), n


def test_leaf_limit_never_splits_an_eight_accumulator_run(monkeypatch):
    assert harness._leaf_limit() == harness._BLOCK_ELEMENTS
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 50)
    assert harness._leaf_limit() == 128
    assert [k for _, k in harness._tree_leaves(317, harness._leaf_limit())] == [72, 80, 80, 85]


@pytest.mark.parametrize("m", [0, 1, 3, 4, 5, 62_500, 100_001, 10**6, 10**6 + 3])
def test_skip_matches_the_straight_stream(m):
    straight = stream(99, 7)
    straight.random(m)
    skipped = skip(stream(99, 7), m)
    assert np.array_equal(skipped.standard_normal(1001), straight.standard_normal(1001))
    assert np.array_equal(skipped.random(6), straight.random(6))


_LEAF_CASES = [
    (eid, antithetic, asian, n)
    for asian in (False, True)
    for eid, antithetic in [
        ("uniform", False), ("uniform", True), ("exponential", False), ("exponential", True),
        ("hat", False), ("hat", True), ("check", False), ("check", True), ("double", False),
        ("double", True), ("lr", False), ("fd", False),
    ]
    for n in (317, 1000, 10_000)
    if not (asian and eid == "lr") and not (antithetic and n % 2)
]


@pytest.mark.parametrize("eid, antithetic, asian, n", _LEAF_CASES)
def test_row_leaves_match_lone_replications(monkeypatch, eid, antithetic, asian, n):
    # leaves of at most 200 draws: every row is walked in two or more
    extra = {"bandwidth": 1.0} if eid in ("lr", "fd") else {"bandwidth": 6.0}
    if eid in ("hat", "check"):
        extra.update(theta=0.05)
    elif eid == "exponential":
        extra.update(theta=-0.05)
    cfg = base_config(estimator_id=eid, antithetic=antithetic, n_samples=n, replications=3,
                      asian=AsianConfig(steps=3) if asian else None, seed=515, **extra)
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 200)
    want = [_lone_replication(cfg, 70 + j) for j in range(cfg.replications)]
    for workers in (1, 2, 4):
        got = run_replications(cfg, workers=workers, stream_base=70).estimates
        assert got.tolist() == want


@pytest.mark.parametrize("payoff", [digital_call(120.0), vanilla_call(110.0)])
def test_leaves_under_a_clamped_block_size_match_lone_replications(monkeypatch, payoff):
    # leaves of at most 128 draws, not 50: numpy sums 128 with eight accumulators
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 50)
    cfgs = [replace(cfg, payoff=payoff) for cfg in _common_configs(318, False, False)]
    group = CommonRun(cfgs, workers=2, stream_base=70)
    for cfg in cfgs:
        want = [_lone_replication(cfg, 70 + j) for j in range(cfg.replications)]
        assert group.result(cfg).estimates.tolist() == want, cfg.estimator_id


def _six_estimators(n, replications):
    """The six estimators of a default compare, at fixed bandwidths."""
    common = dict(n_samples=n, replications=replications, seed=818)
    cfgs = [base_config(estimator_id=eid, bandwidth=6.0, **common)
            for eid in ("hat", "check", "uniform")]
    cfgs.append(base_config(estimator_id="exponential", bandwidth=6.0, theta=-0.05, **common))
    cfgs += [base_config(estimator_id=eid, bandwidth=1.0, **common) for eid in ("lr", "fd")]
    return cfgs


@pytest.mark.parametrize("n", [2**16 + 1, 10**6])
def test_common_run_in_leaves_matches_lone_replications(n):
    cfgs = _six_estimators(n, 2)
    group = CommonRun(cfgs, workers=2, stream_base=70)
    for cfg in cfgs:
        want = [_lone_replication(cfg, 70 + j) for j in range(cfg.replications)]
        assert group.result(cfg).estimates.tolist() == want, cfg.estimator_id


@pytest.mark.parametrize("value, error", [(1.5, ValueError), (np.nan, OutsideSupport)])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_fault_in_the_last_leaf_names_its_replication(monkeypatch, value, error, workers):
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 200)
    n = 1000
    assert harness._tree_leaves(n, 200)[-1][0] < n - 1

    def faulty(gen, seed, stream_id):
        rng = rekey(gen, seed, stream_id)
        return _FaultyStream(rng, value, n - 1) if stream_id in (6, 9) else rng

    monkeypatch.setattr(harness, "rekey", faulty)
    cfgs = [base_config(estimator_id=eid, n_samples=n, replications=11) for eid in ("hat", "uniform")]
    cfgs.append(base_config(estimator_id="fd", bandwidth=1.0, n_samples=n, replications=11))
    group = CommonRun(cfgs, workers=workers)
    # fd draws no uniforms, but the group fails as one
    for cfg in cfgs:
        with pytest.raises(error, match="^replication 6: ") as info:
            group.result(cfg)
        assert isinstance(info.value.__cause__, error)


def test_compare_memory_does_not_grow_with_n():
    # six estimators at N = 2^20 on two workers: each holds three leaf-sized
    # buffers and a leaf's temporaries, where whole rows would take 8 MiB per
    # array; the bound is 24 leaves of _BLOCK_ELEMENTS doubles (12 MiB)
    cfgs = _six_estimators(2**20, 2)
    CommonRun(cfgs, workers=2).result(cfgs[0])  # warm up imports and caches
    group = CommonRun(cfgs, workers=2)
    tracemalloc.start()
    try:
        group.result(cfgs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * harness._BLOCK_ELEMENTS * 8


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness._default_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    assert harness._default_workers() == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5})
    assert harness._default_workers() == 2
    # without an affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._default_workers() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._default_workers() == 1


# -- common draws ------------------------------------------------------------


def _common_configs(n, asian, antithetic):
    """Every estimator on one set of draws: hat, check and uniform share a
    randomizer, a tilted hat and exponential have one each, and the double
    kernel at h = 6 has the randomizer of a hat at h = 12 but a group of its
    own."""
    common = dict(n_samples=n, replications=11, seed=616, antithetic=antithetic,
                  asian=AsianConfig(steps=3) if asian else None)
    cfgs = [base_config(estimator_id=eid, bandwidth=6.0, **common)
            for eid in ("hat", "check", "uniform")]
    cfgs.append(base_config(estimator_id="exponential", bandwidth=6.0, theta=-0.05, **common))
    cfgs.append(base_config(estimator_id="hat", theta=0.05,
                            bandwidth=6.0, **common))
    if not antithetic:
        if not asian:
            cfgs.append(base_config(estimator_id="lr", bandwidth=1.0, **common))
        cfgs.append(base_config(estimator_id="fd", bandwidth=1.0, **common))
        if not asian:
            cfgs.append(base_config(estimator_id="lr", payoff=vanilla_call(110.0),
                                    bandwidth=1.0, **common))
    # leave-one-out needs two draws per replication
    if n < 1000 and not (antithetic and n < 4):
        cfgs.insert(2, base_config(estimator_id="double", bandwidth=6.0, **common))
        cfgs.append(base_config(estimator_id="hat", bandwidth=12.0, **common))
    return cfgs


@pytest.mark.parametrize("n", [2, 317, 10_000])
@pytest.mark.parametrize("asian, antithetic", [(False, False), (True, False), (False, True)])
def test_common_run_matches_separate_runs(monkeypatch, n, asian, antithetic):
    n += n % 2 if antithetic else 0  # pairs need an even N
    cfgs = _common_configs(n, asian, antithetic)
    m = n // 2 if antithetic else n
    if harness._BLOCK_ELEMENTS // m > 11:
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * m)
    want = [run_replications(cfg, workers=1, stream_base=70) for cfg in cfgs]
    for workers in (1, 2, 4):
        group = CommonRun(cfgs, workers=workers, stream_base=70)
        for cfg, b in zip(cfgs, want):
            a = group.result(cfg)
            assert a.estimates.tolist() == b.estimates.tolist(), cfg.estimator_id
            assert (a.plan.h, a.plan.theta, a.plan.epsilon) == (b.plan.h, b.plan.theta,
                                                                 b.plan.epsilon)
            assert np.all(a.runtime_ms > 0.0)


class _CountedStream:
    """A generator that counts the uniforms and normals drawn from it."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def random(self, out):
        self._counts["uniforms"] += out.size
        self._rng.random(out=out)

    def standard_normal(self, out):
        self._counts["normals"] += out.size
        self._rng.standard_normal(out=out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("n, block", [(50, 4 * 50), (1000, 200)])
def test_common_run_draws_each_stream_once(monkeypatch, n, block):
    # blocks of four rows that are one leaf each, and rows walked in leaves
    # of at most 200 draws: kernel estimators, lr and fd read one noise
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", block)
    counts = {"uniforms": 0, "normals": 0}
    monkeypatch.setattr(harness, "rekey",
                        lambda gen, seed, i: _CountedStream(rekey(gen, seed, i), counts))
    common = dict(n_samples=n, replications=5, seed=919)
    cfgs = [base_config(estimator_id=eid, bandwidth=6.0, **common) for eid in ("hat", "uniform")]
    cfgs.append(base_config(estimator_id="exponential", bandwidth=6.0, theta=-0.05, **common))
    cfgs += [base_config(estimator_id=eid, bandwidth=1.0, **common) for eid in ("lr", "fd")]
    group = CommonRun(cfgs, workers=1)
    for cfg in cfgs:
        assert np.all(np.isfinite(group.result(cfg).estimates)), cfg.estimator_id
    assert counts == {"uniforms": 5 * n, "normals": 5 * n}


def test_common_run_needs_configs_that_share_their_draws():
    base = base_config()
    for change in (dict(model=GbmParams(spot=100.0, rate=0.0, vol=0.2, maturity=1.0)),
                   dict(asian=AsianConfig(steps=4)), dict(n_samples=1000),
                   dict(replications=7), dict(seed=1), dict(antithetic=True)):
        with pytest.raises(ValueError, match="must agree on"):
            CommonRun([base, base_config(**change)])
    # the payoff, estimator and plan may differ
    lr = base_config(estimator_id="lr", payoff=vanilla_call(110.0))
    group = CommonRun([base, lr])
    assert np.all(np.isfinite(group.result(lr).estimates))
    with pytest.raises(ValueError, match="not one of"):
        group.result(base_config(seed=1))
    # the group fixes workers and stream base
    for extra in (dict(workers=1), dict(stream_base=40)):
        with pytest.raises(ValueError, match="fixes its own"):
            run_replications(base, common=group, **extra)


def test_common_run_fails_as_one():
    uniform = base_config(replications=3)
    fd = base_config(estimator_id="fd", bandwidth=1.0, fd_eps=300.0, replications=3)
    group = CommonRun([uniform, fd], workers=1)
    for cfg in (uniform, fd):
        with pytest.raises(DegenerateBump, match="^replication 0: downward bump") as info:
            group.result(cfg)
        assert isinstance(info.value.__cause__, DegenerateBump)
    # a failing plan raises from the constructor, before any replication
    silent = base_config(bandwidth="auto", payoff=digital_call(1e9), replications=3)
    with pytest.raises(NonPositiveVariance, match="^payoff is identically zero"):
        CommonRun([fd, uniform, silent], workers=1)


def test_a_fault_stops_the_later_blocks_of_every_member(monkeypatch):
    # blocks of 4 rows; the uniforms of replication 2 fail hat, while fd
    # reads only the noise: the row search runs 0, 1 and 2, and no later block
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * 50)
    monkeypatch.setattr(
        harness, "rekey",
        lambda gen, seed, i: _FaultyStream(rekey(gen, seed, i), np.nan) if i == 2
        else rekey(gen, seed, i),
    )
    blocks = []
    evaluate = harness._evaluate_block

    def recorded(members, first_id, gen, draws, unit):
        blocks.append((first_id, unit.shape[0], len(members)))
        return evaluate(members, first_id, gen, draws, unit)

    monkeypatch.setattr(harness, "_evaluate_block", recorded)
    cfgs = [base_config(estimator_id="hat", n_samples=50, replications=11),
            base_config(estimator_id="fd", bandwidth=1.0, n_samples=50, replications=11)]
    group = CommonRun(cfgs, workers=1)
    for cfg in cfgs:
        with pytest.raises(OutsideSupport, match="^replication 2: "):
            group.result(cfg)
    assert blocks == [(0, 4, 2), (0, 1, 2), (1, 1, 2), (2, 1, 2)]


def test_common_runtime_is_shared_by_rows_and_estimators(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * 200)
    cfgs = [base_config(n_samples=200, replications=7),
            base_config(estimator_id="lr", bandwidth=1.0, n_samples=200, replications=7)]
    group = CommonRun(cfgs, workers=1)
    uniform, lr = (group.result(cfg) for cfg in cfgs)
    assert np.array_equal(uniform.runtime_ms, lr.runtime_ms)
    assert uniform.runtime_ms[0] == uniform.runtime_ms[2] > 0.0


# -- shared kernel terms ---------------------------------------------------------


def _shared_terms_configs(n, antithetic):
    """hat, check, uniform and a p4 hat on one uniform randomizer, exponential
    and a tilted hat on one tilted randomizer, all at h = 6: the p4 hat
    shares its randomizer but not its kernel terms."""
    common = dict(n_samples=n, replications=11, seed=717, antithetic=antithetic, bandwidth=6.0)
    cfgs = [base_config(estimator_id=eid, **common) for eid in ("hat", "check", "uniform")]
    cfgs.append(base_config(estimator_id="exponential", theta=0.05, **common))
    cfgs.append(base_config(estimator_id="hat", theta=0.05, **common))
    cfgs.append(base_config(estimator_id="hat", kernel_family="p4", **common))
    return cfgs


@pytest.mark.parametrize("n, antithetic", [(317, False), (318, True), (10_000, False)])
def test_shared_kernel_terms_match_lone_replications(monkeypatch, n, antithetic):
    cfgs = _shared_terms_configs(n, antithetic)
    plans = [resolve_run(cfg) for cfg in cfgs]
    assert plans[0].randomizer == plans[5].randomizer != plans[3].randomizer == plans[4].randomizer
    m = n // 2 if antithetic else n
    if harness._BLOCK_ELEMENTS // m > 11:
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * m)
    want = [[_lone_replication(cfg, 70 + j) for j in range(cfg.replications)] for cfg in cfgs]
    assert want[0] == want[1] != want[5]
    for workers in (1, 2):
        group = CommonRun(cfgs, workers=workers, stream_base=70)
        for cfg, values in zip(cfgs, want):
            assert group.result(cfg).estimates.tolist() == values, cfg


def test_shared_group_evaluates_each_kernel_once_per_block(monkeypatch):
    calls = {"__call__": 0, "gradient": 0}
    for name in calls:
        def counted(self, u, _original=getattr(Kernel, name), _name=name):
            calls[_name] += 1
            return _original(self, u)

        monkeypatch.setattr(Kernel, name, counted)
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * 200)
    cfgs = [base_config(estimator_id=eid, n_samples=200, replications=7)
            for eid in ("hat", "check", "uniform")]
    group = CommonRun(cfgs, workers=1)
    for cfg in cfgs:
        group.result(cfg)
    # blocks of 3, 3 and 1 rows; one formula, which has no tilt and reads no K(u)
    assert calls == {"__call__": 0, "gradient": 3}


@pytest.mark.parametrize("n, antithetic", [(317, False), (318, True), (1000, False)])
def test_hat_check_and_uniform_agree_bit_for_bit(monkeypatch, n, antithetic):
    # at the uniform randomizer the three have one formula; rows of 1000
    # draws are walked in leaves of 200. theta = 0 is the uniform
    # randomizer, so hat and check at theta = 0 and exponential at a fixed
    # theta = 0 have that formula too
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 200)
    shared = dict(n_samples=n, replications=5, antithetic=antithetic)
    cfgs = [base_config(estimator_id=eid, **shared) for eid in ("hat", "check", "uniform")]
    cfgs += [base_config(estimator_id=eid, theta=0.0, **shared)
             for eid in ("hat", "check", "exponential")]
    assert len({resolve_run(cfg).formula for cfg in cfgs}) == 1
    group = CommonRun(cfgs, workers=2)
    estimates = {group.result(cfg).estimates.tobytes() for cfg in cfgs}
    assert len(estimates) == 1
    assert run_replications(cfgs[2], workers=1).estimates.tobytes() in estimates


def test_shared_group_sums_each_member_and_raises_a_kernel_error():
    cfgs = [base_config(estimator_id=eid, n_samples=50) for eid in ("hat", "uniform", "check")]
    plans = [resolve_run(cfg) for cfg in cfgs]
    # a fourth member whose kernel fails to evaluate has terms of its own
    class Broken(Kernel):
        def gradient(self, u):
            raise ZeroDivisionError("broken kernel")

    odd = Broken(family="broken", order_p=2, coeffs=np.array([1.0]))
    cfgs.append(cfgs[0])
    plans.append(replace(plans[0], kernel=odd))
    rng = np.random.default_rng(3)
    spot = PAPER.spot
    lams = spot - plans[0].randomizer.sample_offsets(rng.random((2, 50)))
    unit = simulate_terminal(PAPER, rng.standard_normal((2, 50)), spot=1.0)
    want, want_uniform = [], []
    for row in range(2):
        ss = SampleSet(spot, lams[row], unit[row] * lams[row], cfgs[0].payoff(unit[row] * lams[row]),
                       randomizer=plans[0].randomizer)
        ec = EstimatorConfig(kernel=plans[0].kernel, bandwidth=plans[0].h,
                             randomizer=plans[0].randomizer)
        want.append(estimate_single_kernel_hat(ss, ec).value)
        want_uniform.append(estimate_uniform_opt(ss, plans[1].kernel, plans[1].h).value)
    members = list(zip(cfgs, plans))
    # the spots serve as scratch
    hat, uniform, check = harness._kernel_rows(members[:3], lams.copy(), unit)
    # each member's row sums, finished by its plan
    assert [plans[i].finish(total, 50).tolist() for i, total in ((0, hat), (2, check))] == [
        want, want]
    assert plans[1].finish(uniform, 50).tolist() == want_uniform
    with pytest.raises(ZeroDivisionError, match="broken kernel"):
        harness._kernel_rows(members, lams, unit)


def test_each_formula_is_built_once_per_run(monkeypatch):
    # five one-row blocks on two workers, each row of 1000 draws walked in
    # eight leaves; the formulas are built once, with the plans
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 200)
    built = []
    init = harness._KernelSum.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(harness._KernelSum, "__init__", counted)
    cfgs = [base_config(estimator_id=eid, n_samples=1000, replications=5)
            for eid in ("hat", "uniform", "exponential")]
    common = CommonRun(cfgs, workers=2)
    results = [run_replications(cfg, common=common) for cfg in cfgs]
    assert all(np.all(np.isfinite(res.estimates)) for res in results)
    # one construction per plan, and none while replicating
    assert len(built) == 3
    assert all(formula is res.plan.formula for formula, res in zip(built, results))


def test_six_estimator_block_memory():
    # the six estimators of a default compare on one row of N = 2^16 draws;
    # the peak is the kernel group's payoffs, K'(u), K(u) and the kernel's
    # support mask, with u taken in place of the offsets
    n = 2**16
    cfgs = [base_config(estimator_id=eid, n_samples=n, replications=1)
            for eid in ("hat", "check", "uniform")]
    cfgs.append(base_config(estimator_id="exponential", theta=0.01, n_samples=n, replications=1))
    cfgs += [base_config(estimator_id=eid, bandwidth=1.0, n_samples=n, replications=1)
             for eid in ("lr", "fd")]
    members = [(cfg, resolve_run(cfg)) for cfg in cfgs]
    buffers = harness._worker_buffers(members, 1)
    harness._evaluate_block(members, 0, *buffers)  # warm up imports and caches
    tracemalloc.start()
    try:
        outcomes = harness._evaluate_block(members, 0, *buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(v)) for v in outcomes)
    assert peak <= 3.5 * 8 * n


# -- stream-id layout ----------------------------------------------------------


def test_replication_ids_stay_inside_their_block():
    assert replication_ids(0, 2**32) == range(0, 2**32)
    assert replication_ids(sweep_base(3) + 5, 2**32 - 5)[-1] == sweep_base(4) - 1
    for base, count in ((0, 2**32 + 1), (sweep_base(2) + 1, 2**32), (-1, 1), (0, -1),
                        (STREAM_REFERENCE - 10, 11)):
        with pytest.raises(ValueError):
            replication_ids(base, count)


def test_sweep_blocks_stop_below_the_reference_ids():
    assert sweep_base(16382) == STREAM_REFERENCE - 2**32
    for i in (16383, 16384, 2**40):
        with pytest.raises(ValueError):
            sweep_base(i)


def test_overlapping_runs_raise_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        pytest.fail("run_replications started work before checking its stream ids")

    monkeypatch.setattr(harness, "resolve_run", no_work)
    # 2**32 replications fit from a block start, not from one id later; the
    # estimates alone would take 32 GiB
    cfg = base_config(replications=2**32)
    with pytest.raises(ValueError, match="next stream block"):
        run_replications(cfg, stream_base=sweep_base(0) + 1)
    with pytest.raises(ValueError):
        base_config(replications=2**32 + 1)


# -- non-finite inputs ------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(bad):
    for field in ("bandwidth", "theta", "fd_alpha", "fd_eps"):
        with pytest.raises(ValueError):
            base_config(**{field: bad})
