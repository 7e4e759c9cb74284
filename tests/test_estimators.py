"""Unit tests of the delta estimators on hand-checkable sample sets."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgreeks import (
    EstimatorConfig,
    ExperimentConfig,
    FdConfig,
    GbmParams,
    SampleSet,
    builtin_kernel,
    digital_call,
    estimate_double_kernel,
    estimate_finite_difference,
    estimate_single_kernel_check,
    estimate_single_kernel_hat,
    identity_payoff,
    law_density_ratio,
    lognormal_params,
    run_replications,
    simulate_terminal,
    truncexp_randomizer,
    uniform_randomizer,
    vanilla_call,
)
from kernelgreeks import estimators
from kernelgreeks.errors import (
    DegenerateBandwidth,
    DegenerateBump,
    DimensionMismatch,
    EmptySample,
    InsufficientSamples,
    MissingSecondKernel,
    NonFiniteEstimate,
    OutsideSupport,
    RandomizerMismatch,
    ScoreUnavailable,
)
from kernelgreeks.estimators import (
    Estimate,
    _double_kernel,
    _double_kernel_direct,
    _double_kernel_moments,
    estimate_exponential_opt,
    estimate_oracle_score,
    estimate_uniform_opt,
)
from kernelgreeks.models import AsianConfig, constant_payoff

K2 = builtin_kernel("p2")
PAPER = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)


def make_samples(rng, n, lambda0=120.0, randomizer=None, payoff=None, attach=True):
    r = randomizer if randomizer is not None else uniform_randomizer(8.0)
    payoff = payoff if payoff is not None else digital_call(120.0)
    offsets = r.sample_offsets(rng.random(n))
    lambdas = lambda0 - offsets
    states = simulate_terminal(PAPER, rng.standard_normal(n), spot=lambdas)
    return SampleSet(
        lambda0=lambda0,
        lambdas=lambdas,
        states=states,
        payoffs=payoff(states),
        randomizer=r if attach else None,
    )


# -- SampleSet -----------------------------------------------------------


def test_sample_set_validation():
    with pytest.raises(DimensionMismatch):
        SampleSet(0.0, np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(OutsideSupport):
        SampleSet(0.0, np.array([1.5]), np.array([1.0]), np.array([1.0]),
                  randomizer=uniform_randomizer(1.0))
    with pytest.raises(ValueError):
        SampleSet(0.0, np.zeros(1), np.zeros(1), np.zeros(1), state_kind="barrier")
    s = SampleSet(0.0, [0.1, -0.2], [1.0, 2.0], [0.0, 1.0])
    assert s.n == 2
    assert s.lambdas.dtype == float


def test_sample_set_rejects_non_finite_parameters():
    # a NaN offset compares False against the support, so it must not pass
    r = uniform_randomizer(8.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutsideSupport):
            SampleSet(120.0, [bad, 119.0], [100.0, 130.0], [0.0, 1.0], randomizer=r)
    with pytest.raises(OutsideSupport):
        SampleSet(np.nan, [120.0, 119.0], [100.0, 130.0], [0.0, 1.0], randomizer=r)


def test_empty_and_bad_bandwidth():
    empty = SampleSet(0.0, np.zeros(0), np.zeros(0), np.zeros(0))
    cfg = EstimatorConfig(kernel=K2, bandwidth=1.0, randomizer=uniform_randomizer(1.0))
    with pytest.raises(EmptySample):
        estimate_single_kernel_hat(empty, cfg)
    one = SampleSet(0.0, [0.1], [1.0], [1.0], randomizer=uniform_randomizer(1.0))
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DegenerateBandwidth):
            estimate_single_kernel_hat(one, EstimatorConfig(kernel=K2, bandwidth=bad))


def test_missing_randomizer():
    s = SampleSet(0.0, [0.1], [1.0], [1.0])
    with pytest.raises(RandomizerMismatch):
        estimate_single_kernel_hat(s, EstimatorConfig(kernel=K2, bandwidth=1.0))


def test_config_randomizer_must_match_generating_one():
    s = SampleSet(0.0, [0.1], [1.0], [1.0], randomizer=uniform_randomizer(1.0))
    cfg = EstimatorConfig(kernel=K2, bandwidth=1.0, randomizer=uniform_randomizer(2.0))
    with pytest.raises(RandomizerMismatch):
        estimate_single_kernel_hat(s, cfg)


# -- single-kernel estimators ---------------------------------------------


def test_hat_single_draw_by_hand():
    # one draw at offset 0.4, h = eps = 0.8: value = 2 eps K'(0.5) / h^2
    r = uniform_randomizer(0.8)
    s = SampleSet(10.0, [10.0 - 0.4], [1.0], [1.0], randomizer=r)
    est = estimate_single_kernel_hat(s, EstimatorConfig(kernel=K2, bandwidth=0.8))
    assert est.value == pytest.approx(-1.875, rel=1e-14)
    assert est.estimator_id == "hat"
    assert est.n_samples == 1


def test_zero_payoff_gives_zero():
    rng = np.random.default_rng(0)
    s = make_samples(rng, 50, payoff=lambda z: np.zeros_like(z))
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, second_kernel=K2)
    assert estimate_single_kernel_hat(s, cfg).value == 0.0
    assert estimate_single_kernel_check(s, cfg).value == 0.0
    assert estimate_uniform_opt(s, K2, 4.0).value == 0.0
    assert estimate_double_kernel(s, cfg).value == 0.0
    assert estimate_oracle_score(s, PAPER).value == 0.0


def test_hat_equals_check_uniform_and_truncexp():
    rng = np.random.default_rng(1)
    for r in (uniform_randomizer(6.0), truncexp_randomizer(6.0, 0.4), truncexp_randomizer(6.0, -1.2)):
        s = make_samples(rng, 300, randomizer=r)
        cfg = EstimatorConfig(kernel=K2, bandwidth=5.0)
        hat = estimate_single_kernel_hat(s, cfg).value
        check = estimate_single_kernel_check(s, cfg).value
        assert hat == pytest.approx(check, rel=1e-12)


def test_hat_is_check_up_to_the_support_edge():
    # the support check lets offsets through up to eps * (1 + 1e-12); hat
    # takes the constant log-density gradient there as well
    for r in (uniform_randomizer(6.0), truncexp_randomizer(6.0, 0.4)):
        offsets = np.array([-3.0, 1.0, 6.0 * (1.0 + 1e-13)])
        s = SampleSet(120.0, 120.0 - offsets, [118.0, 121.0, 125.0], [0.5, 1.0, 5.0],
                      randomizer=r)
        cfg = EstimatorConfig(kernel=K2, bandwidth=7.0)
        hat = estimate_single_kernel_hat(s, cfg).value
        assert hat != 0.0 and hat == estimate_single_kernel_check(s, cfg).value
    # draws from no known randomizer are checked against the config's support
    s = SampleSet(120.0, [112.0, 119.0], [118.0, 121.0], [1.0, 1.0])
    cfg = EstimatorConfig(kernel=K2, bandwidth=2.0, randomizer=uniform_randomizer(6.0))
    for estimate in (estimate_single_kernel_hat, estimate_single_kernel_check):
        with pytest.raises(OutsideSupport):
            estimate(s, cfg)


def test_uniform_opt_matches_hat():
    rng = np.random.default_rng(2)
    # generating support wider than the kernel window: both use ell(0) of the
    # generating density, so they still coincide
    s = make_samples(rng, 200, randomizer=uniform_randomizer(10.0))
    hat = estimate_single_kernel_hat(s, EstimatorConfig(kernel=K2, bandwidth=7.0)).value
    opt = estimate_uniform_opt(s, K2, 7.0).value
    assert opt == pytest.approx(hat, rel=1e-13)


def test_exponential_opt_matches_hat():
    rng = np.random.default_rng(3)
    r = truncexp_randomizer(5.0, 0.3)
    s = make_samples(rng, 200, randomizer=r)
    hat = estimate_single_kernel_hat(s, EstimatorConfig(kernel=K2, bandwidth=5.0)).value
    opt = estimate_exponential_opt(s, K2, 5.0).value
    assert opt == pytest.approx(hat, rel=1e-12)
    explicit = estimate_exponential_opt(s, K2, 5.0, theta=0.3).value
    assert explicit == opt


def test_exponential_opt_at_zero_tilt_is_uniform_opt():
    rng = np.random.default_rng(4)
    s = make_samples(rng, 150, randomizer=uniform_randomizer(6.0))
    uni = estimate_uniform_opt(s, K2, 6.0).value
    exp0 = estimate_exponential_opt(s, K2, 6.0, theta=0.0).value
    assert exp0 == pytest.approx(uni, rel=1e-12)


def test_exponential_opt_rejects_mismatched_tilt():
    rng = np.random.default_rng(5)
    s = make_samples(rng, 50, randomizer=truncexp_randomizer(5.0, 0.3))
    with pytest.raises(RandomizerMismatch):
        estimate_exponential_opt(s, K2, 5.0, theta=0.7)
    uni = make_samples(rng, 50, randomizer=uniform_randomizer(5.0))
    with pytest.raises(RandomizerMismatch):
        estimate_exponential_opt(uni, K2, 5.0, theta=0.7)


def test_uniform_opt_reads_samples_of_the_zero_tilt():
    # theta = 0 is the uniform randomizer: the same uniforms give the same
    # draws and the uniform estimator the same bits
    uni = make_samples(np.random.default_rng(7), 300, randomizer=uniform_randomizer(6.0))
    flat = make_samples(np.random.default_rng(7), 300, randomizer=truncexp_randomizer(6.0, 0.0))
    assert flat.lambdas.tobytes() == uni.lambdas.tobytes()
    assert estimate_uniform_opt(flat, K2, 6.0).value == estimate_uniform_opt(uni, K2, 6.0).value
    tilted = make_samples(np.random.default_rng(7), 300, randomizer=truncexp_randomizer(6.0, 0.1))
    with pytest.raises(RandomizerMismatch):
        estimate_uniform_opt(tilted, K2, 6.0)


def test_opt_estimators_reject_narrow_support():
    rng = np.random.default_rng(6)
    s = make_samples(rng, 50, randomizer=uniform_randomizer(2.0))
    with pytest.raises(RandomizerMismatch):
        estimate_uniform_opt(s, K2, 3.0)  # needs eps >= M h = 3
    t = make_samples(rng, 50, randomizer=truncexp_randomizer(2.0, 0.1))
    with pytest.raises(RandomizerMismatch):
        estimate_uniform_opt(t, K2, 1.0)  # wrong generating kind


def test_uniform_opt_detached_samples_use_coupled_support():
    # without a generating randomizer the support defaults to eps = M h, so
    # draws inside it keep the bits they get with their randomizer attached
    r = uniform_randomizer(3.0)
    rng = np.random.default_rng(7)
    s = make_samples(rng, 100, randomizer=r)
    detached = SampleSet(s.lambda0, s.lambdas, s.states, s.payoffs)
    assert estimate_uniform_opt(detached, K2, 3.0).value == estimate_uniform_opt(s, K2, 3.0).value
    for theta in (0.05, -0.1):
        s = make_samples(rng, 100, randomizer=truncexp_randomizer(3.0, theta))
        detached = SampleSet(s.lambda0, s.lambdas, s.states, s.payoffs)
        want = estimate_exponential_opt(s, K2, 3.0).value
        assert estimate_exponential_opt(detached, K2, 3.0, theta).value == want


def test_window_estimators_check_detached_draws():
    # draws from uniform(+-16) without their randomizer: the kernel window
    # at h = 8 is +-8, so uniform and exponential refuse them, as hat and
    # check refuse draws outside the config's support
    s = make_samples(np.random.default_rng(1), 400, randomizer=uniform_randomizer(16.0),
                     attach=False)
    with pytest.raises(OutsideSupport):
        estimate_uniform_opt(s, K2, 8.0)
    with pytest.raises(OutsideSupport):
        estimate_exponential_opt(s, K2, 8.0, theta=0.0)
    # with their randomizer attached they are read on its support
    attached = SampleSet(s.lambda0, s.lambdas, s.states, s.payoffs, uniform_randomizer(16.0))
    assert estimate_uniform_opt(attached, K2, 8.0).value != 0.0


def test_locality_of_single_kernel():
    # draws beyond the kernel window contribute nothing but still count in N
    r = uniform_randomizer(8.0)
    h = 2.0
    inside = SampleSet(100.0, [99.0, 101.5], [1.0, 2.0], [1.0, 1.0], randomizer=r)
    padded = SampleSet(
        100.0,
        [99.0, 101.5, 95.0, 107.0],
        [1.0, 2.0, 3.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        randomizer=r,
    )
    cfg = EstimatorConfig(kernel=K2, bandwidth=h)
    a = estimate_single_kernel_hat(inside, cfg)
    b = estimate_single_kernel_hat(padded, cfg)
    assert a.value * inside.n == pytest.approx(b.value * padded.n, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.integers(0, 2**31 - 1))
def test_linearity_in_payoff(a, b, seed):
    rng = np.random.default_rng(seed)
    r = uniform_randomizer(6.0)
    base = make_samples(rng, 60, randomizer=r)
    phi1 = base.payoffs
    phi2 = np.cos(base.states / 40.0)
    mixed = SampleSet(base.lambda0, base.lambdas, base.states,
                      a * phi1 + b * phi2, randomizer=r)
    s1 = SampleSet(base.lambda0, base.lambdas, base.states, phi1, randomizer=r)
    s2 = SampleSet(base.lambda0, base.lambdas, base.states, phi2, randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=5.0)
    lhs = estimate_single_kernel_hat(mixed, cfg).value
    rhs = (a * estimate_single_kernel_hat(s1, cfg).value
           + b * estimate_single_kernel_hat(s2, cfg).value)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# -- double kernel ---------------------------------------------------------


def double_kernel_reference(samples, kernel, second, h, r):
    """Direct O(N^2) transliteration of the leave-one-out construction: for
    each draw i, the sums over every other draw j, taken as one array."""
    n = samples.n
    lam, z, phi = samples.lambdas, samples.states, samples.payoffs
    total = 0.0
    for i in range(n):
        others = np.arange(n) != i
        hz = second((z[i] - z[others]) / h)
        den = float(np.sum(kernel((lam[i] - lam[others]) / h) * hz))
        num = float(np.sum(kernel.gradient((lam[i] - lam[others]) / h) * hz))
        den /= (n - 1) * h * h
        num /= (n - 1) * h**3
        if den < 1e-12 / (h * h):
            continue
        s_hat = num / den + r.theta
        total += phi[i] * s_hat * kernel((samples.lambda0 - lam[i]) / h)
    return total / (r.density_at_zero() * n * h)


def test_double_kernel_two_sample_case():
    r = uniform_randomizer(1.0)
    s = SampleSet(0.0, [0.2, -0.1], [0.1, 0.3], [0.1, 0.3], randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=1.0, second_kernel=K2)
    est = estimate_double_kernel(s, cfg)
    assert est.value == pytest.approx(1809.0 / 18200.0, rel=1e-13)
    assert est.value == pytest.approx(
        double_kernel_reference(s, K2, K2, 1.0, r), rel=1e-13
    )


def test_double_kernel_matches_direct_sum():
    rng = np.random.default_rng(8)
    for r in (uniform_randomizer(8.0), truncexp_randomizer(8.0, 0.2)):
        s = make_samples(rng, 400, randomizer=r, payoff=vanilla_call(115.0))
        cfg = EstimatorConfig(kernel=K2, bandwidth=6.0, second_kernel=K2)
        fast = estimate_double_kernel(s, cfg).value
        slow = double_kernel_reference(s, K2, K2, 6.0, r)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_double_kernel_linearity():
    rng = np.random.default_rng(9)
    r = uniform_randomizer(6.0)
    s = make_samples(rng, 80, randomizer=r, payoff=vanilla_call(118.0))
    scaled = SampleSet(s.lambda0, s.lambdas, s.states, 3.25 * s.payoffs, randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=6.0, second_kernel=K2)
    assert estimate_double_kernel(scaled, cfg).value == pytest.approx(
        3.25 * estimate_double_kernel(s, cfg).value, rel=1e-12
    )


def test_double_kernel_guards():
    r = uniform_randomizer(1.0)
    one = SampleSet(0.0, [0.1], [1.0], [1.0], randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=1.0, second_kernel=K2)
    with pytest.raises(InsufficientSamples):
        estimate_double_kernel(one, cfg)
    two = SampleSet(0.0, [0.1, -0.1], [1.0, 2.0], [1.0, 1.0], randomizer=r)
    with pytest.raises(MissingSecondKernel):
        estimate_double_kernel(two, EstimatorConfig(kernel=K2, bandwidth=1.0))


def test_double_kernel_density_floor_drops_isolated_draws():
    # the two states are farther apart than the H window, so every
    # leave-one-out density estimate is zero and all terms are dropped
    r = uniform_randomizer(1.0)
    s = SampleSet(0.0, [0.2, -0.1], [1.0, 50.0], [1.0, 1.0], randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=1.0, second_kernel=K2)
    assert estimate_double_kernel(s, cfg).value == 0.0


@pytest.mark.parametrize("family", ["p2", "p4", "p6"])
@pytest.mark.parametrize("h", [0.5, 2.0, 14.0])
def test_double_kernel_moments_match_direct_sweep(family, h):
    # the moment range sums against the pairwise sweep, on the same draws;
    # at h = 0.5 the offsets reach 16 h and many draws fall under the floor
    kernel = builtin_kernel(family)
    cfg = EstimatorConfig(kernel=kernel, bandwidth=h, second_kernel=kernel)
    rng = np.random.default_rng(21)
    for r in (uniform_randomizer(8.0), truncexp_randomizer(8.0, 0.2)):
        s = make_samples(rng, 3000, randomizer=r)
        direct, dropped_direct = _double_kernel(s, cfg, _double_kernel_direct)
        moments, dropped_moments = _double_kernel(s, cfg, _double_kernel_moments)
        assert moments.value == pytest.approx(direct.value, rel=1e-9)
        assert dropped_moments == dropped_direct


def test_double_kernel_moments_keep_support_edge_pairs():
    # on a lattice of spacing h many pairs sit exactly on the support edge,
    # where K' jumps: a window that disagrees with the kernel's own test
    # |(x_i - x_j) / h| <= 1 by one pair moves the sums by O(1)
    rng = np.random.default_rng(25)
    for h in rng.uniform(0.1, 20.0, 12):
        lam = np.sort(100.0 + h * rng.integers(0, 6, 200))
        z = np.sort(90.0 + 0.5 * h * rng.integers(0, 8, 200))
        rng.shuffle(lam)
        for family in ("p2", "p6"):
            kernel = builtin_kernel(family)
            direct = _double_kernel_direct(lam, z, h, kernel, kernel)
            moments = _double_kernel_moments(lam, z, h, kernel, kernel)
            np.testing.assert_allclose(moments, direct, rtol=0.0, atol=1e-7)


def test_double_kernel_drops_non_finite_draws():
    rng = np.random.default_rng(24)
    s = make_samples(rng, 300)
    states = s.states.copy()
    states[[3, 7]] = [np.nan, np.inf]
    bad = SampleSet(s.lambda0, s.lambdas, states, s.payoffs, randomizer=s.randomizer)
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, second_kernel=K2)
    direct, dropped_direct = _double_kernel(bad, cfg, _double_kernel_direct)
    moments, dropped_moments = _double_kernel(bad, cfg, _double_kernel_moments)
    assert math.isfinite(direct.value)
    assert moments.value == pytest.approx(direct.value, rel=1e-12)
    assert dropped_moments == dropped_direct >= 2


#: estimates of `double` runs at N = 4000, R = 2, h = 10, seed 7, taken
#: before the window sums were restricted to the contributing draws
_DOUBLE_BITS = {
    ("p2", "digital", False): ("0x1.eb384fbc4df35p-7", "0x1.b14f401cca656p-7"),
    ("p2", "digital", True): ("0x1.fac4b3f2300ebp-7", "0x1.0cb2ce35b1018p-6"),
    ("p2", "vanilla", False): ("0x1.041653a1f3858p-1", "0x1.a75d60b38553ap-2"),
    ("p2", "vanilla", True): ("0x1.08490299fe36fp-1", "0x1.2897e3fd086a6p-1"),
    ("p2", "identity", False): ("0x1.c16e220d02164p-1", "0x1.aab6a93cc2221p-2"),
    ("p2", "identity", True): ("0x1.eb30ebfd054a4p-1", "0x1.154b9836210a2p+0"),
    ("p2", "zero", False): ("0x0.0p+0", "0x0.0p+0"),
    ("p2", "zero", True): ("0x0.0p+0", "0x0.0p+0"),
    ("p2", "two", False): ("-0x1.ffe3261abbe77p-11", "-0x1.df072e18577f8p-8"),
    ("p2", "two", True): ("0x1.9ca77b403b344p-11", "0x1.5f648f3ec7b5cp-10"),
    ("p4", "digital", False): ("0x1.72151dd6492a7p-6", "0x1.cc370afeae23bp-7"),
    ("p4", "digital", True): ("0x1.1cf68177d1a7cp-6", "0x1.bc31668164e89p-7"),
    ("p4", "vanilla", False): ("0x1.1d785b93198a0p+0", "0x1.a3219cc9384e6p-2"),
    ("p4", "vanilla", True): ("0x1.1320e96a3865cp-1", "0x1.2cde02d13c824p-2"),
    ("p4", "identity", False): ("0x1.e9ac0c339a837p+0", "0x1.1f42ea518d598p-1"),
    ("p4", "identity", True): ("0x1.65c422a97d03dp+0", "0x1.6dd1d942b4680p-2"),
    ("p4", "zero", False): ("0x0.0p+0", "0x0.0p+0"),
    ("p4", "zero", True): ("0x0.0p+0", "0x0.0p+0"),
    ("p4", "two", False): ("0x1.5fec33d5d6aa0p-9", "-0x1.b78664b951dd7p-8"),
    ("p4", "two", True): ("0x1.99e532b96e234p-7", "-0x1.e5bdedc95e276p-8"),
    ("p6", "digital", False): ("0x1.e78ddc65c0219p-7", "0x1.0e989c7f8c0dap-5"),
    ("p6", "digital", True): ("0x1.76f6757034daap-7", "0x1.fe0846f62a3ccp-7"),
    ("p6", "vanilla", False): ("0x1.1a7472c6e1637p-1", "0x1.0e9361eaecceap+1"),
    ("p6", "vanilla", True): ("0x1.1de493ce57327p-2", "0x1.1e059dd1144cdp-1"),
    ("p6", "identity", False): ("-0x1.4d6b60475a581p-3", "0x1.0a8a1699e2a70p+2"),
    ("p6", "identity", True): ("-0x1.beed46a2cb247p+0", "0x1.019096af46072p+0"),
    ("p6", "zero", False): ("0x0.0p+0", "0x0.0p+0"),
    ("p6", "zero", True): ("0x0.0p+0", "0x0.0p+0"),
    ("p6", "two", False): ("-0x1.5d4ddfd36c820p-6", "0x1.771276aa0fe62p-6"),
    ("p6", "two", True): ("-0x1.caa7fa9cdccaep-5", "0x1.1661182073480p-10"),
}


@pytest.mark.parametrize("family", ["p2", "p4", "p6"])
def test_double_kernel_estimates_keep_their_bits(family):
    # at N = 4000 every level's pieces of p2 fitted in one chunk of the
    # earlier code, so its bits hold; p4 and p6 were split into chunks whose
    # boundaries moved, which may move them by roundoff
    payoffs = {"digital": digital_call(120.0), "vanilla": vanilla_call(120.0),
               "identity": identity_payoff(), "zero": constant_payoff(0.0),
               "two": constant_payoff(2.0)}
    for (kernel, name, antithetic), want in _DOUBLE_BITS.items():
        if kernel != family:
            continue
        cfg = ExperimentConfig(model=PAPER, payoff=payoffs[name], estimator_id="double",
                               kernel_family=kernel, bandwidth=10.0, n_samples=4000,
                               replications=2, seed=7, antithetic=antithetic)
        got = run_replications(cfg, workers=1).estimates
        want = np.array([float.fromhex(v) for v in want])
        if kernel == "p2":
            assert [v.hex() for v in got] == [v.hex() for v in want]
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_double_kernel_benchmark_round_keeps_its_bits(workers):
    # perfbench's double_kernel round 0 at --seed 1: digital call, automatic
    # h, N = 1e4, R = 2, seed 1000; the digest its output line prints
    cfg = ExperimentConfig(model=PAPER, payoff=digital_call(120.0), estimator_id="double",
                           n_samples=10_000, replications=2, seed=1000)
    got = run_replications(cfg, workers=workers).estimates
    assert _sha256(got) == "eaa3c6e8793023c1a6fee078a3d7f54b1980c3da670865c8eaa27194ac2fcea3"


def _moment_args(family, n=4000, seed=28):
    """Draws sorted by state, and every third one queried."""
    kernel = builtin_kernel(family)
    s = make_samples(np.random.default_rng(seed), n, randomizer=uniform_randomizer(20.0))
    order = np.argsort(s.states, kind="stable")
    return s.lambdas[order], s.states[order], 10.0, kernel, kernel, np.arange(0, n, 3)


@pytest.mark.parametrize("family", ["p2", "p4", "p6"])
def test_double_kernel_moments_keep_their_bits_across_chunks(family, monkeypatch):
    # a budget of 2^9 + 7 elements ends chunks inside blocks and inside
    # levels; a query's sums must not depend on where they end
    args = _moment_args(family)
    want = _double_kernel_moments(*args)
    monkeypatch.setattr(estimators, "_PAIR_BUDGET", 2**9 + 7)
    assert _sha256(*_double_kernel_moments(*args)) == _sha256(*want)


@pytest.mark.parametrize(
    "family, digest",
    [("p2", "a1e4e56063123d8b629b7f53a2b6ae62da3ac6be7f2327a4e9d779092709ec3e"),
     ("p6", "a5836ebf775f89cf11354ab0566840df1e4c64ee66f1151180af694e92b37b10")],
)
def test_double_kernel_moments_order_tied_lambdas_by_index(family, digest):
    # 600 draws on 33 lambdas: the prefix sums add tied draws in index order,
    # as a stable sort leaves them, whatever sort finds the lambda order;
    # the digests were taken when the lambdas were always stably sorted
    rng = np.random.default_rng(27)
    lam = 120.0 - 0.5 * rng.integers(-16, 17, 600)
    z = np.sort(simulate_terminal(PAPER, rng.standard_normal(600), spot=lam))
    kernel = builtin_kernel(family)
    assert _sha256(*_double_kernel_moments(lam, z, 4.0, kernel, kernel)) == digest


def test_double_kernel_memory_per_draw_is_bounded():
    # one call at N = 200,000 on the digital call (p2, h = 14.37, epsilon =
    # 2h): the estimator's arrays, its merge-sort tree's largest level and
    # one chunk of window sums
    n, h = 200_000, 14.37
    r = uniform_randomizer(2.0 * h)
    s = make_samples(np.random.default_rng(29), n, randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=h, randomizer=r, second_kernel=K2)
    tracemalloc.start()
    try:
        estimate_double_kernel(s, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 8 * n


def _with_far_draw(rng, payoff, offset):
    """300 digital-call draws plus one whose state is far outside every
    other draw's state window, at lambda0 - offset, with the payoff given."""
    s = make_samples(rng, 300)
    return SampleSet(s.lambda0, np.append(s.lambdas, s.lambda0 - offset),
                     np.append(s.states, 1e4), np.append(s.payoffs, payoff),
                     randomizer=s.randomizer)


def test_double_kernel_counts_only_contributing_draws_as_dropped():
    # the far draw's density estimate is 0; it is counted only when its
    # payoff and its weight K(offset / h) are both non-zero
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, second_kernel=K2)
    cases = {"zero payoff": (0.0, 1.0), "zero weight": (1.0, 6.0), "contributes": (1.0, 1.0)}
    runs = {
        (case, pair_sums): _double_kernel(_with_far_draw(np.random.default_rng(26), *args),
                                          cfg, pair_sums)
        for case, args in cases.items()
        for pair_sums in (_double_kernel_direct, _double_kernel_moments)
    }
    for pair_sums in (_double_kernel_direct, _double_kernel_moments):
        base = runs["zero payoff", pair_sums]
        assert runs["zero weight", pair_sums][1] == base[1]
        assert runs["contributes", pair_sums][1] == base[1] + 1
        # the dropped draw adds nothing
        assert runs["zero weight", pair_sums][0].value == base[0].value
        assert runs["contributes", pair_sums][0].value == base[0].value
    for case in cases:
        direct, moments = runs[case, _double_kernel_direct], runs[case, _double_kernel_moments]
        assert moments[1] == direct[1]
        assert moments[0].value == pytest.approx(direct[0].value, rel=1e-12)


def test_double_kernel_non_finite_payoff_keeps_its_outcome():
    rng = np.random.default_rng(27)
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, second_kernel=K2)
    s = make_samples(rng, 300)
    for pair_sums in (_double_kernel_direct, _double_kernel_moments):
        # a draw under the density floor adds 0, whatever its payoff
        far = _with_far_draw(np.random.default_rng(26), np.inf, 1.0)
        quiet = _with_far_draw(np.random.default_rng(26), 0.0, 1.0)
        value, dropped = _double_kernel(far, cfg, pair_sums)
        assert value.value == _double_kernel(quiet, cfg, pair_sums)[0].value
        assert dropped == _double_kernel(quiet, cfg, pair_sums)[1] + 1
        # a kept draw with a NaN payoff, or an infinite one at zero weight,
        # makes the sum NaN
        for i, payoff, offset in ((0, np.nan, None), (1, np.inf, 6.0)):
            lam, phi = s.lambdas.copy(), s.payoffs.copy()
            phi[i] = payoff
            if offset is not None:
                lam[i] = s.lambda0 - offset
            bad = SampleSet(s.lambda0, lam, s.states, phi, randomizer=s.randomizer)
            with pytest.raises(NonFiniteEstimate), np.errstate(invalid="ignore"):
                _double_kernel(bad, cfg, pair_sums)


def test_double_kernel_rejects_draws_that_are_all_non_finite():
    r = uniform_randomizer(8.0)
    s = SampleSet(120.0, [119.0, 121.0], [np.inf, np.nan], [1.0, 1.0], randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, second_kernel=K2)
    with pytest.raises(NonFiniteEstimate):
        estimate_double_kernel(s, cfg)


@pytest.mark.parametrize("family, want", [("p2", "0x1.48a4a985e0a09p-6"),
                                          ("p6", "-0x1.31186cd761ee1p-6")])
def test_double_kernel_orders_tied_and_nan_states_by_index(family, want):
    # 588 finite states on 199 values and 12 NaN states: ties and NaNs in
    # index order, as a stable sort leaves them; the values were taken when
    # the states were always stably sorted
    rng = np.random.default_rng(32)
    r = uniform_randomizer(16.0)
    lam = 120.0 - r.sample_offsets(rng.random(600))
    z = np.round(simulate_terminal(PAPER, rng.standard_normal(600), spot=lam) * 2.0) / 2.0
    z[::50] = np.nan
    kernel = builtin_kernel(family)
    s = SampleSet(120.0, lam, z, digital_call(120.0)(z), randomizer=r)
    cfg = EstimatorConfig(kernel=kernel, bandwidth=8.0, second_kernel=kernel)
    assert estimate_double_kernel(s, cfg).value.hex() == want


def test_sorted_order_puts_ties_and_nans_in_index_order():
    tied = np.array([3.0, np.nan, 1.0, 3.0, np.nan, -np.inf, 1.0, np.nan, np.inf, np.inf])
    one_nan = np.array([2.0, np.nan, -1.0, 0.5])
    distinct = np.random.default_rng(31).standard_normal(1000)
    # distinct values and 100 NaNs, which an unstable sort may reorder
    nans = distinct.copy()
    nans[np.random.default_rng(34).choice(1000, 100, replace=False)] = np.nan
    for x in (tied, one_nan, distinct, nans, np.array([7.0])):
        order, ordered = estimators._sorted_order(x)
        want = np.argsort(x, kind="stable")
        assert order.tolist() == want.tolist()
        assert ordered.tobytes() == x[want].tobytes()


def test_double_kernel_takes_the_shared_support_tolerance():
    # one offset at epsilon (1 + 1e-13), inside the 1e-12 tolerance of the
    # sample set's own check and of every single-kernel estimator
    r = uniform_randomizer(4.0)
    s = make_samples(np.random.default_rng(30), 400, randomizer=r)
    lam = s.lambdas.copy()
    lam[0] = s.lambda0 - 4.0 * (1.0 + 1e-13)
    assert s.lambda0 - lam[0] > r.epsilon
    edge = SampleSet(s.lambda0, lam, s.states, s.payoffs, randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=2.0, randomizer=r, second_kernel=K2)
    assert math.isfinite(estimate_single_kernel_hat(edge, cfg).value)
    value = estimate_double_kernel(edge, cfg).value
    assert math.isfinite(value)
    # a detached set is checked against the config's randomizer alike
    detached = SampleSet(s.lambda0, lam, s.states, s.payoffs)
    assert estimate_double_kernel(detached, cfg).value == value


def test_detached_double_refuses_a_non_finite_parameter():
    # as hat and check refuse it: the offset fails the support check
    r = uniform_randomizer(8.0)
    s = make_samples(np.random.default_rng(33), 50, randomizer=r)
    cfg = EstimatorConfig(kernel=K2, bandwidth=4.0, randomizer=r, second_kernel=K2)
    for bad in (np.nan, np.inf):
        lam = s.lambdas.copy()
        lam[3] = bad
        detached = SampleSet(s.lambda0, lam, s.states, s.payoffs)
        for estimate in (estimate_single_kernel_hat, estimate_double_kernel):
            with pytest.raises(OutsideSupport):
                estimate(detached, cfg)


def test_double_kernel_direct_sweep_memory_is_bounded():
    # the window holds about an eighth of the draws, so a fixed row count
    # per chunk would make the temporaries grow linearly in N
    cfg = EstimatorConfig(kernel=K2, bandwidth=3.0, second_kernel=K2)
    rng = np.random.default_rng(23)
    for n in (4000, 16000):
        s = make_samples(rng, n)
        tracemalloc.start()
        try:
            _double_kernel(s, cfg, _double_kernel_direct)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


# -- oracle score -----------------------------------------------------------


def test_pure_lr_is_score_weighted_mean():
    rng = np.random.default_rng(10)
    n = 500
    z = simulate_terminal(PAPER, rng.standard_normal(n))
    payoff = digital_call(120.0)
    s = SampleSet(120.0, np.full(n, 120.0), z, payoff(z))
    est = estimate_oracle_score(s, PAPER)
    assert est.value == pytest.approx(np.mean(payoff(z) * law_density_ratio(lognormal_params(PAPER), 120.0, z, 1)), rel=1e-13)
    assert est.estimator_id == "lr"


def test_lr_score_mean_zero():
    rng = np.random.default_rng(11)
    n = 200_000
    z = simulate_terminal(PAPER, rng.standard_normal(n))
    s = SampleSet(120.0, np.full(n, 120.0), z, np.ones(n))
    vals = law_density_ratio(lognormal_params(PAPER), 120.0, z, 1)
    est = estimate_oracle_score(s, PAPER)
    assert abs(est.value) <= 3.0 * vals.std(ddof=1) / math.sqrt(n)


def test_oracle_score_rejects_asian_states():
    s = SampleSet(120.0, [120.0], [118.0], [1.0], state_kind="asian")
    with pytest.raises(ScoreUnavailable):
        estimate_oracle_score(s, PAPER)


# -- finite differences ------------------------------------------------------


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FdConfig(alpha=1.5, bump=0.5)
    with pytest.raises(DegenerateBump):
        FdConfig(alpha=0.5, bump=0.0)


def test_fd_identity_payoff_cancels_exactly():
    rng = np.random.default_rng(13)
    gauss = rng.standard_normal(2000)
    base = simulate_terminal(PAPER, gauss, spot=1.0)
    for alpha in (0.0, 0.5, 1.0):
        for bump in (0.1, 1.0, 5.0):
            est = estimate_finite_difference(
                PAPER, identity_payoff(), FdConfig(alpha=alpha, bump=bump), gauss
            )
            assert est.value == pytest.approx(base.mean(), rel=1e-12)


def test_fd_digital_per_sample_values_are_quantized():
    rng = np.random.default_rng(14)
    n, bump = 5000, 2.0
    gauss = rng.standard_normal(n)
    est = estimate_finite_difference(
        PAPER, digital_call(120.0), FdConfig(alpha=0.5, bump=bump), gauss
    )
    # each per-sample difference is -1, 0 or +1 before the 1/eps scaling
    counts = est.value * n * bump
    assert abs(counts - round(counts)) < 1e-8


def test_fd_forward_layout():
    gauss = np.array([0.3, -0.8, 1.2])
    payoff = vanilla_call(110.0)
    base = simulate_terminal(PAPER, gauss, spot=1.0)
    est = estimate_finite_difference(PAPER, payoff, FdConfig(alpha=1.0, bump=0.7), gauss)
    manual = np.mean(payoff(120.7 * base) - payoff(120.0 * base)) / 0.7
    assert est.value == pytest.approx(manual, rel=1e-14)


@pytest.mark.parametrize("asian", [None, AsianConfig(steps=6)])
def test_fd_leaves_the_callers_normals_unchanged(asian):
    shape = (500,) if asian is None else (500, 6)
    gauss = np.random.default_rng(15).standard_normal(shape)
    kept = gauss.copy()
    estimate_finite_difference(PAPER, digital_call(120.0), FdConfig(0.5, 0.5), gauss, asian=asian)
    assert np.array_equal(gauss, kept)


def test_fd_guards():
    with pytest.raises(EmptySample):
        estimate_finite_difference(PAPER, identity_payoff(), FdConfig(0.5, 0.5), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        estimate_finite_difference(
            PAPER, identity_payoff(), FdConfig(0.5, 0.5), np.zeros((3, 2))
        )
    small = GbmParams(spot=1.0, rate=0.0, vol=0.2, maturity=1.0)
    with pytest.raises(DegenerateBump):
        estimate_finite_difference(
            small, identity_payoff(), FdConfig(alpha=0.0, bump=2.0), np.zeros(4)
        )
    # both bumped spots round to the spot, so every difference would be 0
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(DegenerateBump, match="vanishes at spot"):
            estimate_finite_difference(
                PAPER, identity_payoff(), FdConfig(alpha=alpha, bump=1e-300), np.zeros(4)
            )


def test_estimate_is_frozen_record():
    est = Estimate(value=1.0, n_samples=3, estimator_id="hat")
    with pytest.raises(AttributeError):
        est.value = 2.0


def test_estimators_keep_their_operation_order():
    # each formula written out with fresh arrays, in the order the row
    # reductions must keep; the harness's blocks rely on these same bits
    from numpy.polynomial import polynomial as npoly

    def kernel(u, coeffs):
        return np.where(np.abs(u) <= 1.0, npoly.polyval(u, coeffs), 0.0)

    k4 = builtin_kernel("p4")
    grad = npoly.polyder(k4.coeffs)
    rng = np.random.default_rng(77)
    h, theta = 3.0, 0.04
    tilted = truncexp_randomizer(h, theta)
    for r in (uniform_randomizer(h), tilted):
        ss = make_samples(rng, 1001, randomizer=r, payoff=vanilla_call(118.0))
        off = ss.lambda0 - ss.lambdas
        u = off / h
        ell0, n = r.density_at_zero(), ss.n
        terms = ss.payoffs * (kernel(u, grad) + kernel(u, k4.coeffs) * (r.theta * h))
        hat = float(np.sum(terms)) / (ell0 * n * h * h)
        ec = EstimatorConfig(kernel=k4, bandwidth=h, randomizer=r)
        assert estimate_single_kernel_hat(ss, ec).value == hat
        assert estimate_single_kernel_check(ss, ec).value == hat
        if r is tilted:
            terms = ss.payoffs * (kernel(u, grad) + theta * h * kernel(u, k4.coeffs))
            value = float(np.sum(terms)) / (ell0 * n * h * h)
            assert estimate_exponential_opt(ss, k4, h).value == value
        else:
            value = float(np.sum(ss.payoffs * kernel(u, grad))) / (ell0 * n * h * h)
            assert estimate_uniform_opt(ss, k4, h).value == value
    gauss = rng.standard_normal(999)
    base = simulate_terminal(PAPER, gauss, spot=1.0)
    payoff = digital_call(121.0)
    fd = float(np.mean(payoff(120.25 * base) - payoff(119.75 * base))) / 0.5
    assert estimate_finite_difference(PAPER, payoff, FdConfig(0.5, 0.5), gauss).value == fd
    states = 120.0 * base
    law = lognormal_params(PAPER)
    d = (np.log(states) - np.log(120.0) - law.m) / law.Sigma
    lr = float(np.mean(payoff(states) * (d / 120.0)))
    ss = SampleSet(120.0, np.full(999, 120.0), states, payoff(states))
    assert estimate_oracle_score(ss, PAPER).value == lr


def test_one_formula_moves_only_roundoff():
    # every single-kernel estimator divides by ell(0) and tilts by
    # K(u) * (theta h); the forms 2 eps S / (N h^2) for uniform and
    # K(u) h theta for hat and check differ from it only by roundoff
    for family, h, scale, n, seed, payoff in itertools.product(
        ("p2", "p4", "p6"), (0.37, 3.0, 14.67), (1.0, 1.6), (7, 1001, 4000), range(2),
        (digital_call(120.0), vanilla_call(118.0)),
    ):
        kernel = builtin_kernel(family)
        rng = np.random.default_rng(seed)
        eps = scale * h
        ss = make_samples(rng, n, randomizer=uniform_randomizer(eps), payoff=payoff)
        u = (ss.lambda0 - ss.lambdas) / h
        before = 2.0 * eps * float(np.sum(kernel.gradient(u) * ss.payoffs)) / (n * h * h)
        after = estimate_uniform_opt(ss, kernel, h).value
        assert abs(after - before) <= 4 * np.spacing(abs(before))
        for theta in (-0.3, 0.9):
            r = truncexp_randomizer(eps, theta)
            ss = make_samples(rng, n, randomizer=r, payoff=payoff)
            u = (ss.lambda0 - ss.lambdas) / h
            terms = ss.payoffs * (kernel(u) * h * theta + kernel.gradient(u))
            before = float(np.sum(terms)) / (r.density_at_zero() * n * h * h)
            ec = EstimatorConfig(kernel=kernel, bandwidth=h, randomizer=r)
            after = estimate_single_kernel_hat(ss, ec).value
            assert abs(after - before) <= 1e-13 * abs(before)
            assert estimate_single_kernel_check(ss, ec).value == after
