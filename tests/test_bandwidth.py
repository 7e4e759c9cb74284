"""Pilot moment fits, bias constants, tilt optimization, bandwidth rules."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgreeks import (
    GbmParams,
    bias_constant_Ce,
    builtin_kernel,
    closed_form_digital_delta,
    digital_call,
    estimate_Ek,
    kernel_moment,
    law_density_ratio,
    lognormal_params,
    optimize_theta,
    simulate_terminal,
    vanilla_call,
)
from kernelgreeks.bandwidth import (
    BandwidthChoice,
    PilotEstimates,
    optimal_bandwidth,
    predicted_mse,
    rule_of_thumb_moments,
    select_bandwidth,
)
from kernelgreeks.errors import (
    DegenerateBandwidth,
    DegenerateBiasWarning,
    DegenerateVarianceWarning,
    InsufficientPilot,
    NonPositiveState,
    NonPositiveVariance,
)
from kernelgreeks.models import LognormalLaw, constant_payoff

K2 = builtin_kernel("p2")
M2 = kernel_moment(K2, 2)  # 0.2
PAPER = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)


# -- rule of thumb -----------------------------------------------------------


def test_rule_of_thumb_two_point_case():
    x = 50.0
    m, Sigma = rule_of_thumb_moments(np.array([x, x * math.e]), x, min_draws=2)
    assert m == pytest.approx(0.5, rel=1e-15)
    assert Sigma == pytest.approx(0.5, rel=1e-15)


def test_rule_of_thumb_guards():
    with pytest.raises(InsufficientPilot):
        rule_of_thumb_moments(np.ones(99), 1.0)
    with pytest.raises(NonPositiveState):
        rule_of_thumb_moments(np.array([1.0, -2.0]), 1.0, min_draws=2)
    with pytest.warns(DegenerateVarianceWarning):
        m, Sigma = rule_of_thumb_moments(np.full(200, 2.0), 1.0)
    assert Sigma == 0.0
    assert m == pytest.approx(math.log(2.0), rel=1e-15)


def test_rule_of_thumb_recovers_law():
    law = lognormal_params(PAPER)
    n = 100_000
    draws = simulate_terminal(PAPER, np.random.default_rng(21).standard_normal(n))
    m, Sigma = rule_of_thumb_moments(draws, 120.0)
    assert abs(m - law.m) <= 3.0 * math.sqrt(law.Sigma / n)
    assert abs(Sigma - law.Sigma) <= 3.0 * law.Sigma * math.sqrt(2.0 / (n - 1))


# -- payoff-weighted derivative moments ---------------------------------------


def test_estimate_Ek_zero_payoff_short_circuits():
    law = lognormal_params(PAPER)
    assert estimate_Ek(np.array([100.0, 140.0]), constant_payoff(0.0), 120.0, 1, law) == 0.0


def test_estimate_Ek_is_weighted_mean():
    law = lognormal_params(PAPER)
    z = np.array([100.0, 125.0, 140.0])
    payoff = digital_call(120.0)
    expect = np.mean(payoff(z) * law_density_ratio(law, 120.0, z, 2))
    assert estimate_Ek(z, payoff, 120.0, 2, law) == pytest.approx(expect, rel=1e-14)


def test_estimate_E1_is_the_lr_delta():
    law = lognormal_params(PAPER)
    n = 1_000_000
    z = simulate_terminal(PAPER, np.random.default_rng(22).standard_normal(n))
    vals = digital_call(120.0)(z) * law_density_ratio(law, 120.0, z, 1)
    e1 = estimate_Ek(z, digital_call(120.0), 120.0, 1, law)
    target = closed_form_digital_delta(PAPER, 120.0)
    assert abs(e1 - target) <= 3.0 * vals.std(ddof=1) / math.sqrt(n)


# -- bias constant ------------------------------------------------------------


def test_bias_constant_examples():
    assert bias_constant_Ce(np.array([0.0, 0.0, 1.0]), 2, M2, 0.0) == pytest.approx(
        0.1, rel=1e-15
    )
    for theta in (-3.0, 0.0, 0.7, 12.0):
        got = bias_constant_Ce(np.array([0.0, 1.0, 0.0]), 2, M2, theta)
        assert got == pytest.approx(-0.2 * theta, rel=1e-13, abs=1e-16)
    assert bias_constant_Ce(np.zeros(3), 2, M2, 5.0) == 0.0


def test_bias_constant_quadratic_shape():
    # p = 2: C(theta) = 0.1 (E1 theta^2 - 2 E2 theta + E3)
    E = np.array([0.5, -0.3, 2.0])
    theta = 1.7
    expect = 0.1 * (0.5 * theta**2 + 0.6 * theta + 2.0)
    assert bias_constant_Ce(E, 2, M2, theta) == pytest.approx(expect, rel=1e-13)


def test_bias_constant_wrong_moment_count():
    with pytest.raises(ValueError):
        bias_constant_Ce(np.array([1.0, 2.0]), 2, M2, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), st.sampled_from([2, 4, 6]))
def test_untilted_constant_uses_only_top_moment(E3, p):
    kernel = builtin_kernel(f"p{p}")
    mp = kernel_moment(kernel, p)
    E = np.zeros(p + 1)
    E[-3:] = E3
    got = bias_constant_Ce(E, p, mp, 0.0)
    expect = ((-1.0) ** p / math.factorial(p)) * mp * E[-1]
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


# -- tilt optimization ---------------------------------------------------------


def test_optimize_theta_constant_objective_returns_zero():
    assert optimize_theta(np.array([0.0, 0.0, 1.0]), 2, M2) == 0.0


def test_optimize_theta_linear_root():
    e2, e3 = 0.3, -0.7
    E = np.array([0.0, e2, e3])
    theta = optimize_theta(E, 2, M2)
    assert theta == pytest.approx(e3 / (2.0 * e2), rel=1e-10)
    assert abs(bias_constant_Ce(E, 2, M2, theta)) <= 1e-10 * abs(
        bias_constant_Ce(E, 2, M2, 0.0)
    )


def test_optimize_theta_quadratic_root():
    E = np.array([0.5, 0.1, -0.3])
    theta = optimize_theta(E, 2, M2)
    assert theta == pytest.approx(-0.6, rel=1e-10)
    assert abs(bias_constant_Ce(E, 2, M2, theta)) <= 1e-10 * abs(
        bias_constant_Ce(E, 2, M2, 0.0)
    )


def test_optimize_theta_golden_fallback():
    # concave squared bias at zero sends Newton away; the scan still finds a root
    E = np.array([1.0, 0.0, -1.0])
    theta = optimize_theta(E, 2, M2)
    assert abs(abs(theta) - 1.0) < 1e-8
    assert abs(bias_constant_Ce(E, 2, M2, theta)) <= 1e-10 * abs(
        bias_constant_Ce(E, 2, M2, 0.0)
    )


def test_optimize_theta_respects_bracket():
    theta = optimize_theta(np.array([0.0, 0.001, 1.0]), 2, M2, theta_max=50.0)
    assert theta == 50.0


def test_optimize_theta_symmetric_no_root():
    assert optimize_theta(np.array([1.0, 0.0, 1.0]), 2, M2) == 0.0


# -- bandwidth formulas ---------------------------------------------------------


def test_optimal_bandwidth_examples():
    h, degenerate = optimal_bandwidth(1.5, 1.0, 2, 10**6)
    assert not degenerate
    assert h == pytest.approx((1.5 / 2e6) ** (1.0 / 6.0), rel=1e-14)
    assert h == pytest.approx(0.09531842929969367, rel=1e-13)


def test_optimal_bandwidth_degenerate_fallback():
    with pytest.warns(DegenerateBiasWarning):
        h, degenerate = optimal_bandwidth(1.0, 0.0, 2, 10**6)
    assert degenerate
    assert h == pytest.approx(10.0 ** (-1.0), rel=1e-14)


def test_optimal_bandwidth_guards():
    with pytest.raises(NonPositiveVariance):
        optimal_bandwidth(0.0, 1.0, 2, 100)
    with pytest.raises(ValueError):
        optimal_bandwidth(1.0, 1.0, 1, 100)
    with pytest.raises(ValueError):
        optimal_bandwidth(1.0, 1.0, 2, 0)


def test_optimal_bandwidth_monotone():
    h_small, _ = optimal_bandwidth(1.0, 1.0, 2, 10**5)
    h_large, _ = optimal_bandwidth(1.0, 1.0, 2, 10**6)
    assert h_large < h_small
    h_lowbias, _ = optimal_bandwidth(1.0, 0.1, 2, 10**5)
    assert h_lowbias > h_small


def test_optimal_bandwidth_dyadic_scaling():
    # multiplying N by 2^(2p+2) halves the coupled bandwidth exactly
    h1, _ = optimal_bandwidth(2.3, 0.8, 2, 10**4)
    h2, _ = optimal_bandwidth(2.3, 0.8, 2, 10**4 * 2**6)
    assert h2 == pytest.approx(h1 / 2.0, rel=1e-12)


def test_predicted_mse_example():
    got = predicted_mse(1.0, 1.0, 2, 10**6)
    assert got == pytest.approx(0.00037797631496846193, rel=1e-13)
    assert predicted_mse(1.0, 0.0, 2, 10**6) == 0.0


def test_predicted_mse_is_twice_the_minimum():
    rng = np.random.default_rng(23)
    for p in (2, 4, 6):
        sigma = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(10**4, 10**7))
        h, _ = optimal_bandwidth(sigma, c, p, n)
        objective = lambda hh: sigma / (n * hh * hh) + c * c * hh ** (2 * p)
        assert predicted_mse(sigma, c, p, n) == pytest.approx(2.0 * objective(h), rel=1e-12)
        assert predicted_mse(sigma, c, p, n) <= objective(0.5 * h)
        assert predicted_mse(sigma, c, p, n) <= objective(2.0 * h)


# -- full pipeline ----------------------------------------------------------------


def pilot_states(seed, n=100_000):
    return simulate_terminal(PAPER, np.random.default_rng(seed).standard_normal(n))


def test_select_bandwidth_uniform_mode():
    pilot, choice = select_bandwidth(
        pilot_states(100), digital_call(120.0), 120.0, K2, 10**5, theta=0.0
    )
    assert choice.theta_star == 0.0
    assert not choice.degenerate
    assert choice.h_star > 0.0
    assert pilot.E.shape == (3,)
    assert pilot.sigma_e == pytest.approx(
        2.0 * np.mean(digital_call(120.0)(pilot_states(100))) * 1.5, rel=1e-12
    )


def test_select_bandwidth_is_stable_across_pilots():
    hs = [
        select_bandwidth(pilot_states(s), digital_call(120.0), 120.0, K2, 10**5, theta=0.0)[
            1
        ].h_star
        for s in (100, 200)
    ]
    assert abs(hs[0] - hs[1]) <= 0.2 * hs[0]


def test_select_bandwidth_exponential_digital_degenerates():
    # the tuned tilt zeroes the quadratic bias constant, so the bias-free
    # fallback bandwidth is returned and flagged
    with pytest.warns(DegenerateBiasWarning):
        _, choice = select_bandwidth(
            pilot_states(100), digital_call(120.0), 120.0, K2, 10**6
        )
    assert choice.degenerate
    assert choice.h_star == pytest.approx(10.0 ** (-1.0), rel=1e-13)


def test_select_bandwidth_fixed_theta():
    _, choice = select_bandwidth(
        pilot_states(100), digital_call(120.0), 120.0, K2, 10**5, theta=0.8
    )
    assert choice.theta_star == 0.8
    assert not choice.degenerate


def test_select_bandwidth_with_true_law():
    law = lognormal_params(PAPER)
    pilot, _ = select_bandwidth(
        pilot_states(100), digital_call(120.0), 120.0, K2, 10**5, law=law, theta=0.0
    )
    n = pilot.pilot_N
    target = closed_form_digital_delta(PAPER, 120.0)
    assert abs(pilot.E[0] - target) <= 6.0 * target / math.sqrt(n) * 10


def test_pilot_rejects_what_overflows():
    # states that overflowed, and a payoff whose square overflows, leave
    # no bandwidth to fit
    with pytest.raises(DegenerateBandwidth, match="2 of 3 pilot states"):
        rule_of_thumb_moments(np.array([1.0, np.inf, np.nan]), 1.0, min_draws=2)
    huge = pilot_states(100) * 1e158
    with pytest.raises(DegenerateBandwidth, match="payoff moments"), np.errstate(over="ignore"):
        select_bandwidth(huge, vanilla_call(120.0), 120.0, K2, 10**5, theta=0.0)


def test_select_bandwidth_zero_payoff_raises():
    with pytest.raises(NonPositiveVariance):
        select_bandwidth(pilot_states(100), digital_call(10**9), 120.0, K2, 10**5, theta=0.0)


def test_pilot_estimates_validation():
    with pytest.raises(NonPositiveVariance):
        PilotEstimates(E=np.zeros(3), sigma_e=0.0, m_hat=0.0, Sigma_hat=0.04, pilot_N=100)
    with pytest.raises(NonPositiveVariance):
        PilotEstimates(E=np.zeros(3), sigma_e=1.0, m_hat=0.0, Sigma_hat=0.0, pilot_N=100)


def test_bandwidth_choice_is_frozen():
    c = BandwidthChoice(h_star=1.0, theta_star=0.0, predicted_mse=0.1, bias_constant=0.2)
    with pytest.raises(AttributeError):
        c.h_star = 2.0
