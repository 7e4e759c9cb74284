"""State simulation, lognormal analytics, score recursion, payoffs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from kernelgreeks import (
    AsianConfig,
    DimensionMismatch,
    GbmParams,
    LognormalLaw,
    NonPositiveState,
    closed_form_digital_delta,
    closed_form_identity_delta,
    closed_form_vanilla_delta,
    constant_payoff,
    digital_call,
    identity_payoff,
    law_density,
    law_density_ratio,
    law_standardized_d,
    lognormal_params,
    score_coefficients,
    simulate_asian,
    simulate_terminal,
    stream,
    vanilla_call,
)
from kernelgreeks import models
from kernelgreeks.models import asian_unit_averages

PAPER = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)


def test_params_validation():
    with pytest.raises(NonPositiveState):
        GbmParams(spot=0.0, rate=0.0, vol=0.2, maturity=1.0)
    with pytest.raises(NonPositiveState):
        GbmParams(spot=100.0, rate=0.0, vol=-0.1, maturity=1.0)
    with pytest.raises(NonPositiveState):
        GbmParams(spot=100.0, rate=0.0, vol=0.2, maturity=0.0)
    with pytest.raises(NonPositiveState):
        LognormalLaw(m=0.0, Sigma=0.0)
    with pytest.raises(ValueError):
        AsianConfig(steps=0)
    with pytest.raises(ValueError):
        AsianConfig(steps=4, scheme="midpoint")


def test_lognormal_params():
    law = lognormal_params(PAPER)
    assert law.m == pytest.approx(-0.02, abs=1e-16)
    assert law.Sigma == pytest.approx(0.04, abs=1e-16)
    flat = lognormal_params(GbmParams(spot=1.0, rate=0.02, vol=0.2, maturity=1.0))
    assert flat.m == pytest.approx(0.0, abs=1e-16)
    long = lognormal_params(GbmParams(spot=1.0, rate=0.0, vol=0.2, maturity=4.0))
    assert long.Sigma == pytest.approx(0.16, rel=1e-15)


def test_terminal_values():
    assert simulate_terminal(PAPER, 0.0) == pytest.approx(117.62384079681063, rel=1e-15)
    assert simulate_terminal(PAPER, 1.0) == pytest.approx(143.66608357461723, rel=1e-15)
    vals = simulate_terminal(PAPER, np.array([0.0, 1.0]))
    assert vals.shape == (2,)
    assert vals[1] > vals[0]


def test_terminal_spot_linearity():
    gauss = np.random.default_rng(3).standard_normal(100)
    unit = simulate_terminal(PAPER, gauss, spot=1.0)
    scaled = simulate_terminal(PAPER, gauss, spot=97.5)
    assert np.array_equal(scaled, 97.5 * unit)


def test_terminal_tiny_vol_limit():
    g = GbmParams(spot=100.0, rate=0.0, vol=1e-12, maturity=1.0)
    assert simulate_terminal(g, 0.7) == pytest.approx(100.0, rel=1e-9)


def test_asian_single_step():
    got = simulate_asian(PAPER, AsianConfig(steps=1), np.array([0.0]))
    assert got == pytest.approx(118.8119203984053, rel=1e-14)
    left = simulate_asian(PAPER, AsianConfig(steps=1, scheme="left"), np.array([0.0]))
    assert left == pytest.approx(120.0, rel=1e-15)


def test_asian_shape_handling():
    cfg = AsianConfig(steps=4)
    path = np.zeros(4)
    assert isinstance(simulate_asian(PAPER, cfg, path), float)
    batch = simulate_asian(PAPER, cfg, np.zeros((3, 4)))
    assert batch.shape == (3,)
    with pytest.raises(DimensionMismatch):
        simulate_asian(PAPER, cfg, np.zeros((3, 5)))


def test_asian_spot_linearity():
    cfg = AsianConfig(steps=8)
    gauss = np.random.default_rng(5).standard_normal((20, 8))
    unit = simulate_asian(PAPER, cfg, gauss, spot=1.0)
    assert np.array_equal(simulate_asian(PAPER, cfg, gauss, spot=50.0), 50.0 * unit)


@pytest.mark.parametrize("steps", [1, 2, 7, 50])
@pytest.mark.parametrize("scheme", ["trapezoid", "left"])
def test_streamed_asian_averages_match_one_draw(monkeypatch, steps, scheme):
    # Philox draws continue bit for bit across row blocks; None keeps the
    # module's own block size
    cfg = AsianConfig(steps=steps, scheme=scheme)
    default_block = models._ASIAN_BLOCK
    for n in (1, 3, 4095, 4097, 10001):
        full = stream(3, 11).standard_normal((n, steps))
        kept = full.copy()
        want = np.atleast_1d(simulate_asian(PAPER, cfg, full, spot=1.0))
        assert np.array_equal(full, kept)
        for rows in (1, 5, 4096, None):
            block = default_block if rows is None else rows * steps
            monkeypatch.setattr(models, "_ASIAN_BLOCK", block)
            got = asian_unit_averages(PAPER, cfg, stream(3, 11), n)
            assert got.shape == (n,)
            assert np.array_equal(got, want), (n, rows)


def test_asian_flat_path_limit():
    # vanishing vol at zero rate: the average equals spot * maturity for any
    # step count, so refining the grid changes nothing
    g = GbmParams(spot=120.0, rate=0.0, vol=1e-12, maturity=1.0)
    gauss = np.random.default_rng(11).standard_normal(64)
    coarse = simulate_asian(g, AsianConfig(steps=32), gauss[:32])
    fine = simulate_asian(g, AsianConfig(steps=64), gauss)
    assert coarse == pytest.approx(120.0, rel=1e-9)
    assert abs(fine - coarse) <= 1e-9 * 120.0


def test_asian_refinement_is_second_order():
    # squared pathwise gap to a much finer grid on the same Brownian path
    # shrinks fourfold per doubling of the step count
    rng = np.random.default_rng(99)
    n_paths, fine = 2000, 2048
    gfine = rng.standard_normal((n_paths, fine))

    def coarsen(gauss, factor):
        n, m = gauss.shape
        return gauss.reshape(n, m // factor, factor).sum(axis=2) / math.sqrt(factor)

    ref = simulate_asian(PAPER, AsianConfig(steps=fine), gfine)
    e32 = simulate_asian(PAPER, AsianConfig(steps=32), coarsen(gfine, 64)) - ref
    e64 = simulate_asian(PAPER, AsianConfig(steps=64), coarsen(gfine, 32)) - ref
    ratio = np.mean(e32**2) / np.mean(e64**2)
    assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3


def test_density_values():
    law = lognormal_params(PAPER)
    mode = 120.0 * math.exp(law.m)
    assert law_density(law, 120.0, mode) == pytest.approx(0.01695839371078631, rel=1e-14)
    norm = np.trapezoid(
        law_density(law, 120.0, np.linspace(1e-3, 600.0, 200_001)),
        np.linspace(1e-3, 600.0, 200_001),
    )
    assert norm == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(NonPositiveState):
        law_density(law, 120.0, 0.0)
    with pytest.raises(NonPositiveState):
        law_density(law, -1.0, 100.0)


def test_standardized_d_values():
    law = lognormal_params(PAPER)
    assert law_standardized_d(law, 120.0, 120.0) == pytest.approx(0.5, abs=1e-13)
    assert law_standardized_d(law, 120.0, 130.0) == pytest.approx(2.501067691838409, rel=1e-14)
    assert law_standardized_d(law, 120.0, 120.0 * math.exp(law.m)) == pytest.approx(0.0, abs=1e-13)


def test_score_coefficient_rows():
    law = lognormal_params(PAPER)
    assert score_coefficients(law, 1).a == (0.0, 1.0)
    assert score_coefficients(law, 2).a == pytest.approx((-25.0, -1.0, 1.0), rel=1e-13)
    assert score_coefficients(law, 3).a == pytest.approx((75.0, -73.0, -3.0, 1.0), rel=1e-13)
    with pytest.raises(ValueError):
        score_coefficients(law, 0)
    with pytest.raises(ValueError):
        score_coefficients(law, 11)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 5.0))
def test_low_order_rows_in_closed_form(Sigma):
    law = LognormalLaw(m=0.0, Sigma=Sigma)
    assert score_coefficients(law, 2).a == pytest.approx((-1.0 / Sigma, -1.0, 1.0), rel=1e-12)
    a3 = (3.0 / Sigma, 2.0 - 3.0 / Sigma, -3.0, 1.0)
    assert score_coefficients(law, 3).a == pytest.approx(a3, rel=1e-12)


def test_density_ratio_values():
    law = lognormal_params(PAPER)
    assert law_density_ratio(law, 120.0, 130.0, 1) == pytest.approx(0.020842230765320078, rel=1e-14)
    mode = 120.0 * math.exp(law.m)
    assert law_density_ratio(law, 120.0, mode, 2) == pytest.approx(-25.0 / 120.0**2, rel=1e-12)
    # the first ratio is the score d(x, z) / x
    assert law_standardized_d(law, 120.0, 130.0) / 120.0 == law_density_ratio(law, 120.0, 130.0, 1)


def test_recursion_matches_finite_differences():
    # k-th spot derivative of the density via central differences
    z_grid = np.linspace(80.0, 170.0, 20)
    x = 120.0
    delta = 1e-3 * x
    law = lognormal_params(PAPER)
    f = lambda s: law_density(law, s, z_grid)
    fd = {
        1: (f(x + delta) - f(x - delta)) / (2 * delta),
        2: (f(x + delta) - 2 * f(x) + f(x - delta)) / delta**2,
        3: (f(x + 2 * delta) - 2 * f(x + delta) + 2 * f(x - delta) - f(x - 2 * delta))
        / (2 * delta**3),
    }
    for k in (1, 2, 3):
        exact = law_density_ratio(law, x, z_grid, k) * f(x)
        assert np.max(np.abs(fd[k] / exact - 1.0)) < 1e-3


def test_score_has_mean_zero():
    n = 1_000_000
    z = simulate_terminal(PAPER, np.random.default_rng(17).standard_normal(n))
    s = law_density_ratio(lognormal_params(PAPER), 120.0, z, 1)
    assert abs(s.mean()) <= 3.0 * s.std(ddof=1) / math.sqrt(n)


def test_payoffs():
    digital = digital_call(120.0)
    assert digital(120.0) == 0.0  # strict inequality at the strike
    assert digital(120.0000001) == 1.0
    assert list(digital(np.array([100.0, 150.0]))) == [0.0, 1.0]
    vanilla = vanilla_call(100.0)
    assert vanilla(90.0) == 0.0
    assert vanilla(130.0) == 30.0
    assert identity_payoff()(77.0) == 77.0
    assert constant_payoff(3.5)(np.array([1.0, 2.0])).tolist() == [3.5, 3.5]
    with pytest.raises(ValueError):
        from kernelgreeks import Payoff

        Payoff(kind="lookback")


def test_closed_form_deltas():
    assert closed_form_digital_delta(PAPER, 120.0) == pytest.approx(
        0.016539689478208826, rel=1e-15
    )
    assert closed_form_vanilla_delta(PAPER, 120.0) == pytest.approx(0.539827837277029, rel=1e-14)
    assert closed_form_identity_delta(PAPER) == 1.0
    g = GbmParams(spot=100.0, rate=0.05, vol=0.2, maturity=2.0)
    assert closed_form_identity_delta(g) == pytest.approx(math.exp(0.1), rel=1e-15)


def test_vanilla_delta_matches_ndtr():
    # N(d1) is 0.5 erfc(-d1 / sqrt 2); scipy's ndtr is the reference
    g = GbmParams(spot=1.0, rate=0.0, vol=1.0, maturity=1.0)
    for target in np.linspace(-8.0, 8.0, 1601):
        strike = math.exp(0.5 - target)
        d1 = (math.log(g.spot / strike) - 0.5) + 1.0
        assert abs(closed_form_vanilla_delta(g, strike) - ndtr(d1)) <= 4e-16


def test_closed_form_limits():
    assert closed_form_digital_delta(PAPER, 1e-6) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_vanilla_delta(PAPER, 1e-6) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NonPositiveState):
        closed_form_digital_delta(PAPER, 0.0)


def test_closed_form_delta_is_density_integral():
    # digital delta = d/dx P(Z > K) = integral of df/dx over (K, inf)
    z = np.linspace(120.0, 1200.0, 400_001)
    law = lognormal_params(PAPER)
    integrand = law_density_ratio(law, 120.0, z, 1) * law_density(law, 120.0, z)
    assert np.trapezoid(integrand, z) == pytest.approx(
        closed_form_digital_delta(PAPER, 120.0), rel=1e-6
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    for field in ("spot", "vol", "maturity"):
        kw = {"spot": 100.0, "rate": 0.0, "vol": 0.2, "maturity": 1.0, field: bad}
        with pytest.raises(NonPositiveState):
            GbmParams(**kw)
    with pytest.raises(ValueError):
        GbmParams(spot=100.0, rate=bad, vol=0.2, maturity=1.0)
    for make in (digital_call, vanilla_call, constant_payoff):
        with pytest.raises(ValueError):
            make(bad)


def test_in_place_outputs_match_fresh_arrays():
    rng = np.random.default_rng(8)
    gauss = rng.standard_normal((3, 40))
    spots = 120.0 + rng.uniform(-5.0, 5.0, (3, 40))
    want = simulate_terminal(PAPER, gauss, spot=spots)
    out = gauss.copy()
    assert simulate_terminal(PAPER, out, spot=spots, out=out) is out
    assert np.array_equal(out, want)
    for payoff in (digital_call(120.0), vanilla_call(118.0), identity_payoff(),
                   constant_payoff(2.5)):
        z = want.copy()
        assert np.array_equal(payoff(z, out=z), payoff(want))
