"""Randomizing densities: normalization, sampling, antithetic pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kernelgreeks import gauss_legendre_integral, truncexp_randomizer, uniform_randomizer
from kernelgreeks.errors import OutsideSupport


def test_constructor_validation():
    with pytest.raises(ValueError):
        uniform_randomizer(0.0)
    with pytest.raises(ValueError):
        truncexp_randomizer(-1.0, 0.5)
    with pytest.raises(ValueError):
        from kernelgreeks.randomizers import Randomizer

        Randomizer(kind="gauss", epsilon=1.0)
    with pytest.raises(ValueError):
        from kernelgreeks.randomizers import Randomizer

        Randomizer(kind="uniform", epsilon=1.0, theta=0.3)


def test_uniform_density():
    r = uniform_randomizer(0.5)
    assert r.density(0.1) == 1.0
    assert r.density(0.5) == 1.0  # closed support
    assert r.density(0.500001) == 0.0
    vals = r.density(np.array([-0.6, 0.0, 0.6]))
    assert list(vals) == [0.0, 1.0, 0.0]


def test_truncexp_density_at_zero():
    r = truncexp_randomizer(0.5, 1.0)
    assert r.density_at_zero() == pytest.approx(0.9595173756674719, rel=1e-15)
    assert r.density(0.0) == r.density_at_zero()
    assert uniform_randomizer(2.0).density_at_zero() == 0.25


def test_density_integrates_to_one():
    for r in (
        uniform_randomizer(0.5),
        truncexp_randomizer(0.5, 1.0),
        truncexp_randomizer(0.8, -2.0),
        truncexp_randomizer(1.5, 5.0),
    ):
        mass = gauss_legendre_integral(r.density, -r.epsilon, r.epsilon)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_theta_zero_recovers_uniform():
    u = uniform_randomizer(0.7)
    t = truncexp_randomizer(0.7, 0.0)
    # one density, one randomizer: no kind is stored
    from kernelgreeks.randomizers import Randomizer

    assert u == t == Randomizer(0.7) == Randomizer(kind="truncexp", epsilon=0.7)
    assert hash(u) == hash(t) == hash(Randomizer(0.7))
    assert repr(u) == "Randomizer(epsilon=0.7, theta=0.0)"
    grid = np.linspace(-0.7, 0.7, 41)
    assert np.max(np.abs(t.density(grid) - u.density(grid))) < 1e-12
    probe = np.linspace(0.0, 1.0, 17, endpoint=False)
    assert np.array_equal(t.sample_offsets(probe), u.sample_offsets(probe))


def test_small_theta_is_continuous():
    # the series branch and the sinh branch must agree at the crossover
    eps = 0.5
    below = truncexp_randomizer(eps, 0.999999e-6 / eps)
    above = truncexp_randomizer(eps, 1.000001e-6 / eps)
    assert below.density_at_zero() == pytest.approx(above.density_at_zero(), rel=1e-10)
    tiny = truncexp_randomizer(eps, 1e-8)
    grid = np.linspace(-eps, eps, 101)
    assert np.max(np.abs(tiny.density(grid) - 1.0)) <= 1e-6


def test_theta_is_the_log_density_gradient():
    # d/dl log ell by a central difference of the density, inside the support
    for r in (uniform_randomizer(1.0), truncexp_randomizer(1.0, 2.5),
              truncexp_randomizer(0.5, -3.0)):
        step = 1e-6 * r.epsilon
        l = np.linspace(-0.9, 0.9, 7) * r.epsilon
        slope = (np.log(r.density(l + step)) - np.log(r.density(l - step))) / (2.0 * step)
        assert np.allclose(slope, r.theta, rtol=1e-8, atol=1e-8)


def test_inverse_cdf_values():
    assert uniform_randomizer(0.5).sample_offsets(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert uniform_randomizer(0.5).sample_offsets(0.0) == -0.5
    r = truncexp_randomizer(0.5, 1.0)
    assert r.sample_offsets(0.5) == pytest.approx(0.12011450695827745, rel=1e-14)


def test_inverse_cdf_monotone_and_clipped():
    r = truncexp_randomizer(0.5, 3.0)
    u = np.linspace(0.0, 1.0 - 1e-16, 1001)
    l = r.sample_offsets(u)
    assert np.all(np.diff(l) >= 0.0)
    assert l[0] == -0.5 and l[-1] <= 0.5


def test_uniforms_out_of_range_rejected():
    r = uniform_randomizer(1.0)
    with pytest.raises(ValueError):
        r.sample_offsets(1.0)
    with pytest.raises(ValueError):
        r.sample_offsets(-0.1)
    for t in (r, truncexp_randomizer(1.0, 0.7)):
        with pytest.raises(OutsideSupport, match=r"uniforms must lie in \[0, 1\)"):
            t.sample_offsets(np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            t.sample_offsets(np.nan)
        assert t.sample_offsets(np.array([])).size == 0


def test_cdf_round_trip():
    rng = np.random.default_rng(7)
    u = rng.random(1000)
    for r in (uniform_randomizer(0.4), truncexp_randomizer(0.4, 1.7), truncexp_randomizer(2.0, -0.9)):
        assert np.max(np.abs(r.cdf(r.sample_offsets(u)) - u)) < 1e-12


@pytest.mark.parametrize(
    "randomizer",
    [
        uniform_randomizer(0.5),
        truncexp_randomizer(0.5, 1.0),
        truncexp_randomizer(0.5, -2.0),
    ],
    ids=["uniform", "theta=1", "theta=-2"],
)
def test_sampled_offsets_match_analytic_cdf(randomizer):
    rng = np.random.default_rng(20260814)
    draws = randomizer.sample_offsets(rng.random(100_000))
    ks = stats.kstest(draws, randomizer.cdf).statistic
    assert ks < 0.01


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 10.0),
    st.floats(-20.0, 20.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-1e4, 1e4),
)
def test_draws_stay_inside_support(eps, theta, u, lambda0):
    # an antithetic pair takes the spots lambda0 - l and lambda0 + l
    offset = truncexp_randomizer(eps, theta).sample_offsets(u)
    assert abs(offset) <= eps
    pair = ((lambda0 - offset) + (lambda0 + offset)) / 2.0
    assert pair == pytest.approx(lambda0, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected(bad):
    from kernelgreeks.randomizers import Randomizer

    for kind in ("uniform", "truncexp"):
        with pytest.raises(ValueError):
            Randomizer(kind=kind, epsilon=bad)
    with pytest.raises(ValueError):
        truncexp_randomizer(1.0, bad)


def test_extreme_tilt_normalization_does_not_overflow():
    import math

    # theta * eps = 8e6: 2 sinh overflows, the normalization underflows to 0
    r = truncexp_randomizer(8.0, 1e6)
    assert r.density_at_zero() == 0.0
    dens = r.density(np.array([-8.0, 0.0, 8.0]))
    assert dens[0] == dens[1] == 0.0 and dens[2] == pytest.approx(1e6, rel=1e-9)
    assert truncexp_randomizer(8.0, -1e6).density(-8.0) == pytest.approx(1e6, rel=1e-9)
    # the log-space branch continues the closed form across its threshold
    for te in (699.0, 701.0):
        theta = te / 2.0
        closed = theta * math.exp(-te) / -math.expm1(-2.0 * te)
        assert truncexp_randomizer(2.0, theta).density_at_zero() == pytest.approx(closed, rel=1e-12)


def test_in_place_offsets_match_fresh_arrays():
    u = np.random.default_rng(9).random((3, 50))
    for r in (uniform_randomizer(2.0), truncexp_randomizer(2.0, 0.7), truncexp_randomizer(2.0, -3.0)):
        want = r.sample_offsets(u)
        out = u.copy()
        assert r.sample_offsets(out, out=out) is out
        assert np.array_equal(out, want)
