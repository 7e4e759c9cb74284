"""Kernel evaluation and functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgreeks import builtin_kernel, gauss_legendre_integral, kernel_moment, kernel_roughness
from kernelgreeks.kernels import Kernel

K2 = builtin_kernel("p2")
K4 = builtin_kernel("p4")
K6 = builtin_kernel("p6")
ALL = (K2, K4, K6)


def test_builtin_values_at_zero():
    assert K2(0.0) == 0.75
    assert K4(0.0) == 45.0 / 32.0
    assert K6(1.0) == pytest.approx(0.0, abs=1e-15)


def test_pointwise_evaluation():
    assert K2(0.5) == pytest.approx(0.5625, abs=1e-15)
    assert K2(2.0) == 0.0
    assert K2(-2.0) == 0.0
    assert K4(0.5) == pytest.approx(0.439453125, abs=1e-15)


def test_evaluation_is_vectorized():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    vals = K2(u)
    assert vals.shape == u.shape
    assert vals[0] == vals[-1] == 0.0
    assert vals[1] == vals[3]


def test_gradient_values():
    assert K2.gradient(0.0) == 0.0
    assert K2.gradient(0.5) == pytest.approx(-0.75, abs=1e-15)
    assert K2.gradient(3.0) == 0.0
    # one-sided polynomial derivative on the closed boundary
    assert K4.gradient(1.0) == pytest.approx(3.75, abs=1e-12)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(42)
    u = rng.uniform(-0.99, 0.99, size=10_000)
    step = 1e-6
    for k in ALL:
        fd = (k(u + step) - k(u - step)) / (2.0 * step)
        assert np.max(np.abs(fd - k.gradient(u))) < 1e-6


def test_builtins_are_even():
    u = np.linspace(0.0, 1.0, 101)
    for k in ALL:
        assert np.array_equal(k(u), k(-u))


def test_moment_table():
    assert kernel_moment(K2, 0) == pytest.approx(1.0, abs=1e-15)
    assert kernel_moment(K2, 2) == pytest.approx(0.2, abs=1e-15)
    assert kernel_moment(K4, 4) == pytest.approx(-1.0 / 21.0, abs=1e-15)
    assert kernel_moment(K6, 6) == pytest.approx(5.0 / 429.0, abs=1e-15)


def test_sub_order_moments_vanish():
    for k in ALL:
        assert kernel_moment(k, 0) == pytest.approx(1.0, abs=1e-10)
        for r in range(1, k.order_p):
            assert abs(kernel_moment(k, r)) < 1e-10
        assert abs(kernel_moment(k, k.order_p)) > 1e-6


def test_roughness_values():
    assert kernel_roughness(K2) == pytest.approx(1.5, abs=1e-15)
    assert kernel_roughness(K4) == pytest.approx(9.375, abs=1e-14)
    assert kernel_roughness(K6) == pytest.approx(3675.0 / 128.0, abs=1e-12)
    assert kernel_roughness(K6) > kernel_roughness(K4) > kernel_roughness(K2)


def test_exact_functionals_agree_with_quadrature():
    for k in ALL:
        for r in (0, k.order_p):
            quad = gauss_legendre_integral(lambda u, r=r: u**r * k(u), -1.0, 1.0)
            assert kernel_moment(k, r) == pytest.approx(quad, abs=1e-10)
        quad_rough = gauss_legendre_integral(lambda u: k.gradient(u) ** 2, -1.0, 1.0)
        assert kernel_roughness(k) == pytest.approx(quad_rough, abs=1e-10)


def test_polynomial_kernel_wider_support():
    # K(u/2)/2 keeps unit mass on [-2, 2] and stays order 2
    k = Kernel(family="wide", order_p=2, coeffs=np.array([0.375, 0.0, -0.09375]),
               support_radius=2.0)
    assert kernel_moment(k, 0) == pytest.approx(1.0, abs=1e-15)
    assert kernel_moment(k, 1) == 0.0
    assert kernel_moment(k, 2) == pytest.approx(0.8, abs=1e-15)
    assert kernel_roughness(k) == pytest.approx(0.1875, abs=1e-15)
    quad = gauss_legendre_integral(lambda u: u * u * k(u), -2.0, 2.0)
    assert kernel_moment(k, 2) == pytest.approx(quad, abs=1e-12)
    assert k(1.5) == pytest.approx(0.375 * (1.0 - 0.25 * 2.25), abs=1e-15)
    assert k(2.5) == k.gradient(-2.5) == 0.0


def test_gauss_legendre_on_polynomial():
    assert gauss_legendre_integral(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert gauss_legendre_integral(np.cos, 0.0, np.pi / 2) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_support_mask_property(u):
    for k in ALL:
        if abs(u) > k.support_radius:
            assert k(u) == 0.0
            assert k.gradient(u) == 0.0
        else:
            assert np.isfinite(k(u))


def test_gradient_coefficients_are_derived_once(monkeypatch):
    from kernelgreeks import kernels

    calls = []
    polyder = kernels.npoly.polyder
    monkeypatch.setattr(kernels.npoly, "polyder", lambda c: calls.append(1) or polyder(c))
    k = builtin_kernel("p4")
    for u in (0.3, np.linspace(-2.0, 2.0, 9), -0.7):
        k.gradient(u)
    assert len(calls) == 1


def test_evaluation_matches_polyval_bit_for_bit():
    from numpy.polynomial import polynomial as npoly

    rng = np.random.default_rng(5)
    u = np.concatenate([rng.uniform(-1.3, 1.3, 4000), [1.0, -1.0, 0.0, -0.0, np.nan, np.inf]])
    # the edges of the support one ulp either way, the smallest subnormals,
    # and values whose powers overflow or are not finite
    edges = [np.nextafter(e, e + d) for e in (1.0, -1.0) for d in (1.0, -1.0)]
    u = np.concatenate([u, edges, [5e-324, -5e-324, -np.inf, 1e308]])
    with np.errstate(invalid="ignore", over="ignore"):
        for k in ALL:
            for coeffs, method in ((k.coeffs, k), (npoly.polyder(k.coeffs), k.gradient)):
                want = np.where(np.abs(u) <= 1.0, npoly.polyval(u, coeffs), 0.0)
                for got in (method(u), method(u.reshape(2, -1)).ravel()):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_evaluation_with_zero_or_lone_coefficients_matches_polyval():
    # a zero leading coefficient (either sign) and a constant polynomial keep
    # polyval's (u * 0 + c[-1]) start
    from numpy.polynomial import polynomial as npoly

    u = np.array([-1.5, -1.0, -0.5, -0.0, 0.0, 5e-324, 0.25, 1.0, np.nan, -np.inf])
    for coeffs in ([0.75, 0.0, -0.75, 0.0], [0.75, -0.0, -0.75, -0.0, -0.0], [0.5], [-0.0]):
        k = Kernel(family="test", order_p=2, coeffs=np.array(coeffs))
        with np.errstate(invalid="ignore"):
            want = np.where(np.abs(u) <= 1.0, npoly.polyval(u, k.coeffs), 0.0)
            assert np.array_equal(k(u).view(np.int64), want.view(np.int64))
