"""Compactly supported smoothing kernels and their functionals.

A kernel here is a function K supported on [-M, M] with unit mass. Its
*order* p is the smallest r >= 1 whose moment integral u^r K(u) du does
not vanish; higher order buys faster bias decay at the price of K taking
negative values. Every kernel is a polynomial on its support; three
families of order 2, 4 and 6 are built in. Its functionals are exact, and
a fixed Gauss-Legendre rule serves as an independent check of them.

Conventions
-----------
- evaluation outside the closed support returns 0 exactly
- polynomial coefficients are stored in ascending powers of u
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "Kernel",
    "BUILTIN_FAMILIES",
    "QUADRATURE_NODES",
    "builtin_kernel",
    "kernel_moment",
    "kernel_roughness",
    "gauss_legendre_integral",
]

#: node count of the fixed Gauss-Legendre rule
QUADRATURE_NODES = 64

# ascending-power coefficients of the built-in families on [-1, 1]
_P2 = 0.75 * np.array([1.0, 0.0, -1.0])
_P4 = (15.0 / 32.0) * np.array([3.0, 0.0, -10.0, 0.0, 7.0])
_P6 = (105.0 / 256.0) * np.array([5.0, 0.0, -35.0, 0.0, 63.0, 0.0, -33.0])

BUILTIN_FAMILIES = {"p2": (_P2, 2), "p4": (_P4, 4), "p6": (_P6, 6)}


@dataclass(frozen=True)
class Kernel:
    """A polynomial smoothing kernel on [-support_radius, support_radius],
    with ascending-power coefficients ``coeffs``; every functional is
    computed in closed form.
    """

    family: str
    order_p: int
    coeffs: np.ndarray
    support_radius: float = 1.0

    def __call__(self, u):
        """Evaluate K(u); zero outside the closed support."""
        return self._evaluate(u, self.coeffs)

    def gradient(self, u):
        """Evaluate dK/du; zero outside the closed support.

        On the closed boundary |u| == support_radius the one-sided
        (interior) derivative is returned, e.g. 3.75 for the order-4
        family at u = 1.
        """
        return self._evaluate(u, self._gradient_coeffs)

    @cached_property
    def _gradient_coeffs(self) -> np.ndarray:
        return npoly.polyder(self.coeffs)

    def _evaluate(self, u, coeffs):
        """The polynomial ``coeffs`` at u, zero outside the support.

        Horner's rule runs in place, in numpy.polynomial.polyval's order.
        polyval starts from (u * 0 + c[-1]) * u + c[-2]; with a non-zero
        leading coefficient that is c[-1] * u + c[-2] bit for bit wherever
        u is finite, and a non-finite u lies outside the support, so the
        loop starts there and saves two passes over u.
        """
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        outside = ~(np.abs(u, out=out) <= self.support_radius)  # NaN too
        if len(coeffs) > 1 and coeffs[-1] != 0.0:
            np.multiply(u, coeffs[-1], out=out)
            out += coeffs[-2]
            rest = coeffs[-3::-1]
        else:
            np.multiply(u, 0.0, out=out)
            out += coeffs[-1]
            rest = coeffs[-2::-1]
        for c in rest:
            out *= u
            out += c
        np.copyto(out, 0.0, where=outside)
        return float(out) if out.ndim == 0 else out


def builtin_kernel(family: str) -> Kernel:
    """Return one of the built-in polynomial kernels ('p2', 'p4' or 'p6')."""
    try:
        coeffs, order = BUILTIN_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown kernel family {family!r}; choose from {sorted(BUILTIN_FAMILIES)}"
        ) from None
    return Kernel(family=family, order_p=order, coeffs=coeffs.copy())


def gauss_legendre_integral(f: Callable, lo: float, hi: float) -> float:
    """Gauss-Legendre quadrature of f over [lo, hi] with QUADRATURE_NODES nodes."""
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.dot(w, f(mid + half * x)))


def _polynomial_moment(coeffs: np.ndarray, support: float, r: int) -> float:
    # integral over [-M, M] of u^r * sum_k c_k u^k, term-exact
    total = 0.0
    for k, c in enumerate(coeffs):
        n = r + k
        if n % 2 == 0:
            total += c * 2.0 * support ** (n + 1) / (n + 1)
    return total


def kernel_moment(kernel: Kernel, r: int) -> float:
    """Integral of u^r K(u) du, exact."""
    if r < 0:
        raise ValueError("moment index must be non-negative")
    return _polynomial_moment(kernel.coeffs, kernel.support_radius, r)


def kernel_roughness(kernel: Kernel) -> float:
    """Integral of (dK/du)^2 du, exact."""
    d = kernel._gradient_coeffs
    return _polynomial_moment(npoly.polymul(d, d), kernel.support_radius, 0)
