"""Compactly supported smoothing kernels and their functionals.

A kernel here is a function K supported on [-M, M] with unit mass. Its
*order* p is the smallest r >= 1 whose moment integral u^r K(u) du does
not vanish; higher order buys faster bias decay at the price of K taking
negative values. Three polynomial families of order 2, 4 and 6 are built
in; arbitrary callables can be wrapped as custom kernels, in which case
all functionals fall back to a fixed Gauss-Legendre rule.

Conventions
-----------
- evaluation outside the closed support returns 0 exactly
- polynomial coefficients are stored in ascending powers of u
- moments below 1e-8 in absolute value count as vanishing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import OrderMismatch

__all__ = [
    "Kernel",
    "KernelFunctionals",
    "BUILTIN_FAMILIES",
    "MOMENT_VANISH_TOL",
    "QUADRATURE_NODES",
    "builtin_kernel",
    "custom_kernel",
    "kernel_moment",
    "kernel_roughness",
    "verify_order",
    "gauss_legendre_integral",
]

#: moments with absolute value below this threshold count as zero
MOMENT_VANISH_TOL = 1e-8

#: node count of the fixed Gauss-Legendre rule used for custom kernels
QUADRATURE_NODES = 64

# ascending-power coefficients of the built-in families on [-1, 1]
_P2 = 0.75 * np.array([1.0, 0.0, -1.0])
_P4 = (15.0 / 32.0) * np.array([3.0, 0.0, -10.0, 0.0, 7.0])
_P6 = (105.0 / 256.0) * np.array([5.0, 0.0, -35.0, 0.0, 63.0, 0.0, -33.0])

BUILTIN_FAMILIES = {"p2": (_P2, 2), "p4": (_P4, 4), "p6": (_P6, 6)}


@dataclass(frozen=True)
class KernelFunctionals:
    """Scalar functionals of a kernel used by the bandwidth formulas."""

    order_p: int
    moment_p: float
    roughness: float
    mass: float


@dataclass(frozen=True)
class Kernel:
    """A smoothing kernel with compact support [-support_radius, support_radius].

    Polynomial kernels carry their coefficients and every functional is
    computed in closed form; custom kernels carry callables and use the
    fixed quadrature rule instead.
    """

    family: str
    order_p: int
    support_radius: float = 1.0
    coeffs: np.ndarray | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    grad: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __call__(self, u):
        """Evaluate K(u); zero outside the closed support."""
        return self._evaluate(u, self.coeffs, self.func)

    def gradient(self, u):
        """Evaluate dK/du; zero outside the closed support.

        On the closed boundary |u| == support_radius the one-sided
        (interior) derivative is returned, e.g. 3.75 for the order-4
        family at u = 1.
        """
        return self._evaluate(u, self._gradient_coeffs, self.grad)

    @cached_property
    def _gradient_coeffs(self) -> np.ndarray | None:
        return None if self.coeffs is None else npoly.polyder(self.coeffs)

    def _evaluate(self, u, coeffs, func):
        """The polynomial ``coeffs`` or ``func`` at u, zero outside the support.

        Horner's rule runs in place, in numpy.polynomial.polyval's order.
        polyval starts from (u * 0 + c[-1]) * u + c[-2]; with a non-zero
        leading coefficient that is c[-1] * u + c[-2] bit for bit wherever
        u is finite, and a non-finite u lies outside the support, so the
        loop starts there and saves two passes over u.
        """
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        outside = ~(np.abs(u, out=out) <= self.support_radius)  # NaN too
        if coeffs is not None:
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
        else:
            out[...] = func(u)
        np.copyto(out, 0.0, where=outside)
        return float(out) if out.ndim == 0 else out

    def moment(self, r: int) -> float:
        """Integral of u^r K(u) over the support (r = 0 gives the mass)."""
        return kernel_moment(self, r)

    def roughness(self) -> float:
        """Integral of (dK/du)^2 over the support."""
        return kernel_roughness(self)

    def functionals(self) -> KernelFunctionals:
        return KernelFunctionals(
            order_p=self.order_p,
            moment_p=self.moment(self.order_p),
            roughness=self.roughness(),
            mass=self.moment(0),
        )


def builtin_kernel(family: str) -> Kernel:
    """Return one of the built-in polynomial kernels ('p2', 'p4' or 'p6')."""
    try:
        coeffs, order = BUILTIN_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown kernel family {family!r}; choose from {sorted(BUILTIN_FAMILIES)}"
        ) from None
    return Kernel(family=family, order_p=order, support_radius=1.0, coeffs=coeffs.copy())


def custom_kernel(
    func: Callable,
    grad: Callable,
    order_p: int,
    support_radius: float = 1.0,
    check_order: bool = True,
) -> Kernel:
    """Wrap a callable pair (K, dK/du) as a kernel.

    The declared order is verified against the quadrature moments unless
    ``check_order`` is disabled; a mismatch raises :class:`OrderMismatch`.
    """
    if support_radius <= 0.0:
        raise ValueError("support_radius must be positive")
    if order_p < 1:
        raise ValueError("order_p must be at least 1")
    k = Kernel(
        family="custom",
        order_p=order_p,
        support_radius=float(support_radius),
        coeffs=None,
        func=func,
        grad=grad,
    )
    if check_order:
        verify_order(k)
    return k


def gauss_legendre_integral(f: Callable, lo: float, hi: float, nodes: int = QUADRATURE_NODES) -> float:
    """Gauss-Legendre quadrature of f over [lo, hi] with a fixed node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
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
    """Integral of u^r K(u) du, exact for polynomial kernels."""
    if r < 0:
        raise ValueError("moment index must be non-negative")
    if kernel.coeffs is not None:
        return _polynomial_moment(kernel.coeffs, kernel.support_radius, r)
    return gauss_legendre_integral(
        lambda u: u**r * kernel.func(u), -kernel.support_radius, kernel.support_radius
    )


def kernel_roughness(kernel: Kernel) -> float:
    """Integral of (dK/du)^2 du, exact for polynomial kernels."""
    if kernel.coeffs is not None:
        d = kernel._gradient_coeffs
        return _polynomial_moment(npoly.polymul(d, d), kernel.support_radius, 0)
    return gauss_legendre_integral(
        lambda u: kernel.grad(u) ** 2, -kernel.support_radius, kernel.support_radius
    )


def verify_order(kernel: Kernel, max_order: int = 12) -> int:
    """Detect the kernel order by scanning moments; raise on a mismatch.

    Returns the smallest r >= 1 with |integral u^r K du| > 1e-8. Raises
    :class:`OrderMismatch` when the detected order differs from the
    declared one or no moment survives the scan.
    """
    mass = kernel_moment(kernel, 0)
    if not math.isfinite(mass) or abs(mass - 1.0) > 1e-6:
        raise OrderMismatch(f"kernel mass is {mass!r}, expected 1")
    for r in range(1, max_order + 1):
        if abs(kernel_moment(kernel, r)) > MOMENT_VANISH_TOL:
            if r != kernel.order_p:
                raise OrderMismatch(
                    f"declared order {kernel.order_p} but first non-vanishing moment at r={r}"
                )
            return r
    raise OrderMismatch(f"no non-vanishing moment found up to r={max_order}")
