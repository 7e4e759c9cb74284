"""Pilot-based bandwidth selection for the kernel Delta estimators.

The selection pipeline runs a cheap pilot simulation at the query spot,
fits log-moments by the rule of thumb, plugs them into the score
recursion to estimate the payoff-weighted derivative moments E_k, turns
those into the bias constant C(theta), tunes the exponential tilt
theta to shrink |C| unless theta is given, and finally balances the
squared-bias and variance terms of the mean squared error in closed form.

Every kernel estimator runs at the one MSE-optimal bandwidth of the
coupled support epsilon = M h; theta = 0 is the uniform randomizer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBandwidth,
    DegenerateBiasWarning,
    DegenerateVarianceWarning,
    InsufficientPilot,
    NonPositiveState,
    NonPositiveVariance,
)
from .kernels import Kernel, kernel_moment, kernel_roughness
from .models import LognormalLaw, Payoff, law_density_ratio

__all__ = [
    "PilotEstimates",
    "BandwidthChoice",
    "DEGENERATE_BIAS_TOL",
    "rule_of_thumb_moments",
    "estimate_Ek",
    "bias_constant_Ce",
    "optimize_theta",
    "optimal_bandwidth",
    "predicted_mse",
    "select_bandwidth",
]

#: bias constants below this magnitude trigger the bias-free fallback
DEGENERATE_BIAS_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PilotEstimates:
    """Everything the pilot run learns about the problem.

    ``E[k-1]`` holds the k-th payoff-weighted derivative moment for
    k = 1..p+1, ``sigma_e`` the variance scale 2M * E[phi^2] * roughness,
    and (m_hat, Sigma_hat) the rule-of-thumb log-moments behind them.
    """

    E: np.ndarray
    sigma_e: float
    m_hat: float
    Sigma_hat: float
    pilot_N: int

    def __post_init__(self):
        object.__setattr__(self, "E", np.asarray(self.E, dtype=float))
        if self.sigma_e <= 0.0:
            raise NonPositiveVariance("sigma_e must be positive")
        if self.Sigma_hat <= 0.0:
            raise NonPositiveVariance("Sigma_hat must be positive")


@dataclass(frozen=True)
class BandwidthChoice:
    """The selected bandwidth with the quantities that produced it."""

    h_star: float
    theta_star: float
    predicted_mse: float
    bias_constant: float
    degenerate: bool = False


def rule_of_thumb_moments(
    terminal_draws: np.ndarray, x: float, min_draws: int = 100
) -> tuple[float, float]:
    """Sample mean and unbiased variance of ln(Z_i / x).

    The default draw-count floor of 100 keeps pilot fits honest; tests of
    the arithmetic may lower it. Non-finite draws (an overflowing model)
    raise DegenerateBandwidth before any logarithm is taken, as no
    bandwidth can be fitted to them. A zero spread is reported with
    DegenerateVarianceWarning rather than an error so callers can decide.
    """
    z = np.asarray(terminal_draws, dtype=float)
    if z.size < min_draws:
        raise InsufficientPilot(f"need at least {min_draws} draws, got {z.size}")
    bad = np.count_nonzero(~np.isfinite(z))
    if bad:
        raise DegenerateBandwidth(
            f"{bad} of {z.size} pilot states are not finite (the model overflows), "
            "so their log-moments cannot be fitted"
        )
    if np.any(z <= 0.0) or x <= 0.0:
        raise NonPositiveState("log-moment fit needs positive draws and spot")
    logs = np.log(z / x)
    m_hat = float(np.mean(logs))
    Sigma_hat = float(np.var(logs, ddof=1)) if z.size > 1 else 0.0
    # identical draws leave pure roundoff noise in the variance; snap it to 0
    if Sigma_hat <= (1e-12 * max(1.0, abs(m_hat))) ** 2:
        Sigma_hat = 0.0
        warnings.warn("pilot draws have zero spread", DegenerateVarianceWarning)
    return m_hat, Sigma_hat


def estimate_Ek(
    model_draws: np.ndarray, payoff: Payoff, x: float, k: int, law: LognormalLaw
) -> float:
    """Monte Carlo moment E_k = E[phi(Z) * (d^k f/dx^k)/f] at spot x.

    ``law`` may be the true law or the rule-of-thumb fit; the density
    ratio comes from the score-coefficient recursion either way.
    """
    z = np.asarray(model_draws, dtype=float)
    phi = payoff(z)
    if not np.any(phi):
        return 0.0
    return float(np.mean(phi * law_density_ratio(law, x, z, k)))


def _ce_poly(E: np.ndarray, p: int, kernel_moment_p: float) -> np.ndarray:
    """Ascending theta-coefficients of C_e(theta).

    C_e(theta) = ((-1)^p / p!) (int u^p K) sum_{k=1}^{p+1}
    C(p, k-1) E_k (-theta)^{p-k+1}; the theta^j coefficient pairs the
    binomial C(p, p-j) with E_{p-j+1} and the sign (-1)^j.
    """
    E = np.asarray(E, dtype=float)
    if E.size != p + 1:
        raise ValueError(f"expected {p + 1} moments E_1..E_{p + 1}, got {E.size}")
    c = ((-1.0) ** p / math.factorial(p)) * kernel_moment_p
    return np.array(
        [c * math.comb(p, p - j) * E[p - j] * (-1.0) ** j for j in range(p + 1)]
    )


def bias_constant_Ce(E: np.ndarray, p: int, kernel_moment_p: float, theta: float) -> float:
    """Bias constant of the tilted estimator; theta = 0 gives the uniform one."""
    return float(np.polynomial.polynomial.polyval(theta, _ce_poly(E, p, kernel_moment_p)))


def _golden_section(g, lo: float, hi: float, iters: int = 200) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        if abs(b - a) < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def optimize_theta(
    E: np.ndarray, p: int, kernel_moment_p: float, theta_max: float = 50.0
) -> float:
    """Tilt that minimizes C_e(theta)^2 over [-theta_max, theta_max].

    Runs safeguarded Newton iterations from theta = 0 on the squared
    bias constant and falls back to a golden-section scan of the bracket
    when Newton stalls. A constant objective (only E_{p+1} nonzero)
    returns 0 by convention.
    """
    coeffs = _ce_poly(np.asarray(E, dtype=float), p, kernel_moment_p)
    if not np.any(coeffs[1:]):
        return 0.0
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    ddcoeffs = np.polynomial.polynomial.polyder(dcoeffs)

    def ce(t):
        return float(np.polynomial.polynomial.polyval(t, coeffs))

    def g(t):
        return ce(t) ** 2

    theta = 0.0
    converged = False
    for _ in range(100):
        v = ce(theta)
        dv = float(np.polynomial.polynomial.polyval(theta, dcoeffs))
        ddv = float(np.polynomial.polynomial.polyval(theta, ddcoeffs))
        grad = 2.0 * v * dv
        hess = 2.0 * (dv * dv + v * ddv)
        if hess <= 0.0:
            break
        step = -grad / hess
        new = min(max(theta + step, -theta_max), theta_max)
        if g(new) > g(theta) + 1e-30:
            break
        moved = abs(new - theta)
        theta = new
        if moved <= 1e-13 * max(1.0, abs(theta)):
            converged = True
            break
    if not converged:
        fallback = _golden_section(g, -theta_max, theta_max)
        if g(fallback) < g(theta):
            theta = fallback
    return float(min(max(theta, -theta_max), theta_max))


def optimal_bandwidth(sigma: float, bias_c: float, p: int, N: int) -> tuple[float, bool]:
    """MSE-balancing bandwidth; returns (h, degenerate_flag).

    With the support coupled as epsilon = M h, the estimators minimize
    sigma N^-1 h^-2 + C^2 h^2p, giving (sigma/(p C^2 N))^{1/(2p+2)}. A bias
    constant below 1e-12 switches to the bias-free rate h = N^{-1/(2p+2)}
    and warns.
    """
    if sigma <= 0.0:
        raise NonPositiveVariance(f"variance scale must be positive, got {sigma}")
    if N < 1 or p < 2:
        raise ValueError("need N >= 1 and kernel order p >= 2")
    if abs(bias_c) < DEGENERATE_BIAS_TOL:
        warnings.warn(
            "bias constant is numerically zero, using the bias-free bandwidth",
            DegenerateBiasWarning,
        )
        return float(N) ** (-1.0 / (2 * p + 2)), True
    c2 = bias_c * bias_c
    h = (sigma / (p * c2 * N)) ** (1.0 / (2 * p + 2))
    return float(h), False


def predicted_mse(sigma: float, bias_c: float, p: int, N: int) -> float:
    """Minimized mean squared error of the coupled estimators.

    Equals twice the minimum of sigma N^-1 h^-2 + C^2 h^2p over h; a zero
    bias constant collapses the prediction to 0, in which case the true
    error is variance-only and the degenerate flag of optimal_bandwidth
    applies.
    """
    if sigma <= 0.0:
        raise NonPositiveVariance(f"variance scale must be positive, got {sigma}")
    if N < 1 or p < 2:
        raise ValueError("need N >= 1 and kernel order p >= 2")
    q = p / (p + 1.0)
    return float(
        2.0 * (p + 1) * p ** (-q) * (bias_c**2 * sigma**p) ** (1.0 / (p + 1)) * N ** (-q)
    )


def select_bandwidth(
    states: np.ndarray,
    payoff: Payoff,
    spot: float,
    kernel: Kernel,
    n_target: int,
    law: LognormalLaw | None = None,
    theta: float | None = None,
) -> tuple[PilotEstimates, BandwidthChoice]:
    """Full pilot pipeline from simulated states to a bandwidth choice.

    ``states`` are pilot draws of the (terminal or averaged) state at the
    fixed spot. When ``law`` is omitted the rule-of-thumb lognormal fit
    of the draws is plugged in; passing the true law skips that step.
    Without a fixed ``theta`` the tilt is tuned inside the bracket
    theta_max = 50 / (M * N^{-1/(2p+2)}); theta = 0 is the uniform
    randomizer's.
    """
    states = np.asarray(states, dtype=float)
    m_hat, Sigma_hat = rule_of_thumb_moments(states, spot)
    if law is None:
        law = LognormalLaw(m=m_hat, Sigma=Sigma_hat)
    p = kernel.order_p
    moment_p = kernel_moment(kernel, p)
    E = np.array([estimate_Ek(states, payoff, spot, k, law) for k in range(1, p + 2)])
    phi = payoff(states)
    second_moment = float(np.mean(phi * phi))
    if second_moment <= 0.0:
        raise NonPositiveVariance("payoff is identically zero on the pilot draws")
    sigma_e = 2.0 * kernel.support_radius * second_moment * kernel_roughness(kernel)
    if not (np.all(np.isfinite(E)) and math.isfinite(sigma_e)):
        raise DegenerateBandwidth("pilot payoff moments are not finite (the payoff overflows)")
    pilot = PilotEstimates(
        E=E, sigma_e=sigma_e, m_hat=m_hat, Sigma_hat=Sigma_hat, pilot_N=states.size
    )
    if theta is None:
        h_ref = float(n_target) ** (-1.0 / (2 * p + 2))
        theta_max = 50.0 / (kernel.support_radius * h_ref)
        theta = optimize_theta(E, p, moment_p, theta_max=theta_max)
    bias_c = bias_constant_Ce(E, p, moment_p, theta)
    h, degenerate = optimal_bandwidth(sigma_e, bias_c, p, n_target)
    mse = predicted_mse(sigma_e, bias_c, p, n_target)
    choice = BandwidthChoice(
        h_star=h,
        theta_star=theta,
        predicted_mse=mse,
        bias_constant=bias_c,
        degenerate=degenerate,
    )
    return pilot, choice
