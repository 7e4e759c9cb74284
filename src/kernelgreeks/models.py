"""Black-Scholes state simulation and lognormal analytics.

The terminal state is x exp[(r - sigma^2/2) T + sigma W_T], so ln(Z/x) is
normal with mean m = (r - sigma^2/2) T and variance Sigma = sigma^2 T. The
module provides the state simulators (terminal and discretely monitored
average), the lognormal density f(x, z) as a function of the spot, the
standardized log-moneyness d(x, z), the coefficient recursion that turns
spot-derivatives of f into polynomials in d, the payoffs, and closed-form
delta oracles used as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonPositiveState

__all__ = [
    "GbmParams",
    "LognormalLaw",
    "AsianConfig",
    "Payoff",
    "ScoreCoefficients",
    "lognormal_params",
    "simulate_terminal",
    "simulate_asian",
    "asian_unit_averages",
    "score_coefficients",
    "digital_call",
    "vanilla_call",
    "identity_payoff",
    "constant_payoff",
    "closed_form_digital_delta",
    "closed_form_vanilla_delta",
    "closed_form_identity_delta",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: largest supported derivative order of the coefficient recursion
MAX_SCORE_ORDER = 10

#: standard normals per row block of ``asian_unit_averages``; bounds the
#: memory of the averaged-state simulation independently of N
_ASIAN_BLOCK = 2**18


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion parameters (spot, rate, vol, maturity)."""

    spot: float
    rate: float
    vol: float
    maturity: float

    def __post_init__(self):
        for name in ("spot", "vol", "maturity"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise NonPositiveState(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate!r}")


@dataclass(frozen=True)
class LognormalLaw:
    """Log-moments of the terminal state: ln(Z/x) ~ N(m, Sigma)."""

    m: float
    Sigma: float

    def __post_init__(self):
        if self.Sigma <= 0.0:
            raise NonPositiveState("Sigma must be positive")


@dataclass(frozen=True)
class AsianConfig:
    """Discretization of the time-average state on a uniform grid."""

    steps: int = 50
    scheme: str = "trapezoid"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.scheme not in ("trapezoid", "left"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def lognormal_params(g: GbmParams) -> LognormalLaw:
    """Log-drift and log-variance of the terminal state."""
    return LognormalLaw(
        m=(g.rate - 0.5 * g.vol**2) * g.maturity,
        Sigma=g.vol**2 * g.maturity,
    )


def simulate_terminal(g: GbmParams, gauss, spot=None, out=None):
    """Terminal state from standard-normal draws: spot * exp(m + sqrt(Sigma) g).

    ``spot`` overrides g.spot (scalar or array broadcastable against gauss),
    which is how randomized and bumped parameters are simulated off shared
    noise. ``out``, when given, is a float array of the result's shape that
    receives the states; it may be gauss itself.
    """
    law = lognormal_params(g)
    x = g.spot if spot is None else spot
    gauss = np.asarray(gauss, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x), gauss.shape))
    np.multiply(gauss, math.sqrt(law.Sigma), out=out)
    out += law.m
    np.exp(out, out=out)
    out *= x
    return float(out) if out.ndim == 0 else out


def simulate_asian(g: GbmParams, cfg: AsianConfig, gauss_path, spot=None):
    """Discretized time integral of the state over [0, maturity].

    ``gauss_path`` holds the per-step standard normals in its last axis,
    shape (steps,) or (n, steps). Increments between grid nodes are exact
    in distribution. The integral is linear in the spot, so bumped or
    randomized spots reuse the same noise exactly.
    """
    gauss_path = np.atleast_2d(np.asarray(gauss_path, dtype=float))
    if gauss_path.shape[-1] != cfg.steps:
        raise DimensionMismatch(
            f"gauss_path has {gauss_path.shape[-1]} steps, config wants {cfg.steps}"
        )
    x = g.spot if spot is None else spot
    dt = g.maturity / cfg.steps
    # one working array: log increments, then their running sums, then the
    # unit-spot path values at nodes 1..steps
    path = np.multiply(g.vol * math.sqrt(dt), gauss_path)
    path += (g.rate - 0.5 * g.vol**2) * dt
    np.cumsum(path, axis=-1, out=path)
    np.exp(path, out=path)
    if cfg.scheme == "trapezoid":
        unit = dt * (0.5 + path[..., :-1].sum(axis=-1) + 0.5 * path[..., -1])
    else:  # left Riemann: nodes 0..steps-1
        unit = dt * (1.0 + path[..., :-1].sum(axis=-1))
    out = np.asarray(x) * unit
    return float(out[0]) if out.shape == (1,) else out


def asian_unit_averages(
    g: GbmParams, cfg: AsianConfig, rng: np.random.Generator, n: int, out=None
) -> np.ndarray:
    """Unit-spot averages of n paths whose normals are drawn from rng.

    The normals are drawn in row blocks of at most ``_ASIAN_BLOCK``
    elements into one reused buffer, so memory does not grow with n. A
    Philox stream continues bit for bit across draws, so the result equals
    ``simulate_asian(g, cfg, rng.standard_normal((n, cfg.steps)), spot=1.0)``
    exactly; multiply it by a spot to get the states at that spot. ``out``,
    when given, is an (n,) float array that receives the averages.
    """
    rows = max(1, min(n, _ASIAN_BLOCK // cfg.steps))
    block = np.empty((rows, cfg.steps))
    if out is None:
        out = np.empty(n)
    for start in range(0, n, rows):
        part = block[: min(rows, n - start)]
        rng.standard_normal(out=part)
        out[start : start + part.shape[0]] = simulate_asian(g, cfg, part, 1.0)
    return out


def _pipelined_unit_averages(
    g: GbmParams, cfg: AsianConfig, rng: np.random.Generator, n: int, pool
):
    """Yield the unit-spot averages of n paths block by block, while a task
    on ``pool`` draws the next block's normals.

    The blocks and their values are those of ``asian_unit_averages``.
    Each draw goes into one of two reused buffers and starts only after
    the previous draw has finished, so the stream is consumed in order;
    the caller averages block k while block k + 1 is drawn.
    """
    rows = max(1, min(n, _ASIAN_BLOCK // cfg.steps))
    ring = (np.empty((rows, cfg.steps)), np.empty((rows, cfg.steps)))

    def draw(k: int):
        part = ring[k % 2][: min(rows, n - k * rows)]
        rng.standard_normal(out=part)
        return part

    blocks = -(-n // rows)
    pending = pool.submit(draw, 0)
    for k in range(blocks):
        part = pending.result()
        if k + 1 < blocks:
            pending = pool.submit(draw, k + 1)
        yield np.atleast_1d(simulate_asian(g, cfg, part, 1.0))


# -- lognormal analytics ---------------------------------------------------


def _as_positive(z, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise NonPositiveState(f"{what} must be positive")
    return z


def law_density(law: LognormalLaw, x, z):
    """Lognormal density of the terminal state at z, as a function of spot x.

    Both x and z broadcast, so the density can be evaluated across
    randomized spots in one call.
    """
    z = _as_positive(z, "state z")
    x = _as_positive(x, "spot x")
    expo = -((np.log(z) - np.log(x) - law.m) ** 2) / (2.0 * law.Sigma)
    out = np.exp(expo) / (z * _SQRT_2PI * math.sqrt(law.Sigma))
    return float(out) if out.ndim == 0 else out


def law_standardized_d(law: LognormalLaw, x, z):
    """Standardized log-moneyness d(x, z) = (ln z - ln x - m) / Sigma."""
    z = _as_positive(z, "state z")
    x = _as_positive(x, "spot x")
    out = (np.log(z) - np.log(x) - law.m) / law.Sigma
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScoreCoefficients:
    """Coefficients a_0..a_k with x^k (d^k f/dx^k)/f = sum_i a_i d^i / x^k."""

    k: int
    a: tuple


@lru_cache(maxsize=64)
def _score_rows(sigma_key: float, k: int) -> tuple:
    # recursion: a_i^0 = [i == 0];  a_i^{j+1} = a_{i-1}^j - j a_i^j - ((i+1)/Sigma) a_{i+1}^j
    row = [1.0]
    for j in range(k):
        nxt = []
        for i in range(j + 2):
            prev = row[i - 1] if 1 <= i <= j + 1 else 0.0
            same = row[i] if i <= j else 0.0
            above = row[i + 1] if i + 1 <= j else 0.0
            nxt.append(prev - j * same - (i + 1) / sigma_key * above)
        row = nxt
    return tuple(row)


def score_coefficients(law: LognormalLaw, k: int) -> ScoreCoefficients:
    """Run the coefficient recursion up to derivative order k (1 <= k <= 10)."""
    if not 1 <= k <= MAX_SCORE_ORDER:
        raise ValueError(f"k must be in 1..{MAX_SCORE_ORDER}")
    return ScoreCoefficients(k=k, a=_score_rows(law.Sigma, k))


def law_density_ratio(law: LognormalLaw, x: float, z, k: int):
    """The ratio (d^k f/dx^k) / f evaluated via the coefficient recursion."""
    d = law_standardized_d(law, x, z)
    coeffs = np.asarray(score_coefficients(law, k).a)
    out = np.polynomial.polynomial.polyval(np.asarray(d), coeffs) / x**k
    return float(out) if np.ndim(out) == 0 else out


# -- payoffs ----------------------------------------------------------------


@dataclass(frozen=True)
class Payoff:
    """Payoff function of the terminal (or averaged) state."""

    kind: str
    strike: float = 0.0
    const: float = 0.0

    def __post_init__(self):
        if self.kind not in ("digital", "vanilla", "identity", "constant"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if not (math.isfinite(self.strike) and math.isfinite(self.const)):
            raise ValueError(f"strike and const must be finite, got {self.strike!r}, {self.const!r}")
        if self.kind in ("digital", "vanilla") and self.strike < 0.0:
            raise ValueError("strike must be non-negative")

    def __call__(self, z, out=None):
        """The payoffs of states z; ``out``, when given, is a float array
        shaped like z that receives them and may be z itself."""
        z = np.asarray(z, dtype=float)
        if out is None:
            out = np.empty_like(z)
        if self.kind == "digital":
            np.greater(z, self.strike, out=out)
        elif self.kind == "vanilla":
            np.subtract(z, self.strike, out=out)
            np.maximum(out, 0.0, out=out)
        elif self.kind == "identity":
            np.copyto(out, z)
        else:
            out.fill(self.const)
        return float(out) if out.ndim == 0 else out


def digital_call(strike: float) -> Payoff:
    return Payoff(kind="digital", strike=strike)


def vanilla_call(strike: float) -> Payoff:
    return Payoff(kind="vanilla", strike=strike)


def identity_payoff() -> Payoff:
    return Payoff(kind="identity")


def constant_payoff(c: float) -> Payoff:
    return Payoff(kind="constant", const=c)


# -- closed-form references --------------------------------------------------


def _d2(g: GbmParams, strike: float) -> float:
    return (math.log(g.spot / strike) + (g.rate - 0.5 * g.vol**2) * g.maturity) / (
        g.vol * math.sqrt(g.maturity)
    )


def closed_form_digital_delta(g: GbmParams, strike: float) -> float:
    """Delta of the digital call: exp(-rT) n(d2) / (x sigma sqrt(T))."""
    if strike <= 0.0:
        raise NonPositiveState("strike must be positive")
    d2 = _d2(g, strike)
    pdf = math.exp(-0.5 * d2 * d2) / _SQRT_2PI
    return math.exp(-g.rate * g.maturity) * pdf / (g.spot * g.vol * math.sqrt(g.maturity))


def closed_form_vanilla_delta(g: GbmParams, strike: float) -> float:
    """Delta of the vanilla call: N(d1)."""
    if strike <= 0.0:
        raise NonPositiveState("strike must be positive")
    d1 = _d2(g, strike) + g.vol * math.sqrt(g.maturity)
    return 0.5 * math.erfc(-d1 / math.sqrt(2.0))


def closed_form_identity_delta(g: GbmParams) -> float:
    """Sensitivity of E[Z] to the spot: exp(rT), equal to 1 at zero rate."""
    return math.exp(g.rate * g.maturity)
