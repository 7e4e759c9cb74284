"""Randomizing densities for the query parameter.

The estimators in this package never differentiate the payoff. Instead the
parameter is drawn from a small density centered at the query point lambda0
and the derivative is recovered by kernel regression. The densities form one
tilted exponential family on [-epsilon, epsilon]:

    theta e^{theta l} / (e^{theta eps} - e^{-theta eps})

and theta = 0 is the uniform density 1/(2 epsilon). The log-density gradient
is the constant theta on the support, which is what makes the two
single-kernel estimators coincide.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import OutsideSupport

__all__ = ["Randomizer", "uniform_randomizer", "truncexp_randomizer"]

# switch to the series expansion of the normalization below this |theta*eps|
_SMALL_TILT = 1e-6

# from this |theta*eps| on, the normalization is taken in log space, where it
# underflows to 0 instead of overflowing (sinh overflows beyond 710)
_LARGE_TILT = 700.0


@dataclass(frozen=True)
class Randomizer:
    """Tilted exponential density on [-epsilon, epsilon]; theta = 0 is uniform.
    ``kind``, "uniform" or "truncexp", is checked against theta and not kept."""

    epsilon: float
    theta: float = 0.0
    kind: InitVar[str | None] = None

    def __post_init__(self, kind):
        if kind not in (None, "uniform", "truncexp"):
            raise ValueError(f"unknown randomizer kind {kind!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if kind == "uniform" and self.theta != 0.0:
            raise ValueError("uniform randomizer does not take a tilt; use truncexp")

    # -- density ---------------------------------------------------------

    def density_at_zero(self) -> float:
        """The prefactor ell(0) = theta / (e^{theta eps} - e^{-theta eps})
        appearing in every kernel estimator, stable near theta = 0 and free
        of overflow at large |theta eps|."""
        te = self.theta * self.epsilon
        if abs(te) < _SMALL_TILT:
            # theta / (2 sinh(theta eps)) expanded to second order in (theta eps)^2
            return 1.0 / (2.0 * self.epsilon * (1.0 + te * te / 6.0 + te**4 / 120.0))
        if abs(te) < _LARGE_TILT:
            return self.theta / (2.0 * math.sinh(te))
        # 2 sinh|te| equals e^|te| to double precision out here
        return math.exp(math.log(abs(self.theta)) - abs(te))

    def density(self, l):
        """Density at offset l (vectorized); zero outside the closed support."""
        l = np.asarray(l, dtype=float)
        inside = np.abs(l) <= self.epsilon
        te = abs(self.theta * self.epsilon)
        if te < _LARGE_TILT:
            vals = self.density_at_zero() * np.exp(self.theta * l)
        else:
            # |theta| e^{theta l - |theta eps|}, in log space
            with np.errstate(over="ignore"):
                vals = np.exp(math.log(abs(self.theta)) - te + self.theta * l)
        vals = np.where(inside, vals, 0.0)
        return float(vals) if vals.ndim == 0 else vals

    # -- sampling --------------------------------------------------------

    def sample_offsets(self, u, out=None):
        """Inverse-CDF transform of uniforms u in [0, 1) to offsets (vectorized).

        ``out``, when given, is a float array shaped like u that receives
        the offsets; it may be u itself. A u outside [0, 1), NaN included,
        raises :class:`OutsideSupport`, which is a ValueError.
        """
        u = np.asarray(u, dtype=float)
        # written so that a NaN fails the test, which u < 0 and u >= 1 miss;
        # the initial 0 passes an empty u
        if not (u.min(initial=0.0) >= 0.0 and u.max(initial=0.0) < 1.0):
            raise OutsideSupport("uniforms must lie in [0, 1)")
        if out is None:
            out = np.empty_like(u)
        te = self.theta * self.epsilon
        if abs(te) < 1e-12:
            # -eps + 2 eps u
            np.multiply(u, 2.0 * self.epsilon, out=out)
            out += -self.epsilon
        else:
            # l = log(e^{-te} + u (e^{te} - e^{-te})) / theta, written with
            # expm1/log1p so it stays accurate for small tilts
            lo = np.expm1(-te)
            width = np.expm1(te) - lo
            np.multiply(u, width, out=out)
            out += lo
            # at extreme tilts e^{-theta eps} underflows and the u ~ 0
            # quantile evaluates as log1p(-1) = -inf; the clip below snaps
            # it to the support edge, which is the correct limit
            with np.errstate(divide="ignore"):
                np.log1p(out, out=out)
            out /= self.theta
        # guard against roundoff pushing a draw just past the edge
        np.clip(out, -self.epsilon, self.epsilon, out=out)
        return float(out) if out.ndim == 0 else out

    def cdf(self, l):
        """Analytic CDF on the support (used by distributional tests)."""
        l = np.asarray(l, dtype=float)
        clipped = np.clip(l, -self.epsilon, self.epsilon)
        te = self.theta * self.epsilon
        if abs(te) < 1e-12:
            vals = (clipped + self.epsilon) / (2.0 * self.epsilon)
        else:
            lo = np.expm1(-te)
            width = np.expm1(te) - lo
            vals = (np.expm1(self.theta * clipped) - lo) / width
        return float(vals) if vals.ndim == 0 else vals


def uniform_randomizer(epsilon: float) -> Randomizer:
    return Randomizer(epsilon)


def truncexp_randomizer(epsilon: float, theta: float) -> Randomizer:
    return Randomizer(epsilon, theta)
