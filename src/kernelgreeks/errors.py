"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "KernelGreeksError",
    "OutsideSupport",
    "NonPositiveState",
    "DimensionMismatch",
    "EmptySample",
    "DegenerateBandwidth",
    "RandomizerMismatch",
    "InsufficientSamples",
    "MissingSecondKernel",
    "ScoreUnavailable",
    "DegenerateBump",
    "InsufficientPilot",
    "NonPositiveVariance",
    "InsufficientReplications",
    "NonFiniteEstimate",
    "InvalidConfigFile",
    "InvalidGrid",
    "DegenerateVarianceWarning",
    "DegenerateBiasWarning",
]


class KernelGreeksError(Exception):
    """Base class for all package-specific errors."""


class OutsideSupport(KernelGreeksError):
    """Randomizer offset lies outside [-epsilon, epsilon]."""


class NonPositiveState(KernelGreeksError):
    """Spot, volatility, maturity or state value is not positive."""


class DimensionMismatch(KernelGreeksError):
    """Arrays in a sample set have inconsistent lengths."""


class EmptySample(KernelGreeksError):
    """An estimator received a sample set with no draws."""


class DegenerateBandwidth(KernelGreeksError):
    """Bandwidth is zero, negative, or otherwise unusable."""


class RandomizerMismatch(KernelGreeksError):
    """Sample set was generated with a randomizer incompatible with the estimator."""


class InsufficientSamples(KernelGreeksError):
    """Too few draws for the requested operation."""


class MissingSecondKernel(KernelGreeksError):
    """Double-kernel estimator called without a kernel for the state dimension."""


class ScoreUnavailable(KernelGreeksError):
    """Closed-form score requested for a state law that has none."""


class DegenerateBump(KernelGreeksError):
    """Finite-difference bump size is zero or negative."""


class InsufficientPilot(KernelGreeksError):
    """Pilot sample too small for rule-of-thumb moment estimation."""


class NonPositiveVariance(KernelGreeksError):
    """Variance plug-in fed to the bandwidth formula is not positive."""


class InsufficientReplications(KernelGreeksError):
    """Too few replications for the requested summary statistic."""


class NonFiniteEstimate(KernelGreeksError, FloatingPointError):
    """An estimator produced an infinite or NaN value."""


class InvalidConfigFile(KernelGreeksError, ValueError):
    """A config file cannot be read or holds a malformed entry."""


class InvalidGrid(KernelGreeksError, ValueError):
    """A rate-fit grid has too few points, is not increasing or spans too little."""


class DegenerateVarianceWarning(UserWarning):
    """Pilot draws produced a (near-)zero log-variance."""


class DegenerateBiasWarning(UserWarning):
    """Bias constant is numerically zero; bandwidth fell back to the rate-neutral choice."""
