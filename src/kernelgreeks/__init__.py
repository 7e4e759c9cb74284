"""Monte Carlo Delta estimation by parameter randomization and kernel smoothing.

The package estimates the sensitivity of an expected payoff to the
initial spot without differentiating the payoff: the spot is randomized
around the query point, the payoff is simulated at the randomized spots,
and the derivative is recovered by kernel smoothing in the spot
dimension. Likelihood-ratio and finite-difference baselines, a pilot
bandwidth selector, and a seeded replication harness round out the
toolkit.

Quick start::

    from kernelgreeks import (
        ExperimentConfig, GbmParams, digital_call,
        run_replications, reference_value, summarize,
    )

    cfg = ExperimentConfig(
        model=GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0),
        payoff=digital_call(120.0),
        estimator_id="uniform",
        n_samples=100_000,
        replications=100,
        seed=7,
    )
    result = run_replications(cfg)
    ref, source = reference_value(cfg)
    print(summarize(result.estimates, ref, source).mean)
"""

from .bandwidth import (
    BANDWIDTH_MODES,
    BandwidthChoice,
    PilotEstimates,
    bias_constant_Ce,
    estimate_Ek,
    optimal_bandwidth,
    optimize_theta,
    predicted_mse,
    rule_of_thumb_moments,
    select_bandwidth,
)
from .errors import (
    DegenerateBandwidth,
    DegenerateBiasWarning,
    DegenerateBump,
    DegenerateVarianceWarning,
    DimensionMismatch,
    EmptySample,
    InsufficientPilot,
    InsufficientReplications,
    InsufficientSamples,
    NonFiniteEstimate,
    KernelGreeksError,
    MissingSecondKernel,
    NonPositiveState,
    NonPositiveVariance,
    OrderMismatch,
    OutsideSupport,
    RandomizerMismatch,
    ScoreUnavailable,
)
from .estimators import (
    Estimate,
    EstimatorConfig,
    FdConfig,
    SampleSet,
    estimate_double_kernel,
    estimate_exponential_opt,
    estimate_finite_difference,
    estimate_oracle_score,
    estimate_single_kernel_check,
    estimate_single_kernel_hat,
    estimate_uniform_opt,
)
from .harness import (
    ESTIMATOR_IDS,
    KERNEL_ESTIMATORS,
    ExperimentConfig,
    ExperimentSummary,
    RateFit,
    RunResult,
    asian_fd_reference,
    convergence_rate_fit,
    fit_loglog,
    kde_grid,
    kde_of_estimates,
    reference_value,
    resolve_run,
    run_replications,
    summarize,
    tune_fd_bump,
)
from .kernels import (
    BUILTIN_FAMILIES,
    Kernel,
    KernelFunctionals,
    builtin_kernel,
    custom_kernel,
    gauss_legendre_integral,
    kernel_moment,
    kernel_roughness,
    verify_order,
)
from .models import (
    AsianConfig,
    GbmParams,
    LognormalLaw,
    Payoff,
    ScoreCoefficients,
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
    vanilla_call,
)
from .randomizers import (
    Randomizer,
    truncexp_randomizer,
    uniform_randomizer,
)
from .rng import PILOT_OFFSET, STREAM_REFERENCE, SWEEP_STRIDE, stream, sweep_base

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "Kernel",
    "KernelFunctionals",
    "BUILTIN_FAMILIES",
    "builtin_kernel",
    "custom_kernel",
    "kernel_moment",
    "kernel_roughness",
    "verify_order",
    "gauss_legendre_integral",
    # randomization
    "Randomizer",
    "uniform_randomizer",
    "truncexp_randomizer",
    # models
    "GbmParams",
    "LognormalLaw",
    "AsianConfig",
    "Payoff",
    "ScoreCoefficients",
    "lognormal_params",
    "simulate_terminal",
    "simulate_asian",
    "law_density",
    "law_standardized_d",
    "law_density_ratio",
    "score_coefficients",
    "digital_call",
    "vanilla_call",
    "identity_payoff",
    "constant_payoff",
    "closed_form_digital_delta",
    "closed_form_vanilla_delta",
    "closed_form_identity_delta",
    # estimators
    "SampleSet",
    "EstimatorConfig",
    "Estimate",
    "FdConfig",
    "estimate_single_kernel_hat",
    "estimate_single_kernel_check",
    "estimate_uniform_opt",
    "estimate_exponential_opt",
    "estimate_double_kernel",
    "estimate_oracle_score",
    "estimate_finite_difference",
    # bandwidth
    "PilotEstimates",
    "BandwidthChoice",
    "BANDWIDTH_MODES",
    "rule_of_thumb_moments",
    "estimate_Ek",
    "bias_constant_Ce",
    "optimize_theta",
    "optimal_bandwidth",
    "predicted_mse",
    "select_bandwidth",
    # harness
    "ExperimentConfig",
    "RunResult",
    "ExperimentSummary",
    "RateFit",
    "ESTIMATOR_IDS",
    "KERNEL_ESTIMATORS",
    "resolve_run",
    "run_replications",
    "reference_value",
    "asian_fd_reference",
    "tune_fd_bump",
    "summarize",
    "kde_of_estimates",
    "kde_grid",
    "fit_loglog",
    "convergence_rate_fit",
    # rng
    "stream",
    "sweep_base",
    "SWEEP_STRIDE",
    "PILOT_OFFSET",
    "STREAM_REFERENCE",
    # errors
    "KernelGreeksError",
    "OrderMismatch",
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
    "DegenerateVarianceWarning",
    "DegenerateBiasWarning",
]
