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

from .bandwidth import bias_constant_Ce, estimate_Ek, optimize_theta
from .errors import KernelGreeksError
from .estimators import (
    EstimatorConfig,
    FdConfig,
    SampleSet,
    estimate_double_kernel,
    estimate_finite_difference,
    estimate_single_kernel_check,
    estimate_single_kernel_hat,
)
from .harness import (
    ExperimentConfig,
    convergence_rate_fit,
    reference_value,
    run_replications,
    summarize,
)
from .kernels import builtin_kernel, gauss_legendre_integral, kernel_moment, kernel_roughness
from .models import (
    GbmParams,
    closed_form_digital_delta,
    digital_call,
    identity_payoff,
    law_density,
    law_density_ratio,
    lognormal_params,
    simulate_terminal,
    vanilla_call,
)
from .randomizers import truncexp_randomizer, uniform_randomizer

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "builtin_kernel",
    "kernel_moment",
    "kernel_roughness",
    "gauss_legendre_integral",
    # randomization
    "uniform_randomizer",
    "truncexp_randomizer",
    # models
    "GbmParams",
    "lognormal_params",
    "simulate_terminal",
    "law_density",
    "law_density_ratio",
    "digital_call",
    "vanilla_call",
    "identity_payoff",
    "closed_form_digital_delta",
    # estimators
    "SampleSet",
    "EstimatorConfig",
    "FdConfig",
    "estimate_single_kernel_hat",
    "estimate_single_kernel_check",
    "estimate_double_kernel",
    "estimate_finite_difference",
    # bandwidth
    "estimate_Ek",
    "bias_constant_Ce",
    "optimize_theta",
    # harness
    "ExperimentConfig",
    "run_replications",
    "reference_value",
    "summarize",
    "convergence_rate_fit",
    # errors
    "KernelGreeksError",
]
