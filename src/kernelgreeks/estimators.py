"""Delta estimators built on parameter randomization.

Every estimator here consumes a :class:`SampleSet` of randomized draws
(Lambda_i, Z_i, phi(Z_i)) around the query spot lambda0 and returns a
point estimate of d/dx E[phi(Z^x)] at lambda0. None of them differentiate
the payoff, which is the point: the digital call works as-is.

Estimator menu
--------------
- ``estimate_single_kernel_hat`` / ``estimate_single_kernel_check``:
  integration by parts against the randomizing density; the two differ
  only in where the log-density gradient is evaluated and coincide for
  the uniform and tilted-exponential families.
- ``estimate_uniform_opt`` / ``estimate_exponential_opt``: the same
  estimators specialized to the coupled support epsilon = M h, in the
  compact form used throughout the experiments.
- ``estimate_double_kernel``: plugs a leave-one-out kernel estimate of
  the score into the localized regression; needs a second kernel acting
  in the state dimension.
- ``estimate_oracle_score``: the score-weighted references, localized or
  the plain likelihood-ratio average at fixed spot.
- ``estimate_finite_difference``: bump-and-reprice with common random
  numbers, forward/centered/backward via alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBandwidth,
    DegenerateBump,
    DimensionMismatch,
    EmptySample,
    InsufficientSamples,
    MissingSecondKernel,
    NonFiniteEstimate,
    OutsideSupport,
    RandomizerMismatch,
    ScoreUnavailable,
)
from .kernels import Kernel
from .models import (
    AsianConfig,
    GbmParams,
    Payoff,
    law_standardized_d,
    lognormal_params,
    simulate_asian,
    simulate_terminal,
)
from .randomizers import Randomizer

__all__ = [
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
]

#: leave-one-out density values below 1e-12 * h^-2 are dropped
DENSITY_FLOOR_SCALE = 1e-12

#: array elements per chunk of the double-kernel window sums, which bounds
#: their temporaries independently of N
_PAIR_BUDGET = 2**18


@dataclass(frozen=True)
class SampleSet:
    """Randomized draws around the query spot.

    ``lambdas``, ``states`` and ``payoffs`` are parallel arrays holding
    Lambda_i, Z_i and phi(Z_i). When the generating randomizer is attached
    the draws are checked against its support. ``state_kind`` is
    "terminal" or "asian"; score-based estimators refuse the latter.
    """

    lambda0: float
    lambdas: np.ndarray
    states: np.ndarray
    payoffs: np.ndarray
    randomizer: Randomizer | None = None
    state_kind: str = "terminal"

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        z = np.atleast_1d(np.asarray(self.states, dtype=float))
        phi = np.atleast_1d(np.asarray(self.payoffs, dtype=float))
        if not (lam.shape == z.shape == phi.shape) or lam.ndim != 1:
            raise DimensionMismatch("lambdas, states and payoffs must be equal-length 1-d arrays")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "states", z)
        object.__setattr__(self, "payoffs", phi)
        if self.state_kind not in ("terminal", "asian"):
            raise ValueError(f"unknown state_kind {self.state_kind!r}")
        if self.randomizer is not None and lam.size:
            _require_support(self.lambda0 - lam, self.randomizer)

    @property
    def n(self) -> int:
        return int(self.lambdas.size)


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth and randomizer shared by the kernel estimators."""

    kernel: Kernel
    bandwidth: float
    randomizer: Randomizer | None = None
    second_kernel: Kernel | None = None
    antithetic: bool = False


@dataclass(frozen=True)
class Estimate:
    """One point estimate with its provenance."""

    value: float
    n_samples: int
    estimator_id: str


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference layout: alpha = 0 backward, 0.5 centered, 1 forward."""

    alpha: float
    bump: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.bump < math.inf:
            raise DegenerateBump(f"bump must be positive and finite, got {self.bump!r}")


def _require_support(offsets: np.ndarray, randomizer: Randomizer) -> None:
    """Raise unless every offset lambda0 - Lambda_i lies in the support."""
    # the largest |offset|, without a temporary; np.max and np.min propagate
    # a NaN offset, which then fails the test
    largest = np.maximum(np.max(offsets), -np.min(offsets))
    if not largest <= randomizer.epsilon * (1.0 + 1e-12):
        raise OutsideSupport("a draw lies outside the randomizer support or is not finite")


def _require_draws(samples: SampleSet) -> None:
    if samples.n == 0:
        raise EmptySample("sample set has no draws")


def _require_bandwidth(h: float) -> float:
    if not np.isfinite(h) or h <= 0.0:
        raise DegenerateBandwidth(f"bandwidth must be positive, got {h!r}")
    return float(h)


def _resolve_randomizer(gen: Randomizer | None, config: EstimatorConfig) -> Randomizer:
    """The config's randomizer, else the generating one ``gen``; both must agree."""
    cand = config.randomizer if config.randomizer is not None else gen
    if cand is None:
        raise RandomizerMismatch("no randomizer available on the config or the sample set")
    if gen is not None and (
        gen.kind != cand.kind
        or abs(gen.epsilon - cand.epsilon) > 1e-12 * max(1.0, gen.epsilon)
        or abs(gen.theta - cand.theta) > 1e-12 * max(1.0, abs(gen.theta))
    ):
        raise RandomizerMismatch(
            f"config randomizer {cand} disagrees with the generating one {gen}"
        )
    return cand


def _finite(values, estimator_id: str):
    """The values, after checking that every one is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteEstimate(f"{estimator_id} produced a non-finite value")
    return values


@dataclass(frozen=True)
class _KernelSum:
    """One single-kernel formula whose checks have passed: with u = offsets / h
    and the draws along the last axis, the rows

        sum(phi * (K(u) * tilt[0] * tilt[1] ... + K'(u))) / (ell0 * N * h * h),

    or, with ``tilt`` None, 2 eps * sum(phi * K'(u)) / (N * h * h). hat and
    check take the tilt (h, grad log ell), exponential (theta h,) and uniform
    none. Every row is reduced in the same operation order as a single (N,)
    sample set, so a (B, N) block gives the same bits as B separate calls,
    and equal formulas give equal bits on the same terms.
    """

    h: float
    tilt: tuple | None = None
    ell0: float = 1.0
    eps: float = 0.0

    def rows(self, payoffs, grad, value, out=None) -> np.ndarray:
        """The rows from K'(u) in ``grad`` and K(u) in ``value`` (unused
        without a tilt). ``out`` may be the one of them that the formula
        reads last, K(u) with a tilt and K'(u) without, which it then
        overwrites; otherwise both are left as they are."""
        n = payoffs.shape[-1]
        if self.tilt is None:
            terms = np.multiply(grad, payoffs, out=out)
            return 2.0 * self.eps * np.sum(terms, axis=-1) / (n * self.h * self.h)
        first, *rest = self.tilt
        terms = np.multiply(value, first, out=out)
        for factor in rest:
            terms *= factor
        terms += grad
        terms *= payoffs
        return np.sum(terms, axis=-1) / (self.ell0 * n * self.h * self.h)


def _kernel_terms(kernel: Kernel, h: float, offsets, values: bool, out=None) -> tuple:
    """K'(u) and, when ``values``, K(u) (else None) at u = offsets / h. u goes
    into ``out``, which may be ``offsets`` itself, else into a temporary
    that is dropped before the terms are returned."""
    u = np.divide(offsets, h, out=out)
    return kernel.gradient(u), kernel(u) if values else None


def _kernel_sum_rows(kernel: Kernel, formula: _KernelSum, payoffs, offsets) -> np.ndarray:
    """``formula`` on its own kernel terms; it overwrites ``offsets`` and the
    terms."""
    grad, value = _kernel_terms(kernel, formula.h, offsets, formula.tilt is not None, offsets)
    return formula.rows(payoffs, grad, value, out=grad if value is None else value)


# The *_sum functions below run an estimator's checks and return its
# formula. They take the offsets lambda0 - Lambda_i with the draws along the
# last axis. The public estimators reduce one row with the formula; the
# harness shares the kernel terms of a block among its estimators.


def _single_kernel_sum(gen: Randomizer | None, config: EstimatorConfig, offsets) -> _KernelSum:
    h = _require_bandwidth(config.bandwidth)
    r = _resolve_randomizer(gen, config)
    if gen is None:  # no generating randomizer checked these draws
        _require_support(offsets, r)
    # the log-density gradient is constant on the support, so its value at
    # each drawn offset is its value at 0
    return _KernelSum(h, (h, r.grad_log_density(0.0)), ell0=r.density_at_zero())


def _single_kernel(samples: SampleSet, config: EstimatorConfig, tag: str) -> Estimate:
    _require_draws(samples)
    offsets = samples.lambda0 - samples.lambdas
    formula = _single_kernel_sum(samples.randomizer, config, offsets)
    value = _kernel_sum_rows(config.kernel, formula, samples.payoffs, offsets)
    return Estimate(float(_finite(value, tag)), samples.n, tag)


def estimate_single_kernel_hat(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Kernel estimator with the log-density gradient at each drawn offset.

    Both randomizer families have a constant gradient on the support, so
    this is :func:`estimate_single_kernel_check` bit for bit.
    """
    return _single_kernel(samples, config, tag="hat")


def estimate_single_kernel_check(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Kernel estimator with the log-density gradient frozen at offset 0."""
    return _single_kernel(samples, config, tag="check")


def _coupled_epsilon(gen: Randomizer | None, kernel: Kernel, h: float, kind: str) -> float:
    """Support radius for the optimized estimators; must cover M*h."""
    needed = kernel.support_radius * h
    if gen is None:
        return needed
    if gen.kind != kind:
        raise RandomizerMismatch(f"samples were drawn with {gen.kind!r}, estimator wants {kind!r}")
    if gen.epsilon < needed * (1.0 - 1e-12):
        raise RandomizerMismatch(
            f"generating epsilon {gen.epsilon} is below the kernel window {needed}"
        )
    return gen.epsilon


def _uniform_sum(gen: Randomizer | None, kernel: Kernel, bandwidth: float) -> _KernelSum:
    h = _require_bandwidth(bandwidth)
    return _KernelSum(h, eps=_coupled_epsilon(gen, kernel, h, "uniform"))


def estimate_uniform_opt(samples: SampleSet, kernel: Kernel, bandwidth: float) -> Estimate:
    """Optimized uniform-randomization estimator, support coupled as eps = M h."""
    _require_draws(samples)
    formula = _uniform_sum(samples.randomizer, kernel, bandwidth)
    value = _kernel_sum_rows(kernel, formula, samples.payoffs, samples.lambda0 - samples.lambdas)
    return Estimate(float(_finite(value, "uniform")), samples.n, "uniform")


def _exponential_sum(
    gen: Randomizer | None, kernel: Kernel, bandwidth: float, theta: float | None
) -> _KernelSum:
    h = _require_bandwidth(bandwidth)
    if theta is None:
        if gen is None:
            raise RandomizerMismatch("theta not given and the sample set carries no randomizer")
        theta = gen.theta
    kind = "uniform" if (gen is not None and gen.kind == "uniform") else "truncexp"
    if kind == "uniform" and theta != 0.0:
        raise RandomizerMismatch("uniform samples require theta = 0")
    if gen is not None and abs(gen.theta - theta) > 1e-12 * max(1.0, abs(theta)):
        raise RandomizerMismatch(f"theta {theta} disagrees with the generating tilt {gen.theta}")
    eps = _coupled_epsilon(gen, kernel, h, kind)
    ell0 = Randomizer(kind="truncexp", epsilon=eps, theta=theta).density_at_zero()
    return _KernelSum(h, (theta * h,), ell0=ell0)


def estimate_exponential_opt(
    samples: SampleSet, kernel: Kernel, bandwidth: float, theta: float | None = None
) -> Estimate:
    """Optimized exponential-randomization estimator; theta = 0 is the uniform one."""
    _require_draws(samples)
    formula = _exponential_sum(samples.randomizer, kernel, bandwidth, theta)
    value = _kernel_sum_rows(kernel, formula, samples.payoffs, samples.lambda0 - samples.lambdas)
    return Estimate(float(_finite(value, "exponential")), samples.n, "exponential")


def estimate_double_kernel(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Score plug-in estimator with leave-one-out kernel density ratios.

    For each draw the joint density of (Lambda, Z) and its
    Lambda-derivative are estimated from the other draws with the kernel
    pair (K, H), their ratio plus the log-density correction approximates
    the score, and the usual localized average is returned. Draws whose
    density estimate falls below 1e-12 * h^-2 are dropped.

    When both kernels are polynomials the window sums come from exact
    moment range sums in O(N log^2 N); custom kernels use the direct
    pairwise sweep. The two agree up to roundoff.
    """
    second = config.second_kernel
    polynomial = config.kernel.coeffs is not None and second is not None and second.coeffs is not None
    pair_sums = _double_kernel_moments if polynomial else _double_kernel_direct
    return _double_kernel(samples, config, pair_sums)[0]


def _double_kernel(samples: SampleSet, config: EstimatorConfig, pair_sums) -> tuple[Estimate, int]:
    """The double-kernel estimate and the number of draws dropped under the
    density floor, with the window sums taken by ``pair_sums``."""
    _require_draws(samples)
    if samples.n < 2:
        raise InsufficientSamples("leave-one-out estimation needs at least two draws")
    if config.second_kernel is None:
        raise MissingSecondKernel("double-kernel estimation needs a state-dimension kernel")
    h = _require_bandwidth(config.bandwidth)
    kernel, second = config.kernel, config.second_kernel
    r = _resolve_randomizer(samples.randomizer, config)
    n = samples.n

    order = np.argsort(samples.states, kind="stable")
    lam = samples.lambdas[order]
    z = samples.states[order]
    phi = samples.payoffs[order]
    # a draw with a non-finite parameter or state is in no kernel window,
    # not even its own, and is dropped
    finite = np.isfinite(lam) & np.isfinite(z)
    den, num = np.zeros(n), np.zeros(n)
    den[finite], num[finite] = pair_sums(lam[finite], z[finite], h, kernel, second)

    # remove the self pair, then apply the leave-one-out scalings
    den = (den - kernel(0.0) * second(0.0)) / ((n - 1) * h * h)
    num = (num - kernel.gradient(0.0) * second(0.0)) / ((n - 1) * h**3)

    keep = finite & (den >= DENSITY_FLOOR_SCALE / (h * h))
    score_hat = np.zeros(n)
    np.divide(num, den, out=score_hat, where=keep)
    score_hat += r.grad_log_density(samples.lambda0 - lam)
    weights = kernel((samples.lambda0 - lam) / h)
    total = float(np.sum(np.where(keep, phi * score_hat * weights, 0.0)))
    value = total / (r.density_at_zero() * n * h)
    return Estimate(float(_finite(value, "double")), n, "double"), int(n - np.count_nonzero(keep))


def _window_bounds(x: np.ndarray, h: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """For sorted x, the index range [lo, hi) of the j with
    |fl((x_i - x_j) / h)| <= radius, the test a kernel applies to its
    argument. The quotient is monotone in x_j, so the range is contiguous.
    A searchsorted on the rounded x_i -/+ radius * h can miss it by a value
    either way, so each bound is then moved one distinct value at a time
    until it agrees with the test.
    """
    n = x.size

    def inside(j):
        valid = (j >= 0) & (j < n)
        return valid & (np.abs((x - x[np.clip(j, 0, n - 1)]) / h) <= radius)

    lo = np.searchsorted(x, x - radius * h, side="left")
    hi = np.searchsorted(x, x + radius * h, side="right")
    while True:
        grow_lo, shrink_lo = inside(lo - 1), ~inside(lo)
        grow_hi, shrink_hi = inside(hi), ~inside(hi - 1)
        if not (grow_lo.any() or shrink_lo.any() or grow_hi.any() or shrink_hi.any()):
            return lo, hi
        lo = np.where(grow_lo, np.searchsorted(x, x[np.maximum(lo - 1, 0)], side="left"), lo)
        lo = np.where(shrink_lo, np.searchsorted(x, x[np.minimum(lo, n - 1)], side="right"), lo)
        hi = np.where(grow_hi, np.searchsorted(x, x[np.minimum(hi, n - 1)], side="right"), hi)
        hi = np.where(shrink_hi, np.searchsorted(x, x[np.maximum(hi - 1, 0)], side="left"), hi)


def _double_kernel_direct(lam, z, h, kernel, second) -> tuple[np.ndarray, np.ndarray]:
    """Sums of K(du) H(dz) and K'(du) H(dz) over each draw's state window,
    self pair included, by direct evaluation of every pair; z is sorted."""
    n = z.size
    lo, hi = _window_bounds(z, h, second.support_radius)
    den = np.empty(n)
    num = np.empty(n)
    a = 0
    while a < n:
        # rows a..b-1 span columns lo[a]..hi[b-1]; keep rows * columns in budget
        cap = min(n - a, max(1, _PAIR_BUDGET // int(hi[a] - lo[a])))
        cells = np.arange(1, cap + 1) * (hi[a : a + cap] - lo[a])
        b = a + max(1, int(np.searchsorted(cells, _PAIR_BUDGET, side="right")))
        ja, jb = lo[a], hi[b - 1]
        du = (lam[a:b, None] - lam[None, ja:jb]) / h
        hz = second((z[a:b, None] - z[None, ja:jb]) / h)
        den[a:b] = np.sum(kernel(du) * hz, axis=1)
        num[a:b] = np.sum(kernel.gradient(du) * hz, axis=1)
        a = b
    return den, num


def _shift_matrix(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """S with P(x - y) = sum_s (S @ [x^0 .. x^degree])_s * y^s for the
    polynomial P with ascending coefficients ``coeffs``."""
    shift = np.zeros((degree + 1, degree + 1))
    for s in range(degree + 1):
        for t in range(min(degree + 1 - s, len(coeffs) - s)):
            shift[s, t] = (-1) ** s * math.comb(s + t, s) * coeffs[s + t]
    return shift


def _double_kernel_moments(lam, z, h, kernel, second) -> tuple[np.ndarray, np.ndarray]:
    """The sums of :func:`_double_kernel_direct` from polynomial moments.

    Inside both windows K(du) H(dz) is a polynomial in the two points, so a
    draw's sum is a sum of monomials over the box of draws inside both
    windows. The draws are cut into lambda slabs of width 2 M h, so a
    lambda window meets at most two or three of them, and laid out by
    (slab, z); each window's part in one slab is a contiguous range of that
    layout. A merge-sort tree over the layout splits the range into at most
    two blocks per level. Inside a block the draws are ordered by lambda
    and carry prefix sums of the monomials, so the box is the difference of
    two prefixes.

    The monomials are taken about the block's own centre in both
    coordinates, in units of h, so every draw and query sits within 2 M of
    it. A global centre would put them up to epsilon / h away, and the
    binomial expansion of the order-6 kernel would cancel several digits.
    """
    n = z.size
    dk, dh = len(kernel.coeffs) - 1, len(second.coeffs) - 1
    width = (dk + 1) * (dh + 1)
    shift_k = _shift_matrix(kernel.coeffs, dk).T
    shift_grad = _shift_matrix(kernel._gradient_coeffs, dk).T
    shift_h = _shift_matrix(second.coeffs, dh).T

    def powers(offsets, degree):
        u = offsets / h
        out = np.empty((degree + 1, u.size))
        out[0] = 1.0
        for t in range(1, degree + 1):
            np.multiply(out[t - 1], u, out=out[t])
        return out.T

    by_lam = np.argsort(lam, kind="stable")
    lam_rank = np.empty(n, dtype=np.int64)
    lam_rank[by_lam] = np.arange(n)
    lam_lo, lam_hi = _window_bounds(lam[by_lam], h, kernel.support_radius)
    rank_lo, rank_hi = lam_lo[lam_rank], lam_hi[lam_rank]
    z_lo, z_hi = _window_bounds(z, h, second.support_radius)

    # slab numbers are monotone in lambda, so a window's slabs run from the
    # slab of its lowest-ranked member to that of its highest
    cut = np.floor((lam - lam.min()) / (2.0 * kernel.support_radius * h))
    slab = np.unique(cut, return_inverse=True)[1].astype(np.int64)
    layout = np.sort(slab * n + np.arange(n))
    draw_at = layout % n
    slab_sorted = slab[by_lam]
    first_slab = slab_sorted[rank_lo]
    span = slab_sorted[rank_hi - 1] - first_slab + 1
    # one piece per (draw, slab its lambda window meets)
    query = np.repeat(np.arange(n), span)
    piece_slab = first_slab[query] + np.arange(query.size) - np.repeat(np.cumsum(span) - span, span)
    left = np.searchsorted(layout, piece_slab * n + z_lo[query])
    right = np.searchsorted(layout, piece_slab * n + z_hi[query])

    den, num = np.zeros(n), np.zeros(n)
    rows = max(1, _PAIR_BUDGET // width)
    level = 0
    while np.any(left < right):
        # a range [left, right) of blocks takes block left when left is odd
        # and block right - 1 when right is odd, then halves to the next level
        active = left < right
        take_left = np.flatnonzero(active & (left % 2 == 1))
        take_right = np.flatnonzero(active & (right % 2 == 1))
        taken = np.concatenate([take_left, take_right])
        node = np.concatenate([left[take_left], right[take_right] - 1])
        size = 1 << level
        blocks = np.arange(n) >> level
        # key encodes (block, lambda rank): the draws of each block in lambda order
        key = np.sort(blocks * n + lam_rank[draw_at])
        members = by_lam[key % n]
        first = np.arange(0, n, size)
        last = np.minimum(first + size, n) - 1
        lam_c = 0.5 * (lam[members[first]] + lam[members[last]])
        z_c = 0.5 * (z[draw_at[first]] + z[draw_at[last]])
        # exclusive prefix sums per block: block k owns rows k*(size+1) onward
        prefix = np.zeros((first.size, size + 1, width))
        flat = prefix.reshape(-1, width)
        for a in range(0, n, rows):
            m, b = members[a : a + rows], blocks[a : a + rows]
            mono = powers(lam[m] - lam_c[b], dk)[:, :, None] * powers(z[m] - z_c[b], dh)[:, None, :]
            flat[np.arange(a, a + m.size) + b + 1] = mono.reshape(-1, width)
        np.cumsum(prefix, axis=1, out=prefix)
        for a in range(0, taken.size, rows):
            q, k = query[taken[a : a + rows]], node[a : a + rows]
            lo_rows = np.searchsorted(key, k * n + rank_lo[q]) + k
            hi_rows = np.searchsorted(key, k * n + rank_hi[q]) + k
            box = (flat[hi_rows] - flat[lo_rows]).reshape(-1, dk + 1, dh + 1)
            inner = np.einsum("isr,ir->is", box, powers(z[q] - z_c[k], dh) @ shift_h)
            lam_pow = powers(lam[q] - lam_c[k], dk)
            den += np.bincount(q, np.einsum("is,is->i", lam_pow @ shift_k, inner), n)
            num += np.bincount(q, np.einsum("is,is->i", lam_pow @ shift_grad, inner), n)
        left[take_left] += 1
        right[take_right] -= 1
        left >>= 1
        right >>= 1
        level += 1
    return den, num


def estimate_oracle_score(
    samples: SampleSet,
    model: GbmParams,
    config: EstimatorConfig | None = None,
    localized: bool = False,
) -> Estimate:
    """Score-weighted references for the terminal-state model.

    The default is the likelihood-ratio average (1/N) sum phi(Z_i)
    s(lambda0, Z_i), meant for draws at the fixed spot. With
    ``localized=True`` the score is evaluated at each randomized spot and
    the sum is kernel-localized like the other estimators, which needs a
    config.
    """
    _require_draws(samples)
    if not localized:
        value = _likelihood_ratio_rows(
            model, samples.state_kind, samples.lambda0, samples.states, samples.payoffs
        )
        return Estimate(float(_finite(value, "lr")), samples.n, "lr")
    _require_score(samples.state_kind)
    law = lognormal_params(model)
    if config is None:
        raise ValueError("localized score estimation needs an EstimatorConfig")
    h = _require_bandwidth(config.bandwidth)
    r = _resolve_randomizer(samples.randomizer, config)
    svals = law_standardized_d(law, samples.lambdas, samples.states) / samples.lambdas
    weights = config.kernel((samples.lambda0 - samples.lambdas) / h)
    value = float(np.sum(samples.payoffs * svals * weights)) / (
        r.density_at_zero() * samples.n * h
    )
    return Estimate(float(_finite(value, "oracle")), samples.n, "oracle")


def _require_score(state_kind: str) -> None:
    if state_kind != "terminal":
        raise ScoreUnavailable("no closed-form score for the averaged state")


def _likelihood_ratio_rows(model: GbmParams, state_kind: str, lambda0: float, states, payoffs):
    """The likelihood-ratio averages (1/N) sum phi(Z_i) s(lambda0, Z_i) over
    the last axis of draws made at the fixed spot lambda0."""
    _require_score(state_kind)
    law = lognormal_params(model)
    svals = law_standardized_d(law, lambda0, states) / lambda0
    return np.mean(payoffs * svals, axis=-1)


def estimate_finite_difference(
    model: GbmParams,
    payoff: Payoff,
    fd: FdConfig,
    gauss: np.ndarray,
    asian: AsianConfig | None = None,
) -> Estimate:
    """Bump-and-reprice estimator driven by shared normal draws.

    ``gauss`` has shape (N,) for the terminal state or (N, steps) for the
    averaged one; the same row drives both bumped spots, so smooth payoffs
    cancel pathwise.
    """
    gauss = np.asarray(gauss, dtype=float)
    n = gauss.shape[0] if gauss.ndim else 0
    if n == 0:
        raise EmptySample("no gaussian draws supplied")
    if asian is None:
        if gauss.ndim != 1:
            raise DimensionMismatch("terminal state expects a flat gaussian array")
        base = simulate_terminal(model, gauss, spot=1.0)
    else:
        base = np.atleast_1d(simulate_asian(model, asian, gauss, spot=1.0))
    value = _finite_difference_rows(model, payoff, fd, base)
    return Estimate(float(_finite(value, "fd")), base.size, "fd")


def _finite_difference_rows(model: GbmParams, payoff: Payoff, fd: FdConfig, base):
    """Bump-and-reprice from the unit-spot states ``base``, draws along the
    last axis: states are linear in the spot, so both bumped spots scale
    the same ``base``."""
    up = model.spot + fd.alpha * fd.bump
    down = model.spot - (1.0 - fd.alpha) * fd.bump
    if down <= 0.0:
        raise DegenerateBump(f"downward bump crosses zero spot: {down}")
    return np.mean(payoff(up * base) - payoff(down * base), axis=-1) / fd.bump
