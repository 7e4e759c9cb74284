"""Delta estimators built on parameter randomization.

Every estimator here consumes a :class:`SampleSet` of randomized draws
(Lambda_i, Z_i, phi(Z_i)) around the query spot lambda0 and returns a
point estimate of d/dx E[phi(Z^x)] at lambda0. None of them differentiate
the payoff, which is the point: the digital call works as-is.

Estimator menu
--------------
- ``estimate_single_kernel_hat`` / ``estimate_single_kernel_check`` /
  ``estimate_uniform_opt`` / ``estimate_exponential_opt``: entry points
  to one formula, sum phi(Z_i) (K'(u_i) + theta h K(u_i)) / (ell(0) N h^2)
  with u_i = (lambda0 - Lambda_i) / h, built and checked by
  :func:`_formula`. The randomizers form one tilted exponential family
  whose log-density gradient theta is constant on the support; theta = 0
  is the uniform randomizer. hat and check read theta from the randomizer,
  so they agree bit for bit; uniform (theta = 0) and exponential couple
  the support to the kernel window, epsilon = M h. A formula depends only
  on epsilon, theta and h, so at theta = 0 they are one, reading no K(u).
- ``estimate_double_kernel``: plugs a leave-one-out kernel estimate of
  the score into the localized regression; needs a second kernel acting
  in the state dimension.
- ``estimate_oracle_score``: the likelihood-ratio average at fixed spot,
  the reference of lr.
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

#: a level of the double-kernel merge-sort tree whose row of one draw per
#: block holds at least this many elements makes the additions of its prefix
#: sums a row at a time, which costs less than np.cumsum there
_PREFIX_ROW = 256


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


def _resolve_randomizer(gen: Randomizer | None, given: Randomizer | None) -> Randomizer:
    """The ``given`` randomizer, else the generating one ``gen``; both must agree."""
    cand = given if given is not None else gen
    if cand is None:
        raise RandomizerMismatch("no randomizer available on the config or the sample set")
    if gen is not None and (
        abs(gen.epsilon - cand.epsilon) > 1e-12 * max(1.0, gen.epsilon)
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
    """A single-kernel formula whose checks have passed (:func:`_formula`):
    with u = offsets / h and the draws along the last axis, the rows

        sum(phi * (K'(u) + tilt * K(u))) / (ell0 * N * h * h),

    with tilt = theta h and ell0 = ell(0) of the randomizer, so uniform is
    tilt 0 and then reads no K(u). :meth:`sum` adds up the terms of some
    draws of each row and :meth:`finish` scales a row's sum by its N, so a
    row may be summed in pieces. Every row is reduced in the same operation
    order as a single (N,) sample set, so a (B, N) block gives the same
    bits as B separate calls, and equal formulas give equal bits on the
    same terms.
    """

    h: float
    tilt: float
    ell0: float

    def sum(self, payoffs, grad, value, out=None) -> np.ndarray:
        """The sums over the last axis of the terms from K'(u) in ``grad``
        and K(u) in ``value`` (unread, and may be None, when the tilt is 0).
        ``out`` may be the one of them that the formula reads last, K(u)
        with a tilt and K'(u) without, which it then overwrites; otherwise
        both are left as they are."""
        if not self.tilt:
            return np.sum(np.multiply(grad, payoffs, out=out), axis=-1)
        terms = np.multiply(value, self.tilt, out=out)
        terms += grad
        terms *= payoffs
        return np.sum(terms, axis=-1)

    def finish(self, total, n: int):
        """The rows from the sums ``total`` of rows of n draws."""
        return total / (self.ell0 * n * self.h * self.h)


def _kernel_sums(kernel: Kernel, formula: _KernelSum, payoffs, offsets, out=None) -> np.ndarray:
    """The row sums of ``formula`` over the last axis of the draws at
    ``offsets`` lambda0 - Lambda_i: u = offsets / h, K'(u) and, only with a
    tilt, K(u), which the sum then overwrites. u goes into ``out``, which
    may be ``offsets`` itself, else into a temporary that is dropped before
    the terms are summed."""
    u = np.divide(offsets, formula.h, out=out)
    grad = kernel.gradient(u)
    value = kernel(u) if formula.tilt else None
    del u
    return formula.sum(payoffs, grad, value, out=grad if value is None else value)


def _formula(
    eid: str,
    gen: Randomizer | None,
    kernel: Kernel,
    bandwidth: float,
    randomizer: Randomizer | None = None,
    theta: float | None = None,
    offsets=None,
) -> _KernelSum:
    """The checked formula of the single-kernel estimator ``eid`` (hat,
    check, uniform or exponential) of draws made with the generating
    randomizer ``gen``, None if unknown; raises the estimator's error if a
    check fails.

    Each estimator decides a randomizer r, and its formula is
    ``_KernelSum(h, r.theta * h, r.density_at_zero())``, so it depends on
    r's epsilon and theta (0 for the uniform randomizer) and on h alone.
    hat and check take ``randomizer`` when given, else ``gen``, and check
    the ``offsets`` lambda0 - Lambda_i against its support when no ``gen``
    did; their tilt is theta_r, the log-density gradient. uniform and
    exponential couple the support to the kernel window, epsilon = M h, or
    take gen's epsilon if it covers it; uniform is theta = 0, exponential
    takes ``theta``, else gen's, and either must agree with gen's tilt.
    """
    h = _require_bandwidth(bandwidth)
    if eid in ("hat", "check"):
        r = _resolve_randomizer(gen, randomizer)
        if gen is None:  # no generating randomizer checked these draws
            _require_support(offsets, r)
        return _KernelSum(h, r.theta * h, r.density_at_zero())
    if eid == "uniform":
        theta = 0.0
    elif theta is None:
        if gen is None:
            raise RandomizerMismatch("theta not given and the sample set carries no randomizer")
        theta = gen.theta
    eps = kernel.support_radius * h
    if gen is not None:
        if abs(gen.theta - theta) > 1e-12 * max(1.0, abs(theta)):
            raise RandomizerMismatch(f"theta {theta} disagrees with the generating tilt {gen.theta}")
        if gen.epsilon < eps * (1.0 - 1e-12):
            raise RandomizerMismatch(
                f"generating epsilon {gen.epsilon} is below the kernel window {eps}"
            )
        eps = gen.epsilon
    r = Randomizer("truncexp" if theta else "uniform", eps, theta)
    return _KernelSum(h, r.theta * h, r.density_at_zero())


def _kernel_estimate(
    eid: str,
    samples: SampleSet,
    kernel: Kernel,
    bandwidth: float,
    randomizer: Randomizer | None = None,
    theta: float | None = None,
) -> Estimate:
    """The single-kernel estimate ``eid`` of ``samples`` by its
    :func:`_formula`."""
    _require_draws(samples)
    offsets = samples.lambda0 - samples.lambdas
    formula = _formula(eid, samples.randomizer, kernel, bandwidth, randomizer, theta, offsets)
    # u = offsets / h overwrites the offsets
    total = _kernel_sums(kernel, formula, samples.payoffs, offsets, offsets)
    return Estimate(float(_finite(formula.finish(total, samples.n), eid)), samples.n, eid)


def estimate_single_kernel_hat(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Kernel estimator with the log-density gradient at each drawn offset.

    Both randomizer families have a constant gradient on the support, so
    this is :func:`estimate_single_kernel_check` bit for bit.
    """
    return _kernel_estimate("hat", samples, config.kernel, config.bandwidth, config.randomizer)


def estimate_single_kernel_check(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Kernel estimator with the log-density gradient frozen at offset 0."""
    return _kernel_estimate("check", samples, config.kernel, config.bandwidth, config.randomizer)


def estimate_uniform_opt(samples: SampleSet, kernel: Kernel, bandwidth: float) -> Estimate:
    """Optimized uniform-randomization estimator, support coupled as eps = M h."""
    return _kernel_estimate("uniform", samples, kernel, bandwidth)


def estimate_exponential_opt(
    samples: SampleSet, kernel: Kernel, bandwidth: float, theta: float | None = None
) -> Estimate:
    """Optimized exponential-randomization estimator; theta = 0 is the uniform one."""
    return _kernel_estimate("exponential", samples, kernel, bandwidth, theta=theta)


def estimate_double_kernel(samples: SampleSet, config: EstimatorConfig) -> Estimate:
    """Score plug-in estimator with leave-one-out kernel density ratios.

    For each draw the joint density of (Lambda, Z) and its
    Lambda-derivative are estimated from the other draws with the kernel
    pair (K, H), their ratio plus the log-density correction approximates
    the score, and the usual localized average is returned. Draws whose
    density estimate falls below 1e-12 * h^-2 are dropped.

    A draw adds phi(Z_i) s_i K((lambda0 - Lambda_i) / h), which is 0 when
    its payoff or its weight is, so only the other draws ask for window
    sums; every draw stays in the windows. The sums come from exact moment
    range sums in O(N log^2 N); they agree up to roundoff with the direct
    pairwise sweep.
    """
    return _double_kernel(samples, config, _double_kernel_moments)[0]


def _double_kernel(samples: SampleSet, config: EstimatorConfig, pair_sums) -> tuple[Estimate, int]:
    """The double-kernel estimate and the number of dropped draws, with the
    window sums taken by ``pair_sums``.

    The dropped draws are those whose parameter or state is not finite,
    plus the contributing draws (phi(Z_i) and K((lambda0 - Lambda_i) / h)
    both non-zero, or phi(Z_i) not finite) whose density estimate falls
    under the floor. A draw that does not contribute is not counted,
    whatever its density.
    """
    _require_draws(samples)
    if samples.n < 2:
        raise InsufficientSamples("leave-one-out estimation needs at least two draws")
    if config.second_kernel is None:
        raise MissingSecondKernel("double-kernel estimation needs a state-dimension kernel")
    h = _require_bandwidth(config.bandwidth)
    kernel, second = config.kernel, config.second_kernel
    r = _resolve_randomizer(samples.randomizer, config.randomizer)
    n = samples.n

    order, z = _sorted_order(samples.states)
    lam = samples.lambdas[order]
    phi = samples.payoffs[order]
    offsets = samples.lambda0 - lam
    if samples.randomizer is None:  # no generating randomizer checked these draws
        _require_support(offsets, r)
    weights = kernel(offsets / h)
    # a draw with a non-finite parameter or state is in no kernel window,
    # not even its own, and is dropped; of the others, only those whose term
    # phi * score * K need not be 0 (phi and K non-zero, or phi not finite)
    # ask for their window sums
    finite = np.isfinite(lam) & np.isfinite(z)
    if not finite.any():
        raise NonFiniteEstimate("double: no draw has a finite parameter and state")
    asked = finite & (((phi != 0.0) & (weights != 0.0)) | ~np.isfinite(phi))
    den, num = pair_sums(lam[finite], z[finite], h, kernel, second, np.flatnonzero(asked[finite]))

    # remove the self pair, then apply the leave-one-out scalings
    den = (den - kernel(0.0) * second(0.0)) / ((n - 1) * h * h)
    num = (num - kernel.gradient(0.0) * second(0.0)) / ((n - 1) * h**3)

    keep = den >= DENSITY_FLOOR_SCALE / (h * h)
    kept = np.flatnonzero(asked)[keep]
    # the log-density gradient is theta on the support
    score_hat = num[keep] / den[keep] + r.theta
    # every term at its draw's place, so the sum adds them in the order of
    # a sum over all draws
    terms = np.zeros(n)
    terms[kept] = phi[kept] * score_hat * weights[kept]
    value = float(np.sum(terms)) / (r.density_at_zero() * n * h)
    dropped = n - np.count_nonzero(finite) + den.size - kept.size
    return Estimate(float(_finite(value, "double")), n, "double"), int(dropped)


def _sorted_order(x: np.ndarray) -> tuple:
    """The indices that sort x with ties in index order, and x sorted. An
    unstable sort is several times faster and gives that order unless two
    values are equal or NaN, which never compares equal and sorts last."""
    order = np.argsort(x)
    ordered = x[order]
    if np.isnan(ordered[-1]) or np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(x, kind="stable")
        ordered = x[order]
    return order, ordered


def _window_bounds(x: np.ndarray, h: float, radius: float, at: np.ndarray) -> tuple:
    """For sorted x and each index i in ``at``, the index range [lo, hi) of
    the j with |fl((x_i - x_j) / h)| <= radius, the test a kernel applies to
    its argument. The quotient is monotone in x_j, so the range is
    contiguous.
    A searchsorted on the rounded x_i -/+ radius * h can miss it by a value
    either way, so each bound is then moved one distinct value at a time
    until it agrees with the test.
    """
    n = x.size
    centre = x[at]
    lo = np.searchsorted(x, centre - radius * h, side="left")
    hi = np.searchsorted(x, centre + radius * h, side="right")
    # the test at lo - 1, lo, hi - 1 and hi, which a right range fails,
    # passes, passes and fails
    expect = np.array([[False], [True], [True], [False]])
    while True:
        j = np.stack([lo - 1, lo, hi - 1, hi])
        inside = (j >= 0) & (j < n)
        inside &= np.abs((centre - x[np.clip(j, 0, n - 1)]) / h) <= radius
        if np.array_equal(inside, np.broadcast_to(expect, inside.shape)):
            return lo, hi
        grow_lo, shrink_lo, shrink_hi, grow_hi = inside != expect
        lo = np.where(grow_lo, np.searchsorted(x, x[np.maximum(lo - 1, 0)], side="left"), lo)
        lo = np.where(shrink_lo, np.searchsorted(x, x[np.minimum(lo, n - 1)], side="right"), lo)
        hi = np.where(grow_hi, np.searchsorted(x, x[np.minimum(hi, n - 1)], side="right"), hi)
        hi = np.where(shrink_hi, np.searchsorted(x, x[np.maximum(hi - 1, 0)], side="left"), hi)


def _double_kernel_direct(lam, z, h, kernel, second, queries=None) -> tuple:
    """Sums of K(du) H(dz) and K'(du) H(dz) over the state window of each
    draw in ``queries`` (ascending indices; all draws when None), self
    pair included, by direct evaluation of every pair; z is sorted. The
    reference that :func:`_double_kernel_moments` is tested against."""
    rows = np.arange(z.size) if queries is None else queries
    lo, hi = _window_bounds(z, h, second.support_radius, rows)
    den = np.empty(rows.size)
    num = np.empty(rows.size)
    a = 0
    while a < rows.size:
        # rows a..b-1 span columns lo[a]..hi[b-1]; keep rows * columns in budget
        cap = min(rows.size - a, max(1, _PAIR_BUDGET // int(hi[a] - lo[a])))
        cells = np.arange(1, cap + 1) * (hi[a : a + cap] - lo[a])
        b = a + max(1, int(np.searchsorted(cells, _PAIR_BUDGET, side="right")))
        i, ja, jb = rows[a:b], lo[a], hi[b - 1]
        du = (lam[i, None] - lam[None, ja:jb]) / h
        hz = second((z[i, None] - z[None, ja:jb]) / h)
        den[a:b] = np.sum(kernel(du) * hz, axis=1)
        num[a:b] = np.sum(kernel.gradient(du) * hz, axis=1)
        a = b
    return den, num


def _row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, a row's bits independent of how many rows come with
    it: numpy takes a single row through a matrix-vector product, whose
    bits differ from the matrix product's, so a single row is doubled."""
    if rows.shape[0] == 1:
        return (np.repeat(rows, 2, axis=0) @ matrix)[:1]
    return rows @ matrix


def _shift_matrix(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """S with P(x - y) = sum_s (S @ [x^0 .. x^degree])_s * y^s for the
    polynomial P with ascending coefficients ``coeffs``."""
    shift = np.zeros((degree + 1, degree + 1))
    for s in range(degree + 1):
        for t in range(min(degree + 1 - s, len(coeffs) - s)):
            shift[s, t] = (-1) ** s * math.comb(s + t, s) * coeffs[s + t]
    return shift


def _double_kernel_moments(lam, z, h, kernel, second, queries=None) -> tuple:
    """The sums of :func:`_double_kernel_direct` from polynomial moments,
    for the draws ``queries`` (all draws when None) over all the draws.

    Inside both windows K(du) H(dz) is a polynomial in the two points, so a
    draw's sum is a sum of monomials over the box of draws inside both
    windows. The draws are cut into lambda slabs of width 2 M h, so a
    lambda window meets at most two or three of them, and laid out by
    (slab, z); each window's part in one slab is a contiguous range of that
    layout. A merge-sort tree over the layout splits the range into at most
    two blocks per level. Inside a block the draws are ordered by lambda
    and carry prefix sums of the monomials, so the box is the difference of
    two prefixes. Each level builds only the blocks that some query takes.

    A level is one pass of each kind over all its blocks and pieces: one
    sort orders every block's draws by lambda, the prefix sums are added
    draw by draw across the blocks, and a prefix row is searched for only
    when the rank bound falls between the block's lowest and highest rank;
    a bound at or below the lowest takes none of the block's draws and one
    above the highest takes all of them.

    The tree depends on the draws alone, and a query's pieces at one level
    are added by one bincount in a fixed order, so its sums have the same
    bits whichever other draws are queried, and however the work is cut
    into chunks.

    The monomials are taken about the block's own centre in both
    coordinates, in units of h, so every draw and query sits within 2 M of
    it. A global centre would put them up to epsilon / h away, and the
    binomial expansion of the order-6 kernel would cancel several digits.
    """
    n = z.size
    asked = np.arange(n) if queries is None else queries
    dk, dh = len(kernel.coeffs) - 1, len(second.coeffs) - 1
    width = (dk + 1) * (dh + 1)
    shift_k = _shift_matrix(kernel.coeffs, dk).T
    shift_grad = _shift_matrix(kernel._gradient_coeffs, dk).T
    shift_h = _shift_matrix(second.coeffs, dh).T

    def powers(x, centre, degree):
        """u^0 .. u^degree of u = (x - centre) / h, one power per row."""
        out = np.empty((degree + 1,) + x.shape)
        out[0] = 1.0
        if degree:
            np.subtract(x, centre, out=out[1])
            out[1] /= h
        for t in range(2, degree + 1):
            np.multiply(out[t - 1], out[1], out=out[t])
        return out

    by_lam, lam_sorted = _sorted_order(lam)
    lam_rank = np.empty(n, dtype=np.int64)
    lam_rank[by_lam] = np.arange(n)
    rank_lo, rank_hi = _window_bounds(lam_sorted, h, kernel.support_radius, lam_rank[asked])
    z_lo, z_hi = _window_bounds(z, h, second.support_radius, asked)

    # a pair of numbers up to n packs into one integer as a << bits | b
    bits = n.bit_length()
    low_bits = (1 << bits) - 1
    # slab numbers are monotone in lambda, so a window's slabs run from the
    # slab of its lowest-ranked member to that of its highest
    cut = np.floor((lam_sorted - lam_sorted[0]) / (2.0 * kernel.support_radius * h))
    slab_sorted = np.zeros(n, dtype=np.int64)
    np.cumsum(cut[1:] != cut[:-1], out=slab_sorted[1:])
    slab = np.empty(n, dtype=np.int64)
    slab[by_lam] = slab_sorted
    layout = np.sort(slab << bits | np.arange(n))
    draw_at = layout & low_bits
    first_slab = slab_sorted[rank_lo]
    span = slab_sorted[rank_hi - 1] - first_slab + 1
    # one piece per (query, slab its lambda window meets)
    query = np.repeat(np.arange(asked.size), span)
    piece_slab = first_slab[query] + np.arange(query.size) - np.repeat(np.cumsum(span) - span, span)
    left = np.searchsorted(layout, piece_slab << bits | z_lo[query])
    right = np.searchsorted(layout, piece_slab << bits | z_hi[query])

    # the lambda rank and the state of the draw at each layout position; the
    # positions past the last draw, which pad the last block of a level,
    # read rank n, which sorts after every rank, and a lambda and a state
    # that make finite monomials
    rank_at = np.append(lam_rank[draw_at], n)
    z_at = z[draw_at]
    lam_of = np.append(lam_sorted, lam_sorted[-1])
    z_of = np.append(z[by_lam], z[0])
    lam_q, z_q = lam[asked], z[asked]
    # the levels read only what is left
    del by_lam, lam_rank, lam_sorted, cut, slab, slab_sorted, layout, draw_at, piece_slab

    den, num = np.zeros(asked.size), np.zeros(asked.size)
    rows = max(1, _PAIR_BUDGET // width)
    for level in range(bits + 1):
        # a range [left, right) of blocks takes block left when left is odd
        # and block right - 1 when right is odd, then halves to the next
        # level; an empty range stays empty, and left & active is the
        # lowest bit of left where the range is not
        active = left < right
        if not active.any():
            break
        take_left = np.flatnonzero(left & active)
        take_right = np.flatnonzero(right & active)
        taken = np.concatenate([take_left, take_right])
        node = np.concatenate([left[take_left], right[take_right] - 1])
        left += 1
        left >>= 1
        right >>= 1
        if not taken.size:
            continue
        size = 1 << level
        # only the blocks that some piece takes are built, and node becomes
        # a block's place u among them; block u holds layout positions
        # start[u] .. stop[u] - 1, fewer than size only at the end of the
        # layout
        built = np.zeros(((n - 1) >> level) + 1, dtype=bool)
        built[node] = True
        built = np.flatnonzero(built)
        place = np.empty(((n - 1) >> level) + 1, dtype=np.int64)
        place[built] = np.arange(built.size)
        node = place[node]
        blocks = built.size
        start = built << level
        stop = np.minimum(start + size, n)
        # key packs (place, lambda rank): sorted, key[u * size :][:size]
        # holds block u's draws in lambda order, padding last
        key = np.take(rank_at, start[:, None] + np.arange(size), mode="clip")
        key |= (np.arange(blocks) << bits)[:, None]
        key = key.ravel()
        key.sort()
        rank = (key & low_bits).reshape(blocks, size)
        count = stop - start
        lowest, highest = rank[:, 0], rank[np.arange(blocks), count - 1]
        lam_c = 0.5 * (lam_of[lowest] + lam_of[highest])
        z_c = 0.5 * (z_at[start] + z_at[stop - 1])
        # inclusive prefix sums of the monomials after a row of zeros: the
        # prefix of block u's first t draws is row (t - 1) * blocks + u + 1,
        # so the rows of draw t of every block are contiguous
        flat = np.empty((1 + rank.size, width))
        flat[0] = 0.0
        prefix = flat[1:].reshape(size, blocks, width)
        down, across = max(1, rows // blocks), min(blocks, rows)
        for t in range(0, size, down):
            for u in range(0, blocks, across):
                r = rank[u : u + across, t : t + down].T
                lam_pow = powers(lam_of[r], lam_c[u : u + across], dk)
                z_pow = powers(z_of[r], z_c[u : u + across], dh)
                mono = (lam_pow[:, None] * z_pow[None, :]).reshape((width,) + r.shape)
                prefix[t : t + down, u : u + across] = np.moveaxis(mono, 0, -1)
        if blocks * width >= _PREFIX_ROW:
            # the additions of np.cumsum, a row of every block at a time
            for t in range(1, size):
                prefix[t] += prefix[t - 1]
        else:
            np.cumsum(prefix, axis=0, out=prefix)
        last = (count - 1) * blocks + np.arange(blocks) + 1

        def prefix_row(rank, low, high, end, k):
            # the row of the prefix below rank bound ``rank`` in block k
            below = rank <= low
            row = np.where(below, 0, end)
            inside = np.flatnonzero(~below & (rank <= high))
            k = k[inside]
            count = np.searchsorted(key, k << bits | rank[inside]) - (k << level)
            row[inside] = (count - 1) * blocks + k + 1
            return row

        piece_den, piece_num = np.empty(taken.size), np.empty(taken.size)
        owner = query[taken]
        for a in range(0, taken.size, rows):
            i, k = owner[a : a + rows], node[a : a + rows]
            low, high, end = lowest[k], highest[k], last[k]
            box = np.take(flat, prefix_row(rank_hi[i], low, high, end, k), axis=0)
            box -= np.take(flat, prefix_row(rank_lo[i], low, high, end, k), axis=0)
            z_pow = _row_products(powers(z_q[i], z_c[k], dh).T, shift_h)
            inner = np.einsum("isr,ir->is", box.reshape(-1, dk + 1, dh + 1), z_pow)
            lam_pow = powers(lam_q[i], lam_c[k], dk).T
            piece_den[a : a + rows] = np.einsum("is,is->i", _row_products(lam_pow, shift_k), inner)
            piece_num[a : a + rows] = np.einsum("is,is->i", _row_products(lam_pow, shift_grad), inner)
        # one bincount per level, so a query's pieces are added in one order
        den += np.bincount(owner, piece_den, asked.size)
        num += np.bincount(owner, piece_num, asked.size)
        # freed before the next level allocates its own
        del flat, prefix, key, rank
    return den, num


def estimate_oracle_score(samples: SampleSet, model: GbmParams) -> Estimate:
    """The likelihood-ratio average (1/N) sum phi(Z_i) s(lambda0, Z_i) for
    draws at the fixed spot of the terminal-state model."""
    _require_draws(samples)
    value = _likelihood_ratio_sum(
        model, samples.state_kind, samples.lambda0, samples.states, samples.payoffs
    ) / samples.n
    return Estimate(float(_finite(value, "lr")), samples.n, "lr")


def _require_score(state_kind: str) -> None:
    if state_kind != "terminal":
        raise ScoreUnavailable("no closed-form score for the averaged state")


def _likelihood_ratio_sum(model: GbmParams, state_kind: str, lambda0: float, states, payoffs):
    """The sums of phi(Z_i) s(lambda0, Z_i) over the last axis of draws made
    at the fixed spot lambda0; a row's likelihood-ratio average is its sum
    divided by its N."""
    _require_score(state_kind)
    law = lognormal_params(model)
    svals = law_standardized_d(law, lambda0, states) / lambda0
    return np.sum(payoffs * svals, axis=-1)


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
    value = _finite_difference_sum(model, payoff, fd, base) / base.size / fd.bump
    return Estimate(float(_finite(value, "fd")), base.size, "fd")


def _finite_difference_sum(model: GbmParams, payoff: Payoff, fd: FdConfig, base):
    """The sums of the repriced differences over the last axis of the
    unit-spot states ``base``: states are linear in the spot, so both bumped
    spots scale the same ``base``. A row's estimate is its sum divided by
    its N and then by the bump."""
    up = model.spot + fd.alpha * fd.bump
    down = model.spot - (1.0 - fd.alpha) * fd.bump
    if down <= 0.0:
        raise DegenerateBump(f"downward bump crosses zero spot: {down}")
    return np.sum(payoff(up * base) - payoff(down * base), axis=-1)
