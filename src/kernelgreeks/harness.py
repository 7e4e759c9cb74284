"""Replicated experiments: execution, references, summaries, rate fits.

This module turns one :class:`ExperimentConfig` into R independent
estimates on deterministic random streams, compares them against an
oracle reference (closed form where available, a tuned high-N finite
difference for the path-dependent state), and fits log-log convergence
rates over sample-size grids. Everything is reproducible bit for bit
from (config, seed) regardless of the worker count.
"""

from __future__ import annotations

import math
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import BandwidthChoice, PilotEstimates, select_bandwidth
from .errors import InsufficientReplications, NonPositiveVariance, RandomizerMismatch
from .estimators import (
    EstimatorConfig,
    FdConfig,
    SampleSet,
    estimate_double_kernel,
)
from .estimators import (
    _exponential_sum,
    _finite,
    _finite_difference_rows,
    _kernel_terms,
    _KernelSum,
    _likelihood_ratio_rows,
    _require_support,
    _single_kernel_sum,
    _uniform_sum,
)
from .kernels import Kernel, builtin_kernel
from .models import (
    AsianConfig,
    GbmParams,
    Payoff,
    asian_unit_averages,
    closed_form_digital_delta,
    closed_form_identity_delta,
    closed_form_vanilla_delta,
    simulate_terminal,
)
from .models import _pipelined_unit_averages
from .randomizers import Randomizer
from .rng import PILOT_OFFSET, STREAM_REFERENCE, rekey, replication_ids, stream, sweep_base

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "ExperimentSummary",
    "RateFit",
    "KERNEL_ESTIMATORS",
    "ESTIMATOR_IDS",
    "PILOT_N",
    "resolve_run",
    "CommonRun",
    "run_replications",
    "reference_value",
    "asian_fd_reference",
    "tune_fd_bump",
    "summarize",
    "kde_of_estimates",
    "kde_grid",
    "fit_loglog",
    "convergence_rate_fit",
]

#: estimators that smooth over a randomized parameter
KERNEL_ESTIMATORS = ("hat", "check", "uniform", "exponential", "double")

ESTIMATOR_IDS = KERNEL_ESTIMATORS + ("lr", "fd")

#: pilot draws used to select an automatic bandwidth
PILOT_N = 10_000

#: path count of the high-N finite-difference reference
REFERENCE_N = 10_000_000

#: paths per chunk when accumulating the reference
_REFERENCE_CHUNK = 200_000

#: candidate bumps for the reference, as fractions of spot
_FD_BUMP_FRACTIONS = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08)

#: array elements (rows x draws) per block of replications: a block of
#: max(1, _BLOCK_ELEMENTS // N) replications is evaluated in one pass over
#: (rows, N) arrays, which amortizes the per-call cost of numpy at small N.
#: Of 2^14 .. 2^17, 2^16 was fastest with two threads at N = 1000 .. 10^4
#: and within noise of the best with one (BENCH_replication_blocks.json).
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class ExperimentConfig:
    """One replication study, fully determined together with the seed.

    ``bandwidth`` is either the string "auto" (run the pilot pipeline
    before the main run) or a fixed positive value. ``theta`` is the
    exponential tilt; None lets the pilot optimize it in auto mode and
    means 0 otherwise. The uniform and exponential estimators force
    their own randomizer kind; hat/check/double follow
    ``randomizer_kind``.
    """

    model: GbmParams
    payoff: Payoff
    estimator_id: str
    asian: AsianConfig | None = None
    kernel_family: str = "p2"
    randomizer_kind: str = "uniform"
    bandwidth: float | str = "auto"
    theta: float | None = None
    n_samples: int = 100_000
    replications: int = 100
    seed: int = 12345
    antithetic: bool = False
    fd_alpha: float = 0.5
    fd_eps: float = 0.5

    def __post_init__(self):
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {self.estimator_id!r}")
        if self.n_samples < 1 or self.replications < 1:
            raise ValueError("need n_samples >= 1 and replications >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        # the replications of a run must fit in one block of stream ids
        replication_ids(0, self.replications)
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError("bandwidth must be 'auto' or a positive number")
            if self.estimator_id not in KERNEL_ESTIMATORS:
                raise ValueError("automatic bandwidth needs a kernel estimator")
        elif not 0.0 < self.bandwidth < math.inf:
            raise ValueError(f"fixed bandwidth must be positive and finite, got {self.bandwidth!r}")
        for name in ("theta", "fd_alpha", "fd_eps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.randomizer_kind not in ("uniform", "truncexp"):
            raise ValueError(f"unknown randomizer kind {self.randomizer_kind!r}")
        if self.antithetic:
            if self.estimator_id not in KERNEL_ESTIMATORS:
                raise ValueError("antithetic pairing applies to kernel estimators only")
            if self.n_samples % 2:
                raise ValueError("antithetic pairing needs an even n_samples")

    @property
    def effective_randomizer_kind(self) -> str:
        if self.estimator_id == "uniform":
            return "uniform"
        if self.estimator_id == "exponential":
            return "truncexp"
        return self.randomizer_kind


@dataclass(frozen=True)
class RunResult:
    """Replication estimates plus the resolved run parameters."""

    estimates: np.ndarray
    runtime_ms: np.ndarray
    h: float | None
    theta: float | None
    epsilon: float | None
    pilot: PilotEstimates | None = None
    choice: BandwidthChoice | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    """Replication statistics against a reference value."""

    estimates: np.ndarray
    mean: float
    bias: float
    variance: float
    mse: float
    stderr: float
    reference: float | None
    reference_source: str


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ln(mse) against ln(N)."""

    grid_N: np.ndarray
    log_mse: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    mse: np.ndarray
    h: tuple


@dataclass(frozen=True)
class _RunPlan:
    kernel: Kernel | None
    second_kernel: Kernel | None
    h: float | None
    theta: float | None
    randomizer: Randomizer | None
    pilot: PilotEstimates | None
    choice: BandwidthChoice | None


def _draw_states(cfg: ExperimentConfig, rng: np.random.Generator, n: int):
    """Draw the noise of n paths once; return the states at a given spot.

    The spot is a scalar or an (n,) array. Both states are linear in the
    spot. The averaged state is reduced to its (n,) unit-spot averages
    block by block, so its (n, steps) normals are never held at once.
    """
    if cfg.asian is None:
        gauss = rng.standard_normal(n)
        return lambda spot: simulate_terminal(cfg.model, gauss, spot=spot)
    unit = asian_unit_averages(cfg.model, cfg.asian, rng, n)
    return lambda spot: spot * unit


def resolve_run(cfg: ExperimentConfig, stream_base: int = 0) -> _RunPlan:
    """Fix kernel, bandwidth, tilt and randomizer before replicating.

    Automatic bandwidth runs the pilot pipeline once, on its own stream,
    so every replication sees the same resolved parameters.
    """
    if cfg.estimator_id not in KERNEL_ESTIMATORS:
        return _RunPlan(None, None, None, None, None, None, None)
    kernel = builtin_kernel(cfg.kernel_family)
    kind = cfg.effective_randomizer_kind
    if kind == "uniform" and cfg.theta not in (None, 0.0):
        raise RandomizerMismatch("a uniform randomizer cannot carry a tilt")
    pilot = choice = None
    if cfg.bandwidth == "auto":
        rng = stream(cfg.seed, stream_base + PILOT_OFFSET)
        states = _draw_states(cfg, rng, PILOT_N)(cfg.model.spot)
        mode = "uniform" if kind == "uniform" else "exponential"
        theta_arg = 0.0 if kind == "uniform" else cfg.theta
        pilot, choice = select_bandwidth(
            states, cfg.payoff, cfg.model.spot, kernel, mode, cfg.n_samples, theta=theta_arg
        )
        h, theta = choice.h_star, choice.theta_star
    else:
        h = float(cfg.bandwidth)
        theta = 0.0 if cfg.theta is None else float(cfg.theta)
    epsilon = kernel.support_radius * h
    if cfg.estimator_id == "double":
        # the leave-one-out density windows must stay inside the offset
        # support: with epsilon = M*h the support edge cuts through every
        # window and the estimated score picks up the smeared edge jump
        # (an O(1/h) ridge) instead of the model score. One extra kernel
        # radius keeps the windows of all outer-weighted draws clear.
        epsilon *= 2.0
    randomizer = Randomizer(kind=kind, epsilon=epsilon, theta=theta)
    second = kernel if cfg.estimator_id == "double" else None
    return _RunPlan(kernel, second, h, theta, randomizer, pilot, choice)


def _double_kernel_estimate(
    cfg: ExperimentConfig, plan: _RunPlan, lams: np.ndarray, states_at
) -> float:
    states = states_at(lams)
    phi = cfg.payoff(states)
    state_kind = "terminal" if cfg.asian is None else "asian"
    ss = SampleSet(
        lambda0=cfg.model.spot,
        lambdas=lams,
        states=states,
        payoffs=phi,
        randomizer=plan.randomizer,
        state_kind=state_kind,
    )
    ec = EstimatorConfig(
        kernel=plan.kernel,
        bandwidth=plan.h,
        randomizer=plan.randomizer,
        second_kernel=plan.second_kernel,
    )
    return estimate_double_kernel(ss, ec).value


def _one_replication(cfg: ExperimentConfig, plan: _RunPlan, stream_id: int) -> float:
    """Replication ``stream_id`` on its own. The double kernel does not
    reduce row by row and always runs here; every other estimator runs as
    a block of one row."""
    if cfg.estimator_id != "double":
        (values,) = _evaluate_block([(cfg, plan)], stream_id, *_worker_buffers(cfg, 1))
        if isinstance(values, Exception):
            raise values
        return float(values[0])
    rng = stream(cfg.seed, stream_id)
    spot = cfg.model.spot
    n = _draws_per_row(cfg)
    offsets = plan.randomizer.sample_offsets(rng.random(n))
    states_at = _draw_states(cfg, rng, n)
    value = _double_kernel_estimate(cfg, plan, spot - offsets, states_at)
    if not cfg.antithetic:
        return value
    mirrored = _double_kernel_estimate(cfg, plan, spot + offsets, states_at)
    return 0.5 * (value + mirrored)


def _draws_per_row(cfg: ExperimentConfig) -> int:
    """Draws of one replication: antithetic pairs share theirs."""
    return cfg.n_samples // 2 if cfg.antithetic else cfg.n_samples


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _worker_buffers(cfg: ExperimentConfig, rows: int) -> tuple:
    """One worker's generator and two (rows, n) buffers for a block's
    uniforms and unit-spot states. The generator is re-keyed before every
    draw."""
    shape = (rows, _draws_per_row(cfg))
    return stream(cfg.seed, 0), np.empty(shape), np.empty(shape)


def _evaluate_block(members, first_id: int, gen, draws, unit) -> list:
    """The estimates of replications first_id .. first_id + rows - 1 for each
    member (cfg, plan): a (rows,) array, or the exception that stopped it.

    The members agree on model, state, N, seed and antithetic pairing, so
    they share their draws. The block is evaluated once per draw layout,
    noise-only (fd, then lr) first: row j re-keys ``gen`` to stream first_id + j
    and draws the uniforms into ``draws`` (kernel estimators only), then the
    noise, reduced to unit-spot states in ``unit``. That is exactly what a
    lone replication draws, in the same order. Kernel estimators with equal
    randomizer and payoff share one pass of offsets, spots, states, payoffs
    and support check, and per kernel and h the kernel terms
    (:func:`_kernel_rows`); each further randomizer draws the uniforms again.
    Each member's rows are then reduced in the same operation order as a
    lone replication, so the estimates are the same bits. A failed check
    stops the members it concerns for the whole block.
    """
    cfg = members[0][0]
    spot = cfg.model.spot
    outcomes = [None] * len(members)
    for uniforms in (False, True):
        idx = [i for i, (_, p) in enumerate(members) if (p.randomizer is not None) == uniforms]
        if not idx:
            continue
        for j in range(unit.shape[0]):
            rng = rekey(gen, cfg.seed, first_id + j)
            if uniforms:
                rng.random(out=draws[j])
            if cfg.asian is None:
                rng.standard_normal(out=unit[j])
            else:
                asian_unit_averages(cfg.model, cfg.asian, rng, unit.shape[1], out=unit[j])
        if cfg.asian is None:
            # states are linear in the spot; these are the states at spot 1
            simulate_terminal(cfg.model, unit, spot=1.0, out=unit)
        if not uniforms:
            # fd only reads the states, so lr goes last and its last member
            # may scale them in place
            idx.sort(key=lambda i: members[i][0].estimator_id == "lr")
            for k, i in enumerate(idx):
                outcomes[i] = _attempt(_noise_rows, members[i][0], unit, k == len(idx) - 1)
            continue
        groups = {}
        for i in idx:
            groups.setdefault((members[i][1].randomizer, members[i][0].payoff), []).append(i)
        for g, ((randomizer, _), shared) in enumerate(groups.items()):
            if g:
                # the group before consumed the uniforms: draw them again,
                # which holds less memory than a copy kept for every group
                for j in range(unit.shape[0]):
                    rekey(gen, cfg.seed, first_id + j).random(out=draws[j])
            offsets = _attempt(randomizer.sample_offsets, draws, draws)
            if isinstance(offsets, Exception):
                values = [offsets] * len(shared)
            else:
                mirrored = offsets + spot if cfg.antithetic else None
                # the spots overwrite the offsets, which no longer serve
                lams = np.subtract(spot, offsets, out=offsets)
                values = _kernel_rows([members[i] for i in shared], lams, unit)
                live = [k for k, v in enumerate(values) if not isinstance(v, Exception)]
                if mirrored is not None and live:
                    other = _kernel_rows([members[shared[k]] for k in live], mirrored, unit)
                    for k, v in zip(live, other):
                        values[k] = v if isinstance(v, Exception) else 0.5 * (values[k] + v)
            for i, v in zip(shared, values):
                outcomes[i] = v
    return outcomes


def _noise_rows(cfg: ExperimentConfig, unit, consume: bool) -> np.ndarray:
    """The lr or fd estimates of the unit-spot states ``unit``, one per row;
    with ``consume``, lr overwrites ``unit`` with its states."""
    eid = cfg.estimator_id
    if eid == "fd":
        fd = FdConfig(alpha=cfg.fd_alpha, bump=cfg.fd_eps)
        return _finite(_finite_difference_rows(cfg.model, cfg.payoff, fd, unit), eid)
    spot = cfg.model.spot
    states = np.multiply(unit, spot, out=unit if consume else None)
    kind = "terminal" if cfg.asian is None else "asian"
    return _finite(_likelihood_ratio_rows(cfg.model, kind, spot, states, cfg.payoff(states)), eid)


def _kernel_rows(members, lams, unit) -> list:
    """Each member's single-kernel estimates of the draws at spots ``lams``,
    one per row, or the exception that stopped it; the members share
    randomizer and payoff. ``lams`` serves as scratch and is overwritten.

    Offsets, states, payoffs and the support check serve every member.
    Each member then runs its own checks, which yield its formula. Members
    with equal kernel and h share u = offsets / h, K'(u) and K(u), the
    latter only if a formula reads it; u is dropped before the formulas
    run, and the last such group takes it in place of the offsets. Equal
    formulas, as hat and check are, reduce once. The last formula to read
    K(u) and the last to read K'(u) (uniform, ordered last) overwrite it,
    so the members hold no more (rows, N) arrays at once than one alone.
    """
    cfg, plan = members[0]
    states = np.multiply(lams, unit)
    payoffs = cfg.payoff(states, out=states)
    offsets = np.subtract(cfg.model.spot, lams, out=lams)
    outside = _attempt(_require_support, offsets, plan.randomizer)
    if outside is not None:
        return [outside] * len(members)
    outcomes = [_attempt(_checked_formula, c, p, offsets) for c, p in members]
    # terms key -> (kernel, {formula: (formula, its members)}); repr tells a
    # tilt of -0.0 from 0.0, which == does not
    shared = {}
    for i, formula in enumerate(outcomes):
        if not isinstance(formula, Exception):
            kernel = members[i][1].kernel
            readers = shared.setdefault(_terms_key(kernel, formula.h), (kernel, {}))[1]
            readers.setdefault(repr(formula), (formula, []))[1].append(i)
    for g, (kernel, readers) in enumerate(shared.values()):
        groups = sorted(readers.values(), key=lambda group: group[0].tilt is None)
        formulas = [f for f, _ in groups]
        results = _shared_rows(kernel, formulas, payoffs, offsets, g == len(shared) - 1)
        for rows, (_, idx) in zip(results, groups):
            for i in idx:
                eid = members[i][0].estimator_id
                outcomes[i] = rows if isinstance(rows, Exception) else _attempt(_finite, rows, eid)
    return outcomes


def _shared_rows(kernel: Kernel, formulas: list, payoffs, offsets, consume: bool) -> list:
    """The rows of each of ``formulas``, which share h and list those with a
    tilt first, from one evaluation of the kernel terms; or the exception
    that stopped it. The last formula with a tilt overwrites K(u), and a
    last one without overwrites K'(u). With ``consume``, u = offsets / h
    overwrites the offsets."""
    tilted = sum(f.tilt is not None for f in formulas)
    u = offsets if consume else None
    terms = _attempt(_kernel_terms, kernel, formulas[0].h, offsets, tilted > 0, u)
    if isinstance(terms, Exception):
        return [terms] * len(formulas)
    grad, value = terms
    results = []
    for k, f in enumerate(formulas):
        if k == tilted - 1:
            out = value
        elif k == len(formulas) - 1 and k >= tilted:
            out = grad
        else:
            out = None
        results.append(_attempt(f.rows, payoffs, grad, value, out))
    return results


def _terms_key(kernel: Kernel, h: float) -> tuple:
    """What K(u) and K'(u) at u = offsets / h depend on."""
    coeffs = None if kernel.coeffs is None else kernel.coeffs.tobytes()
    return kernel.support_radius, coeffs, kernel.func, kernel.grad, h


def _checked_formula(cfg: ExperimentConfig, plan: _RunPlan, offsets) -> _KernelSum:
    """The checked formula of a kernel estimator of the draws at ``offsets``."""
    eid = cfg.estimator_id
    if eid == "uniform":
        return _uniform_sum(plan.randomizer, plan.kernel, plan.h)
    if eid == "exponential":
        return _exponential_sum(plan.randomizer, plan.kernel, plan.h, plan.theta)
    ec = EstimatorConfig(kernel=plan.kernel, bandwidth=plan.h, randomizer=plan.randomizer)
    return _single_kernel_sum(plan.randomizer, ec, offsets)


def _with_index(exc: Exception, j: int) -> Exception:
    """The error of replication j, with "replication j" in its message and
    ``exc`` as its cause.

    The original type is kept where it can be rebuilt from a message alone,
    as every KernelGreeksError can; otherwise the result is a RuntimeError.
    """
    message = f"replication {j}: {exc}"
    try:
        named = type(exc)(message)
    except TypeError:  # the constructor wants more than a message
        named = RuntimeError(message)
    named.__cause__ = exc
    return named


def _default_workers() -> int:
    return min(4, os.cpu_count() or 1)


def _replicate(members, ids: range, workers: int) -> list:
    """Replicate ``members`` (cfg, plan) on the streams ``ids``: for each
    member, its (estimates, runtime_ms) arrays or its error.

    The double kernel runs alone, one replication per task. Other members
    share their draws and run in blocks of max(1, 2^16 // N) replications;
    each row's ``runtime_ms`` is the block's wall time divided by its rows
    times the members it evaluated. A member's error names its first
    failing replication, and later blocks skip the member.
    """
    cfg = members[0][0]
    double = cfg.estimator_id == "double"
    r_count = len(ids)
    rows = 1 if double else max(1, _BLOCK_ELEMENTS // _draws_per_row(cfg))
    starts = range(0, r_count, rows)
    w = min(workers, len(starts))
    # one generator and pair of draw buffers per worker, allocated here
    # once; a block borrows a set for as long as it runs
    free = queue.SimpleQueue()
    if not double:
        for _ in range(w):
            free.put(_worker_buffers(cfg, rows))
    estimates = [np.empty(r_count) for _ in members]
    runtimes = [np.empty(r_count) for _ in members]
    # member -> (first failing replication, its error); only ``collect``
    # writes it, in block order, so a block starting later than one that
    # failed a member may skip that member
    errors = {}

    def evaluate(active: list, start: int, count: int) -> list:
        if double:
            plan = members[0][1]
            return [_attempt(lambda: np.array([_one_replication(cfg, plan, ids[start])]))]
        gen, draws, unit = free.get()
        try:
            values = _attempt(
                _evaluate_block, [members[i] for i in active], ids[start], gen, draws[:count],
                unit[:count],
            )
        finally:
            free.put((gen, draws, unit))
        return [values] * len(active) if isinstance(values, Exception) else values

    def job(start: int):
        count = min(rows, r_count - start)
        active = [i for i in range(len(members)) if i not in errors]
        if not active:
            return start, count, {}, {}, 0.0
        t0 = time.perf_counter()
        outcomes = dict(zip(active, evaluate(active, start, count)))
        ms = (time.perf_counter() - t0) * 1e3 / (count * len(active))
        failed = {i: (start, v) for i, v in outcomes.items() if isinstance(v, Exception)}
        pending = list(failed) if count > 1 else []
        for j in range(start, start + count):
            if not pending:
                break
            # name the first replication that fails on its own
            alone = evaluate(pending, j, 1)
            for i, v in zip(pending, alone):
                if isinstance(v, Exception):
                    failed[i] = (j, v)
            pending = [i for i, v in zip(pending, alone) if not isinstance(v, Exception)]
        return start, count, outcomes, failed, ms

    def collect(results) -> None:
        for start, count, outcomes, failed, ms in results:
            for i, values in outcomes.items():
                if i in failed:
                    errors.setdefault(i, failed[i])
                else:
                    estimates[i][start : start + count] = values
                    runtimes[i][start : start + count] = ms

    if w == 1:
        collect(map(job, starts))
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            collect(pool.map(job, starts))
    return [
        _with_index(errors[i][1], errors[i][0]) if i in errors else (estimates[i], runtimes[i])
        for i in range(len(members))
    ]


#: the fields that the configs of a common run must share
_COMMON_FIELDS = ("model", "asian", "n_samples", "replications", "seed", "antithetic")


def _run_common(cfgs: tuple, workers: int | None, stream_base: int) -> list:
    """Each config's RunResult, or the error that stopped it."""
    if not cfgs:
        return []
    ids = replication_ids(stream_base, cfgs[0].replications)
    plans = [_attempt(resolve_run, cfg, stream_base) for cfg in cfgs]
    outcomes = list(plans)  # a config whose plan failed keeps that error
    live = [i for i, plan in enumerate(plans) if not isinstance(plan, Exception)]
    shared = [i for i in live if cfgs[i].estimator_id != "double"]
    groups = ([shared] if shared else []) + [[i] for i in live if i not in shared]
    w = _default_workers() if workers is None else max(1, workers)
    for group in groups:
        done = _replicate([(cfgs[i], plans[i]) for i in group], ids, w)
        for i, result in zip(group, done):
            outcomes[i] = result if isinstance(result, Exception) else _run_result(
                cfgs[i], plans[i], *result
            )
    return outcomes


def _run_result(cfg: ExperimentConfig, plan: _RunPlan, estimates, runtimes) -> RunResult:
    if plan.randomizer is None:
        epsilon = cfg.fd_eps if cfg.estimator_id == "fd" else None
    else:
        epsilon = plan.randomizer.epsilon
    return RunResult(
        estimates=estimates,
        runtime_ms=runtimes,
        h=plan.h,
        theta=plan.theta,
        epsilon=epsilon,
        pilot=plan.pilot,
        choice=plan.choice,
    )


class CommonRun:
    """Configs whose replications run on common random numbers.

    Replication j of every config consumes stream ``stream_base + j``, and
    each config's estimates are those of a run of its own bit for bit, but
    row j opens its stream once per draw layout (uniforms then noise for
    the kernel estimators, noise alone for lr and fd), builds the unit-spot
    states once per layout, and kernel estimators with equal randomizer and
    payoff share their offsets, states and payoffs. Each config still
    resolves its own plan. The double kernel runs unshared.

    The configs must agree on model, averaged state, N, R, seed and
    antithetic pairing; otherwise the constructor raises ValueError. The
    group runs once, on the first call of :meth:`result`, and keeps every
    config's result or error, so a caller can report the configs one by one.
    """

    def __init__(self, cfgs, workers: int | None = None, stream_base: int = 0):
        self.cfgs = tuple(cfgs)
        for cfg in self.cfgs[1:]:
            for name in _COMMON_FIELDS:
                if getattr(cfg, name) != getattr(self.cfgs[0], name):
                    raise ValueError(f"configs on common draws must agree on {name}")
        self.workers, self.stream_base = workers, stream_base
        self._outcomes = None

    def result(self, cfg: ExperimentConfig) -> RunResult:
        """The result of ``cfg``, one of the group's configs; raises its error
        if it failed."""
        if cfg not in self.cfgs:
            raise ValueError("the config is not one of this common run's")
        if self._outcomes is None:
            self._outcomes = _run_common(self.cfgs, self.workers, self.stream_base)
        outcome = self._outcomes[self.cfgs.index(cfg)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def run_replications(
    cfg: ExperimentConfig,
    workers: int | None = None,
    stream_base: int = 0,
    common: CommonRun | None = None,
) -> RunResult:
    """Run R independent replications and collect their estimates.

    Replication j always consumes stream ``stream_base + j``, and the
    output array is indexed by j, so the result does not depend on the
    worker count. Except for the double kernel, replications run in blocks
    of max(1, 2^16 // N) rows, and each row's ``runtime_ms`` is its block's
    wall time divided by the block's rows. Estimator errors are re-raised
    with the index of the first failing replication prepended and the
    original chained. With ``common``, a :class:`CommonRun` that holds cfg,
    the result is cfg's share of that group's run; the group fixes workers
    and stream base, so passing either as well raises ValueError.
    """
    if common is None:
        return CommonRun([cfg], workers, stream_base).result(cfg)
    if workers is not None or stream_base != 0:
        raise ValueError("a common run fixes its own workers and stream base")
    return common.result(cfg)


def tune_fd_bump(
    model: GbmParams,
    payoff: Payoff,
    asian: AsianConfig,
    seed: int,
    n_target: int,
    pilot_n: int = 100_000,
) -> float:
    """Pick the centered-FD bump minimizing an estimated MSE at n_target.

    For each candidate bump the bias is estimated by comparing against
    the half-bump mean (the centered bias scales like the bump squared)
    and the variance from the per-sample spread; both use one shared
    pilot sample.
    """
    if pilot_n < 2 or n_target < 1:
        raise ValueError(f"need pilot_n >= 2 and n_target >= 1, got {pilot_n} and {n_target}")
    base = asian_unit_averages(model, asian, stream(seed, STREAM_REFERENCE), pilot_n)
    # three pilot-sized buffers serve every candidate: the differences are
    # formed in place, which spares the pool thread's allocator some ten
    # fresh arrays per candidate
    up, full, half = (np.empty_like(base) for _ in range(3))
    best_eps, best_score = None, np.inf
    for frac in _FD_BUMP_FRACTIONS:
        eps = frac * model.spot
        for diff, bump, width in ((full, 0.5 * eps, eps), (half, 0.25 * eps, 0.5 * eps)):
            # (payoff((spot + bump) base) - payoff((spot - bump) base)) / width
            payoff(np.multiply(model.spot + bump, base, out=up), out=up)
            payoff(np.multiply(model.spot - bump, base, out=diff), out=diff)
            np.subtract(up, diff, out=diff)
            diff /= width
        bias = (float(np.mean(full)) - float(np.mean(half))) / 0.75
        score = bias * bias + float(np.var(full, ddof=1)) / n_target
        if score < best_score:
            best_eps, best_score = eps, score
    return best_eps


def asian_fd_reference(
    model: GbmParams,
    payoff: Payoff,
    asian: AsianConfig,
    seed: int,
    n: int = REFERENCE_N,
) -> float:
    """Centered finite-difference reference for the averaged state.

    Uses the tuned bump and a single sequential stream, accumulating in
    fixed-size chunks so memory stays bounded and the result is
    reproducible.

    Three things overlap, on two pool threads and the caller: one thread
    tunes the bump on its own stream, the other draws the next 2^18-normal
    block of the reference stream into one of two reused buffers, and the
    caller averages the block before it and reduces each full chunk, the
    first one once the bump is known. Each stream has one draw in flight
    at a time, in order, and the chunks, their sums and the order in which
    they are added are those of the serial loop, so the result equals it
    bit for bit. At M = 50 on a 2-vCPU Xeon one call takes 0.6-0.75 s at
    5e5 paths (0.85-1.1 s serially) and about 13 s at 1e7 (17.3-17.9 s).
    Drawing the reference stream alone takes 11.3-12.3 s at 1e7, which
    bounds this design from below (BENCH_asian_reference.json).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 paths, got {n}")
    with ThreadPoolExecutor(max_workers=2) as pool:
        bump = pool.submit(tune_fd_bump, model, payoff, asian, seed, n_target=n)
        rng = stream(seed, STREAM_REFERENCE + 1)
        blocks = _pipelined_unit_averages(model, asian, rng, n, pool)
        chunk = np.empty(min(n, _REFERENCE_CHUNK))
        averages = np.empty(0)
        total = 0.0
        for done in range(0, n, _REFERENCE_CHUNK):
            base = chunk[: min(_REFERENCE_CHUNK, n - done)]
            filled = 0
            while filled < base.size:
                if not averages.size:
                    averages = next(blocks)
                take = min(base.size - filled, averages.size)
                base[filled : filled + take] = averages[:take]
                averages = averages[take:]
                filled += take
            if done == 0:
                eps = bump.result()
                up, down = model.spot + 0.5 * eps, model.spot - 0.5 * eps
            total += float(np.sum(payoff(up * base) - payoff(down * base)))
    return total / (n * eps)


def reference_value(cfg: ExperimentConfig) -> tuple[float, str]:
    """Oracle Delta for the configured payoff: closed form when exact."""
    if cfg.asian is None:
        kind = cfg.payoff.kind
        if kind == "digital":
            return closed_form_digital_delta(cfg.model, cfg.payoff.strike), "closed_form"
        if kind == "vanilla":
            return closed_form_vanilla_delta(cfg.model, cfg.payoff.strike), "closed_form"
        if kind == "identity":
            return closed_form_identity_delta(cfg.model), "closed_form"
        if kind == "constant":
            return 0.0, "closed_form"
    return (
        asian_fd_reference(cfg.model, cfg.payoff, cfg.asian, cfg.seed),
        "high_n_fd",
    )


def summarize(
    estimates: np.ndarray, reference: float | None, reference_source: str = "closed_form"
) -> ExperimentSummary:
    """Replication statistics; bias and mse are taken against the reference."""
    est = np.asarray(estimates, dtype=float)
    if est.size < 2:
        raise InsufficientReplications("summaries need at least two replications")
    mean = float(np.mean(est))
    variance = float(np.var(est, ddof=1))
    stderr = math.sqrt(variance / est.size)
    if reference is None:
        bias = mse = float("nan")
        reference_source = "none"
    else:
        bias = mean - reference
        mse = float(np.mean((est - reference) ** 2))
    return ExperimentSummary(
        estimates=est,
        mean=mean,
        bias=bias,
        variance=variance,
        mse=mse,
        stderr=stderr,
        reference=reference,
        reference_source=reference_source,
    )


def kde_grid(estimates: np.ndarray, points: int = 257) -> np.ndarray:
    """Evaluation grid spanning mean +/- 4 sample standard deviations."""
    est = np.asarray(estimates, dtype=float)
    center = float(np.mean(est))
    spread = float(np.std(est, ddof=1))
    return np.linspace(center - 4.0 * spread, center + 4.0 * spread, points)


def kde_of_estimates(estimates: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density of the replication estimates on a grid.

    The bandwidth is the normal rule of thumb 1.06 * std * R^(-1/5).
    """
    est = np.asarray(estimates, dtype=float)
    if est.size < 10:
        raise InsufficientReplications("density estimation needs at least 10 replications")
    spread = float(np.std(est, ddof=1))
    if spread == 0.0:
        raise NonPositiveVariance("estimates have zero spread")
    bw = 1.06 * spread * est.size ** (-0.2)
    grid = np.asarray(grid, dtype=float)
    u = (grid[:, None] - est[None, :]) / bw
    dens = np.exp(-0.5 * u * u).sum(axis=1) / (est.size * bw * math.sqrt(2.0 * math.pi))
    return dens


def fit_loglog(grid_N, mse) -> tuple[float, float, float]:
    """OLS slope, intercept and r^2 of ln(mse) on ln(N)."""
    n = np.asarray(grid_N, dtype=float)
    m = np.asarray(mse, dtype=float)
    if n.size != m.size or n.size < 2:
        raise ValueError("need matching grids with at least two points")
    x, y = np.log(n), np.log(m)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    denom = float(np.dot(total, total))
    r2 = 1.0 - float(np.dot(resid, resid)) / denom if denom > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def convergence_rate_fit(
    cfg: ExperimentConfig,
    grid_N,
    replications: int | None = None,
    workers: int | None = None,
) -> RateFit:
    """Replicate the experiment across the N grid and fit the MSE slope.

    Point i of the grid gets its own disjoint stream block, and auto
    bandwidth is re-selected at every N. The grid must have at least 4
    strictly increasing points spanning two decades.
    """
    grid = np.asarray(grid_N, dtype=int)
    if grid.size < 4:
        raise ValueError("rate fits need at least 4 grid points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid_N must be strictly increasing")
    if grid[-1] < 100 * grid[0]:
        raise ValueError("grid_N must span at least two decades")
    reference, source = reference_value(cfg)
    mses, hs = [], []
    for i, n in enumerate(grid):
        sub = replace(
            cfg,
            n_samples=int(n),
            replications=int(replications or cfg.replications),
        )
        res = run_replications(sub, workers=workers, stream_base=sweep_base(i))
        summ = summarize(res.estimates, reference, source)
        mses.append(summ.mse)
        hs.append(res.h)
    mse_arr = np.asarray(mses)
    slope, intercept, r2 = fit_loglog(grid, mse_arr)
    return RateFit(
        grid_N=grid,
        log_mse=np.log(mse_arr),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        mse=mse_arr,
        h=tuple(hs),
    )
