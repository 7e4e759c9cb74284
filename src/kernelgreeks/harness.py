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
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import BandwidthChoice, PilotEstimates, select_bandwidth
from .errors import InsufficientReplications, InvalidGrid, NonPositiveVariance, RandomizerMismatch
from .estimators import (
    EstimatorConfig,
    FdConfig,
    SampleSet,
    estimate_double_kernel,
)
from .estimators import (
    _finite,
    _finite_difference_sum,
    _kernel_sums,
    _KernelSum,
    _likelihood_ratio_sum,
    _payoff_difference,
    _require_bandwidth,
    _require_support,
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
from .randomizers import Randomizer
from .rng import PILOT_OFFSET, STREAM_REFERENCE, rekey, replication_ids, skip, stream, sweep_base

__all__ = [
    "ExperimentConfig",
    "RunPlan",
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

#: array elements (rows x draws) per block of replications: a block of at
#: most max(1, _BLOCK_ELEMENTS // N) replications is evaluated in one pass
#: over (rows, N) arrays, which amortizes the per-call cost of numpy at small N.
#: Of 2^14 .. 2^17, 2^16 was fastest with two threads at N = 1000 .. 10^4
#: and within noise of the best with one (BENCH_replication_blocks.json).
#: A row of more draws is evaluated in leaves of at most this many
#: (:func:`_tree_leaves`), so its arrays stay cache-sized and memory does not
#: grow with N.
_BLOCK_ELEMENTS = 2**16

#: numpy adds a run of at most 128 float64s with eight accumulators and
#: splits a longer one in two (its pairwise summation), so no leaf is smaller
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class ExperimentConfig:
    """One replication study, fully determined together with the seed.

    ``bandwidth`` is either the string "auto" (run the pilot pipeline
    before the main run) or a fixed positive value; lr and fd have no
    bandwidth and ignore it. ``theta`` is the randomizer's tilt, and
    theta = 0 is the uniform randomizer: None lets the pilot optimize it
    for the exponential estimator in auto mode and means 0 otherwise.
    The config refuses what needs no draw: with ValueError an unknown
    estimator, N or R below 1, a seed or stream block out of range, a bad
    bandwidth, theta, fd_alpha or fd_eps, antithetic pairing off the kernel
    estimators or at odd N, and lr on the averaged state; with
    RandomizerMismatch a nonzero tilt on the uniform estimator.
    """

    model: GbmParams
    payoff: Payoff
    estimator_id: str
    asian: AsianConfig | None = None
    kernel_family: str = "p2"
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
        elif not 0.0 < self.bandwidth < math.inf:
            raise ValueError(f"fixed bandwidth must be positive and finite, got {self.bandwidth!r}")
        for name in ("theta", "fd_alpha", "fd_eps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.fd_alpha <= 1.0:
            raise ValueError(f"fd_alpha must lie in [0, 1], got {self.fd_alpha!r}")
        if self.fd_eps <= 0.0:
            raise ValueError(f"fd_eps must be positive, got {self.fd_eps!r}")
        if self.antithetic:
            if self.estimator_id not in KERNEL_ESTIMATORS:
                raise ValueError("antithetic pairing applies to kernel estimators only")
            if self.n_samples % 2:
                raise ValueError("antithetic pairing needs an even n_samples")
        if self.estimator_id == "lr" and self.asian is not None:
            raise ValueError("the lr estimator needs the terminal state")
        if self.estimator_id == "uniform" and self.theta not in (None, 0.0):
            raise RandomizerMismatch("a uniform randomizer cannot carry a tilt")


@dataclass(frozen=True, eq=False)
class RunPlan:
    """A run's decisions, made by :func:`resolve_run` alone: ``finish(total,
    n)`` is a row's estimate from its sums over n draws, fd's epsilon is its
    bump and lr has only its finish. Plans compare by identity, since they
    hold a closure and the pilot's arrays."""

    finish: Callable
    kernel: Kernel | None = None
    h: float | None = None
    theta: float | None = None
    epsilon: float | None = None
    randomizer: Randomizer | None = None
    pilot: PilotEstimates | None = None
    choice: BandwidthChoice | None = None
    formula: _KernelSum | None = None


@dataclass(frozen=True)
class RunResult:
    """Replication estimates and the plan they were run with."""

    estimates: np.ndarray
    runtime_ms: np.ndarray
    plan: RunPlan

    @property
    def h(self) -> float | None:
        """The plan's bandwidth."""
        return self.plan.h


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
    slope: float
    intercept: float
    r_squared: float
    mse: np.ndarray
    h: tuple


def _pilot_states(cfg: ExperimentConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """The states of n paths at the spot. The averaged state is reduced to
    its (n,) unit-spot averages block by block, so its (n, steps) normals
    are never held at once."""
    if cfg.asian is None:
        return simulate_terminal(cfg.model, rng.standard_normal(n))
    return cfg.model.spot * asian_unit_averages(cfg.model, cfg.asian, rng, n)


def resolve_run(cfg: ExperimentConfig, stream_base: int = 0) -> RunPlan:
    """Fix kernel, bandwidth, tilt, randomizer, a single-kernel formula
    and the finish of the estimator before replicating.

    This is the one place where a run's plan is decided: the replications
    read it and check only their draws. Automatic bandwidth runs the pilot
    pipeline once, on its own stream, so every replication sees the same
    resolved parameters; the pilot tunes theta for exponential unless it
    is given. theta = 0 is the uniform randomizer, the only one of the
    uniform estimator. A bandwidth that is not positive and finite raises
    DegenerateBandwidth.
    """
    eid = cfg.estimator_id
    if eid == "lr":
        return RunPlan(lambda total, n: total / n)
    if eid == "fd":
        # the average difference over the bump, which is fd's epsilon
        return RunPlan(lambda total, n: total / n / cfg.fd_eps, epsilon=cfg.fd_eps)
    kernel = builtin_kernel(cfg.kernel_family)
    # None lets the pilot tune theta for exponential, and means 0 otherwise
    theta = 0.0 if cfg.theta is None and eid != "exponential" else cfg.theta
    pilot = choice = None
    if cfg.bandwidth == "auto":
        rng = stream(cfg.seed, stream_base + PILOT_OFFSET)
        states = _pilot_states(cfg, rng, PILOT_N)
        pilot, choice = select_bandwidth(states, cfg.payoff, cfg.model.spot, kernel,
                                         cfg.n_samples, theta=0.0 if eid == "uniform" else theta)
        h, theta = choice.h_star, choice.theta_star
    else:
        h = float(cfg.bandwidth)
        theta = 0.0 if theta is None else float(theta)
    h = _require_bandwidth(h)
    epsilon = kernel.support_radius * h
    if eid == "double":
        # the leave-one-out density windows must stay inside the offset
        # support: with epsilon = M*h the support edge cuts through every
        # window and the estimated score picks up the smeared edge jump
        # (an O(1/h) ridge) instead of the model score. One extra kernel
        # radius keeps the windows of all outer-weighted draws clear.
        epsilon *= 2.0
    randomizer = Randomizer(epsilon, theta)
    if eid == "double":
        # the estimates need no finishing
        return RunPlan(lambda total, n: total, kernel, h, theta, epsilon, randomizer, pilot,
                       choice)
    formula = _KernelSum.of(randomizer, h)
    return RunPlan(formula.finish, kernel, h, theta, epsilon, randomizer, pilot, choice, formula)


def _draws_per_row(cfg: ExperimentConfig) -> int:
    """Draws of one replication: antithetic pairs share theirs."""
    return cfg.n_samples // 2 if cfg.antithetic else cfg.n_samples


def _leaf_limit() -> int:
    """The most draws of a row that one leaf holds."""
    return max(_BLOCK_ELEMENTS, _PAIRWISE_BLOCK)


def _tree_leaves(n: int, limit: int, start: int = 0) -> list:
    """The (start, size) of each leaf of numpy's pairwise-summation tree of n
    float64s, in order: a node of more than ``limit`` (at least 128) elements
    splits at half its size rounded down to a multiple of 8, as numpy
    splits it; the other nodes are leaves."""
    if n <= limit:
        return [(start, n)]
    half = n // 2 - n // 2 % 8
    return _tree_leaves(half, limit, start) + _tree_leaves(n - half, limit, start + half)


def _tree_add(n: int, limit: int, sums):
    """The sums of the leaves of :func:`_tree_leaves` (n, limit), taken from
    the iterator ``sums`` in leaf order, added up the same tree: np.sum
    over all n elements bit for bit, since each leaf's sum is numpy's sum
    of that node."""
    if n <= limit:
        return next(sums)
    half = n // 2 - n // 2 % 8
    return _tree_add(half, limit, sums) + _tree_add(n - half, limit, sums)


def _row_limit(members) -> int:
    """The most draws of the members' rows that one leaf holds: the whole
    row when one of them is the double kernel, which does not reduce leaf
    by leaf."""
    if any(c.estimator_id == "double" for c, _ in members):
        return max(_draws_per_row(members[0][0]), _leaf_limit())
    return _leaf_limit()


def _worker_buffers(members, rows: int) -> tuple:
    """One worker's two generators, its (2, rows, leaf) buffer for a leaf's
    uniforms and offsets and its (rows, leaf) buffer for unit-spot states,
    for blocks of the members (cfg, plan) or of any of them. A leaf is a
    whole row if the row fits a block or a member is the double kernel.
    The generators are re-keyed before every row."""
    cfg = members[0][0]
    width = max(size for _, size in _tree_leaves(_draws_per_row(cfg), _row_limit(members)))
    gens = stream(cfg.seed, 0), stream(cfg.seed, 0)
    return gens, np.empty((2, rows, width)), np.empty((rows, width))


def _evaluate_block(members, first_id: int, gens, draws, unit) -> list:
    """The estimates of replications first_id .. first_id + rows - 1 for each
    member (cfg, plan), a (rows,) array each; the first failed check raises.

    The members agree on model, state, N, seed and antithetic pairing, so
    they share their draws, and the block is evaluated in one pass over its
    leaves. Row j reads stream first_id + j as its N uniforms and then its
    noise, reduced to unit-spot states in ``unit``, for every estimator;
    the uniforms go to ``draws[0]``, and a block without kernel members
    passes over them with :func:`skip`, which draws nothing. A block of
    more than one row, or of one row of at most ``_BLOCK_ELEMENTS`` draws,
    or with a double-kernel member, is one leaf, and row j's noise follows
    its uniforms on ``gens[0]``. A longer row is walked in the leaves of
    :func:`_tree_leaves`: its uniforms come from ``gens[0]`` at the start
    of the stream and its noise from ``gens[1]``, which :func:`skip` places
    after the row's uniforms, both carrying on from leaf to leaf.

    Per leaf, kernel estimators with equal randomizer and payoff share one
    pass of offsets, spots, states, payoffs and support check: single-kernel
    members, per kernel and formula, one reduction (:func:`_kernel_rows`),
    and double-kernel members, which form groups of their own since their
    doubled support can equal a single-kernel randomizer, their estimates
    (:func:`_double_rows`). Each group takes its offsets from the kept
    uniforms into ``draws[1]``, and a lone group in their place. fd, then
    lr, read the unit-spot states last. Each member keeps its leaf sums,
    direct and mirrored apart under antithetic pairing; they are added up
    numpy's summation tree and finished by its plan with the row's N in the
    same operation order as a lone replication, so the estimates are the
    same bits. The checks run in that order, leaf by leaf: the kernel
    groups, fd, lr, and last the finish of each member.
    """
    cfg = members[0][0]
    spot, m, rows = cfg.model.spot, _draws_per_row(cfg), unit.shape[0]
    limit = _row_limit(members)
    leaves = _tree_leaves(m, limit)
    # member -> its sums per leaf: a list of one array, or of two under
    # antithetic pairing
    sums = [[] for _ in members]
    groups, plain = {}, []
    for i, (c, p) in enumerate(members):
        if p.randomizer is None:
            plain.append(i)
        else:
            groups.setdefault((p.randomizer, c.payoff, c.estimator_id == "double"), []).append(i)
    # fd only reads the states, so lr goes last and its last member may
    # scale them in place
    plain.sort(key=lambda i: members[i][0].estimator_id == "lr")
    for k, (_, size) in enumerate(leaves):
        u, scratch, z = draws[0, :, :size], draws[1, :, :size], unit[:, :size]
        for j in range(rows):
            if k == 0:
                # a block of several leaves has one row, whose generators
                # carry on from leaf to leaf
                rng = noise = rekey(gens[0], cfg.seed, first_id + j)
                if not groups:
                    skip(noise, m)
                elif len(leaves) > 1:
                    noise = skip(rekey(gens[1], cfg.seed, first_id + j), m)
            if groups:
                rng.random(out=u[j])
            if cfg.asian is None:
                noise.standard_normal(out=z[j])
            else:
                asian_unit_averages(cfg.model, cfg.asian, noise, size, out=z[j])
        if cfg.asian is None:
            # states are linear in the spot; these are the states at spot 1
            simulate_terminal(cfg.model, z, spot=1.0, out=z)
        for (randomizer, _, double), shared in groups.items():
            # a lone group may take the uniforms' place, and the scratch
            # buffer then stays untouched, which keeps its pages unmapped
            offsets = randomizer.sample_offsets(u, u if len(groups) == 1 else scratch)
            mirrored = offsets + spot if cfg.antithetic else None
            # the spots overwrite the offsets, which no longer serve
            lams = np.subtract(spot, offsets, out=offsets)
            rows_of = _double_rows if double else _kernel_rows
            values = _paired(rows_of, [members[i] for i in shared], lams, mirrored, z)
            for i, v in zip(shared, values):
                sums[i].append(v)
        for i in plain:
            sums[i].append([_noise_sum(members[i][0], z, i == plain[-1])])
    return [
        _finished(c.estimator_id, p.finish, [_tree_add(m, limit, iter(t)) for t in zip(*kept)], m)
        for (c, p), kept in zip(members, sums)
    ]


def _finished(eid: str, finish, totals: list, n: int):
    """The estimates of rows of n draws from their sums ``totals``: one
    array, or a direct and a mirrored one under antithetic pairing, whose
    mean the estimates are."""
    values = [_finite(finish(total, n), eid) for total in totals]
    return values[0] if len(values) == 1 else 0.5 * (values[0] + values[1])


def _paired(rows_of, members, lams, mirrored, unit) -> list:
    """``rows_of`` the members at the spots ``lams`` and, under antithetic
    pairing, at the ``mirrored`` ones: for each member a list of one or two
    results."""
    sides = [rows_of(members, lams, unit)]
    if mirrored is not None:
        sides.append(rows_of(members, mirrored, unit))
    return [list(side) for side in zip(*sides)]


def _noise_sum(cfg: ExperimentConfig, unit, consume: bool) -> np.ndarray:
    """The lr or fd sums of the unit-spot states ``unit``, one per row;
    with ``consume``, lr overwrites ``unit`` with its states."""
    if cfg.estimator_id == "fd":
        fd = FdConfig(alpha=cfg.fd_alpha, bump=cfg.fd_eps)
        return _finite_difference_sum(cfg.model, cfg.payoff, fd, unit)
    spot = cfg.model.spot
    states = np.multiply(unit, spot, out=unit if consume else None)
    kind = "terminal" if cfg.asian is None else "asian"
    return _likelihood_ratio_sum(cfg.model, kind, spot, states, cfg.payoff(states))


def _kernel_rows(members, lams, unit) -> list:
    """Each member's single-kernel sums of the draws at spots ``lams``, one
    per row; the members share randomizer and payoff. ``lams`` serves as
    scratch and is overwritten.

    Offsets, states, payoffs and the support check of the draws serve
    every member; the formulas were built when the plans were resolved.
    A formula depends only on the randomizer and h, so members with equal
    kernel and formula, as hat, check and uniform are at the uniform
    randomizer, reduce once (:func:`_kernel_sums`); the last group takes
    u = offsets / h in place of the offsets, so the members hold no more
    (rows, N) arrays at once than one alone.
    """
    cfg, plan = members[0]
    states = np.multiply(lams, unit)
    payoffs = cfg.payoff(states, out=states)
    offsets = np.subtract(cfg.model.spot, lams, out=lams)
    _require_support(offsets, plan.randomizer)
    groups = {}
    for i, (_, p) in enumerate(members):
        key = p.kernel.support_radius, p.kernel.coeffs.tobytes(), p.formula
        groups.setdefault(key, []).append(i)
    totals = [None] * len(members)
    for g, idx in enumerate(groups.values()):
        p = members[idx[0]][1]
        u = offsets if g == len(groups) - 1 else None
        total = _kernel_sums(p.kernel, p.formula, payoffs, offsets, u)
        for i in idx:
            totals[i] = total
    return totals


def _double_rows(members, lams, unit) -> list:
    """Each double-kernel member's estimates of the draws at spots ``lams``,
    one per row; the members share randomizer and payoff. The estimator
    does not reduce row by row, so each row runs through
    :func:`estimate_double_kernel` on its own, and its rows are whole
    (:func:`_row_limit`)."""
    cfg = members[0][0]
    kind = "terminal" if cfg.asian is None else "asian"
    states = np.multiply(lams, unit)
    payoffs = cfg.payoff(states)

    def rows(plan: RunPlan) -> np.ndarray:
        ec = EstimatorConfig(plan.kernel, plan.h, plan.randomizer, plan.kernel)
        return np.array([
            estimate_double_kernel(SampleSet(cfg.model.spot, *row, plan.randomizer, kind), ec).value
            for row in zip(lams, states, payoffs)
        ])

    return [rows(plan) for _, plan in members]


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
    """Up to four threads, one per CPU that this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _replicate(members, ids: range, workers: int) -> tuple:
    """Replicate ``members`` (cfg, plan) on the streams ``ids``: each
    member's estimates and the rows' ``runtime_ms``, or the error of the
    first failing replication.

    The members share their draws and run in blocks of
    max(1, min(2^16 // N, ceil(R / workers))) replications, so that every
    worker gets a block; a block of one row of more than 2^16 draws is
    walked in cache-sized leaves (:func:`_evaluate_block`), unless a member
    is the double kernel. Each worker holds its buffers for the run, sized
    by the block or the leaf, so memory grows with neither N nor R, except
    for the double kernel's whole rows. Each row's ``runtime_ms`` is the
    block's wall time divided by its rows times the members. A block that
    raises is run again one row at a time to name its first failing
    replication, and the error of that row alone is raised with "replication
    j" in its message and the original as its cause. Blocks are collected in
    order, so the lowest failing replication wins, and the later blocks not
    yet started are skipped.
    """
    cfg = members[0][0]
    r_count = len(ids)
    rows = max(1, min(_BLOCK_ELEMENTS // _draws_per_row(cfg), math.ceil(r_count / workers)))
    starts = range(0, r_count, rows)
    w = min(workers, len(starts))
    # one generator and pair of draw buffers per worker, allocated here
    # once; a block borrows a set for as long as it runs
    free = queue.SimpleQueue()
    for _ in range(w):
        free.put(_worker_buffers(members, rows))
    estimates = [np.empty(r_count) for _ in members]
    runtime_ms = np.empty(r_count)

    def evaluate(start: int, count: int) -> list:
        gens, draws, unit = free.get()
        try:
            return _evaluate_block(members, ids[start], gens, draws[:, :count], unit[:count])
        finally:
            free.put((gens, draws, unit))

    def job(start: int):
        count = min(rows, r_count - start)
        t0 = time.perf_counter()
        try:
            values = evaluate(start, count)
        except Exception as exc:
            failed, error = start, exc
            # name the first replication that fails on its own
            for j in range(start, start + count) if count > 1 else ():
                try:
                    evaluate(j, 1)
                except Exception as alone:
                    failed, error = j, alone
                    break
            raise _with_index(error, failed)
        return start, count, values, (time.perf_counter() - t0) * 1e3 / (count * len(members))

    def collect(results) -> None:
        for start, count, values, ms in results:
            for out, v in zip(estimates, values):
                out[start : start + count] = v
            runtime_ms[start : start + count] = ms

    if w == 1:
        collect(map(job, starts))
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            collect(pool.map(job, starts))
    return estimates, runtime_ms


#: the fields that the configs of a common run must share
_COMMON_FIELDS = ("model", "asian", "n_samples", "replications", "seed", "antithetic")


class CommonRun:
    """Configs whose replications run on common random numbers.

    Replication j of every config reads stream ``stream_base + j`` as its
    N uniforms and then its noise, and each config's estimates are those
    of a run of its own bit for bit, but row j draws its stream once,
    builds the unit-spot states once, and single-kernel estimators with
    equal randomizer and payoff share their offsets, states and payoffs.
    The uniforms are kept for every randomizer; lr and fd read only the
    noise. A row of more than 2^16 draws runs in leaves of at most 2^16,
    each through the whole pipeline, so memory does not grow with N. The
    double kernel shares the draws and forms a randomizer group of its
    own; a group that holds it runs its rows whole. Each config still
    resolves its own plan.

    The configs must agree on model, averaged state, N, R, seed and
    antithetic pairing; otherwise the constructor raises ValueError. The
    constructor fixes the stream ids, the worker count and every plan, in
    config order, so the first plan that fails raises from it, before any
    reference or replication. The group replicates once, on the first
    call of :meth:`result`, and fails as one: every config's result
    raises the error of the lowest failing replication, and on it the
    first in the order of evaluation: the kernel groups, then fd, then lr.
    """

    def __init__(self, cfgs, workers: int | None = None, stream_base: int = 0):
        self.cfgs = tuple(cfgs)
        for cfg in self.cfgs[1:]:
            for name in _COMMON_FIELDS:
                if getattr(cfg, name) != getattr(self.cfgs[0], name):
                    raise ValueError(f"configs on common draws must agree on {name}")
        self._ids = replication_ids(stream_base, self.cfgs[0].replications)
        self._plans = [resolve_run(cfg, stream_base) for cfg in self.cfgs]
        self.workers = _default_workers() if workers is None else max(1, workers)
        self._outcome = None

    def result(self, cfg: ExperimentConfig) -> RunResult:
        """The result of ``cfg``, one of the group's configs; raises the
        group's error if it failed."""
        if cfg not in self.cfgs:
            raise ValueError("the config is not one of this common run's")
        if self._outcome is None:
            try:
                members = list(zip(self.cfgs, self._plans))
                estimates, ms = _replicate(members, self._ids, self.workers)
                self._outcome = [RunResult(e, ms, plan) for e, plan in zip(estimates, self._plans)]
            except Exception as exc:
                self._outcome = exc
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome[self.cfgs.index(cfg)]


def run_replications(
    cfg: ExperimentConfig,
    workers: int | None = None,
    stream_base: int = 0,
    common: CommonRun | None = None,
) -> RunResult:
    """Run R independent replications and collect their estimates.

    Replication j always reads stream ``stream_base + j``, as N uniforms
    and then the noise whatever the estimator, and the output array is
    indexed by j, so the result does not depend on the worker count.
    Replications run in blocks of max(1, min(2^16 // N, ceil(R / workers)))
    rows, and a row of more than 2^16 draws in cache-sized leaves whose
    sums are added as np.sum adds them, so the estimates do not depend on
    the block or leaf size either. The double kernel runs its rows whole.
    Each row's ``runtime_ms`` is its block's wall time divided by the
    block's rows.
    Estimator errors are re-raised with the index of the first failing
    replication prepended and the original chained. With ``common``, a
    :class:`CommonRun` that holds cfg and its plan, the result is cfg's
    share of that group's run, and an error of any of its configs is
    raised for every one; the group fixes workers and stream base, so
    passing either as well raises ValueError.
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
            _payoff_difference(payoff, model.spot + bump, model.spot - bump, base, up, out=diff)
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

    One pool thread tunes the bump on its own stream while each chunk's
    averages are filled by ``asian_unit_averages`` with the pool, which
    draws the next block of the reference stream while the caller averages
    the one before it. The chunks, their sums and the order in which they
    are added are those of the serial loop, so the result equals it bit for
    bit. At M = 50 on a 2-vCPU Xeon one call takes 0.6-0.75 s at 5e5 paths
    (0.85-1.1 s serially) and about 13 s at 1e7 (17.3-17.9 s). Drawing the
    reference stream alone takes 11.3-12.3 s at 1e7, which bounds this
    design from below (BENCH_asian_reference.json).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 paths, got {n}")
    with ThreadPoolExecutor(max_workers=2) as pool:
        bump = pool.submit(tune_fd_bump, model, payoff, asian, seed, n_target=n)
        rng = stream(seed, STREAM_REFERENCE + 1)
        chunk, scratch = (np.empty(min(n, _REFERENCE_CHUNK)) for _ in range(2))
        total = 0.0
        for done in range(0, n, _REFERENCE_CHUNK):
            size = min(_REFERENCE_CHUNK, n - done)
            base = asian_unit_averages(model, asian, rng, size, out=chunk[:size], pool=pool)
            eps = bump.result()
            # base is the scratch of the difference: the next chunk refills it
            diff = _payoff_difference(payoff, model.spot + 0.5 * eps, model.spot - 0.5 * eps,
                                      base, base, out=scratch[:size])
            total += float(np.sum(diff))
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


def kde_grid(estimates: np.ndarray) -> np.ndarray:
    """Evaluation grid spanning mean +/- 4 sample standard deviations."""
    est = np.asarray(estimates, dtype=float)
    center = float(np.mean(est))
    spread = float(np.std(est, ddof=1))
    return np.linspace(center - 4.0 * spread, center + 4.0 * spread, 257)


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


def convergence_rate_fit(cfg: ExperimentConfig, grid_N) -> RateFit:
    """Replicate the experiment across the N grid and fit the MSE slope.

    Point i of the grid gets its own disjoint stream block, and auto
    bandwidth is re-selected at every N; every point's plan is resolved
    before the reference. The grid must have at least 4 strictly
    increasing points spanning two decades.
    """
    grid = np.asarray(grid_N, dtype=int)
    if grid.size < 4:
        raise InvalidGrid("rate fits need at least 4 grid points")
    if np.any(np.diff(grid) <= 0):
        raise InvalidGrid("grid_N must be strictly increasing")
    if grid[-1] < 100 * grid[0]:
        raise InvalidGrid("grid_N must span at least two decades")
    points = [replace(cfg, n_samples=int(n)) for n in grid]
    runs = [CommonRun([point], stream_base=sweep_base(i)) for i, point in enumerate(points)]
    reference, source = reference_value(cfg)
    mses, hs = [], []
    for point, run in zip(points, runs):
        res = run_replications(point, common=run)
        mses.append(summarize(res.estimates, reference, source).mse)
        hs.append(res.plan.h)
    mse_arr = np.asarray(mses)
    slope, intercept, r2 = fit_loglog(grid, mse_arr)
    return RateFit(
        grid_N=grid,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        mse=mse_arr,
        h=tuple(hs),
    )
