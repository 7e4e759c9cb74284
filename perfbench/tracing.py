"""Spans around the public entry points of each kernelgreeks layer.

The tracer patches the layers from outside: every module-level name bound
to a traced function is rebound to a wrapper, and traced methods are
replaced on their class. ``uninstall`` puts the originals back. Nothing in
the package is edited.

A span records its layer metric, start, end and parent. Open spans are
kept per thread on a stack; a replication job that the harness submits to
its thread pool gets the span that submitted it as parent, so the harness
span's self time is the part of its interval that no replication covers.
Self time is a span's duration minus the union of its children's
intervals. Summed over all spans, self time minus the time sibling spans
ran in parallel equals the wall time of the root spans exactly, which
``Tracer.summary`` checks.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

_MODULES = ("rng", "randomizers", "models", "kernels", "estimators", "bandwidth", "harness",
            "export", "cli")

# (module, function) -> the self-time metric its spans feed
FUNCTIONS = {
    ("rng", "stream"): "rng.draw_s",
    ("models", "simulate_terminal"): "models.terminal_s",
    ("models", "simulate_asian"): "models.asian_s",
    ("estimators", "estimate_single_kernel_hat"): "estimators.reduce_s",
    ("estimators", "estimate_single_kernel_check"): "estimators.reduce_s",
    ("estimators", "estimate_uniform_opt"): "estimators.reduce_s",
    ("estimators", "estimate_exponential_opt"): "estimators.reduce_s",
    ("estimators", "estimate_oracle_score"): "estimators.reduce_s",
    ("estimators", "estimate_finite_difference"): "estimators.reduce_s",
    ("estimators", "estimate_double_kernel"): "estimators.double_s",
    ("bandwidth", "select_bandwidth"): "bandwidth.select_s",
    ("harness", "resolve_run"): "harness.self_s",
    ("harness", "run_replications"): "harness.self_s",
    ("harness", "convergence_rate_fit"): "harness.self_s",
    ("harness", "reference_value"): "harness.reference_s",
    ("harness", "asian_fd_reference"): "harness.reference_s",
    ("harness", "tune_fd_bump"): "harness.reference_s",
    ("harness", "summarize"): "harness.summary_s",
    ("harness", "kde_grid"): "harness.summary_s",
    ("harness", "kde_of_estimates"): "harness.summary_s",
    ("harness", "fit_loglog"): "harness.summary_s",
    ("export", "summary_row"): "export.write_s",
    ("export", "config_mapping"): "export.write_s",
    ("export", "write_summary_csv"): "export.write_s",
    ("export", "write_raw_csv"): "export.write_s",
    ("export", "write_rate_csv"): "export.write_s",
    ("export", "write_kde_csv"): "export.write_s",
    ("export", "write_config_sidecar"): "export.write_s",
    ("cli", "main"): "cli.self_s",
}

# (module, class, method) -> metric
METHODS = {
    ("randomizers", "Randomizer", "sample_offsets"): "randomizers.offsets_s",
    ("models", "Payoff", "__call__"): "models.payoff_s",
    ("kernels", "Kernel", "__call__"): "kernels.eval_s",
    ("kernels", "Kernel", "gradient"): "kernels.eval_s",
    ("estimators", "SampleSet", "__post_init__"): "estimators.sampleset_s",
}

# bench.self_s is the round body's own span, opened by the benchmark loop
SELF_METRICS = sorted(set(FUNCTIONS.values()) | set(METHODS.values()) | {"bench.self_s"})
COUNT_METRICS = ("bandwidth.selections", "bandwidth.degenerate", "rng.streams", "rng.draws",
                 "kernels.evals", "estimators.double_pairs", "harness.reps", "export.bytes")


class Tracer:
    """In-memory span recorder with per-thread stacks and shared counters."""

    def __init__(self):
        self.spans = []  # (id, parent, metric, start, end)
        self.counts = defaultdict(float)
        self.rep_ms = []
        self.workers = 1
        self.replays = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def run(self, metric: str, fn, args=(), kwargs=None, parent=None):
        """Call fn inside a span; ``parent`` overrides the thread's own stack."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, metric, start, end))

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, metric: str, fn, after=None):
        """Span around fn; ``after(args, kwargs, result)`` may count and
        returns the result handed to the caller."""

        def traced(*args, **kwargs):
            result = self.run(metric, fn, args, kwargs)
            return result if after is None else after(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"kernelgreeks.{name}") for name in _MODULES}
        every = [importlib.import_module("kernelgreeks"), *mods.values()]
        after = {
            ("rng", "stream"): self._after_stream,
            ("bandwidth", "select_bandwidth"): self._after_selection,
            ("harness", "run_replications"): self._after_replications,
            ("models", "simulate_asian"): self._keep_largest("asian", 2),
            ("estimators", "estimate_double_kernel"): self._keep_largest("double", None),
        }
        for name in ("write_summary_csv", "write_raw_csv", "write_rate_csv", "write_kde_csv",
                     "write_config_sidecar"):
            after[("export", name)] = self._after_write
        for (mod, name), metric in FUNCTIONS.items():
            original = getattr(mods[mod], name)
            wrapper = self.wrap(metric, original, after.get((mod, name)))
            for module in every:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        hooks = {"__call__": self._after_kernel, "gradient": self._after_gradient}
        for (mod, cls_name, method), metric in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            hook = hooks.get(method) if cls_name == "Kernel" else None
            self._rebind(cls, method, self.wrap(metric, vars(cls)[method], hook))
        self._rebind(mods["harness"], "ThreadPoolExecutor", self._pool_class())

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each submitted replication in a harness span parented to
            the span that submitted it."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.workers = max(tracer.workers, max_workers or 1)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.run, "harness.self_s", fn, args, kwargs, parent)

        return TracedPool

    # -- counters fed by return values --------------------------------------

    def _after_stream(self, args, kwargs, gen):
        self.count("rng.streams", 1)
        return _TracedGenerator(gen, self)

    def _after_selection(self, args, kwargs, result):
        self.count("bandwidth.selections", 1)
        self.count("bandwidth.degenerate", int(bool(result[1].degenerate)))
        return result

    def _after_replications(self, args, kwargs, result):
        self.count("harness.reps", result.estimates.size)
        with self._lock:
            self.rep_ms.extend(np.asarray(result.runtime_ms, dtype=float).tolist())
        return result

    def _after_write(self, args, kwargs, path):
        self.count("export.bytes", Path(path).stat().st_size)
        return path

    def _after_kernel(self, args, kwargs, result):
        self.count("kernels.evals", np.size(args[1]))
        return result

    def _after_gradient(self, args, kwargs, result):
        # only the pairwise double-kernel sweep passes 2-D arrays to the
        # kernel gradient, one element per (i, j) pair it visits
        if np.ndim(args[1]) == 2:
            self.count("estimators.double_pairs", np.size(args[1]))
        return self._after_kernel(args, kwargs, result)

    def _keep_largest(self, key, sized_arg):
        """Keep the arguments of the call with the largest argument
        ``sized_arg`` (the first call when None), to replay it under
        tracemalloc after the traced rounds."""

        def keep(args, kwargs, result):
            size = 0 if sized_arg is None else np.size(args[sized_arg])
            with self._lock:
                if key not in self.replays or size > self.replays[key][0]:
                    self.replays[key] = (size, args, kwargs)
            return result

        return keep

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-metric self times, the parallel overlap and the root wall time."""
        children = defaultdict(list)
        for sid, parent, metric, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        self_s = defaultdict(float)
        overlap = wall = 0.0
        for sid, parent, metric, start, end in self.spans:
            kids = children.get(sid, ())
            covered = _union_length(kids, start, end)
            self_s[metric] += (end - start) - covered
            overlap += sum(min(e, end) - max(s, start) for s, e in kids) - covered
            if parent is None:
                wall += end - start
        return {"self_s": dict(self_s), "overlap_s": overlap, "wall_s": wall}


class _TracedGenerator:
    """Proxy for a numpy Generator that puts each draw in an rng span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, method, args, kwargs):
        out = self._tracer.run("rng.draw_s", getattr(self._gen, method), args, kwargs)
        self._tracer.count("rng.draws", np.size(out))
        return out

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw("random", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def replay_peak_mb(fn, args, kwargs) -> float:
    """tracemalloc peak, in MiB, of one call of fn with the given arguments."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
