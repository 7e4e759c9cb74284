"""The four benchmark workloads, their inputs and their output checks.

Every workload uses the paper's model (spot 120, rate 0, vol 0.2,
maturity 1, digital call at strike 120). A run repeats whole rounds of the
same operations; round r of a run with seed s uses the program seed
``1000 * s + r``, so the same seed gives the same inputs and no two rounds
share random streams. ``body`` is the timed part of a round; checks run
outside it, per round in ``check_round`` and over all rounds of the run in
``check_run``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
from dataclasses import replace

import numpy as np

import references as refs
from kernelgreeks import cli, harness
from kernelgreeks.estimators import EstimatorConfig, SampleSet, estimate_double_kernel
from kernelgreeks.kernels import builtin_kernel
from kernelgreeks.models import AsianConfig, GbmParams, digital_call
from kernelgreeks.randomizers import Randomizer
from kernelgreeks.rng import sweep_base

MODEL = GbmParams(spot=refs.SPOT, rate=refs.RATE, vol=refs.VOL, maturity=refs.MATURITY)
PAYOFF = digital_call(refs.STRIKE)

#: mean within K_STDERR standard errors (pooled over the run's rounds) of
#: the reference, plus an allowance for the estimator's deterministic bias
K_STDERR = 5.0

#: rounds per run stay below this, so round seeds never collide across runs
MAX_ROUNDS = 1000


def round_seed(seed: int, r: int) -> int:
    return MAX_ROUNDS * seed + r


def _config(estimator_id: str, n: int, reps: int, seed: int, **extra) -> harness.ExperimentConfig:
    if estimator_id not in harness.KERNEL_ESTIMATORS:
        extra.setdefault("bandwidth", 1.0)  # unused by lr and fd; the CLI sets the same value
    return harness.ExperimentConfig(
        model=MODEL, payoff=PAYOFF, estimator_id=estimator_id, n_samples=n, replications=reps,
        seed=seed, **extra,
    )


@contextlib.contextmanager
def _captured(module, name: str):
    """Collect the return values of ``module.name`` while the block runs."""
    original = getattr(module, name)
    results = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, name, capture)
    try:
        yield results
    finally:
        setattr(module, name, original)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def _within(fails: list, label: str, values, reference: float, allowance: float) -> None:
    """Pooled mean within K_STDERR stderr plus allowance * |reference|."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    tol = K_STDERR * se + allowance * abs(reference)
    if not abs(mean - reference) <= tol:
        fails.append(f"{label}: mean {mean!r} is {mean - reference:+.3e} from {reference!r} "
                     f"(tolerance {tol:.3e}, stderr {se:.3e}, {values.size} estimates)")


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.digest()


class EuropeanCompare:
    """``kernelgreeks compare`` for six estimators at N = 1e6, auto bandwidth."""

    name = "european_compare"
    ids = ("hat", "check", "uniform", "exponential", "lr", "fd")
    # at N = 1e5 the per-replication arrays (0.8 MB) stay cache-sized and the
    # run-to-run spread of this machine reached 30 %; at N = 1e6 it is a few %
    n = 1_000_000
    reps = 10  # compare writes the KDE CSVs from 10 replications on
    ops = len(ids)
    samples = n * reps * len(ids)
    # smoothing-bias allowance relative to the Delta; the kernel estimators
    # run at the MSE-optimal bandwidth, where the bias is of the order of
    # one replication's standard deviation (about 1 % here); the centered
    # difference with bump 0.5 has a bias of order 1e-4 relative
    allowance = {"hat": 0.05, "check": 0.05, "uniform": 0.05, "exponential": 0.05, "lr": 0.0,
                 "fd": 0.01}

    def plans(self, seed: int) -> None:
        for eid in self.ids:
            harness.resolve_run(_config(eid, self.n, self.reps, seed))
        harness.reference_value(_config("lr", self.n, self.reps, seed))

    def body(self, seed: int, outdir):
        out = outdir / "compare.csv"
        argv = ["compare", "--estimator", ",".join(self.ids), "--n", str(self.n),
                "--reps", str(self.reps), "--seed", str(seed), "--out", str(out)]
        with _captured(cli, "run_replications") as results:
            rc, text = _run_cli(argv)
        return {"rc": rc, "text": text, "results": results, "out": out}

    def check_round(self, state, fails: list) -> dict:
        delta = refs.digital_delta()
        if state["rc"] != 0:
            fails.append(f"compare exited with {state['rc']}")
            return {}
        printed = dict(re.findall(r"^(\w+): (\S+) \+/- \S+ \(mse = \S+\)$", state["text"], re.M))
        with open(state["out"], newline="") as fh:
            rows = {row["estimator"]: row for row in csv.DictReader(fh)}
        estimates = {eid: res.estimates for eid, res in zip(self.ids, state["results"])}
        if sorted(printed) != sorted(self.ids) or sorted(rows) != sorted(self.ids) or len(
                estimates) != len(self.ids):
            fails.append(f"compare printed {sorted(printed)}, wrote {sorted(rows)}")
            return {}
        for eid in self.ids:
            row = rows[eid]
            if row["mean"] != printed[eid] or float(printed[eid]) != float(np.mean(estimates[eid])):
                fails.append(f"{eid}: CSV mean {row['mean']}, printed {printed[eid]}")
            if abs(float(row["reference"]) - delta) > 1e-12 * delta:
                fails.append(f"{eid}: reference column {row['reference']} != {delta!r}")
            if int(row["N"]) != self.n or int(row["replications"]) != self.reps:
                fails.append(f"{eid}: CSV row has N={row['N']} R={row['replications']}")
        base = estimates["uniform"]
        for eid in ("hat", "check"):
            if not np.all(np.abs(estimates[eid] - base) <= 1e-12 * np.abs(base)):
                worst = float(np.max(np.abs(estimates[eid] - base) / np.abs(base)))
                fails.append(f"{eid} differs from uniform by {worst:.2e} relative")
        return {"estimates": estimates,
                "digest": _digest(*(estimates[eid] for eid in self.ids))}

    def check_run(self, records: list, fails: list, seed: int) -> None:
        delta = refs.digital_delta()
        for eid in self.ids:
            pooled = np.concatenate([rec["estimates"][eid] for rec in records])
            _within(fails, eid, pooled, delta, self.allowance[eid])


class AsianDigital:
    """Asian state, M = 50: uniform and fd replications plus the FD reference."""

    name = "asian_digital"
    n = 100_000
    reps = 4
    steps = 50
    reference_paths = 500_000
    ops = 3
    samples = 2 * n * reps + reference_paths
    # the program's reference is a centered difference whose bump is tuned
    # for its path count; at 5e5 paths it reads about 1 % low
    reference_tolerance = 0.03
    allowance = {"uniform": 0.05, "fd": 0.01}

    def _configs(self, seed):
        asian = AsianConfig(steps=self.steps)
        return [_config(eid, self.n, self.reps, seed, asian=asian) for eid in ("uniform", "fd")]

    def plans(self, seed: int) -> None:
        for cfg in self._configs(seed):
            harness.resolve_run(cfg)

    def body(self, seed: int, outdir):
        results = [harness.run_replications(cfg) for cfg in self._configs(seed)]
        reference = harness.asian_fd_reference(MODEL, PAYOFF, AsianConfig(steps=self.steps), seed,
                                               n=self.reference_paths)
        return {"uniform": results[0].estimates, "fd": results[1].estimates,
                "reference": reference}

    def check_round(self, state, fails: list) -> dict:
        cmc = refs.load()["asian_digital_delta"]["value"]
        if abs(state["reference"] - cmc) > self.reference_tolerance * cmc:
            fails.append(f"program reference {state['reference']!r} vs conditional MC {cmc!r}")
        return {**state, "digest": _digest(state["uniform"], state["fd"], [state["reference"]])}

    def check_run(self, records: list, fails: list, seed: int) -> None:
        cmc = refs.load()["asian_digital_delta"]["value"]
        for eid in ("uniform", "fd"):
            pooled = np.concatenate([rec[eid] for rec in records])
            _within(fails, f"asian {eid}", pooled, cmc, self.allowance[eid])


class DoubleKernel:
    """Leave-one-out double-kernel estimator, auto bandwidth, N = 1e4."""

    name = "double_kernel"
    n = 10_000
    reps = 2
    ops = 1
    samples = n * reps
    # the automatic bandwidth balances the single-kernel MSE, not the
    # double kernel's, and the estimator reads about 15 % low at this N
    allowance = 0.25
    direct_draws = 3000

    def _cfg(self, seed):
        return _config("double", self.n, self.reps, seed)

    def plans(self, seed: int) -> None:
        harness.resolve_run(self._cfg(seed))

    def body(self, seed: int, outdir):
        res = harness.run_replications(self._cfg(seed))
        return {"estimates": res.estimates, "h": res.h}

    def check_round(self, state, fails: list) -> dict:
        if not np.all(np.isfinite(state["estimates"])):
            fails.append("double-kernel estimate is not finite")
        return {**state, "digest": _digest(state["estimates"])}

    def check_run(self, records: list, fails: list, seed: int) -> None:
        pooled = np.concatenate([rec["estimates"] for rec in records])
        _within(fails, "double", pooled, refs.digital_delta(), self.allowance)
        # the program's sweep against the direct sum on a sample drawn here,
        # at the bandwidth and support the harness uses for this estimator
        h = records[0]["h"]
        eps = 2.0 * h
        rng = np.random.default_rng(seed)
        lam = refs.SPOT - rng.uniform(-eps, eps, self.direct_draws)
        gauss = rng.standard_normal(self.direct_draws)
        z = lam * np.exp((refs.RATE - 0.5 * refs.VOL**2) * refs.MATURITY
                         + refs.VOL * math.sqrt(refs.MATURITY) * gauss)
        phi = (z > refs.STRIKE).astype(float)
        randomizer = Randomizer(kind="uniform", epsilon=eps)
        k2 = builtin_kernel("p2")
        ss = SampleSet(lambda0=refs.SPOT, lambdas=lam, states=z, payoffs=phi, randomizer=randomizer)
        cfg = EstimatorConfig(kernel=k2, bandwidth=h, randomizer=randomizer, second_kernel=k2)
        got = estimate_double_kernel(ss, cfg).value
        want = refs.double_kernel_direct(refs.SPOT, lam, z, phi, h, eps)
        if not abs(got - want) <= 1e-9 * abs(want):
            fails.append(f"double kernel {got!r} vs direct sum {want!r}")


class SmallNSweep:
    """``kernelgreeks sweep`` for uniform, auto bandwidth, N = 1e2..1e4."""

    name = "small_n_sweep"
    grid = (100, 316, 1000, 3162, 10000)
    reps = 1000
    ops = len(grid)
    samples = reps * sum(grid)
    # the MSE of the order-2 estimator at its optimal bandwidth falls like
    # N^(-2/3); at these N and 1000 replications the fitted slope scatters
    # by a few hundredths around -0.63
    slope_band = 0.12

    def plans(self, seed: int) -> None:
        cfg = _config("uniform", self.grid[0], self.reps, seed)
        harness.reference_value(cfg)
        for i, n in enumerate(self.grid):
            harness.resolve_run(replace(cfg, n_samples=n), sweep_base(i))

    def body(self, seed: int, outdir):
        out = outdir / "rate.csv"
        argv = ["sweep", "--estimator", "uniform", "--bandwidth", "auto",
                "--n", ",".join(map(str, self.grid)), "--reps", str(self.reps),
                "--seed", str(seed), "--out", str(out)]
        rc, text = _run_cli(argv)
        return {"rc": rc, "text": text, "out": out}

    def check_round(self, state, fails: list) -> dict:
        if state["rc"] != 0:
            fails.append(f"sweep exited with {state['rc']}")
            return {}
        printed = re.search(r"^slope = (\S+), r2 = (\S+)$", state["text"], re.M)
        raw = state["out"].read_bytes()
        lines = raw.decode().splitlines()
        trailer = re.fullmatch(r"# slope=(\S+) r2=(\S+)", lines[-1])
        table = list(csv.DictReader(lines[:-1]))
        if printed is None or trailer is None or [int(r["N"]) for r in table] != list(self.grid):
            fails.append("sweep output does not parse")
            return {}
        x = np.log([float(r["N"]) for r in table])
        y = np.log([float(r["mse"]) for r in table])
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
        for label, value in (("printed", printed.group(1)), ("CSV", trailer.group(1))):
            if abs(float(value) - slope) > 1e-9 * abs(slope):
                fails.append(f"{label} slope {value} != refit {slope!r}")
        if abs(slope + 2.0 / 3.0) > self.slope_band:
            fails.append(f"MSE slope {slope!r} outside -2/3 +/- {self.slope_band}")
        return {"slope": slope, "digest": hashlib.sha256(raw).digest()}

    def check_run(self, records: list, fails: list, seed: int) -> None:
        pass


WORKLOADS = {w.name: w for w in (EuropeanCompare(), AsianDigital(), DoubleKernel(), SmallNSweep())}
