"""Command-line front end.

Four subcommands share one flag set:

- ``estimate``: one replication study, prints ``mean +/- stderr``
- ``bandwidth``: pilot pipeline only, prints the fitted quantities; lr
  and fd have no bandwidth and show uniform's
- ``sweep``: rate study over a comma-separated ``--n`` grid, writes the
  rate CSV
- ``compare``: several comma-separated ``--estimator`` ids on common
  random streams, writes a summary CSV and one KDE CSV per estimator

``--config FILE`` reads flat ``key=value`` lines whose keys equal the
flag names, or a JSON object with the same keys, such as a written
sidecar; explicit command-line flags override file values. Every
file-writing command drops a JSON sidecar with the resolved config next
to its output.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

from .errors import InvalidConfigFile, KernelGreeksError
from .export import (
    config_mapping,
    format_real,
    parse_config_file,
    sibling_path,
    sidecar_path,
    summary_row,
    write_config_sidecar,
    write_kde_csv,
    write_raw_csv,
    write_rate_csv,
    write_summary_csv,
)
from .harness import (
    ESTIMATOR_IDS,
    KERNEL_ESTIMATORS,
    CommonRun,
    ExperimentConfig,
    convergence_rate_fit,
    kde_grid,
    kde_of_estimates,
    reference_value,
    resolve_run,
    run_replications,
    summarize,
)
from .models import AsianConfig, GbmParams, digital_call, identity_payoff, vanilla_call

__all__ = ["main", "build_parser"]

_PAYOFFS = {
    "digital": digital_call,
    "vanilla": vanilla_call,
    "identity": lambda strike: identity_payoff(),
}


def _add_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, help="flat key=value file; flags override")
    sp.add_argument("--model.spot", dest="model_spot", type=float, default=120.0)
    sp.add_argument("--model.rate", dest="model_rate", type=float, default=0.0)
    sp.add_argument("--model.vol", dest="model_vol", type=float, default=0.2)
    sp.add_argument("--model.maturity", dest="model_maturity", type=float, default=1.0)
    sp.add_argument("--payoff", choices=sorted(_PAYOFFS), default="digital")
    sp.add_argument("--strike", type=float, default=120.0)
    sp.add_argument(
        "--asian-steps",
        dest="asian_steps",
        type=int,
        default=0,
        help="0 = terminal state; > 0 switches to the averaged state",
    )
    sp.add_argument(
        "--estimator",
        default="uniform",
        help="one of %s; compare accepts a comma list" % "|".join(ESTIMATOR_IDS),
    )
    sp.add_argument("--kernel", choices=["p2", "p4", "p6"], default="p2")
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=0.5, help="finite-difference scheme")
    sp.add_argument("--fd-eps", dest="fd_eps", type=float, default=0.5)
    sp.add_argument("--bandwidth", default="auto", help="'auto' or a positive value")
    sp.add_argument("--n", default="100000", help="sample count; sweep takes a comma list")
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--antithetic", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--out", default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelgreeks",
        description="Monte Carlo Delta estimation by parameter randomization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("estimate", "run one replication study and print mean +/- stderr"),
        ("bandwidth", "run the pilot pipeline and print the fitted quantities"),
        ("sweep", "fit the MSE convergence rate over an N grid"),
        ("compare", "run several estimators on common streams"),
    ):
        _add_flags(sub.add_parser(name, help=text))
    return parser


#: the spellings of a boolean in a config file, in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _mapping_to_argv(mapping: dict) -> list[str]:
    argv: list[str] = []
    for key, value in mapping.items():
        if key in ("command", "config") or value is None:
            continue
        if key == "antithetic":
            truthy = value if isinstance(value, bool) else _BOOLEANS.get(str(value).lower())
            if truthy is None:
                raise InvalidConfigFile(f"antithetic must be a boolean, got {value!r}")
            argv.append("--antithetic" if truthy else "--no-antithetic")
            continue
        argv.extend([f"--{key}", str(value)])
    return argv


def _single_n(ns, parser) -> int:
    try:
        return int(str(ns.n).strip())
    except ValueError:
        parser.error(f"--n must be a single integer here, got {ns.n!r}")


def _n_grid(ns, parser) -> list[int]:
    try:
        grid = [int(part.strip()) for part in str(ns.n).split(",") if part.strip()]
    except ValueError:
        parser.error(f"--n must be a comma list of integers, got {ns.n!r}")
    if not grid:
        parser.error("--n gave an empty grid")
    return grid


def _bandwidth_value(ns):
    if str(ns.bandwidth).strip() == "auto":
        return "auto"
    try:
        return float(ns.bandwidth)
    except ValueError:
        raise ValueError(f"--bandwidth must be 'auto' or a number, got {ns.bandwidth!r}") from None


def _build_config(ns, estimator_id: str, n: int) -> ExperimentConfig:
    """The config of one estimator; raises ValueError on invalid flags."""
    if ns.asian_steps < 0:
        raise ValueError(f"--asian-steps must be 0 or positive, got {ns.asian_steps}")
    model = GbmParams(
        spot=ns.model_spot,
        rate=ns.model_rate,
        vol=ns.model_vol,
        maturity=ns.model_maturity,
    )
    payoff = _PAYOFFS[ns.payoff](ns.strike)
    asian = AsianConfig(steps=ns.asian_steps) if ns.asian_steps > 0 else None
    return ExperimentConfig(
        model=model,
        payoff=payoff,
        estimator_id=estimator_id,
        asian=asian,
        kernel_family=ns.kernel,
        bandwidth=_bandwidth_value(ns),
        theta=ns.theta,
        n_samples=n,
        replications=ns.reps,
        seed=ns.seed,
        antithetic=ns.antithetic,
        fd_alpha=ns.alpha,
        fd_eps=ns.fd_eps,
    )


def _experiment_config(ns, parser, estimator_id: str, n: int) -> ExperimentConfig:
    try:
        return _build_config(ns, estimator_id, n)
    except ValueError as exc:
        parser.error(str(exc))


def _require_summary_reps(ns, parser) -> None:
    if ns.reps < 2:  # a summary needs two; bandwidth ignores --reps
        parser.error(f"--reps must be at least 2 for a summary, got {ns.reps}")


def _check_outputs(out, *tags) -> None:
    """Before any work, raise the OSError that writing ``out``, its config
    sidecar or its sibling of each tag would raise for a missing directory
    or a directory in the file's place."""
    for path in (Path(out), *(sibling_path(out, tag) for tag in tags), sidecar_path(out)):
        if path.is_dir() or not path.parent.is_dir():
            code = errno.EISDIR if path.is_dir() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(path))


def _cmd_estimate(ns, parser) -> int:
    cfg = _experiment_config(ns, parser, ns.estimator, _single_n(ns, parser))
    _require_summary_reps(ns, parser)
    if ns.out:
        _check_outputs(ns.out, "raw")
    common = CommonRun([cfg])
    ref, source = reference_value(cfg)
    result = run_replications(cfg, common=common)
    summary = summarize(result.estimates, ref, source)
    print(f"{format_real(summary.mean)} +/- {format_real(summary.stderr)}")
    print(f"reference = {format_real(ref)} ({source})")
    plan = result.plan
    if plan.h is not None:
        print(
            f"h = {format_real(plan.h)}, theta = {format_real(plan.theta)}, "
            f"epsilon = {format_real(plan.epsilon)}"
        )
    if ns.out:
        out = write_summary_csv(ns.out, [summary_row(cfg, result, summary)])
        write_raw_csv(sibling_path(out, "raw"), result.estimates, result.runtime_ms)
        write_config_sidecar(out, {"command": "estimate", **config_mapping(cfg)})
    return 0


def _cmd_bandwidth(ns, parser) -> int:
    if ns.estimator not in ESTIMATOR_IDS:
        parser.error(f"unknown estimator {ns.estimator!r}")
    estimator = ns.estimator if ns.estimator in KERNEL_ESTIMATORS else "uniform"
    cfg = _experiment_config(ns, parser, estimator, _single_n(ns, parser))
    if cfg.bandwidth != "auto":
        cfg = dataclasses.replace(cfg, bandwidth="auto")
    plan = resolve_run(cfg)
    pilot, choice = plan.pilot, plan.choice
    print(f"m_hat = {format_real(pilot.m_hat)}")
    print(f"Sigma_hat = {format_real(pilot.Sigma_hat)}")
    for k, value in enumerate(pilot.E, start=1):
        print(f"E_{k} = {format_real(value)}")
    print(f"sigma_e = {format_real(pilot.sigma_e)}")
    print(f"theta_star = {format_real(choice.theta_star)}")
    print(f"h_star = {format_real(choice.h_star)}")
    print(f"predicted_mse = {format_real(choice.predicted_mse)}")
    if choice.degenerate:
        print("degenerate bias constant: bias-free fallback bandwidth")
    return 0


def _cmd_sweep(ns, parser) -> int:
    if not ns.out:
        parser.error("sweep needs --out for the rate CSV")
    grid = _n_grid(ns, parser)
    cfg = _experiment_config(ns, parser, ns.estimator, grid[0])
    _require_summary_reps(ns, parser)
    _check_outputs(ns.out)
    fit = convergence_rate_fit(cfg, grid)
    out = write_rate_csv(ns.out, fit)
    mapping = {"command": "sweep", **config_mapping(cfg), "n": ",".join(map(str, grid))}
    write_config_sidecar(out, mapping)
    print(f"slope = {format_real(fit.slope)}, r2 = {format_real(fit.r_squared)}")
    return 0


def _cmd_compare(ns, parser) -> int:
    if not ns.out:
        parser.error("compare needs --out for the summary CSV")
    ids = [part.strip() for part in ns.estimator.split(",") if part.strip()]
    if not ids:
        parser.error("--estimator gave an empty list")
    n = _single_n(ns, parser)
    # every config is built, and the first invalid one reported, before any work
    cfgs = [_experiment_config(ns, parser, estimator_id, n) for estimator_id in ids]
    _require_summary_reps(ns, parser)
    _check_outputs(ns.out, *(f"kde.{c.estimator_id}" for c in cfgs if c.replications >= 10))
    common = CommonRun(cfgs)
    reference, source = reference_value(cfgs[0])
    # every row, line and density is built before anything is printed or
    # written, so an estimator that fails leaves no partial output
    rows, lines, kdes = [], [], []
    for cfg in cfgs:
        result = run_replications(cfg, common=common)
        summary = summarize(result.estimates, reference, source)
        rows.append(summary_row(cfg, result, summary))
        lines.append(
            f"{cfg.estimator_id}: {format_real(summary.mean)} +/- {format_real(summary.stderr)}"
            f" (mse = {format_real(summary.mse)})"
        )
        # a density needs 10 estimates that are not all equal
        if cfg.replications >= 10 and summary.variance > 0.0:
            grid = kde_grid(result.estimates)
            kdes.append((sibling_path(ns.out, f"kde.{cfg.estimator_id}"), grid,
                         kde_of_estimates(result.estimates, grid)))
    print("\n".join(lines))
    for path, grid, density in kdes:
        write_kde_csv(path, grid, density)
    out = write_summary_csv(ns.out, rows)
    mapping = {"command": "compare", **config_mapping(cfgs[0]), "estimator": ",".join(ids)}
    write_config_sidecar(out, mapping)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bandwidth": _cmd_bandwidth,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            injected = _mapping_to_argv(parse_config_file(ns.config))
            at = argv.index(ns.command)
            ns = parser.parse_args(argv[: at + 1] + injected + argv[at + 1 :])
        return _COMMANDS[ns.command](ns, parser)
    except (KernelGreeksError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
