"""Flat-file output: CSV schemas, config sidecars, config file parsing.

Every real is written with 17 significant digits so a run can be
byte-compared against a rerun of the same config. Timings are exempt:
the runtime_ms column of the raw CSV measures wall time. A replication
evaluated in a block of B replications gets the block's wall time
divided by B, and by the number of estimators when several run on the
block's common draws, so rows of one block share a value.

Formats
-------
- summary CSV: one row per run,
  ``estimator,payoff,N,h,theta,epsilon,seed,replications,mean,bias,variance,mse,stderr,reference,reference_source``
- raw CSV: ``replication,estimate,runtime_ms``
- rate CSV: ``N,h,mse,log_n,log_mse`` and a trailing ``# slope=… r2=…``
- KDE CSV: ``grid_point,density``
- config sidecar: JSON mapping of the flat config keys, written next to
  the main output as ``<stem>.config.json``

Config files for ``--config`` hold one ``key=value`` pair per line with
the same keys as the CLI flags (no leading dashes); ``#`` starts a
comment. A file that starts with ``{`` is read as a JSON object with the
same keys instead, so a config sidecar replays its run directly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidConfigFile
from .harness import ExperimentConfig, ExperimentSummary, RateFit, RunResult

__all__ = [
    "SUMMARY_COLUMNS",
    "RAW_COLUMNS",
    "RATE_COLUMNS",
    "KDE_COLUMNS",
    "format_real",
    "summary_row",
    "write_summary_csv",
    "write_raw_csv",
    "write_rate_csv",
    "write_kde_csv",
    "config_mapping",
    "write_config_sidecar",
    "sidecar_path",
    "sibling_path",
    "parse_config_file",
]

SUMMARY_COLUMNS = (
    "estimator,payoff,N,h,theta,epsilon,seed,replications,"
    "mean,bias,variance,mse,stderr,reference,reference_source"
)
RAW_COLUMNS = "replication,estimate,runtime_ms"
RATE_COLUMNS = "N,h,mse,log_n,log_mse"
KDE_COLUMNS = "grid_point,density"


def format_real(value) -> str:
    """17-significant-digit decimal; empty string for missing values."""
    if value is None:
        return ""
    return "%.17g" % float(value)


def _write_lines(path, lines) -> Path:
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def summary_row(cfg: ExperimentConfig, result: RunResult, summary: ExperimentSummary) -> str:
    payoff_name = cfg.payoff.kind if cfg.asian is None else f"asian_{cfg.payoff.kind}"
    plan = result.plan
    fields = [
        cfg.estimator_id,
        payoff_name,
        str(cfg.n_samples),
        format_real(plan.h),
        format_real(plan.theta),
        format_real(plan.epsilon),
        str(cfg.seed),
        str(cfg.replications),
        format_real(summary.mean),
        format_real(summary.bias),
        format_real(summary.variance),
        format_real(summary.mse),
        format_real(summary.stderr),
        format_real(summary.reference),
        summary.reference_source,
    ]
    return ",".join(fields)


def write_summary_csv(path, rows) -> Path:
    """Write the header plus one pre-rendered row string per run."""
    return _write_lines(path, [SUMMARY_COLUMNS, *rows])


def write_raw_csv(path, estimates, runtime_ms) -> Path:
    estimates = np.asarray(estimates, dtype=float)
    runtime_ms = np.asarray(runtime_ms, dtype=float)
    lines = [RAW_COLUMNS]
    for j, (value, ms) in enumerate(zip(estimates, runtime_ms)):
        lines.append(f"{j},{format_real(value)},{format_real(ms)}")
    return _write_lines(path, lines)


def write_rate_csv(path, fit: RateFit) -> Path:
    lines = [RATE_COLUMNS]
    for n, h, mse in zip(fit.grid_N, fit.h, fit.mse):
        lines.append(
            ",".join(
                [
                    str(int(n)),
                    format_real(h),
                    format_real(mse),
                    format_real(np.log(float(n))),
                    format_real(np.log(mse)),
                ]
            )
        )
    lines.append(f"# slope={format_real(fit.slope)} r2={format_real(fit.r_squared)}")
    return _write_lines(path, lines)


def write_kde_csv(path, grid, density) -> Path:
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    lines = [KDE_COLUMNS]
    for g, d in zip(grid, density):
        lines.append(f"{format_real(g)},{format_real(d)}")
    return _write_lines(path, lines)


def config_mapping(cfg: ExperimentConfig) -> dict:
    """Flatten a config to the key set shared by CLI flags and files."""
    return {
        "model.spot": cfg.model.spot,
        "model.rate": cfg.model.rate,
        "model.vol": cfg.model.vol,
        "model.maturity": cfg.model.maturity,
        "payoff": cfg.payoff.kind,
        "strike": cfg.payoff.strike,
        "asian-steps": 0 if cfg.asian is None else cfg.asian.steps,
        "estimator": cfg.estimator_id,
        "kernel": cfg.kernel_family,
        "theta": cfg.theta,
        "alpha": cfg.fd_alpha,
        "fd-eps": cfg.fd_eps,
        "bandwidth": cfg.bandwidth,
        "n": cfg.n_samples,
        "reps": cfg.replications,
        "seed": cfg.seed,
        "antithetic": cfg.antithetic,
    }


def sidecar_path(out_path) -> Path:
    out_path = Path(out_path)
    if out_path.suffix:
        return out_path.with_suffix(".config.json")
    return out_path.with_name(out_path.name + ".config.json")


def sibling_path(out_path, tag: str) -> Path:
    """A related output file: results.csv -> results.<tag>.csv."""
    out_path = Path(out_path)
    suffix = out_path.suffix or ".csv"
    stem = out_path.name[: -len(out_path.suffix)] if out_path.suffix else out_path.name
    return out_path.with_name(f"{stem}.{tag}{suffix}")


def write_config_sidecar(out_path, mapping: dict) -> Path:
    path = sidecar_path(out_path)
    path.write_text(json.dumps(mapping, indent=2, sort_keys=True) + "\n")
    return path


def parse_config_file(path) -> dict:
    """Read a config file into a mapping: flat key=value lines give strings,
    a JSON object (a config sidecar) gives its scalar values as written."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidConfigFile(f"cannot read config file {str(path)!r}: {reason}") from exc
    if text.lstrip().startswith("{"):
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfigFile(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
        nested = [key for key, value in mapping.items() if isinstance(value, (dict, list))]
        if nested:
            raise InvalidConfigFile(f"config keys must map to single values: {nested[0]!r}")
        return mapping
    mapping = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigFile(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping
