"""Command-line front end and the flat-file export layer behind it."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgreeks import (
    ExperimentConfig,
    GbmParams,
    digital_call,
    reference_value,
    run_replications,
    summarize,
)
from kernelgreeks import cli, harness
from kernelgreeks.cli import main
from kernelgreeks.export import (
    KDE_COLUMNS,
    RATE_COLUMNS,
    RAW_COLUMNS,
    SUMMARY_COLUMNS,
    config_mapping,
    format_real,
    parse_config_file,
    sibling_path,
    sidecar_path,
    summary_row,
    write_raw_csv,
    write_summary_csv,
)
from kernelgreeks.models import AsianConfig

PAPER = GbmParams(spot=120.0, rate=0.0, vol=0.2, maturity=1.0)


# -- formatting and schemas -------------------------------------------------------


def test_column_headers_are_pinned():
    assert SUMMARY_COLUMNS == (
        "estimator,payoff,N,h,theta,epsilon,seed,replications,"
        "mean,bias,variance,mse,stderr,reference,reference_source"
    )
    assert RAW_COLUMNS == "replication,estimate,runtime_ms"
    assert RATE_COLUMNS == "N,h,mse,log_n,log_mse"
    assert KDE_COLUMNS == "grid_point,density"


def test_format_real():
    assert format_real(None) == ""
    assert format_real(1.0) == "1"
    assert format_real(0.1) == "0.10000000000000001"
    assert float(format_real(math.pi)) == math.pi
    assert format_real(float("nan")) == "nan"


def test_summary_row_fields():
    cfg = ExperimentConfig(
        model=PAPER,
        payoff=digital_call(120.0),
        estimator_id="lr",
        bandwidth=1.0,
        n_samples=500,
        replications=4,
        seed=11,
    )
    result = run_replications(cfg)
    ref, source = reference_value(cfg)
    summary = summarize(result.estimates, ref, source)
    fields = summary_row(cfg, result, summary).split(",")
    assert len(fields) == len(SUMMARY_COLUMNS.split(","))
    assert fields[0] == "lr"
    assert fields[1] == "digital"
    assert fields[2] == "500"
    assert fields[3] == fields[4] == fields[5] == ""  # no h, theta, epsilon
    assert float(fields[8]) == summary.mean
    assert fields[14] == "closed_form"


def test_summary_row_marks_averaged_state():
    cfg = ExperimentConfig(
        model=PAPER,
        payoff=digital_call(120.0),
        estimator_id="uniform",
        asian=AsianConfig(steps=4),
        bandwidth=4.0,
        n_samples=200,
        replications=2,
        seed=5,
    )
    result = run_replications(cfg)
    summary = summarize(result.estimates, None)
    fields = summary_row(cfg, result, summary).split(",")
    assert fields[1] == "asian_digital"
    assert fields[14] == "none"
    assert fields[9] == "nan"  # bias has no reference to lean on


def test_raw_csv_layout(tmp_path):
    path = write_raw_csv(tmp_path / "r.csv", [1.5, 2.5], [10.0, 20.0])
    lines = path.read_text().splitlines()
    assert lines == [RAW_COLUMNS, "0,1.5,10", "1,2.5,20"]


def test_summary_csv_empty_rows(tmp_path):
    path = write_summary_csv(tmp_path / "s.csv", [])
    assert path.read_text() == SUMMARY_COLUMNS + "\n"


def test_sidecar_and_sibling_paths(tmp_path):
    assert sidecar_path("results.csv").name == "results.config.json"
    assert sidecar_path("results").name == "results.config.json"
    assert sibling_path("results.csv", "raw").name == "results.raw.csv"
    assert sibling_path("results", "kde.lr").name == "results.kde.lr.csv"


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 99\n\nn=1000  # trailing\nestimator=lr\n")
    assert parse_config_file(path) == {"seed": "99", "n": "1000", "estimator": "lr"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 99\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_config_mapping_keys():
    cfg = ExperimentConfig(
        model=PAPER,
        payoff=digital_call(120.0),
        estimator_id="uniform",
        bandwidth=4.0,
        n_samples=100,
        replications=2,
        seed=1,
    )
    mapping = config_mapping(cfg)
    assert set(mapping) == {
        "model.spot",
        "model.rate",
        "model.vol",
        "model.maturity",
        "payoff",
        "strike",
        "asian-steps",
        "estimator",
        "kernel",
        "theta",
        "alpha",
        "fd-eps",
        "bandwidth",
        "n",
        "reps",
        "seed",
        "antithetic",
    }
    assert mapping["asian-steps"] == 0
    assert mapping["bandwidth"] == 4.0


# -- CLI commands ----------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_estimate_prints_summary(capsys):
    code = run_cli(
        "estimate", "--estimator", "lr", "--n", "2000", "--reps", "5", "--seed", "3"
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert " +/- " in out[0]
    assert out[1].startswith("reference = ") and out[1].endswith("(closed_form)")
    assert len(out) == 2  # no bandwidth line for a non-kernel estimator


def test_estimate_kernel_reports_resolution(capsys):
    code = run_cli(
        "estimate",
        "--estimator",
        "uniform",
        "--bandwidth",
        "4",
        "--n",
        "2000",
        "--reps",
        "5",
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "h = 4, theta = 0, epsilon = 4"


def test_estimate_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code = run_cli(
        "estimate",
        "--estimator",
        "uniform",
        "--bandwidth",
        "4",
        "--n",
        "2000",
        "--reps",
        "6",
        "--seed",
        "21",
        "--out",
        str(out_csv),
    )
    assert code == 0
    capsys.readouterr()
    summary_lines = out_csv.read_text().splitlines()
    assert summary_lines[0] == SUMMARY_COLUMNS
    assert len(summary_lines) == 2
    raw_lines = (tmp_path / "run.raw.csv").read_text().splitlines()
    assert raw_lines[0] == RAW_COLUMNS
    assert len(raw_lines) == 7
    sidecar = json.loads((tmp_path / "run.config.json").read_text())
    assert sidecar["command"] == "estimate"
    assert sidecar["seed"] == 21
    assert sidecar["bandwidth"] == 4.0


def test_bandwidth_command_prints_pilot(capsys):
    code = run_cli("bandwidth", "--n", "50000", "--seed", "7")
    assert code == 0
    out = capsys.readouterr().out
    for label in ("m_hat", "Sigma_hat", "E_1", "E_2", "E_3", "sigma_e", "theta_star", "h_star", "predicted_mse"):
        assert f"{label} = " in out
    h_line = [line for line in out.splitlines() if line.startswith("h_star")][0]
    assert float(h_line.split(" = ")[1]) > 0.0


def test_bandwidth_refuses_an_unknown_estimator_and_shows_uniform_for_lr_and_fd(capsys):
    for estimator in ("bogus", "uniform,lr"):
        with pytest.raises(SystemExit) as exc:
            run_cli("bandwidth", "--estimator", estimator, "--n", "1000")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error: " in line]
        assert errors == [f"kernelgreeks: error: unknown estimator {estimator!r}"]
    printed = {}
    for estimator in ("uniform", "lr", "fd"):
        assert run_cli("bandwidth", "--estimator", estimator, "--n", "1000") == 0
        printed[estimator] = capsys.readouterr().out
    assert printed["lr"] == printed["fd"] == printed["uniform"]


def test_sweep_requires_out():
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--estimator", "lr", "--n", "100,1000,10000")
    assert exc.value.code == 2


def test_sweep_writes_rate_csv(tmp_path, capsys):
    out_csv = tmp_path / "rate.csv"
    code = run_cli(
        "sweep",
        "--estimator",
        "lr",
        "--n",
        "100,1000,10000,100000",
        "--reps",
        "20",
        "--seed",
        "13",
        "--out",
        str(out_csv),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("slope = ")
    lines = out_csv.read_text().splitlines()
    assert lines[0] == RATE_COLUMNS
    assert len(lines) == 6
    assert lines[-1].startswith("# slope=") and " r2=" in lines[-1]
    slope = float(lines[-1].split("slope=")[1].split()[0])
    assert -1.4 <= slope <= -0.6
    body = [line.split(",") for line in lines[1:5]]
    assert [row[0] for row in body] == ["100", "1000", "10000", "100000"]
    assert all(row[1] == "" for row in body)  # lr has no bandwidth
    sidecar = json.loads((tmp_path / "rate.config.json").read_text())
    assert sidecar["n"] == "100,1000,10000,100000"


@pytest.mark.parametrize("grid", ["100,1000,10000", "100,200,400,800"])
def test_sweep_rejects_a_short_grid_before_any_work(tmp_path, capsys, monkeypatch, grid):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started work before checking its grid")

    monkeypatch.setattr(harness, "resolve_run", no_work)
    monkeypatch.setattr(harness, "reference_value", no_work)
    code = run_cli("sweep", "--estimator", "uniform", "--n", grid, "--reps", "30", "--seed", "2",
                   "--out", str(tmp_path / "s.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(("error: rate fits", "error: grid_N"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [["--estimator", "lr"], ["--estimator", "fd"],
                                   ["--estimator", "uniform", "--bandwidth", "5"]])
def test_sweep_refuses_a_zero_mse(tmp_path, capsys, extra):
    # no draw reaches the strike, so every estimate and the reference are 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("sweep", "--strike", "1e6", "--n", "100,1000,10000,100000", "--reps",
                       "2", "--out", str(tmp_path / "s.csv"), *extra)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the MSE at N = 100 is 0, so its log is not finite"]
    assert list(tmp_path.iterdir()) == []
    assert not caught


def test_compare_writes_summary_and_kde(tmp_path, capsys):
    out_csv = tmp_path / "cmp.csv"
    code = run_cli(
        "compare",
        "--estimator",
        "uniform,lr",
        "--bandwidth",
        "4",
        "--n",
        "4000",
        "--reps",
        "12",
        "--seed",
        "31",
        "--out",
        str(out_csv),
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("uniform: ") and printed[1].startswith("lr: ")
    lines = out_csv.read_text().splitlines()
    assert lines[0] == SUMMARY_COLUMNS
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "uniform"
    assert lines[2].split(",")[0] == "lr"
    # both rows share the reference column
    assert lines[1].split(",")[13] == lines[2].split(",")[13]
    for est in ("uniform", "lr"):
        kde_lines = (tmp_path / f"cmp.kde.{est}.csv").read_text().splitlines()
        assert kde_lines[0] == KDE_COLUMNS
        assert len(kde_lines) == 258
        grid = np.array([float(line.split(",")[0]) for line in kde_lines[1:]])
        dens = np.array([float(line.split(",")[1]) for line in kde_lines[1:]])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=2e-2)


def test_compare_skips_kde_for_few_replications(tmp_path, capsys):
    out_csv = tmp_path / "cmp.csv"
    code = run_cli(
        "compare",
        "--estimator",
        "lr",
        "--n",
        "1000",
        "--reps",
        "5",
        "--out",
        str(out_csv),
    )
    assert code == 0
    capsys.readouterr()
    assert out_csv.exists()
    assert not (tmp_path / "cmp.kde.lr.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--estimator", "uniform,bogus,lr"],
        ["--estimator", "uniform,lr", "--antithetic"],
        ["--estimator", "uniform,fd,lr", "--asian-steps", "4"],
        ["--estimator", "uniform,fd", "--alpha", "2"],
        ["--estimator", "uniform,fd", "--fd-eps", "0"],
        ["--estimator", "uniform,fd", "--fd-eps", "-1"],
    ],
)
def test_compare_rejects_an_invalid_estimator_before_any_work(tmp_path, capsys, monkeypatch,
                                                                extra):
    def no_work(*args, **kwargs):
        raise AssertionError("compare started work before checking every estimator")

    monkeypatch.setattr(cli, "CommonRun", no_work)
    monkeypatch.setattr(cli, "reference_value", no_work)
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--n", "2000", "--reps", "12", "--out", str(tmp_path / "x.csv"),
                *extra)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error: " in line]) == 1
    assert list(tmp_path.iterdir()) == []


def test_compare_that_fails_at_replication_time_leaves_no_output(tmp_path, capsys):
    # the fd bump crosses zero spot only inside fd's replications, after
    # uniform has finished: no line is printed and no file is written
    code = run_cli("compare", "--estimator", "uniform,fd", "--fd-eps", "300", "--n", "200",
                   "--reps", "10", "--out", str(tmp_path / "c.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error: " in line]) == 1
    assert list(tmp_path.iterdir()) == []


def test_config_file_merges_and_flags_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("estimator=lr\nn=2000\nreps=5\nseed=3\n")
    run_cli("estimate", "--config", str(cfg_file))
    from_file = capsys.readouterr().out
    run_cli("estimate", "--estimator", "lr", "--n", "2000", "--reps", "5", "--seed", "3")
    direct = capsys.readouterr().out
    assert from_file == direct
    run_cli("estimate", "--config", str(cfg_file), "--seed", "4")
    overridden = capsys.readouterr().out
    run_cli("estimate", "--estimator", "lr", "--n", "2000", "--reps", "5", "--seed", "4")
    assert overridden == capsys.readouterr().out
    assert overridden != direct


def test_sidecar_reproduces_run_byte_for_byte(tmp_path, capsys):
    first = tmp_path / "a.csv"
    run_cli(
        "estimate",
        "--estimator",
        "exponential",
        "--theta",
        "0.3",
        "--bandwidth",
        "5",
        "--n",
        "3000",
        "--reps",
        "8",
        "--seed",
        "77",
        "--antithetic",
        "--out",
        str(first),
    )
    capsys.readouterr()
    mapping = json.loads((tmp_path / "a.config.json").read_text())
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text(
        "\n".join(f"{k}={v}" for k, v in mapping.items() if v is not None) + "\n"
    )
    second = tmp_path / "b.csv"
    run_cli("estimate", "--config", str(cfg_file), "--out", str(second))
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_compare_sidecar_replays_directly(tmp_path, capsys):
    ids = ("hat", "check", "uniform", "lr", "fd")
    first = tmp_path / "a.csv"
    code = run_cli("compare", "--estimator", ",".join(ids), "--kernel", "p4", "--n", "3000",
                   "--reps", "12", "--seed", "5", "--out", str(first))
    assert code == 0
    printed = capsys.readouterr().out
    second = tmp_path / "b.csv"
    assert run_cli("compare", "--config", str(tmp_path / "a.config.json"), "--out", str(second)) == 0
    assert capsys.readouterr().out == printed
    assert first.read_bytes() == second.read_bytes()
    for eid in ids:
        assert (tmp_path / f"a.kde.{eid}.csv").read_bytes() == (
            tmp_path / f"b.kde.{eid}.csv").read_bytes()


def test_lr_first_compare_sidecar_replays_byte_for_byte(tmp_path, capsys):
    # lr has no bandwidth, so the sidecar keeps "auto" for uniform after it
    first = tmp_path / "a.csv"
    argv = ["--estimator", "lr,uniform", "--n", "2000", "--reps", "10", "--seed", "3"]
    assert run_cli("compare", *argv, "--out", str(first)) == 0
    printed = capsys.readouterr().out
    assert json.loads((tmp_path / "a.config.json").read_text())["bandwidth"] == "auto"
    second = tmp_path / "b.csv"
    assert run_cli("compare", "--config", str(tmp_path / "a.config.json"), "--out", str(second)) == 0
    assert capsys.readouterr().out == printed
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv", [
    ["estimate", "--n", "2000", "--reps", "3"],
    ["sweep", "--n", "100,300,1000,10000", "--reps", "3"],
    ["compare", "--estimator", "uniform,lr", "--n", "1000", "--reps", "12"],
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started work before checking --out")

    for module in (cli, harness):
        monkeypatch.setattr(module, "run_replications", no_work)
        monkeypatch.setattr(module, "resolve_run", no_work)
        monkeypatch.setattr(module, "reference_value", no_work)
    out = tmp_path / "missing" / "o.csv" if where == "missing directory" else tmp_path
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno ") and err[0].endswith(f"'{out}'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, sibling", [
    (["estimate", "--n", "2000", "--reps", "3"], "o.raw.csv"),
    (["estimate", "--n", "2000", "--reps", "3"], "o.config.json"),
    (["sweep", "--n", "100,300,1000,10000", "--reps", "3"], "o.config.json"),
    (["compare", "--estimator", "uniform", "--n", "1000", "--reps", "10"], "o.kde.uniform.csv"),
    (["compare", "--estimator", "uniform,lr", "--n", "1000", "--reps", "12"], "o.kde.lr.csv"),
    (["compare", "--estimator", "uniform,lr", "--n", "1000", "--reps", "12"], "o.config.json"),
])
def test_an_unwritable_sibling_fails_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                     sibling):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started work before checking its outputs")

    monkeypatch.setattr(harness, "_replicate", no_work)
    for module in (cli, harness):
        for name in ("run_replications", "resolve_run", "reference_value",
                     "convergence_rate_fit"):
            monkeypatch.setattr(module, name, no_work)
    (tmp_path / sibling).mkdir()
    assert run_cli(*argv, "--out", str(tmp_path / "o.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno ") and err[0].endswith(
        f"'{tmp_path / sibling}'")
    assert [p.name for p in tmp_path.iterdir()] == [sibling]


def test_a_failed_write_ends_in_one_error_line(tmp_path, capsys):
    # a directory in the place of a KDE file fails before any work, as the
    # output check finds it
    (tmp_path / "o.kde.uniform.csv").mkdir()
    code = run_cli("compare", "--estimator", "uniform", "--n", "1000", "--reps", "10",
                   "--out", str(tmp_path / "o.csv"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno ") and "o.kde.uniform.csv" in err[0]


def test_config_file_errors_end_in_one_error_line(tmp_path, capsys):
    no_equals = tmp_path / "bad.cfg"
    no_equals.write_text("seed 99\n")
    nested = tmp_path / "nested.json"
    nested.write_text('{"seed": [1, 2]}\n')
    broken = tmp_path / "broken.json"
    broken.write_text('{"seed": 1\n')
    for path in (tmp_path / "missing.cfg", tmp_path, no_equals, nested, broken):
        assert run_cli("estimate", "--config", str(path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_config_file_booleans_are_checked(tmp_path, capsys):
    flat = tmp_path / "typo.cfg"
    flat.write_text("antithetic=ture\n")
    spelled = tmp_path / "nope.json"
    spelled.write_text('{"antithetic": "nope"}\n')
    out = tmp_path / "out"
    out.mkdir()
    for path in (flat, spelled):
        code = run_cli("estimate", "--config", str(path), "--n", "100", "--reps", "2",
                       "--out", str(out / "e.csv"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: antithetic must be a boolean")
    assert list(out.iterdir()) == []
    # a bool, or one of eight spellings in any case
    for value, flag in ((True, "--antithetic"), ("Yes", "--antithetic"), ("ON", "--antithetic"),
                        ("1", "--antithetic"), (False, "--no-antithetic"),
                        ("off", "--no-antithetic"), ("No", "--no-antithetic"),
                        ("0", "--no-antithetic"), ("FALSE", "--no-antithetic")):
        assert cli._mapping_to_argv({"antithetic": value}) == [flag]


def test_compare_skips_the_density_of_a_constant_sample(tmp_path, capsys):
    # far out of the money every estimate is exactly 0, as under estimate
    code = run_cli("compare", "--estimator", "uniform,lr", "--bandwidth", "5", "--strike", "1e6",
                   "--n", "1000", "--reps", "10", "--out", str(tmp_path / "z.csv"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["uniform", "lr"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["z.config.json", "z.csv"]


def test_bad_arguments_exit_with_usage_error():
    for argv in (
        ["estimate", "--estimator", "pathwise"],
        ["estimate", "--bandwidth", "wide"],
        ["estimate", "--n", "10,20"],
        ["estimate", "--payoff", "butterfly"],
        ["estimate", "--estimator", "lr", "--asian-steps", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_domain_errors_report_cleanly(capsys):
    code = run_cli(
        "estimate", "--estimator", "double", "--bandwidth", "4", "--n", "1", "--reps", "2"
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: replication 0")


def test_estimate_refuses_a_zero_strike_before_replicating(capsys, monkeypatch):
    # the pilot comes before the reference, and the reference still comes
    # before the replications
    def no_work(*args, **kwargs):
        raise AssertionError("estimate replicated before taking its reference")

    monkeypatch.setattr(cli, "run_replications", no_work)
    code = run_cli("estimate", "--strike", "0", "--n", "1000", "--reps", "4")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: strike must be positive"]


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--estimator", "uniform", "--theta", "0.5"],
     "a uniform randomizer cannot carry a tilt"),
    (["estimate", "--strike", "1e9"], "payoff is identically zero on the pilot draws"),
    (["compare", "--estimator", "uniform,fd", "--strike", "1e9"],
     "payoff is identically zero on the pilot draws"),
])
def test_an_asian_run_fails_before_its_reference(tmp_path, capsys, monkeypatch, argv, message):
    # the Asian reference is a long finite difference: the config and the
    # plans are checked before it
    def no_reference(*args, **kwargs):
        raise AssertionError("the run took its reference before checking its plans")

    for module in (cli, harness):
        monkeypatch.setattr(module, "reference_value", no_reference)
    code = run_cli(*argv, "--asian-steps", "5", "--n", "1000", "--reps", "2",
                   "--out", str(tmp_path / "o.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "sweep", "compare"])
def test_summaries_refuse_one_replication_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work with one replication")

    for name in ("run_replications", "reference_value", "CommonRun", "convergence_rate_fit",
                 "resolve_run"):
        monkeypatch.setattr(cli, name, no_work)
    n = "100,1000,10000,100000" if command == "sweep" else "1000"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--n", n, "--reps", "1", "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert len(errors) == 1 and "--reps" in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_bandwidth_ignores_the_replication_count(capsys):
    assert run_cli("bandwidth", "--n", "1000", "--reps", "1") == 0
    assert "h_star = " in capsys.readouterr().out


def test_out_of_range_seed_is_a_usage_error():
    # a fresh interpreter, so that an uncaught exception would show as a traceback
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "kernelgreeks.cli", "estimate", "--seed", str(2**64),
         "--n", "10", "--reps", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("kernelgreeks: error: seed") for line in proc.stderr.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["--model.spot", "nan"],
        ["--model.rate", "inf"],
        ["--strike", "nan"],
        ["--bandwidth", "nan"],
        ["--estimator", "exponential", "--theta", "nan"],
        ["--estimator", "fd", "--fd-eps", "inf"],
        ["--estimator", "fd", "--alpha", "nan"],
        ["--estimator", "exponential", "--theta", "1e6", "--bandwidth", "8"],
        ["--estimator", "exponential", "--theta", "1e6", "--bandwidth", "8", "--antithetic"],
        ["--reps", str(2**32 + 1)],
        # pilots whose moments overflow
        ["--model.rate", "1000"],
        ["--model.rate", "800"],
        ["--model.spot", "1e-300", "--strike", "1e-300"],
        ["--estimator", "double", "--model.rate", "1000"],
        ["--payoff", "vanilla", "--model.spot", "1e300", "--strike", "1e300"],
        # checked with the config, before the pilot and the replications
        ["--estimator", "fd", "--alpha", "2"],
        ["--estimator", "fd", "--alpha", "-0.5"],
        ["--asian-steps", "-3"],
        # a bump at which both bumped spots round to the spot
        ["--estimator", "fd", "--fd-eps", "1e-300"],
    ],
)
def test_degenerate_inputs_end_in_one_error_line(argv):
    # a fresh interpreter, so that an uncaught exception would show as a traceback
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "kernelgreeks.cli", "estimate", "--n", "100", "--reps", "2",
         *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error: " in line]
    assert len(errors) == 1 and errors[0].startswith(("error: ", "kernelgreeks: error: "))


def test_overflowing_pilot_names_its_states(capsys):
    # at rate 800 every pilot state overflows to inf; the pilot stops at its
    # states, not later at the bandwidth its NaN moments would give
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("estimate", "--model.rate", "800", "--n", "100", "--reps", "2")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: 10000 of 10000 pilot states are not finite (the model overflows), "
                   "so their log-moments cannot be fitted"]
    assert not [w for w in caught if "invalid value" in str(w.message)]


def test_estimate_refuses_an_overflowing_spread(tmp_path, capsys):
    # at rate 700 the identity's lr estimates are finite, near 1e304, but
    # their variance and MSE overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("estimate", "--estimator", "lr", "--payoff", "identity",
                       "--model.rate", "700", "--n", "1000", "--reps", "2",
                       "--out", str(tmp_path / "e.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the variance or the MSE of the estimates is not finite"]
    assert list(tmp_path.iterdir()) == []
    assert not caught


_RATES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1000.0, -800.0, 700.0, 800.0, 1000.0]))


@settings(max_examples=420, deadline=None)
@given(
    estimator=st.sampled_from(harness.ESTIMATOR_IDS),
    kernel=st.sampled_from(["p2", "p4", "p6"]),
    payoff=st.sampled_from(["digital", "vanilla", "identity"]),
    strike=st.floats(1.0, 400.0),
    vol=st.floats(0.01, 3.0),
    rate=_RATES,
    n=st.integers(2, 400),
    bandwidth=st.sampled_from(["auto", "2", "8"]),
)
def test_estimate_ends_in_a_finite_value_or_one_error_line(estimator, kernel, payoff, strike, vol,
                                                             rate, n, bandwidth):
    # the CLI's contract: exit 0 with finite numbers, or exit 2 with one
    # error line; an uncaught exception fails the test with its traceback.
    # Flags are written flag=value, so that a negative value reads as one.
    argv = ["estimate", f"--estimator={estimator}", f"--kernel={kernel}", f"--payoff={payoff}",
            f"--strike={strike!r}", f"--model.vol={vol!r}", f"--model.rate={rate!r}",
            f"--bandwidth={bandwidth}", f"--n={n}", "--reps=2"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    if code == 0:
        printed = re.findall(r"[-+]?(?:\d[\d.e+-]*|nan|inf)", out.getvalue())
        assert printed and all(math.isfinite(float(v)) for v in printed), out.getvalue()
    else:
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_package_exports_what_the_docs_and_gate_use():
    # the names the acceptance gate imports, the quick start's two helpers,
    # the CLI's error contract and the version; the rest live in their modules
    import kernelgreeks

    gate = {
        "EstimatorConfig", "ExperimentConfig", "FdConfig", "GbmParams", "SampleSet",
        "bias_constant_Ce", "builtin_kernel", "closed_form_digital_delta", "convergence_rate_fit",
        "digital_call", "estimate_Ek", "estimate_double_kernel", "estimate_finite_difference",
        "estimate_single_kernel_check", "estimate_single_kernel_hat", "gauss_legendre_integral",
        "identity_payoff", "kernel_moment", "kernel_roughness", "law_density",
        "law_density_ratio", "lognormal_params", "optimize_theta", "run_replications",
        "simulate_terminal", "truncexp_randomizer", "uniform_randomizer", "vanilla_call",
    }
    assert len(gate) == 28
    want = gate | {"reference_value", "summarize", "KernelGreeksError", "__version__"}
    assert len(kernelgreeks.__all__) == len(want)
    assert set(kernelgreeks.__all__) == want
    assert all(hasattr(kernelgreeks, name) for name in want)
