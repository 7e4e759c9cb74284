"""Byte-identity gate: the SHA-256 of every output file and of stdout of a
small matrix of CLI runs, pinned in ``golden_outputs.json``.

The matrix covers the seven estimators, the digital and vanilla calls, a
nonzero rate, antithetic pairing, a fixed tilt and theta = 0, the averaged
state with M = 5, the p2, p4 and p6 kernels, fixed and automatic
bandwidths, rows of more than 2^16 draws (walked in leaves),
``bandwidth``, ``sweep`` and ``compare``. The raw CSV is hashed without
its ``runtime_ms`` column, which measures wall time.

A change that moves an output re-pins the changed entries in the same
commit and names them in CHANGES.md; a pin is never replaced by a
tolerance. ``PYTHONPATH=src python tests/test_golden.py`` rewrites the
pins from the current code.
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from kernelgreeks import harness
from kernelgreeks.cli import main

PINS = Path(__file__).with_name("golden_outputs.json")

#: paths of the Asian finite-difference reference; the default 1e7 takes
#: seconds even at M = 5
ASIAN_REFERENCE_N = 200_000

CASES = {
    "estimate_uniform_auto": ["estimate", "--n", "5000", "--reps", "4", "--seed", "3"],
    "estimate_hat_fixed_tilt": ["estimate", "--estimator", "hat", "--theta", "0.02",
                                "--bandwidth", "6", "--n", "3000", "--reps", "3", "--seed", "4"],
    "estimate_check_theta_zero": ["estimate", "--estimator", "check", "--theta", "0",
                                  "--bandwidth", "6", "--n", "3000", "--reps", "3", "--seed", "4"],
    "estimate_hat_theta_minus_zero_auto": ["estimate", "--estimator", "hat", "--theta", "-0.0",
                                           "--n", "3000", "--reps", "3", "--seed", "4"],
    "estimate_uniform_theta_minus_zero": ["estimate", "--theta", "-0.0", "--bandwidth", "6",
                                          "--n", "3000", "--reps", "3", "--seed", "4"],
    "estimate_exponential_auto": ["estimate", "--estimator", "exponential", "--n", "4000",
                                  "--reps", "3", "--seed", "5"],
    "estimate_exponential_theta_zero": ["estimate", "--estimator", "exponential", "--theta", "0",
                                        "--bandwidth", "5", "--n", "3000", "--reps", "3",
                                        "--seed", "5"],
    "estimate_exponential_tilt_antithetic": ["estimate", "--estimator", "exponential",
                                             "--theta", "-0.04", "--bandwidth", "7", "--n", "3000",
                                             "--reps", "3", "--seed", "6", "--antithetic"],
    "estimate_double_fixed": ["estimate", "--estimator", "double", "--bandwidth", "4",
                              "--n", "1500", "--reps", "2", "--seed", "7"],
    "estimate_double_auto_vanilla_tilt": ["estimate", "--estimator", "double", "--payoff",
                                          "vanilla", "--strike", "110", "--theta", "0.01",
                                          "--n", "1000", "--reps", "2", "--seed", "7"],
    "estimate_lr": ["estimate", "--estimator", "lr", "--n", "3000", "--reps", "3", "--seed", "8"],
    "estimate_fd_forward": ["estimate", "--estimator", "fd", "--alpha", "1", "--fd-eps", "0.3",
                            "--n", "3000", "--reps", "3", "--seed", "8"],
    "estimate_uniform_p4_vanilla_antithetic": ["estimate", "--kernel", "p4", "--payoff",
                                               "vanilla", "--strike", "125", "--antithetic",
                                               "--n", "4000", "--reps", "3", "--seed", "9"],
    "estimate_hat_p6_fixed": ["estimate", "--estimator", "hat", "--kernel", "p6", "--bandwidth",
                              "30", "--n", "3000", "--reps", "3", "--seed", "9"],
    "estimate_uniform_asian": ["estimate", "--asian-steps", "5", "--n", "2000", "--reps", "3",
                               "--seed", "10"],
    "estimate_fd_asian": ["estimate", "--estimator", "fd", "--asian-steps", "5", "--n", "2000",
                          "--reps", "3", "--seed", "10"],
    "estimate_uniform_leaves": ["estimate", "--n", "70000", "--reps", "2", "--seed", "11"],
    "estimate_hat_tilt_leaves": ["estimate", "--estimator", "hat", "--theta", "0.01",
                                 "--bandwidth", "8", "--n", "70001", "--reps", "2", "--seed", "11"],
    "estimate_uniform_antithetic_leaves": ["estimate", "--antithetic", "--bandwidth", "6",
                                           "--n", "140000", "--reps", "2", "--seed", "11"],
    "estimate_check_p6_vanilla_auto": ["estimate", "--estimator", "check", "--kernel", "p6",
                                       "--payoff", "vanilla", "--n", "3000", "--reps", "3",
                                       "--seed", "17"],
    "estimate_double_p4_asian": ["estimate", "--estimator", "double", "--kernel", "p4",
                                 "--asian-steps", "5", "--bandwidth", "6", "--n", "1200",
                                 "--reps", "2", "--seed", "18"],
    "estimate_exponential_identity": ["estimate", "--estimator", "exponential", "--payoff",
                                      "identity", "--n", "3000", "--reps", "3", "--seed", "19"],
    "bandwidth_exponential_p6": ["bandwidth", "--estimator", "exponential", "--kernel", "p6",
                                 "--n", "100000", "--seed", "12"],
    "sweep_uniform": ["sweep", "--n", "100,316,1000,10000", "--reps", "12", "--seed", "13"],
    "sweep_lr": ["sweep", "--estimator", "lr", "--n", "100,300,1000,10000", "--reps", "12",
                 "--seed", "13"],
    "compare_six": ["compare", "--estimator", "hat,check,uniform,exponential,lr,fd",
                    "--n", "3000", "--reps", "12", "--seed", "14"],
    "compare_lr_first": ["compare", "--estimator", "lr,uniform", "--n", "2000", "--reps", "10",
                         "--seed", "3"],
    "compare_double_antithetic": ["compare", "--estimator", "uniform,double", "--bandwidth", "5",
                                  "--antithetic", "--n", "1000", "--reps", "10", "--seed", "15"],
    "compare_double_p2_larger_n": ["compare", "--estimator", "double,check", "--n", "20000",
                                   "--reps", "10", "--seed", "20"],
    "compare_fd_first_asian": ["compare", "--estimator", "fd,hat", "--asian-steps", "5",
                               "--kernel", "p4", "--n", "1000", "--reps", "10", "--seed", "16"],
    "compare_lr_uniform_rate": ["compare", "--estimator", "lr,uniform", "--model.rate", "0.05",
                                "--n", "3000", "--reps", "10", "--seed", "21"],
}

#: the commands that write files take --out
_WRITES = ("estimate", "sweep", "compare")


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".raw.csv"):
        # replication,estimate,runtime_ms: the timing column is left out
        lines = data.decode().splitlines()
        data = "\n".join(",".join(line.split(",")[:2]) for line in lines).encode()
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list, workdir: Path) -> dict:
    """The digests of stdout and of every file a CLI run writes into workdir."""
    if argv[0] in _WRITES:
        argv = argv + ["--out", str(workdir / "out.csv")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    digests = {"stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    for path in sorted(workdir.iterdir()):
        digests[path.name] = _file_digest(path)
    return digests


@pytest.fixture
def small_asian_reference(monkeypatch):
    reference = functools.partial(harness.asian_fd_reference, n=ASIAN_REFERENCE_N)
    monkeypatch.setattr(harness, "asian_fd_reference", reference)


@pytest.mark.usefixtures("small_asian_reference")
@pytest.mark.filterwarnings("ignore::kernelgreeks.errors.DegenerateBiasWarning")
def test_outputs_keep_their_bytes(tmp_path):
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(CASES)
    moved = {}
    for name, argv in CASES.items():
        workdir = tmp_path / name
        workdir.mkdir()
        got = run_case(argv, workdir)
        if got != pins[name]:
            moved[name] = sorted(k for k in set(got) | set(pins[name])
                                 if got.get(k) != pins[name].get(k))
    assert not moved, f"outputs changed: {moved}"


def _repin() -> None:
    """Rewrite the pins from the current code."""
    original = harness.asian_fd_reference
    harness.asian_fd_reference = functools.partial(original, n=ASIAN_REFERENCE_N)
    try:
        pins = {}
        for name, argv in CASES.items():
            with tempfile.TemporaryDirectory() as tmp:
                pins[name] = run_case(argv, Path(tmp))
    finally:
        harness.asian_fd_reference = original
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _repin()
