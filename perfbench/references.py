"""Independent references for the benchmark's output checks.

Nothing here calls into ``kernelgreeks``: each value the benchmark checks
the program against is computed from the model's definition.

- ``digital_delta``: closed-form Delta of the digital call, n(d2)/(x vol
  sqrt(T)); its self-test differentiates the price N(d2), written with
  ``math.erf``.
- ``asian_cmc_delta``: first-step conditional Monte Carlo Delta of the
  digital call on the discretely averaged (trapezoid) state.
- ``double_kernel_direct``: the leave-one-out double-kernel formula summed
  over all pairs, for the order-2 kernel and a uniform randomizer.

The Asian value is expensive, so it is stored in ``references.json``.
Regenerate it, or run the self-tests of all three references, with::

    python3 perfbench/references.py regenerate
    python3 perfbench/references.py selftest
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

STORE = Path(__file__).with_name("references.json")

# the paper's model: spot, rate, vol, maturity, digital strike
SPOT, RATE, VOL, MATURITY, STRIKE = 120.0, 0.0, 0.2, 1.0, 120.0
ASIAN_STEPS = 50

# paths and seed of the stored Asian reference
ASIAN_REF_PATHS = 20_000_000
ASIAN_REF_SEED = 20071024
_CHUNK = 200_000


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _d2(x: float, strike: float, rate: float, vol: float, maturity: float) -> float:
    return (math.log(x / strike) + (rate - 0.5 * vol * vol) * maturity) / (vol * math.sqrt(maturity))


def digital_price(x=SPOT, strike=STRIKE, rate=RATE, vol=VOL, maturity=MATURITY) -> float:
    """Undiscounted P(S_T > K) = N(d2)."""
    return _norm_cdf(_d2(x, strike, rate, vol, maturity))


def digital_delta(x=SPOT, strike=STRIKE, rate=RATE, vol=VOL, maturity=MATURITY) -> float:
    """d/dx N(d2) = n(d2) / (x vol sqrt(T)), the undiscounted digital Delta."""
    d2 = _d2(x, strike, rate, vol, maturity)
    return math.exp(-0.5 * d2 * d2) / math.sqrt(2.0 * math.pi) / (x * vol * math.sqrt(maturity))


def _asian_split(gauss_rest: np.ndarray, steps: int, dt: float, rate: float, vol: float) -> np.ndarray:
    """V in A = dt x / 2 + S_1 V, from the normals of steps 2..M (shape (n, M-1)).

    With R_k = S_k / S_1 the trapezoid average is
    dt (x/2 + sum_{k<M} S_k + S_M / 2), so V = dt (sum_{k<M} R_k + R_M / 2)
    and R_1 = 1. V does not depend on the first step, hence on S_1.
    """
    n = gauss_rest.shape[0]
    if steps == 1:
        return np.full(n, 0.5 * dt)
    rel = np.exp(np.cumsum((rate - 0.5 * vol * vol) * dt + vol * math.sqrt(dt) * gauss_rest, axis=1))
    return dt * (1.0 + rel[:, :-1].sum(axis=1) + 0.5 * rel[:, -1])


def asian_cmc_terms(gauss_rest, x=SPOT, strike=STRIKE, rate=RATE, vol=VOL, maturity=MATURITY,
                    steps=ASIAN_STEPS):
    """Per-path (y, Delta term) of the conditional Monte Carlo estimator.

    Conditioning on V leaves one lognormal step: A > K iff S_1 > x c / V with
    c = K/x - dt/2, i.e. the first normal exceeds y = (ln(c/V) - mu dt)/s,
    s = vol sqrt(dt). The conditional price is N(-y); differentiating it in
    x gives the Delta term n(y) K / (x^2 s c).
    """
    dt = maturity / steps
    s = vol * math.sqrt(dt)
    c = strike / x - 0.5 * dt
    if c <= 0.0:
        raise ValueError("the strike lies below the deterministic part of the average")
    v = _asian_split(np.asarray(gauss_rest, dtype=float), steps, dt, rate, vol)
    y = (np.log(c / v) - (rate - 0.5 * vol * vol) * dt) / s
    return y, np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi) * strike / (x * x * s * c)


def _upper_tail(y: np.ndarray) -> np.ndarray:
    # N(-y) elementwise; numpy has no erfc, so this is slow and test-only
    return 0.5 * np.fromiter((math.erfc(t / math.sqrt(2.0)) for t in y), dtype=float, count=y.size)


def asian_cmc_delta(paths: int, seed: int, steps=ASIAN_STEPS):
    """Conditional Monte Carlo Delta of the Asian digital call and its stderr."""
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < paths:
        m = min(_CHUNK, paths - done)
        _, delta = asian_cmc_terms(rng.standard_normal((m, steps - 1)), steps=steps)
        total += float(delta.sum())
        total_sq += float(np.dot(delta, delta))
        done += m
    mean = total / paths
    return mean, math.sqrt(max(total_sq / paths - mean * mean, 0.0) / paths)


def _p2(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _p2_grad(u):
    return np.where(np.abs(u) <= 1.0, -1.5 * u, 0.0)


def double_kernel_direct(lambda0, lambdas, states, payoffs, h, epsilon, floor_scale=1e-12,
                         chunk=256):
    """Leave-one-out double-kernel Delta with the order-2 kernel in both
    dimensions and a uniform randomizer on [-epsilon, epsilon].

    For each draw i, over all j != i:
    f_i = sum K((l_i - l_j)/h) H((z_i - z_j)/h) / ((n-1) h^2),
    g_i = sum K'((l_i - l_j)/h) H((z_i - z_j)/h) / ((n-1) h^3);
    draws with f_i < floor_scale / h^2 are dropped, and the estimate is
    sum_i phi_i (g_i / f_i) K((lambda0 - l_i)/h) / (l(0) n h), l(0) = 1/(2 epsilon)
    (the uniform log-density gradient is 0).
    """
    lam = np.asarray(lambdas, dtype=float)
    z = np.asarray(states, dtype=float)
    phi = np.asarray(payoffs, dtype=float)
    n = lam.size
    den = np.empty(n)
    num = np.empty(n)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        du = (lam[a:b, None] - lam[None, :]) / h
        hz = _p2((z[a:b, None] - z[None, :]) / h)
        rows = np.arange(a, b)
        hz[rows - a, rows] = 0.0  # leave the draw itself out
        den[a:b] = np.sum(_p2(du) * hz, axis=1)
        num[a:b] = np.sum(_p2_grad(du) * hz, axis=1)
    den /= (n - 1) * h * h
    num /= (n - 1) * h**3
    keep = den >= floor_scale / (h * h)
    score = np.divide(num, den, out=np.zeros(n), where=keep)
    weights = _p2((lambda0 - lam) / h)
    total = float(np.sum(np.where(keep, phi * score * weights, 0.0)))
    return total * 2.0 * epsilon / (n * h)


def _double_kernel_loops(lambda0, lam, z, phi, h, epsilon):
    # the same formula with plain Python loops, for the self-test
    n = len(lam)
    k = lambda u: 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0
    dk = lambda u: -1.5 * u if abs(u) <= 1.0 else 0.0
    total = 0.0
    for i in range(n):
        f = sum(k((lam[i] - lam[j]) / h) * k((z[i] - z[j]) / h) for j in range(n) if j != i)
        g = sum(dk((lam[i] - lam[j]) / h) * k((z[i] - z[j]) / h) for j in range(n) if j != i)
        f /= (n - 1) * h * h
        g /= (n - 1) * h**3
        if f >= 1e-12 / (h * h):
            total += phi[i] * (g / f) * k((lambda0 - lam[i]) / h)
    return total * 2.0 * epsilon / (n * h)


def selftest() -> list[str]:
    """Check each reference against an independent route; return failures."""
    failures = []

    def expect(name, got, want, rel):
        ok = abs(got - want) <= rel * abs(want)
        print(f"selftest {name}: {float(got)!r} vs {float(want)!r} ({'ok' if ok else 'FAIL'})")
        if not ok:
            failures.append(name)

    # closed form against a central difference of the price N(d2)
    bump = 1e-3
    fd = (digital_price(SPOT + bump) - digital_price(SPOT - bump)) / (2 * bump)
    expect("digital_delta_vs_price_difference", digital_delta(), fd, 1e-6)

    # at M = 1 the average is (x + S_T) T / 2 and the Delta has a closed form:
    # A > K iff S_T > b = 2K/T - x, so Delta = n(y)(1/b + 1/x)/(vol sqrt(T))
    b = 2.0 * STRIKE / MATURITY - SPOT
    y = (math.log(b / SPOT) - (RATE - 0.5 * VOL**2) * MATURITY) / (VOL * math.sqrt(MATURITY))
    m1 = math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi) * (1 / b + 1 / SPOT) / (VOL * math.sqrt(MATURITY))
    got, _ = asian_cmc_delta(1000, seed=1, steps=1)
    expect("asian_cmc_m1_vs_closed_form", got, m1, 1e-12)

    # at M = 50: the conditional price matches the plain indicator average
    # of the same paths, and the Delta matches a central difference of the
    # conditional price on common normals
    rng = np.random.default_rng(2)
    n = 100_000
    g1 = rng.standard_normal(n)
    rest = rng.standard_normal((n, ASIAN_STEPS - 1))
    y, delta = asian_cmc_terms(rest)
    price = _upper_tail(y)
    dt = MATURITY / ASIAN_STEPS
    v = _asian_split(rest, ASIAN_STEPS, dt, RATE, VOL)
    s1 = SPOT * np.exp((RATE - 0.5 * VOL**2) * dt + VOL * math.sqrt(dt) * g1)
    hits = (0.5 * dt * SPOT + s1 * v > STRIKE).astype(float)
    se = hits.std(ddof=1) / math.sqrt(n)
    ok = abs(hits.mean() - price.mean()) <= 5 * se
    print(f"selftest asian_cmc_price_vs_indicator: {float(price.mean())!r} vs {float(hits.mean())!r} +/- {float(se)!r} "
          f"({'ok' if ok else 'FAIL'})")
    if not ok:
        failures.append("asian_cmc_price_vs_indicator")
    few = rest[:20_000]
    up = _upper_tail(asian_cmc_terms(few, x=SPOT + 0.01)[0])
    down = _upper_tail(asian_cmc_terms(few, x=SPOT - 0.01)[0])
    expect("asian_cmc_delta_vs_price_difference", float(delta[:20_000].mean()),
           float((up.mean() - down.mean()) / 0.02), 1e-5)

    # direct double-kernel sum: the paper's two-draw hand value, then loops
    expect("double_direct_hand_value",
           double_kernel_direct(0.0, [0.2, -0.1], [0.1, 0.3], [0.1, 0.3], 1.0, 1.0),
           1809.0 / 18200.0, 1e-12)
    lam = SPOT + rng.uniform(-8.0, 8.0, 60)
    z = lam * np.exp(-0.02 + 0.2 * rng.standard_normal(60))
    phi = (z > STRIKE).astype(float)
    expect("double_direct_vs_loops",
           double_kernel_direct(SPOT, lam, z, phi, 8.0, 8.0, chunk=7),
           _double_kernel_loops(SPOT, lam, z, phi, 8.0, 8.0), 1e-12)
    return failures


def load() -> dict:
    return json.loads(STORE.read_text())


def regenerate() -> dict:
    value, stderr = asian_cmc_delta(ASIAN_REF_PATHS, ASIAN_REF_SEED)
    record = {
        "asian_digital_delta": {
            "value": value,
            "stderr": stderr,
            "paths": ASIAN_REF_PATHS,
            "seed": ASIAN_REF_SEED,
            "steps": ASIAN_STEPS,
            "scheme": "trapezoid",
            "model": {"spot": SPOT, "rate": RATE, "vol": VOL, "maturity": MATURITY,
                      "strike": STRIKE},
            "method": "first-step conditional Monte Carlo, perfbench/references.py",
        }
    }
    STORE.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["selftest", "regenerate"])
    ns = parser.parse_args(argv)
    if ns.command == "regenerate":
        print(json.dumps(regenerate(), indent=2))
        return 0
    return 1 if selftest() else 0


if __name__ == "__main__":
    sys.exit(main())
