"""End-to-end acceptance checks for the whole package.

Each test prints exactly one line, "acceptance NN [PASS|FAIL] label: detail",
so a plain ``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
The numerically heavy checks (hundreds of large-matrix draws) live here
rather than in the per-module suites; expect a few minutes of runtime.
"""

import math
import time

import numpy as np
import pytest

import _oracles
from _oracles import g_lambda_max
from spiked_lab.ensembles import (
    EnsembleSpec,
    batch_statistics,
    sample_sym_noise,
    trial_rng,
)
from spiked_lab.inference import (
    ExperimentSpec,
    first_coord_tail_logprob,
    make_statistic,
    run_experiment,
    second_moment_sym,
    trace_tv,
)
from spiked_lab.spectra import eigvals_sym, ks_distance
from spiked_lab.tensors import DenseTensor, symmetrize
from spiked_lab.thresholds import beta_star, lambda_star, sphere_rate

THRESHOLD_TABLE = {
    2: 1.0,
    3: 1.398841,
    4: 1.566974,
    5: 1.67676,
    6: 1.757589,
    10: 1.955118,
    100: 2.595874,
}


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def test_threshold_table_accuracy_and_speed():
    start = time.perf_counter()
    values = {k: beta_star(k).value for k in THRESHOLD_TABLE}
    elapsed = time.perf_counter() - start
    errs = {k: abs(values[k] - want) for k, want in THRESHOLD_TABLE.items()}
    ok = (
        errs[2] <= 1e-9
        and all(errs[k] <= 1e-5 for k in errs if k != 2)
        and elapsed < 1.0
    )
    _report(
        1,
        "critical strengths match the reference table",
        ok,
        f"max err {max(errs.values()):.2e}, {elapsed:.3f}s",
    )


def test_threshold_ratio_identity():
    worst = 0.0
    for k in THRESHOLD_TABLE:
        ratio = lambda_star(k).value / beta_star(k).value
        worst = max(worst, abs(ratio - math.sqrt(k / 2.0)))
    lam2 = lambda_star(2).value
    ok = worst <= 1e-14 and lam2 == 1.0
    _report(
        2,
        "asymmetric and symmetric thresholds differ by sqrt(k/2)",
        ok,
        f"max ratio err {worst:.2e}, order-2 value {lam2}",
    )


def test_matrix_second_moment_limit():
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.3, 0.5, 0.7, 0.9):
        got = math.exp(second_moment_sym(beta, 100000, 2).log_second_moment)
        want = 1.0 / math.sqrt(1.0 - beta * beta)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 10.0
    _report(
        3,
        "matrix second moment approaches its scaling limit",
        ok,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_cubic_second_moment_vanishing_excess():
    excess = [
        math.expm1(second_moment_sym(1.3, n, 3).log_second_moment)
        for n in (1000, 10000, 100000)
    ]
    ok = excess[0] > excess[1] > excess[2] and excess[2] < 0.01
    _report(
        4,
        "subcritical cubic second moment excess shrinks with n",
        ok,
        "excess " + ", ".join(f"{e:.2e}" for e in excess),
    )


def test_spiked_matrix_top_eigenvalue_location():
    start = time.perf_counter()
    spec = EnsembleSpec(model="sym_spiked", n=1000, k=2, strength=1.5, seed=2025)
    stats = batch_statistics(spec, 20, make_statistic("eig")).values
    elapsed = time.perf_counter() - start
    mean = float(np.mean(stats))
    ok = 2.12 <= mean <= 2.22 and elapsed < 120.0
    _report(
        5,
        "planted strength 1.5 pulls the top eigenvalue to ~2.17",
        ok,
        f"mean top eigenvalue {mean:.4f} over 20 draws, {elapsed:.1f}s",
    )


def test_noise_top_eigenvalue_and_false_positive_rate():
    spec = EnsembleSpec(model="goe", n=1000, seed=61)
    stats = batch_statistics(spec, 20, make_statistic("eig")).values
    mean = float(np.mean(stats))
    small = EnsembleSpec(model="goe", n=500, seed=62)
    edge = batch_statistics(small, 200, make_statistic("eig")).values
    fpr = float(np.mean(edge >= 2.15))
    ok = 1.95 <= mean <= 2.08 and fpr < 0.05
    _report(
        6,
        "pure noise stays at the bulk edge",
        ok,
        f"mean top eigenvalue {mean:.4f}, false positive rate {fpr:.3f}",
    )


def test_large_clique_detection_power():
    n = 900
    clique_size = 2 * math.ceil(math.sqrt(n))
    spec = EnsembleSpec(model="hidden_clique", n=n, strength=float(clique_size), seed=71)
    stats = batch_statistics(spec, 200, make_statistic("eig")).values
    power = float(np.mean(stats >= 2.15))
    ok = power >= 0.95
    _report(
        7,
        f"a planted {clique_size}-clique in n={n} is detected spectrally",
        ok,
        f"power {power:.3f} over 200 draws",
    )


@pytest.mark.slow
def test_small_clique_indistinguishability():
    n = 900
    clique_size = math.ceil(0.5 * math.sqrt(n))
    data = {
        "h0": {"model": "goe", "n": n, "seed": 81},
        "h1": {"model": "hidden_clique", "n": n, "strength": clique_size, "seed": 82},
        "test": {"statistic": "eig", "delta": 0.15},
        "trials": 500,
        "seed": 8,
    }
    result = run_experiment(ExperimentSpec.from_json_dict(data))
    gap = abs(result.power - result.fpr)
    ok = gap < 0.1 and result.ks < 0.1
    _report(
        8,
        f"a {clique_size}-clique in n={n} leaves the spectrum unchanged",
        ok,
        f"|power - fpr| {gap:.3f}, ks {result.ks:.3f} over 500 trials",
    )


@pytest.mark.slow
def test_trace_test_total_variation():
    data = {
        "h0": {"model": "goe", "n": 500, "seed": 41},
        "h1": {"model": "sym_spiked", "n": 500, "k": 2, "strength": 1.0, "seed": 42},
        "test": {"statistic": "trace"},
        "trials": 10000,
        "seed": 9,
    }
    result = run_experiment(ExperimentSpec.from_json_dict(data))
    want = trace_tv(1.0)
    err = abs(result.ks - want)
    ok = err <= 0.02
    _report(
        9,
        "empirical trace-test separation matches its closed form",
        ok,
        f"best separation {result.ks:.4f} vs {want:.4f} (err {err:.4f})",
    )


@pytest.mark.slow
def test_noise_inner_product_variance_identity():
    n, k, m = 30, 3, 100000
    rng_dirs = np.random.default_rng(123)
    probes = [
        symmetrize(DenseTensor(rng_dirs.standard_normal((n,) * k))) for _ in range(5)
    ]
    flat = np.stack([p.array.reshape(-1) for p in probes])
    targets = 2.0 * np.sum(flat * flat, axis=1) / n
    rng = trial_rng(777, 0)
    vals = np.empty((5, m))
    for i in range(m):
        z = sample_sym_noise(n, k, rng).array.reshape(-1)
        vals[:, i] = flat @ z
    sample_var = np.var(vals, axis=1, ddof=1)
    tol = 3.0 * targets * math.sqrt(2.0 / (m - 1))
    errs = np.abs(sample_var - targets)
    ok = bool(np.all(errs <= tol))
    _report(
        10,
        "noise inner products have variance 2|A|^2/n",
        ok,
        f"worst err/tol ratio {float(np.max(errs / tol)):.2f} over 5 probes",
    )


def test_finite_size_tail_rate_convergence():
    per_coord = first_coord_tail_logprob(0.3, 2000) / 2000.0
    want = sphere_rate(0.3).value
    err = abs(per_coord - want)
    ok = err <= 0.02
    _report(
        11,
        "finite-n tail rate sits near its large-n limit",
        ok,
        f"per-coordinate log tail {per_coord:.6f} vs {want:.6f}",
    )


def test_spike_direction_invariance():
    n, trials = 200, 500
    basis = tuple([1.0] + [0.0] * (n - 1))
    flat = tuple([1.0 / math.sqrt(15.0)] * 15 + [0.0] * (n - 15))
    stats = []
    for seed, spike in ((31, basis), (31, flat)):
        spec = EnsembleSpec(
            model="sym_spiked", n=n, k=2, strength=1.5, spike=spike, seed=seed
        )
        stats.append(batch_statistics(spec, trials, make_statistic("eig")).values)
    ks = ks_distance(stats[0], stats[1])
    ok = ks < 0.1
    _report(
        12,
        "top-eigenvalue law ignores the planted direction",
        ok,
        f"ks {ks:.3f} between spike choices over {trials} trials each",
    )


def test_eigenvalue_solver_against_exact_arithmetic():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((6, 6))
        m = (g + g.T) / 2.0
        got = eigvals_sym(m).eigenvalues
        want = _oracles.eigvals_sturm(m)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-9
    _report(
        13,
        "floating-point eigenvalues match exact-arithmetic bisection",
        ok,
        f"worst abs deviation {worst:.2e} over 100 matrices",
    )


def test_ascent_collapse_below_fold():
    summary = g_lambda_max(1.6, 3, n_starts=100, seed=0)
    ok = summary.coordinate_spread < 1e-6
    _report(
        14,
        "all ascent runs collapse to the origin below the fold",
        ok,
        f"coordinate spread {summary.coordinate_spread:.2e} over {summary.n_starts} starts",
    )
