import functools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import betaln, hyp0f1, logsumexp
from scipy.stats import norm

import _oracles
from spiked_lab import ensembles, inference
from spiked_lab.ensembles import (
    MODELS,
    STREAM_SAMPLE,
    STREAM_TEST,
    EnsembleSpec,
    sample_goe,
    sample_sphere,
    sample_trial,
    sub_seed_hex,
    trial_rng,
)
from spiked_lab.errors import ConfigError, ContractError, NumericalFailure, SizingError
from spiked_lab.tensors import SymmetricTensor
from spiked_lab.inference import (
    _BLOCK_ENTRIES,
    STATISTICS,
    ExperimentSpec,
    _brent_root,
    _check_order,
    _implied_tv,
    _log_rising_excess,
    _log_series,
    first_coord_tail_logprob,
    likelihood_ratio_mc,
    log_cn,
    make_statistic,
    run_experiment,
    second_moment_asym,
    second_moment_sym,
    trace_stat,
    trace_tv,
)
from spiked_lab.thresholds import f_beta, g_lambda, g_lambda_critical, sphere_rate

# --- first-coordinate density and tail ----------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 500])
def test_log_cn_is_inverse_beta_function(n):
    assert log_cn(n) == pytest.approx(-betaln(0.5, (n - 1) / 2.0), rel=1e-14)


@pytest.mark.parametrize("n", [3, 5, 12, 40])
def test_density_integrates_to_one(n):
    """exp(log_cn(n)) normalizes the first-coordinate density (1 - t^2)^((n-3)/2)."""
    total, _ = quad(lambda t: math.exp(log_cn(n) + 0.5 * (n - 3) * math.log1p(-t * t)), -1.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sampler_matches_density_cdf():
    rng = trial_rng(7, 0)
    m = 20000
    draws = np.sort([sample_sphere(5, rng).coords[0] for _ in range(m)])
    for a in np.linspace(-0.9, 0.9, 19):
        cdf = 1.0 - math.exp(first_coord_tail_logprob(float(a), 5))
        ecdf = np.searchsorted(draws, a, side="right") / m
        assert abs(ecdf - cdf) < 0.02


def test_tail_edges():
    assert first_coord_tail_logprob(1.0, 9) == -math.inf
    assert first_coord_tail_logprob(-1.0, 9) == 0.0
    assert first_coord_tail_logprob(0.0, 37) == pytest.approx(math.log(0.5), abs=1e-12)
    with pytest.raises(ContractError):
        first_coord_tail_logprob(1.5, 9)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 200])
@pytest.mark.parametrize("a", [-0.9, -0.5, -0.1, 0.2, 0.6, 0.95])
def test_tail_matches_incomplete_beta(a, n):
    mine = math.exp(first_coord_tail_logprob(a, n))
    want = _oracles.tail_prob_betainc(a, n)
    assert mine == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_tail_far_below_double_range():
    # P here is around exp(-4721); only the log survives in doubles
    got = first_coord_tail_logprob(0.3, 100000)
    want = _oracles.tail_logprob_mp(0.3, 100000)
    assert got == pytest.approx(want, abs=1e-6)


def test_tail_complement_identity():
    for n in (6, 101):
        for a in (0.3, 0.77):
            total = math.exp(first_coord_tail_logprob(a, n)) + math.exp(
                first_coord_tail_logprob(-a, n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25)
@given(
    st.integers(4, 50),
    st.floats(-0.99, 0.99),
    st.floats(-0.99, 0.99),
)
def test_tail_is_monotone_decreasing(n, a, b):
    lo, hi = min(a, b), max(a, b)
    assert first_coord_tail_logprob(lo, n) >= first_coord_tail_logprob(hi, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 39, 59, 200, 2000, 10**5, 10**8])
def test_tail_is_monotone_across_the_branch_switch(n):
    """The direct fraction and the complement meet at a^2 (p + 5/2) = 3/2 without a step."""
    switch = math.sqrt(1.5 / ((n - 1) / 2.0 + 2.5))
    grid = np.linspace(0.5 * switch, min(1.0, 2.0 * switch), 2001)
    logs = [first_coord_tail_logprob(float(a), n) for a in grid]
    assert all(u >= v for u, v in zip(logs, logs[1:]))
    if n <= 10**5:
        below, above = (first_coord_tail_logprob(switch * (1.0 + s), n) for s in (-1e-12, 1e-12))
        assert below == pytest.approx(above, abs=1e-10)


@pytest.mark.parametrize("n", [10**5, 10**8])
@pytest.mark.parametrize("c", [None, 1.0, 3.0])
def test_tail_at_large_n_matches_mpmath(n, c):
    """a = 0.3 far out in the tail, and a = c/sqrt(n) where the tail is of order one."""
    if c is None:
        a, want = 0.3, _oracles.tail_logprob_mp(0.3, n)
    else:
        a = c / math.sqrt(n)
        want = _oracles.tail_logprob_near_sqrt_n_mp(a, n)
    assert first_coord_tail_logprob(a, n) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("n", [199, 10**4, 10**8, 10**12, 10**18, 10**154, 10**300])
def test_log_cn_matches_mpmath(n):
    # a difference of two log-gammas was off by 3.1e-14 at n = 199, 8.4e-12 at 1e4 and 19.8 at 1e18
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_cn(n) == pytest.approx(_oracles.log_cn_mp(n), abs=1e-14)


@pytest.mark.parametrize("g", [5e153, 5e299])
def test_log_rising_excess_past_the_square_of_the_float_range(g):
    """The Stirling corrections once formed 1260 x^2, which overflowed past
    x = 3.8e152; in powers of 1/x they stay quiet and below 1/g. What is left
    is x log1p(m/g) - m, x = g + m - 1/2, whose product is m within 3 roundings,
    so the result is off by at most 4 u m; the exact values are below 2e-151."""
    import mpmath as mp

    u = 2.0**-53
    m = np.arange(0.0, 41.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_rising_excess(g, m)
    with mp.workdps(30 + 2 * int(math.log10(g))):
        gm = mp.mpf(g)
        want = np.array([float(mp.loggamma(gm + j) - mp.loggamma(gm) - j * mp.log(gm)) for j in range(41)])
    assert np.all(np.abs(got - want) <= 4 * u * m)


def test_log_cn_and_tail_stay_finite_and_quiet_up_to_1e300():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (20, 100, 200, 300):
            g = 0.5 * (10**e - 1)
            # the Stirling corrections are below 1/g here, and the tail is x^g / (2 a sqrt(pi g))
            assert log_cn(10**e) == pytest.approx(0.5 * math.log(g / math.pi), rel=1e-15)
            want = g * math.log1p(-0.09) - math.log(0.6) - 0.5 * math.log(math.pi * g)
            assert first_coord_tail_logprob(0.3, 10**e) == pytest.approx(want, rel=1e-14)


def test_tail_refuses_an_overlap_whose_square_is_lost_against_one():
    # a^2 (p + 5/2) >= 3/2 puts a = 5e-9 on the direct branch at n = 1e18, where 1 - a^2 rounds to 1
    with pytest.raises(NumericalFailure, match="rounds to 1"):
        first_coord_tail_logprob(5e-9, 10**18)


@pytest.mark.parametrize("a", [0.9, 0.999999, 0.999999999, 1.0 - 2.0**-40])
def test_tail_near_one_matches_closed_forms(a):
    # n = 2: T = cos(theta) with theta uniform on [0, pi]; n = 3: T is uniform on [-1, 1]
    assert first_coord_tail_logprob(a, 2) == pytest.approx(math.log(math.acos(a) / math.pi), rel=1e-14)
    assert first_coord_tail_logprob(a, 3) == pytest.approx(math.log((1.0 - a) / 2.0), rel=1e-14)


@pytest.mark.parametrize("n,lo,hi", [(39, -0.96875, -0.9375), (4, -1.0810644521721723e-113, 0.0)])
def test_tail_is_monotone_at_falsifying_examples(n, lo, hi):
    # rounding in the quadrature once let the value rise as a fell, near
    # a = -1 (direct integration) and across a = 0 (rounding above 1/2)
    assert first_coord_tail_logprob(lo, n) >= first_coord_tail_logprob(hi, n)


# --- second moments, symmetric -------------------------------------------------


@pytest.mark.parametrize(
    "n,beta", [(100, 0.6), (100000, 0.3), (100000, 0.9)]
)
def test_second_moment_sym_k2_matches_confluent_series(n, beta):
    import mpmath as mp

    r = second_moment_sym(beta, n, 2)
    with mp.workdps(50):
        want = float(mp.log(mp.hyp1f1(mp.mpf("0.5"), mp.mpf(n) / 2, n * beta * beta / 2)))
    assert r.log_second_moment == pytest.approx(want, abs=1e-9)
    assert r.method == "series"
    assert r.model == "sym" and r.strength == beta


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("beta", [0.9, 1.5])
def test_second_moment_sym_k2_small_n_matches_confluent_series(n, beta):
    # at odd n the theta integrand has odd endpoint derivatives (cos(theta)
    # at n = 3), so a rule that leans on periodicity stalls near 1e-10
    import mpmath as mp

    r = second_moment_sym(beta, n, 2)
    with mp.workdps(50):
        want = float(mp.log(mp.hyp1f1(mp.mpf("0.5"), mp.mpf(n) / 2, n * mp.mpf(beta) ** 2 / 2)))
    assert r.log_second_moment == pytest.approx(want, abs=1e-12)


def test_second_moment_sym_k2_huge_dimension():
    # the density is ~3e-5 wide in theta here; the cut keeps the rule on it
    beta = 0.5
    r = second_moment_sym(beta, 10**9, 2)
    assert r.log_second_moment == pytest.approx(-0.5 * math.log1p(-beta * beta), abs=1e-8)


def test_second_moment_sym_k2_gaussian_limit():
    r = second_moment_sym(0.7, 100000, 2)
    assert math.exp(r.log_second_moment) == pytest.approx(1.0 / math.sqrt(1 - 0.49), rel=0.01)


def test_second_moment_sym_k3_matches_direct_quadrature():
    n, beta = 50, 1.2
    s = 0.5 * n * beta * beta
    dens = lambda t: (1 - t * t) ** ((n - 3) / 2.0)
    num, _ = quad(lambda t: dens(t) * math.exp(s * t**3), -1, 1, limit=200)
    den, _ = quad(dens, -1, 1)
    r = second_moment_sym(beta, n, 3)
    assert r.log_second_moment == pytest.approx(math.log(num / den), abs=1e-8)


@pytest.mark.parametrize(
    "n,k,beta", [(2, 4, 0.5), (2, 4, 2.0), (2, 6, 6.0), (4, 8, 1.5), (2, 10, 3.0), (4, 3, 1.5), (8, 10, 2.5)]
)
def test_second_moment_sym_at_small_n_matches_mpmath_quadrature(n, k, beta):
    # at n small against k a numerator parameter of the series reaches a
    # denominator one, so its first terms are summed whole before the mode
    r = second_moment_sym(beta, n, k)
    assert r.log_second_moment == pytest.approx(_oracles.second_moment_sym_mp(beta, n, k), rel=4e-15)


def test_second_moment_zero_strength_is_exact_zero():
    for f in (second_moment_sym, second_moment_asym):
        r = f(0.0, 500, 3)
        assert r.log_second_moment == 0.0
        assert r.implied_tv_upper == 0.0
        assert r.nodes == 0


def test_second_moment_sym_supercritical_is_vacuous():
    r = second_moment_sym(1.6, 2000, 3)
    assert r.log_second_moment > 100.0
    assert r.implied_tv_upper == "vacuous"


def test_second_moment_sym_monotone_in_strength():
    vals = [second_moment_sym(b, 300, 3).log_second_moment for b in (0.4, 0.8, 1.2)]
    assert vals[0] < vals[1] < vals[2]


def test_second_moment_validation():
    with pytest.raises(ContractError):
        second_moment_sym(1.0, 1, 3)
    with pytest.raises(ContractError):
        second_moment_sym(1.0, 50, 1)
    with pytest.raises(ContractError):
        second_moment_sym(1.0, 50, 11)
    with pytest.raises(ContractError):
        second_moment_sym(-0.5, 50, 3)


# --- second moments, asymmetric ------------------------------------------------


def test_second_moment_asym_k2_matches_dblquad():
    n, lam = 200, 0.7
    half = (n - 3) / 2.0
    c = n * lam * lam
    dens = lambda t: (1 - t * t) ** half
    den, _ = quad(dens, -1, 1)
    num, _ = dblquad(
        lambda t2, t1: dens(t1) * dens(t2) * math.exp(c * t1 * t2), -1, 1, -1, 1
    )
    r = second_moment_asym(lam, n, 2)
    assert r.log_second_moment == pytest.approx(math.log(num) - 2 * math.log(den), abs=1e-5)


def test_second_moment_asym_k2_gaussian_limit():
    lam = 0.7
    r = second_moment_asym(lam, 100000, 2)
    assert math.exp(r.log_second_moment) == pytest.approx(
        1.0 / math.sqrt(1 - lam**4), rel=0.01
    )


def test_second_moment_asym_k3_matches_reduced_quadrature():
    # integrate out one coordinate exactly: E exp(sT) = 0F1(; n/2; s^2/4)
    n, lam = 40, 1.0
    half = (n - 3) / 2.0
    c = n * lam * lam
    dens = lambda t: (1 - t * t) ** half
    den, _ = quad(dens, -1, 1)
    num, _ = dblquad(
        lambda t2, t1: dens(t1) * dens(t2) * hyp0f1(n / 2.0, (c * t1 * t2) ** 2 / 4.0),
        -1,
        1,
        -1,
        1,
    )
    r = second_moment_asym(lam, n, 3)
    assert r.log_second_moment == pytest.approx(math.log(num) - 2 * math.log(den), abs=1e-5)


def _log_mgf(s: float, n: int) -> float:
    # log E exp(sT) = log 0F1(; n/2; s^2/4), the series with no upper parameter
    return _log_series(2.0 * math.log(0.5 * s), [], [1.0, 0.5 * n])[0]


# nu = n/2 - 1 runs from 0 to 5e4 and the series mode from 0 to s/2, so
# single-term, wide-window and dimension-dominated sums all appear
_MGF_DIMS = (2, 3, 4, 5, 20, 101, 199, 200, 201, 202, 1000, 10000, 100002)
_MGF_ARGS = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


@pytest.mark.parametrize("n", _MGF_DIMS)
def test_log_mgf_matches_mpmath_bessel(n):
    import mpmath as mp

    nu = n / 2.0 - 1.0
    edge = math.sqrt(2.0 * n)
    # mpmath sums ~s/2 series terms when nu is large and nu < s < nu^2,
    # which takes seconds or more per point, so those corners are left out
    args = [s for s in _MGF_ARGS if not (nu >= 4999 and s >= 1e5)]
    args += [edge * (1 - 1e-3), edge * (1 + 1e-3)]
    with mp.workdps(40):
        for s in args:
            s_mp, nu_mp = mp.mpf(s), mp.mpf(nu)
            bessel = mp.besseli(nu_mp, s_mp, maxterms=10**6)
            want = mp.loggamma(mp.mpf(n) / 2) + nu_mp * mp.log(2 / s_mp) + mp.log(bessel)
            assert _log_mgf(s, n) == pytest.approx(float(want), rel=1e-10, abs=0.0), (n, s)


@pytest.mark.parametrize(
    "k,n,lam",
    [(2, n, 0.9) for n in (2, 3, 5, 40, 1000)]
    + [(3, n, 1.0) for n in (2, 3, 5, 40, 1000)]
    # the last two are supercritical: the mass sits far from the origin, so
    # the interval cut must bound the whole integrand, not the density alone
    + [(2, 20000, 0.9), (2, 1000, 1.1), (3, 1000, 2.0)],
)
def test_second_moment_asym_matches_series(k, n, lam):
    r = second_moment_asym(lam, n, k)
    want = _oracles.asym_moment_series(lam, n, k, terms=5000)
    assert r.method == "series"
    assert r.log_second_moment == pytest.approx(want, abs=1e-9)


def test_asym_series_oracle_refuses_to_stop_in_the_dip():
    # far-supercritical terms shrink before they grow; a stop on a small
    # term alone returned 0.00204 here, against a true log value of ~84991
    with pytest.raises(RuntimeError):
        _oracles.asym_moment_series(3.0, 20000, 3, terms=5000)


def _log_hyper_asym(lam: float, n: int, k: int) -> float:
    import mpmath as mp

    with mp.workdps(40):
        c = mp.mpf(n) * mp.mpf(lam) ** 2
        return float(mp.log(mp.hyper([mp.mpf("0.5")] * (k - 1), [mp.mpf(n) / 2] * k, c * c / 4)))


def test_second_moment_asym_k4_matches_hypergeometric():
    lam, n = 1.2, 30
    r = second_moment_asym(lam, n, 4)
    assert r.method == "series"
    assert r.log_second_moment == pytest.approx(_log_hyper_asym(lam, n, 4), rel=1e-12)
    assert r.log_second_moment == pytest.approx(_oracles.asym_moment_series(lam, n, 4), rel=1e-12)


# log (n/2)_m must stay exact at n = 10^6; log moments of 3e-13 (k = 4) and
# 6e-8 (k = 5) keep their relative precision only if the sum is never
# rounded against its first term 1; at (1.713, 1000, 3), the critical
# strength, both modes of the terms count
@pytest.mark.parametrize(
    "lam,n,k", [(1.2, 10**6, 3), (0.9, 10**6, 4), (1.0, 200, 5), (1.713, 1000, 3), (2.5, 200, 4)]
)
def test_second_moment_asym_matches_hypergeometric(lam, n, k):
    r = second_moment_asym(lam, n, k)
    assert r.log_second_moment > 0.0
    assert r.log_second_moment == pytest.approx(_log_hyper_asym(lam, n, k), rel=1e-10)


def test_second_moment_asym_far_supercritical_k3():
    # the terms fall to ~e^-128 near j = 129 and then rise to a mode near
    # j = 74500; mpmath.hyper quits in that dip and returns 0.00204
    r = second_moment_asym(3.0, 20000, 3)
    assert r.log_second_moment == pytest.approx(84990.8608375, rel=1e-9)
    assert r.quadrature_error < 1e-15


# the second-moment calls of the perfbench ``moments`` workload
_MOMENTS_CALLS = (
    [("sym", 3, n, b) for n in (1000, 10000, 100000) for b in (0.5, 1.0, 1.3)]
    + [("asym", 2, 1000, lam) for lam in (0.5, 0.8, 0.95)]
    + [("asym", 3, 1000, 0.8), ("asym", 4, 50, 1.0)]
)


def test_series_roots_equal_brentq_on_the_moments_brackets(monkeypatch):
    """Each root the series finds is the float scipy.optimize.brentq returns on the same bracket."""
    brackets = []
    monkeypatch.setattr(inference, "_brent_root", _oracles.pinned_to_brentq(_brent_root, brackets))
    for model, k, n, strength in _MOMENTS_CALLS:
        (second_moment_sym if model == "sym" else second_moment_asym)(strength, n, k)
    assert len(brackets) >= len(_MOMENTS_CALLS)


@pytest.mark.parametrize("g", [1 / 6, 1 / 2, 5 / 6, 1.0, 25.0, 99.5])
def test_log_rising_excess_below_100_matches_mpmath(g):
    """log (g)_m - m log g against 40-digit loggamma, within its rounding bound.

    With u = 2^-53 and a = ceil(100 - g):
    * m <= a: a running product of m factors 1 + j/g, each rounded twice,
      is off by at most 3 m u relative, so its log is off by 3 m u plus the
      rounding of the log, 2 u |v|.
    * m > a: v = H + (m - a) L + S, with H the head at a, L = log1p(a/g)
      and S the Stirling form at g + a, all three >= 0 and so <= v. H is
      off by 3 a u + 2 u H, (m - a) L by (m - a) u + 3 u (m - a) L, and
      S's product P = (x - 1/2) log1p((m - a)/(g + a)), P <= v + m, by
      5 u P + u x, x = g + m; rounding g + a moves S by at most u m. With
      the three sums the total stays below u (3 a + g + 8 m + 16 |v|).
    """
    import mpmath as mp

    u = 2.0**-53
    a = math.ceil(100.0 - g)
    m = np.unique(np.concatenate([np.arange(0.0, 301.0), np.round(np.geomspace(301.0, 1e6, 120))]))
    got = _log_rising_excess(g, m)
    with mp.workdps(40):
        gm = mp.mpf(g)
        for mi, v in zip(m.tolist(), got.tolist()):
            j = int(mi)
            err = abs(mp.mpf(v) - (mp.loggamma(gm + j) - mp.loggamma(gm) - j * mp.log(gm)))
            if j <= a:
                bound = u * (3 * j + 2 * abs(v))
            else:
                bound = u * (3 * a + g + 8 * j + 16 * abs(v))
            assert err <= bound, (j, float(err), bound)


def test_second_moment_series_sums_bounded_windows():
    # the subcritical terms fall from the first one on, far before j ~ n
    r = second_moment_asym(1.2, 10**6, 3)
    assert r.nodes < 10**5
    # supercritical: a window around the mode, not every term up to it
    r = second_moment_asym(1.2, 10**6, 2)
    assert r.nodes < 10**5 and r.log_second_moment > 7e4


@settings(max_examples=60)
@given(
    st.sampled_from(["sym", "asym"]),
    st.integers(2, 10),
    st.integers(2, 10**6),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_second_moment_is_nonnegative_and_monotone_in_strength(model, k, n, a, b):
    f = second_moment_sym if model == "sym" else second_moment_asym
    lo, hi = f(min(a, b), n, k).log_second_moment, f(max(a, b), n, k).log_second_moment
    assert 0.0 <= lo <= hi


def test_implied_tv_bound_cases():
    assert _implied_tv(0.0) == 0.0
    assert _implied_tv(math.log(1.04)) == pytest.approx(0.1, rel=1e-12)
    assert _implied_tv(-2e-5) == 0.0  # noise below a unit moment is floored
    assert _implied_tv(math.log(5.1)) == "vacuous"  # bound would pass 1
    assert _implied_tv(10.0) == "vacuous"
    assert _implied_tv(800.0) == "vacuous"  # exp would overflow


def test_second_moment_json_dict():
    d = second_moment_sym(0.5, 100, 2).to_json_dict()
    assert set(d) == {
        "model",
        "k",
        "n",
        "strength",
        "log_second_moment",
        "quadrature_error",
        "implied_tv_upper",
        "method",
        "nodes",
    }
    assert d["model"] == "sym" and d["k"] == 2


# --- likelihood ratio ----------------------------------------------------------


def test_lr_zero_strength_short_circuits():
    x = sample_goe(10, trial_rng(1, 0))
    est = likelihood_ratio_mc(x, 0.0)
    assert (est.log_estimate, est.estimate, est.std_error) == (0.0, 1.0, 0.0)
    assert not est.dominated and est.n_samples == 0


def _lr_block(n, k):
    return max(1, _BLOCK_ENTRIES // n ** (k - 1))


# k = 3 and k = 4 span several blocks, the last one partial
@pytest.mark.parametrize("k,n,s", [(2, 12, 64), (3, 30, 700), (4, 12, 400)])
def test_lr_matches_manual_recomputation(k, n, s):
    x = sample_trial(EnsembleSpec(model="sym_noise", n=n, k=k, seed=5), 0)
    beta = 0.8
    if k > 2:
        assert s > _lr_block(n, k) and s % _lr_block(n, k) != 0
    est = likelihood_ratio_mc(x, beta, s, np.random.default_rng(99))
    rng = np.random.default_rng(99)
    axes = "abcd"[:k]
    logw = np.empty(s)
    for j in range(s):
        v = sample_sphere(n, rng).coords
        val = float(np.einsum(f"{axes},{','.join(axes)}->", x.array, *[v] * k))
        logw[j] = 0.5 * n * beta * val - 0.25 * n * beta * beta
    want = float(logsumexp(logw)) - math.log(s)
    assert est.log_estimate == pytest.approx(want, rel=1e-12)
    assert est.estimate == pytest.approx(math.exp(want), rel=1e-12)


def test_lr_consumes_the_stream_of_sequential_sphere_draws():
    n, k, s = 30, 3, 700
    x = sample_trial(EnsembleSpec(model="sym_noise", n=n, k=k, seed=2), 0)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    likelihood_ratio_mc(x, 1.0, s, rng)
    for _ in range(s):
        sample_sphere(n, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("model", ["sym_noise", "sym_spiked"])
def test_lr_bits_do_not_depend_on_the_block_at_the_tensor_shape(monkeypatch, model):
    """At n = 30, k = 3, blocks of 18 and 72 directions give the same bits.
    At other shapes the BLAS product can round a column differently with the
    column count (at n = 12, k = 3, blocks of 113 and 455 directions moved
    one of 16 draws by an ulp)."""
    strength = {"strength": 2.0} if model == "sym_spiked" else {}
    spec = EnsembleSpec.from_json_dict({"model": model, "n": 30, "k": 3, "seed": 4, **strength})
    for trial in range(6):
        x = sample_trial(spec, trial)
        got = []
        for entries in (1 << 14, 1 << 16):
            monkeypatch.setattr(inference, "_BLOCK_ENTRIES", entries)
            got.append(likelihood_ratio_mc(x, 2.0, 2048, trial_rng(9, trial)).log_estimate)
        assert got[0] == got[1]


def test_lr_unbiased_under_noise():
    # under pure noise the spherical average has expectation exactly 1
    n, k, beta = 12, 3, 0.7
    spec = EnsembleSpec(model="sym_noise", n=n, k=k, seed=21)
    estimates = []
    for trial in range(200):
        x = sample_trial(spec, trial)
        rng = trial_rng(1234, trial)
        estimates.append(likelihood_ratio_mc(x, beta, 256, rng).estimate)
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - 1.0) <= max(4.0 * se, 0.08)


def test_lr_dominated_flag():
    heavy = sample_goe(200, trial_rng(3, 0))
    est = likelihood_ratio_mc(heavy, 1.2, 64, np.random.default_rng(0))
    assert est.dominated
    light = sample_goe(10, trial_rng(3, 0))
    est2 = likelihood_ratio_mc(light, 0.1, 64, np.random.default_rng(0))
    assert not est2.dominated


def test_lr_validation():
    x = sample_goe(8, trial_rng(0, 0))
    with pytest.raises(ContractError):
        likelihood_ratio_mc(np.zeros((3, 4)), 1.0)
    for bad in (1, 2.5, True):
        with pytest.raises(ContractError):
            likelihood_ratio_mc(x, 1.0, n_samples=bad)
    with pytest.raises(SizingError):
        likelihood_ratio_mc(x, 1.0, n_samples=10**8 + 1)
    with pytest.raises(ContractError):
        likelihood_ratio_mc(x, -1.0)
    # the default generator is fixed, so repeat calls agree
    assert (
        likelihood_ratio_mc(x, 0.5, 32).log_estimate
        == likelihood_ratio_mc(x, 0.5, 32).log_estimate
    )


def test_lr_linear_scale_overflows_to_inf_without_a_warning():
    """A strong spike puts the log estimate past exp(709); the log is still the value."""
    spec = EnsembleSpec.from_json_dict({"model": "sym_spiked", "n": 10, "k": 2, "strength": 30.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = likelihood_ratio_mc(sample_trial(spec, 0), 30.0, 2048, np.random.default_rng(0))
    assert 709.8 < est.log_estimate < math.inf
    assert est.estimate == math.inf and est.std_error == math.inf


# --- simple tests and their separation -----------------------------------------


def test_trace_stat():
    assert trace_stat(np.array([[1.0, 5.0], [-2.0, 2.0]])) == 3.0
    with pytest.raises(ContractError):
        trace_stat(np.zeros((2, 3)))


def test_trace_tv_pinned_value():
    assert trace_tv(1.0) == pytest.approx(0.2763263901682369, abs=1e-15)
    assert trace_tv(0.0) == 0.0


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_trace_tv_matches_numeric_distance(beta):
    sd = math.sqrt(2.0)
    gap, _ = quad(
        lambda x: abs(norm.pdf(x, 0.0, sd) - norm.pdf(x, beta, sd)),
        -40,
        40,
        points=[0.5 * beta],
        limit=200,
    )
    assert trace_tv(beta) == pytest.approx(0.5 * gap, abs=1e-10)


# --- statistic registry ----------------------------------------------------------


def test_make_statistic_registry():
    with pytest.raises(ConfigError):
        make_statistic("median")
    with pytest.raises(ConfigError):
        make_statistic("lr")  # needs a strength parameter
    x = sample_goe(20, trial_rng(2, 0))
    assert make_statistic("trace")(x) == trace_stat(x)
    assert make_statistic("frob")(x) == pytest.approx(
        float(np.linalg.norm(x.array)), rel=1e-14
    )
    assert make_statistic("eig")(x) == pytest.approx(
        float(np.linalg.eigvalsh(x.array)[-1]), abs=1e-10
    )


def test_the_readme_documents_every_statistic_in_order():
    """The README's statistics table has one row per entry of ``STATISTICS``, so none goes undocumented."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("| statistic |"))
    names = []
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    assert names == list(STATISTICS)


def test_randomized_statistics_are_deterministic():
    spec = EnsembleSpec(model="goe", n=15, seed=4)
    x = sample_trial(spec, 3)
    lr = make_statistic("lr", {"beta": 0.6, "samples": 128})
    a = lr(x, spec=spec, trial=3, context=0)
    b = lr(x, spec=spec, trial=3, context=0)
    assert a == b
    opn = make_statistic("opnorm", {"restarts": 4, "iters": 50})
    assert opn(x, spec=spec, trial=3) == opn(x, spec=spec, trial=3)


# --- experiment spec and runner ---------------------------------------------------


def _eig_experiment_dict(**overrides):
    data = {
        "h0": {"model": "goe", "n": 80, "seed": 11},
        "h1": {"model": "sym_spiked", "n": 80, "k": 2, "strength": 1.8, "seed": 12},
        "test": {"statistic": "eig", "delta": 0.15},
        "trials": 40,
        "seed": 3,
    }
    data.update(overrides)
    return data


def test_experiment_spec_from_json():
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict())
    assert spec.statistic == "eig"
    assert spec.threshold == pytest.approx(2.15)
    assert spec.trials == 40 and spec.seed == 3
    assert spec.h1.strength == 1.8


def test_experiment_spec_roundtrip():
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict())
    again = ExperimentSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_experiment_spec_default_thresholds():
    data = _eig_experiment_dict(test={"statistic": "trace"})
    spec = ExperimentSpec.from_json_dict(data)
    assert spec.threshold == pytest.approx(0.9)  # half the planted strength
    data = _eig_experiment_dict(test={"statistic": "lr"})
    spec = ExperimentSpec.from_json_dict(data)
    assert spec.threshold == 0.0
    assert spec.params["beta"] == 1.8  # borrowed from the alternative


@pytest.mark.parametrize("n,L", [(400, 40), (300, 30)])
def test_a_clique_alternative_defaults_to_its_induced_spike(n, L):
    """A clique of size L is a spike of strength L/sqrt(n): the trace midpoint and the
    lr strength read that, not L (at n = 400, L = 40 a cut of L/2 = 20 never fired)."""
    data = _eig_experiment_dict(
        h0={"model": "goe", "n": n, "seed": 11},
        h1={"model": "hidden_clique", "n": n, "strength": L, "seed": 12},
        test={"statistic": "trace"},
    )
    assert ExperimentSpec.from_json_dict(data).threshold == L / (2 * math.sqrt(n))
    data["test"] = {"statistic": "lr", "params": {"samples": 64}}
    spec = ExperimentSpec.from_json_dict(data)
    assert spec.threshold == 0.0
    assert list(spec.params.items()) == [("samples", 64), ("beta", L / math.sqrt(n))]
    data["test"]["params"]["beta"] = 0.5
    assert ExperimentSpec.from_json_dict(data).params["beta"] == 0.5  # a given strength is kept


def test_the_clique_trace_midpoint_separates():
    """The trace of a clique draw moves by L/sqrt(n) = 2 here, against N(0, 2) noise."""
    data = _eig_experiment_dict(
        h0={"model": "goe", "n": 100, "seed": 11},
        h1={"model": "hidden_clique", "n": 100, "strength": 20, "seed": 12},
        test={"statistic": "trace"},
    )
    result = run_experiment(ExperimentSpec.from_json_dict(data), workers=1)
    assert result.fpr < 0.4 and result.power > 0.6


@pytest.mark.parametrize("statistic", ["eig", "frob", "opnorm"])
def test_a_statistic_without_a_default_cut_needs_a_threshold(statistic):
    with pytest.raises(ConfigError) as err:
        ExperimentSpec.from_json_dict(_eig_experiment_dict(test={"statistic": statistic}))
    assert err.value.field == "test.threshold"
    assert str(err.value) == f"test.threshold: required for the {statistic} statistic"


@pytest.mark.parametrize("statistic", [name for name in STATISTICS if name != "eig"])
def test_only_eig_takes_an_edge_margin(statistic):
    with pytest.raises(ConfigError) as err:
        ExperimentSpec.from_json_dict(_eig_experiment_dict(test={"statistic": statistic, "delta": 0.1}))
    assert str(err.value) == "test.delta: only the eig statistic takes an edge margin"


@pytest.mark.parametrize("field", ["trials", "seed"])
def test_experiment_spec_rejects_bool(field):
    kwargs = {"trials": 5, "seed": 0, field: True}
    with pytest.raises(ConfigError) as err:
        ExperimentSpec(
            h0=EnsembleSpec(model="goe", n=10),
            h1=EnsembleSpec(model="goe", n=10),
            statistic="eig",
            threshold=2.1,
            **kwargs,
        )
    assert err.value.field == field


@pytest.mark.parametrize("hyp", ["h0", "h1"])
@pytest.mark.parametrize("statistic", ["frob", "eig"])
def test_experiment_spec_refuses_a_hypothesis_that_is_not_an_ensemble_spec(hyp, statistic):
    """The JSON form of a hypothesis ended in a raw AttributeError inside run_experiment."""
    kwargs = {"h0": EnsembleSpec(model="goe", n=3), "h1": EnsembleSpec(model="goe", n=3)}
    kwargs[hyp] = {"model": "goe", "n": 3}
    with pytest.raises(ConfigError) as err:
        ExperimentSpec(**kwargs, statistic=statistic, threshold=True, trials=0)  # named before the other fields
    assert err.value.field == hyp
    assert str(err.value) == f"{hyp}: expected an EnsembleSpec, got dict"


def test_experiment_threshold_is_checked_by_the_spec_itself():
    """One check, for the JSON path and for direct construction: bools and NaN are
    refused on ``test.threshold``, and an integer is kept as its float."""
    h = EnsembleSpec(model="goe", n=3)
    for bad in (True, math.nan, "2", 10**400):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(h0=h, h1=h, statistic="frob", threshold=bad, trials=1)
        assert err.value.field == "test.threshold"
    spec = ExperimentSpec(h0=h, h1=h, statistic="frob", threshold=2, trials=1)
    assert type(spec.threshold) is float and spec.threshold == 2.0
    data = _eig_experiment_dict(test={"statistic": "frob", "threshold": 2})
    test = ExperimentSpec.from_json_dict(data).to_json_dict()["test"]
    assert json.dumps(test) == '{"statistic": "frob", "threshold": 2.0}'


@pytest.mark.parametrize("statistic", ["eig", "lr", "opnorm"])
@pytest.mark.parametrize("params", [[1], "ab", 5, []])
def test_experiment_spec_refuses_params_that_are_not_a_mapping(statistic, params):
    """Built directly, the spec once met ``dict(params)`` as a raw TypeError or ValueError;
    it is refused in the words of the JSON path, and so is the JSON path's lr default."""
    h = EnsembleSpec(model="goe", n=3)
    with pytest.raises(ConfigError) as err:
        ExperimentSpec(h0=h, h1=h, statistic=statistic, threshold=1.0, trials=1, params=params)
    assert str(err.value) == "test.params: expected an object"
    data = _eig_experiment_dict(test={"statistic": statistic, "threshold": 1.0, "params": params})
    with pytest.raises(ConfigError) as err:
        ExperimentSpec.from_json_dict(data)
    assert str(err.value) == "test.params: expected an object"


@pytest.mark.parametrize(
    "field,test,h1",
    [
        ("test.params.samples", {"statistic": "lr", "params": {"samples": "x"}}, {}),
        ("test.params.samples", {"statistic": "lr", "params": {"samples": True}}, {}),
        ("test.params.beta", {"statistic": "lr", "params": {"beta": "x"}}, {}),
        ("test.params.restarts", {"statistic": "opnorm", "threshold": 1.0, "params": {"restarts": "x"}}, {}),
        ("test.params.iters", {"statistic": "opnorm", "threshold": 1.0, "params": {"iters": "x"}}, {}),
        ("test.params.samples", {"statistic": "lr", "params": {"samples": 1}}, {}),
        ("test.params.samples", {"statistic": "lr", "params": {"samples": 10**9}}, {}),
        ("test.params.restarts", {"statistic": "opnorm", "threshold": 1.0, "params": {"restarts": 0}}, {}),
        ("test.params.iters", {"statistic": "opnorm", "threshold": 1.0, "params": {"iters": 0}}, {}),
        # refused when the spec is parsed: restarts = 10^12 on goe n = 3 ran past 20 s
        ("test.params.restarts", {"statistic": "opnorm", "threshold": 1.0, "params": {"restarts": 10**8 + 1}}, {}),
        ("test.params.iters", {"statistic": "opnorm", "threshold": 1.0, "params": {"iters": 10**15}}, {}),
        ("test.params.iterz",
         {"statistic": "opnorm", "threshold": 1.0, "params": {"restarts": 1, "iterz": -3}}, {}),
        ("test.params.beta", {"statistic": "lr", "params": {"beta": -1}}, {}),
        ("test.threshold", {"statistic": "eig", "threshold": True}, {}),
        ("test.delta", {"statistic": "eig", "delta": True}, {}),
        ("strength", {"statistic": "eig", "delta": 0.15}, {"strength": True}),
        ("test", {"delta": 0.15}, {}),
        ("test.params", {"statistic": "eig", "delta": 0.15, "params": [1]}, {}),
        ("test.delta", {"statistic": "eig", "delta": 0}, {}),
    ],
    ids=["samples-text", "samples-bool", "beta-text", "restarts-text", "iters-text",
         "samples-1", "samples-1e9", "restarts-0", "iters-0", "restarts-1e8+1", "iters-1e15",
         "param-typo", "beta-negative",
         "threshold-bool", "delta-bool", "strength-bool", "no-statistic", "params-list", "delta-0"],
)
def test_experiment_rejects_malformed_spec_values(field, test, h1):
    data = _eig_experiment_dict(test=test, trials=1)
    data["h1"] = {**data["h1"], **h1}
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentSpec.from_json_dict(data))
    assert err.value.field == field


def test_experiment_spec_seed_below_2_63():
    # streams are keyed by 2 * seed + hypothesis in 64 bits, so seeds s and
    # s + 2^63 would share the alternative's stream
    ExperimentSpec.from_json_dict(_eig_experiment_dict(seed=2**63 - 1))
    with pytest.raises(ConfigError) as err:
        ExperimentSpec.from_json_dict(_eig_experiment_dict(seed=2**63))
    assert err.value.field == "seed"


@pytest.fixture
def no_draws(monkeypatch):
    """The trial sampler made to fail if it is called: a refused spec must draw nothing."""

    def refuse(*args, **kwargs):
        raise AssertionError("a trial was sampled")

    monkeypatch.setattr(ensembles, "sample_trial", refuse)


# Every model, at k = 2 and, where it has one, at k = 3.
MODEL_ORDERS = [(m, k) for m in MODELS for k in ((2,) if m in ("goe", "hidden_clique") else (2, 3))]


@pytest.mark.parametrize("hyp", ["h0", "h1"])
@pytest.mark.parametrize("model,k", MODEL_ORDERS)
@pytest.mark.parametrize("statistic", STATISTICS)
def test_a_statistic_that_cannot_read_a_model_is_refused_at_parse_time(no_draws, statistic, model, k, hyp):
    # eig on asym_noise, eig on a k = 3 tensor and opnorm on asym_noise sampled
    # first and then failed with a message that named no field
    symmetric = not model.startswith("asym")
    reads = {"eig": symmetric and k == 2, "trace": k == 2, "opnorm": symmetric}.get(statistic, True)
    other = EnsembleSpec(model="goe", n=3)
    ens = EnsembleSpec(model=model, n=3, k=k, strength=1.0)
    pair = {"h0": ens, "h1": other} if hyp == "h0" else {"h0": other, "h1": ens}
    make = functools.partial(
        ExperimentSpec, **pair, statistic=statistic, threshold=1.0, trials=1,
        params={"beta": 1.0} if statistic == "lr" else None,
    )
    if reads:
        assert make().statistic == statistic
        return
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == "test.statistic"
    assert f"{hyp} is {model!r} at k={k}" in str(err.value)


_M = np.eye(2)
REAL_ARGUMENTS = {
    "second_moment_sym": lambda v: second_moment_sym(v, 10, 3),
    "second_moment_asym": lambda v: second_moment_asym(v, 10, 3),
    "likelihood_ratio_mc": lambda v: likelihood_ratio_mc(_M, v, 4, np.random.default_rng(0)),
    "trace_tv": trace_tv,
    "first_coord_tail_logprob": lambda v: first_coord_tail_logprob(v, 10),
    "sphere_rate": sphere_rate,
    "f_beta": lambda v: f_beta(0.5, v, 3),
    "g_lambda": lambda v: g_lambda([0.1, 0.2], v),
    "g_lambda_critical": lambda v: g_lambda_critical(v, 3),
}


@pytest.mark.parametrize("bad", ["x", None, True, 10**400], ids=["text", "None", "True", "1e400"])
@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_a_real_argument_refuses_what_is_not_a_finite_number(name, bad):
    # "x" and None ended in a raw TypeError, 10^400 in an OverflowError, and
    # True was read as 1.0
    with pytest.raises(ContractError, match="must be a finite number"):
        REAL_ARGUMENTS[name](bad)


@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_a_real_argument_reads_ints_and_numpy_floats_as_their_value(name):
    call = REAL_ARGUMENTS[name]
    assert call(1) == call(1.0)
    assert call(np.float64(0.5)) == call(0.5)


def test_check_dim_and_order_reject_bool():
    with pytest.raises(ContractError, match="dimension n"):
        second_moment_sym(0.5, True, 3)
    with pytest.raises(ContractError):
        _check_order(True)
    with pytest.raises(ContractError):
        second_moment_asym(0.5, 50, True)
    assert log_cn(np.int64(5)) == log_cn(5) and _check_order(3) == 3


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json_dict(_eig_experiment_dict(extra=1))
    with pytest.raises(ConfigError) as err:
        ExperimentSpec.from_json_dict([_eig_experiment_dict()])
    assert err.value.field == "experiment"
    for missing in ("h0", "h1", "test", "trials"):
        bad = _eig_experiment_dict()
        del bad[missing]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_dict(bad)
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json_dict(
            _eig_experiment_dict(test={"statistic": "eig", "delta": 0.1, "threshold": 2.1})
        )
    with pytest.raises(ConfigError) as err:  # an unknown name is named before a missing threshold
        ExperimentSpec.from_json_dict(_eig_experiment_dict(test={"statistic": "median"}))
    assert err.value.field == "test.statistic"
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json_dict(
            _eig_experiment_dict(test={"statistic": "eig", "bandwidth": 1})
        )
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=0))
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json_dict(_eig_experiment_dict(seed=-1))
    with pytest.raises(ConfigError):
        ExperimentSpec(
            h0=EnsembleSpec(model="goe", n=10),
            h1=EnsembleSpec(model="goe", n=10),
            statistic="median",
            threshold=0.0,
            trials=5,
        )


def test_run_experiment_end_to_end():
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict())
    result = run_experiment(spec)
    assert 0.0 <= result.fpr <= 0.3
    assert result.power - result.fpr >= 0.3  # a strength-1.8 spike is easy here
    assert result.ks >= abs(result.power - result.fpr) - 1e-12
    assert len(result.rows) == 2 * spec.trials
    for row in result.rows:
        assert row["decision"] == int(row["statistic"] >= spec.threshold)
    # per-trial seeds are reported on the hypothesis-specific stream
    assert result.rows[0]["sub_seed"] == sub_seed_hex(11, 0, STREAM_SAMPLE, context=6)
    assert result.rows[spec.trials]["sub_seed"] == sub_seed_hex(
        12, 0, STREAM_SAMPLE, context=7
    )


def test_run_experiment_roc_shape():
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=25))
    result = run_experiment(spec)
    roc = result.roc
    assert roc[0] == (1.0, 1.0) and roc[-1] == (0.0, 0.0)
    fprs = [p[0] for p in roc]
    tprs = [p[1] for p in roc]
    assert all(a >= b - 1e-12 for a, b in zip(fprs, fprs[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(tprs, tprs[1:]))


def _eig_dict_at(n, **overrides):
    return _eig_experiment_dict(
        h0={"model": "goe", "n": n, "seed": 11},
        h1={"model": "sym_spiked", "n": n, "k": 2, "strength": 1.8, "seed": 12},
        **overrides,
    )


def test_run_experiment_reproducible_and_worker_invariant():
    for n in (80, 300):  # at n = 80 BLAS threading never changes the bits
        spec = ExperimentSpec.from_json_dict(_eig_dict_at(n, trials=12))
        one = run_experiment(spec)
        two = run_experiment(spec)
        assert np.array_equal(one.stats0, two.stats0)
        assert np.array_equal(one.stats1, two.stats1)
        for workers in (1, 2, 3):
            other = run_experiment(spec, workers=workers)
            assert other.workers == workers
            assert np.array_equal(one.stats0, other.stats0)
            assert np.array_equal(one.stats1, other.stats1)


@pytest.mark.parametrize(
    "test",
    [
        {"statistic": "lr", "threshold": 0.0, "params": {"beta": 2.0, "samples": 256}},
        {"statistic": "opnorm", "threshold": 2.5},
    ],
)
def test_tensor_statistics_do_not_depend_on_the_worker_count(test):
    spec = ExperimentSpec.from_json_dict({
        "h0": {"model": "sym_noise", "n": 30, "k": 3, "seed": 11},
        "h1": {"model": "sym_spiked", "n": 30, "k": 3, "strength": 2.0, "seed": 12},
        "test": test,
        "trials": 5,
        "seed": 3,
    })
    runs = [run_experiment(spec, workers=workers) for workers in (1, 2, 3)]
    for other in runs[1:]:
        assert other.stats0.tobytes() == runs[0].stats0.tobytes()
        assert other.stats1.tobytes() == runs[0].stats1.tobytes()


_EIG_BITS = """
import json, sys
from spiked_lab.ensembles import _openblas_threads
from spiked_lab.inference import ExperimentSpec, run_experiment

before = _openblas_threads()[0]()
result = run_experiment(ExperimentSpec.from_json_dict(json.loads(sys.argv[1])), workers=2)
print(json.dumps([before, result.blas_threads, result.stats0.tobytes().hex(), result.stats1.tobytes().hex()]))
"""


def test_eig_bits_do_not_depend_on_the_blas_thread_count(openblas):
    """Fresh interpreters under OPENBLAS_NUM_THREADS 1 and 2 give the same eigenvalue bits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spec = json.dumps(_eig_dict_at(300, trials=4))
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _EIG_BITS, spec],
            capture_output=True, text=True, timeout=120, env={**env, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0][0] == 1  # the environment reached the library
    assert runs[0][1] == runs[1][1] == 1
    assert runs[0][2:] == runs[1][2:]


def test_the_blas_count_is_restored_after_a_run_and_after_a_failure(monkeypatch, openblas):
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=2))
    assert run_experiment(spec, workers=2).blas_threads == 1
    assert openblas() == 2
    monkeypatch.setattr(
        "spiked_lab.inference.make_statistic", lambda name, params=None: lambda x, **kw: math.nan
    )
    for workers in (1, 2):
        with pytest.raises(NumericalFailure):
            run_experiment(spec, workers=workers)
        assert openblas() == 2


def test_overlapping_experiments_share_one_blas_hold(monkeypatch, openblas):
    """The count is global to the process: the last evaluator out restores it, not the first."""
    both_inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = []

    def make(name, params=None):
        def stat(x, *, spec, trial, **kw):
            if spec.model == "goe":  # H0 of both experiments: both pools are running
                both_inside.wait()
            elif spec.seed == 22:  # H1 of the second, after the first experiment returned
                assert first_done.wait(timeout=30)
                seen.append(openblas())
            return 1.0

        return stat

    monkeypatch.setattr("spiked_lab.inference.make_statistic", make)
    first = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=1))
    second = ExperimentSpec.from_json_dict(
        _eig_experiment_dict(
            trials=1,
            h0={"model": "goe", "n": 80, "seed": 21},
            h1={"model": "sym_spiked", "n": 80, "k": 2, "strength": 1.8, "seed": 22},
        )
    )

    def run_first():
        try:
            return run_experiment(first, workers=1)
        finally:
            first_done.set()

    with ThreadPoolExecutor(max_workers=2) as callers:
        runs = [callers.submit(run_first), callers.submit(run_experiment, second, workers=1)]
        assert [run.result(timeout=60).blas_threads for run in runs] == [1, 1]
    assert seen == [1]
    assert openblas() == 2


def test_one_pool_runs_both_hypotheses_at_once(monkeypatch):
    """With one trial each and two workers, H0 and H1 run side by side on two threads."""
    both = threading.Barrier(2, timeout=30)
    threads = {}

    def make(name, params=None):
        def stat(x, *, spec, trial, **kw):
            threads[spec.seed] = threading.get_ident()
            both.wait()  # two pools in turn would break the barrier
            return 1.0

        return stat

    monkeypatch.setattr("spiked_lab.inference.make_statistic", make)
    result = run_experiment(ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=1)), workers=2)
    assert result.workers == 2
    assert set(threads) == {11, 12}
    assert threads[11] != threads[12]


def test_without_openblas_the_pool_runs_and_reports_none(monkeypatch):
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=3))
    want = run_experiment(spec, workers=1)
    monkeypatch.setattr("spiked_lab.ensembles._openblas_threads", lambda: None)
    result = run_experiment(spec, workers=2)
    assert result.blas_threads is None
    assert np.array_equal(result.stats0, want.stats0)
    assert np.array_equal(result.stats1, want.stats1)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_refuses_a_nan_statistic(monkeypatch, workers):
    """A NaN is never decided as "no detection"; the failure names where it was."""

    def make_nan_at_h1_trial_2(name, params=None):
        return lambda x, *, spec, trial, **kw: math.nan if spec.seed == 12 and trial == 2 else 1.0

    monkeypatch.setattr("spiked_lab.inference.make_statistic", make_nan_at_h1_trial_2)
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=4))
    with pytest.raises(NumericalFailure, match=r"'eig' is nan at hypothesis H1, trial 2"):
        run_experiment(spec, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_reports_an_overflow_inside_a_statistic(monkeypatch, workers):
    """numpy's error state is per thread: an overflow on any worker is one NumericalFailure."""

    def overflow_at_h1_trial_1(name, params=None):
        def stat(x, *, spec, trial, **kw):
            big = np.float64(1e300) if spec.seed == 12 and trial == 1 else np.float64(1.0)
            return float(big * big)

        return stat

    monkeypatch.setattr("spiked_lab.inference.make_statistic", overflow_at_h1_trial_1)
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=4))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            run_experiment(spec, workers=workers)
    assert str(info.value).startswith(
        "statistic 'eig' failed at hypothesis H1, trial 1: overflow encountered in "
    )
    assert np.geterr() == before


def _opnorm_experiment(n=6, trials=7, strength=20.0, **params):
    data = {
        "h0": {"model": "sym_noise", "n": n, "k": 3, "seed": 31},
        "h1": {"model": "sym_spiked", "n": n, "k": 3, "strength": strength, "seed": 32},
        "test": {"statistic": "opnorm", "threshold": 2.5, **({"params": params} if params else {})},
        "trials": trials,
        "seed": 5,
    }
    return ExperimentSpec.from_json_dict(data)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "entries,spec",
    [
        (36 * 8 * 3, _opnorm_experiment()),  # blocks of at most 3 trials, cut by the ranges
        (36 * 3, _opnorm_experiment()),  # one trial a block, its 8 restarts in blocks of 3
        (1 << 16, _opnorm_experiment(restarts=300, iters=20)),  # restarts over the 227-row block
        (1 << 16, _opnorm_experiment(n=30, trials=10, strength=2.0)),  # the 9-trial blocks at n = 30
    ],
    ids=["3-trials", "3-restarts", "300-restarts", "n30"],
)
def test_opnorm_experiment_values_are_each_trials_own_loop(monkeypatch, workers, entries, spec):
    """Trials that run every step (H0) share blocks with trials that stop after
    a few (H1 at strength 20); each value has the bits of its trial alone."""
    monkeypatch.setattr("spiked_lab.tensors._BLOCK_ENTRIES", entries)
    result = run_experiment(spec, workers=workers)
    params = spec.params or {}
    for hyp, (ens, values) in enumerate(zip((spec.h0, spec.h1), (result.stats0, result.stats1))):
        context = spec.seed * 2 + hyp
        for t, value in enumerate(values.tolist()):
            rng = trial_rng(ens.seed, t, STREAM_TEST, context)
            want = _oracles.operator_norm_lb_sequential(sample_trial(ens, t, context), rng=rng, **params)
            assert value == want.value, (hyp, t)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflow_inside_an_opnorm_block_names_its_trial(monkeypatch, workers):
    """Trials 2 and 3 of H1 overflow in a block of four: the first is named, and no warning escapes."""
    def sample(spec, trial, context=0):
        x = sample_trial(spec, trial, context)
        return SymmetricTensor(1e200 * x.array) if spec.seed == 32 and trial >= 2 else x

    monkeypatch.setattr("spiked_lab.ensembles.sample_trial", sample)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            run_experiment(_opnorm_experiment(trials=4), workers=workers)
    assert str(info.value).startswith("statistic 'opnorm' failed at hypothesis H1, trial 2: overflow encountered in ")
    assert np.geterr() == before


@pytest.mark.parametrize("bad", [0, -3, 2.7, "2", True])
def test_run_experiment_refuses_a_worker_count_that_is_not_a_positive_integer(bad):
    """Not silently one worker, and not coerced: the count is an integer >= 1."""
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=2))
    with pytest.raises(ContractError, match="workers"):
        run_experiment(spec, workers=bad)


def test_run_experiment_refuses_more_workers_than_the_ceiling(no_pool):
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=2))
    with pytest.raises(ContractError, match=r"workers must be in \[1, 1024\], got 1025"):
        run_experiment(spec, workers=1025)


@pytest.mark.parametrize("trials", [10**8 + 1, 3 * 10**14, 10**20])
def test_experiment_spec_refuses_trials_over_the_entry_budget(trials):
    with pytest.raises(ConfigError) as info:
        ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=trials))
    assert info.value.field == "trials"


def test_run_experiment_default_workers_follow_the_environment(monkeypatch):
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=3))
    monkeypatch.setenv("SPIKED_LAB_THREADS", "0")
    with pytest.raises(ConfigError, match="SPIKED_LAB_THREADS"):
        run_experiment(spec)
    monkeypatch.setenv("SPIKED_LAB_THREADS", "2")
    assert np.array_equal(run_experiment(spec).stats1, run_experiment(spec, workers=1).stats1)


def test_run_experiment_seed_moves_streams():
    base = run_experiment(ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=8)))
    moved = run_experiment(
        ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=8, seed=4))
    )
    assert not np.array_equal(base.stats0, moved.stats0)


def test_experiment_result_serialization():
    spec = ExperimentSpec.from_json_dict(_eig_experiment_dict(trials=6))
    result = run_experiment(spec)
    d = result.to_json_dict()
    assert set(d) == {
        "experiment",
        "threshold",
        "trials",
        "seed",
        "fpr",
        "power",
        "ks_distance",
        "roc",
    }
    assert d["experiment"]["test"]["threshold"] == pytest.approx(2.15)
    csv = result.rows_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "hypothesis,trial,statistic,decision,sub_seed"
    assert len(lines) == 1 + 2 * spec.trials
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == result.rows[0]["statistic"]
