import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiked_lab.errors import ContractError
from spiked_lab.thresholds import (
    beta_star,
    beta_star_asymptotic,
    f_beta,
    g_lambda,
    g_lambda_critical,
    g_lambda_max,
    lambda_star,
    sphere_rate,
)

# 17-digit reference values from a 40-digit golden-section run on the exact
# log objective, independent of the implementation under test.
REFERENCE = {
    3: ("1.3988409020527749", "0.73047192548378945"),
    4: ("1.5669739890260234", "0.84577293818090535"),
    5: ("1.6767600553052016", "0.89546709995570618"),
    6: ("1.7575890757540665", "0.92249699375525957"),
    10: ("1.9551180945520714", "0.964406390541066"),
    100: ("2.5958663083301576", "0.99823371813020638"),
}


def test_beta_star_k2_is_exactly_one():
    r = beta_star(2)
    assert r.value == 1.0
    assert r.unimodal


@pytest.mark.parametrize("k", sorted(REFERENCE))
def test_beta_star_matches_high_precision_reference(k):
    want_value, want_q = (float(s) for s in REFERENCE[k])
    r = beta_star(k)
    assert r.value == pytest.approx(want_value, abs=5e-13)
    assert r.q_star == pytest.approx(want_q, abs=1e-7)
    assert r.unimodal
    assert r.tolerance <= 1e-9


def test_beta_star_result_consistency():
    r = beta_star(5)
    assert r.kind == "beta" and r.k == 5
    assert r.objective_at_min == pytest.approx(r.value**2, rel=1e-12)
    # the minimized objective really is the function at q_star
    direct = -math.log1p(-r.q_star**2) / r.q_star**5
    assert r.objective_at_min == pytest.approx(direct, rel=1e-10)


def test_beta_star_rejects_bad_order():
    for bad in (1, 0, -3, 2.5, "2"):
        with pytest.raises(ContractError):
            beta_star(bad)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 10, 100])
def test_lambda_star_is_sqrt_k_over_2_times_beta_star(k):
    lam = lambda_star(k)
    beta = beta_star(k)
    assert lam.value == math.sqrt(k / 2.0) * beta.value  # exact by construction
    assert lam.kind == "lambda"
    assert lam.q_star == beta.q_star


def test_lambda_star_k2_is_one():
    assert lambda_star(2).value == 1.0


def test_beta_star_asymptotic():
    assert beta_star_asymptotic(100) == pytest.approx(math.sqrt(math.log(50.0)), rel=1e-15)
    for bad in (2, 1):
        with pytest.raises(ContractError):
            beta_star_asymptotic(bad)


# --- variational functions ---------------------------------------------------


def test_f_beta_known_value():
    assert f_beta(0.5, 1.0, 2) == pytest.approx(-0.018841036225890, abs=1e-14)


def test_f_beta_equals_sphere_rate_at_zero_strength():
    for q in (0.1, 0.5, 0.9):
        assert f_beta(q, 0.0, 3) == pytest.approx(sphere_rate(q).value, rel=1e-14)


def test_f_beta_boundary_modes():
    with pytest.raises(ContractError):
        f_beta(1.0, 1.0, 2)
    assert f_beta(1.0, 1.0, 2, boundary="neginf") == -math.inf
    with pytest.raises(ContractError):
        f_beta(1.5, 1.0, 2, boundary="neginf")  # |q| > 1 always raises
    with pytest.raises(ContractError):
        f_beta(0.5, -1.0, 2)
    with pytest.raises(ContractError):
        f_beta(0.5, 1.0, 2, boundary="clip")


def test_f_beta_vectorized():
    qs = np.array([0.1, 0.2, 0.3])
    vals = f_beta(qs, 1.2, 3)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(f_beta(0.2, 1.2, 3), rel=1e-15)


def test_f_beta_nonpositive_at_threshold():
    """At the critical strength the variational function never goes positive,
    and its maximum over the overlap grid sits at zero height."""
    for k in (3, 4, 6):
        bk = beta_star(k).value
        qs = np.linspace(1e-3, 1.0 - 1e-6, 20001)
        vals = f_beta(qs, bk, k)
        assert np.max(vals) <= 1e-12


def test_f_beta_sign_splits_around_threshold():
    for k in (3, 5):
        bk = beta_star(k).value
        qs = np.linspace(1e-3, 1.0 - 1e-6, 20001)
        assert np.max(f_beta(qs, 0.98 * bk, k)) < 0.0
        assert np.max(f_beta(qs, 1.02 * bk, k)) > 0.0


@settings(max_examples=30)
@given(st.integers(2, 8), st.floats(0.0, 3.0), st.floats(-0.999, 0.999))
def test_f_beta_finite_inside_domain(k, beta, q):
    assert math.isfinite(f_beta(q, beta, k))


def test_g_lambda_known_value_and_symmetry():
    assert g_lambda((0.5, 0.5), 1.0) == pytest.approx(-0.037682072451780, abs=1e-13)
    assert g_lambda((0.2, -0.7, 0.4), 1.3) == g_lambda((-0.7, 0.4, 0.2), 1.3)


def test_g_lambda_diagonal_reduces_to_f_beta():
    """On the diagonal with lam = sqrt(k/2) * beta the asymmetric function is
    k/2 times the symmetric one... checked numerically."""
    k, beta, q = 3, 1.1, 0.6
    lam = math.sqrt(k / 2.0) * beta
    lhs = g_lambda((q,) * k, lam)
    # lam^2 q^k + k/2 log(1-q^2) = (k/2)(beta^2 q^k + log(1-q^2)) = k f_beta
    assert lhs == pytest.approx(k * f_beta(q, beta, k), rel=1e-12)


def test_g_lambda_validation():
    with pytest.raises(ContractError):
        g_lambda((0.5,), 1.0)  # needs k >= 2
    with pytest.raises(ContractError):
        g_lambda((0.5, 1.2), 1.0)
    with pytest.raises(ContractError):
        g_lambda((0.5, 1.0), 1.0)
    assert g_lambda((0.5, 1.0), 1.0, boundary="neginf") == -math.inf


def test_g_lambda_critical_k2_closed_form():
    lam = 1.5
    roots = g_lambda_critical(lam, 2)
    assert len(roots) == 1
    assert roots[0].q == pytest.approx(math.sqrt(1.0 - 1.0 / lam**2), rel=1e-12)
    assert roots[0].value > 0.0  # above the k=2 threshold


def test_g_lambda_critical_below_fold_is_empty():
    assert g_lambda_critical(1.60, 3) == []
    assert g_lambda_critical(0.0, 3) == []


def test_g_lambda_critical_above_fold_has_two_roots():
    roots = g_lambda_critical(1.65, 3)
    assert len(roots) == 2
    assert roots[0].q < roots[1].q
    assert all(r.value < 0 for r in roots)  # still below lambda_3


def test_g_lambda_critical_value_zero_at_threshold():
    lam3 = lambda_star(3).value
    roots = g_lambda_critical(lam3, 3)
    assert len(roots) == 2
    assert abs(roots[1].value) <= 1e-9


@settings(max_examples=30)
@given(st.integers(2, 6), st.floats(0.1, 3.0))
def test_g_lambda_critical_roots_are_stationary(k, lam):
    for root in g_lambda_critical(lam, k):
        q = root.q
        lhs = lam * lam * q ** (k - 1)
        rhs = q / (1.0 - q * q)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
        assert root.value == pytest.approx(g_lambda((q,) * k, lam), rel=1e-12)


# --- multistart ascent -------------------------------------------------------


def test_g_lambda_max_collapses_below_fold():
    summary = g_lambda_max(1.6, 3, n_starts=40, seed=0)
    assert summary.coordinate_spread <= 1e-6
    assert abs(summary.value) <= 1e-12
    assert summary.converged == 40


def test_g_lambda_max_finds_stationary_value_above_fold():
    summary = g_lambda_max(1.8, 3, n_starts=60, seed=1)
    roots = g_lambda_critical(1.8, 3)
    assert summary.value == pytest.approx(roots[-1].value, abs=1e-9)
    q = roots[-1].q
    assert all(abs(c - q) <= 1e-6 for c in summary.argmax_abs)


def test_g_lambda_max_validation():
    with pytest.raises(ContractError):
        g_lambda_max(-1.0, 3)
    for bad in (0, 2.5, True):
        with pytest.raises(ContractError):
            g_lambda_max(1.0, 3, n_starts=bad)


# --- rate function -----------------------------------------------------------


def test_sphere_rate_values_and_edges():
    assert sphere_rate(0.3).value == pytest.approx(-0.047155339735620, abs=1e-14)
    assert sphere_rate(0.0).value == 0.0
    assert sphere_rate(1.0).value == -math.inf
    assert sphere_rate(-1.0).value == -math.inf
    with pytest.raises(ContractError):
        sphere_rate(1.0001)
    with pytest.raises(ContractError):
        sphere_rate(math.nan)


@given(st.floats(-0.9999, 0.9999))
def test_sphere_rate_even_and_nonpositive(a):
    p = sphere_rate(a)
    assert p.value <= 0.0
    assert p.value == sphere_rate(-a).value
    assert p.a == a
