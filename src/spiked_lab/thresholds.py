"""Variational functions and critical signal strengths for spiked models.

The symmetric threshold for order k is

    beta_k = inf_{q in (0,1)} sqrt( -log(1 - q^2) / q^k ),

computed by a coarse grid scan (which also checks unimodality) followed by
golden-section refinement. The asymmetric threshold is lambda_k =
sqrt(k/2) * beta_k. Internally the objective is minimized in log form,
log(-log1p(-q^2)) - k log q, which is stable over the whole open interval
(no underflow of q^k for large k, no cancellation near q = 0).

scipy is imported inside the functions that call it, so importing this
module (and the CLI) loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, _check_count, _check_order, _check_strength

_Q_LO = 1e-10
_Q_HI = 1.0 - 1e-12
_GRID_POINTS = 10**4
_BRACKET_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThresholdResult:
    """A computed critical strength.

    ``value`` is the threshold, ``q_star`` the minimizing overlap,
    ``objective_at_min`` the pre-square-root objective -log(1-q*^2)/q*^k
    (scaled by k/2 for the asymmetric case), ``tolerance`` the final
    golden-section bracket width, and ``unimodal`` whether the grid scan
    confirmed a single descent/ascent pattern.
    """

    kind: str
    k: int
    value: float
    q_star: float
    objective_at_min: float
    tolerance: float
    unimodal: bool


@dataclass(frozen=True)
class CriticalPoint:
    q: float
    value: float


@dataclass(frozen=True)
class RateFunctionPoint:
    a: float
    value: float


def f_beta(q, beta: float, k: int, boundary: str = "raise"):
    """Symmetric variational function beta^2 q^k / 2 + log(1 - q^2) / 2.

    ``boundary`` controls |q| = 1: "raise" treats it as a domain error,
    "neginf" returns -inf there. |q| > 1 always raises.
    """
    k = _check_order(k)
    _check_strength(beta, "beta")
    if boundary not in ("raise", "neginf"):
        raise ContractError(f"boundary must be 'raise' or 'neginf', got {boundary!r}")
    arr = np.asarray(q, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0):
        raise ContractError("q must satisfy |q| <= 1")
    if boundary == "raise" and np.any(np.abs(arr) == 1.0):
        raise ContractError("|q| = 1 is outside the domain (pass boundary='neginf' to map it to -inf)")
    with np.errstate(divide="ignore"):
        out = 0.5 * beta**2 * arr**k + 0.5 * np.log1p(-(arr**2))
    return float(out) if np.isscalar(q) or arr.ndim == 0 else out


def g_lambda(qs, lam: float, boundary: str = "raise") -> float:
    """Asymmetric variational function lambda^2 prod(q_i) + sum log(1 - q_i^2)/2."""
    _check_strength(lam, "lambda")
    arr = np.asarray(qs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ContractError("g_lambda expects a vector of k >= 2 overlaps")
    if np.any(np.abs(arr) > 1.0):
        raise ContractError("overlaps must satisfy |q_i| <= 1")
    if np.any(np.abs(arr) == 1.0):
        if boundary == "raise":
            raise ContractError("|q_i| = 1 is outside the domain (pass boundary='neginf')")
        return float("-inf")
    return float(lam**2 * np.prod(arr) + 0.5 * np.sum(np.log1p(-(arr**2))))


def _log_objective(q: np.ndarray | float, k: int):
    """log of -log(1 - q^2) / q^k, elementwise; stable on (0, 1)."""
    arr = np.asarray(q, dtype=np.float64)
    return np.log(-np.log1p(-(arr**2))) - k * np.log(arr)


def _scan_unimodal(values: np.ndarray) -> bool:
    """True when the sequence descends then ascends, up to flat noise."""
    diffs = np.diff(values)
    tol = 1e-12 * (1.0 + np.abs(values[:-1]) + np.abs(values[1:]))
    rising = diffs > tol
    falling = diffs < -tol
    seen_rise = False
    for r, f in zip(rising, falling):
        if r:
            seen_rise = True
        elif f and seen_rise:
            return False
    return True


def beta_star(k: int) -> ThresholdResult:
    """Critical beta for the symmetric order-k model (equals 1 at k=2)."""
    k = _check_order(k)
    qs = np.linspace(_Q_LO, _Q_HI, _GRID_POINTS)
    vals = _log_objective(qs, k)
    unimodal = _scan_unimodal(vals)
    i = int(np.argmin(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, qs.size - 1)]
    # Golden-section on the log objective down to the bracket tolerance.
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = float(_log_objective(c, k))
    fd = float(_log_objective(d, k))
    while hi - lo > _BRACKET_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = float(_log_objective(c, k))
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = float(_log_objective(d, k))
    q_star = 0.5 * (lo + hi)
    log_h = float(_log_objective(q_star, k))
    return ThresholdResult(
        kind="beta",
        k=k,
        value=math.exp(0.5 * log_h),
        q_star=float(q_star),
        objective_at_min=math.exp(log_h),
        tolerance=float(hi - lo),
        unimodal=unimodal,
    )


def lambda_star(k: int) -> ThresholdResult:
    """Critical lambda for the asymmetric order-k model: sqrt(k/2) * beta_k."""
    return _lambda_from_beta(beta_star(k))


def _lambda_from_beta(base: ThresholdResult) -> ThresholdResult:
    """lambda_k = sqrt(k/2) * beta_k from an already computed ``beta_star(k)``."""
    half_k = base.k / 2.0
    return replace(
        base, kind="lambda", value=math.sqrt(half_k) * base.value, objective_at_min=half_k * base.objective_at_min
    )


def beta_star_asymptotic(k: int) -> float:
    """Large-k approximation sqrt(log(k/2)); defined for k > 2."""
    k = _check_order(k)
    if k <= 2:
        raise ContractError(f"asymptotic threshold needs k > 2, got {k}")
    return math.sqrt(math.log(k / 2.0))


def g_lambda_critical(lam: float, k: int) -> list[CriticalPoint]:
    """Nonzero stationary overlaps of the equal-coordinate profile.

    Solves phi(q) = lambda^2 q^(k-2) (1 - q^2) - 1 = 0 for q in (0, 1) and
    reports G at (q, ..., q) for each root. phi peaks at q_m^2 = (k - 2)/k,
    so below the fold strength there is no root, at it (within rounding)
    the tangency root q_m, above it one Brent root on each side of q_m.
    Below lambda_k every returned value is negative.
    """
    k = _check_order(k)
    _check_strength(lam, "lambda")

    def phi(q):
        return lam**2 * q ** (k - 2) * (1.0 - q * q) - 1.0

    q_m = math.sqrt((k - 2) / k)
    peak = phi(q_m)
    if k > 2 and abs(peak) <= 8 * math.ulp(1.0):  # phi's terms are about 1: tangent within rounding
        roots = [q_m]
    elif peak <= 0.0:
        roots = []
    else:  # at k = 2 the lower side (0, q_m) is empty
        from scipy.optimize import brentq

        roots = [float(brentq(phi, a, b, xtol=1e-14)) for a, b in ((0.0, q_m), (q_m, 1.0)) if a < b]
    return [CriticalPoint(q=q, value=g_lambda([q] * k, lam)) for q in roots]


@dataclass(frozen=True)
class AscentSummary:
    """Outcome of multistart maximization of the asymmetric objective.

    ``argmax_abs`` holds |q_i| of the best run (the objective is invariant
    under sign flips that preserve the product, so runs are compared after
    taking absolute values). ``coordinate_spread`` is the largest range of
    any |q_i| across all runs: near zero it certifies that every start
    found the same maximizer.
    """

    value: float
    argmax_abs: tuple[float, ...]
    coordinate_spread: float
    n_starts: int
    converged: int


def g_lambda_max(lam: float, k: int, n_starts: int = 100, seed: int = 0) -> AscentSummary:
    """Maximize the asymmetric variational function from random starts.

    Runs L-BFGS-B with the analytic gradient from ``n_starts`` uniform
    points in (-0.99, 0.99)^k. Below the fold strength the only stationary
    point is the origin and every run collapses onto it.
    """
    from scipy.optimize import minimize

    k = _check_order(k)
    _check_strength(lam, "lambda")
    n_starts = _check_count(n_starts, "n_starts", 1)
    lam2 = lam * lam

    def neg_value(q):
        return -(lam2 * np.prod(q) + 0.5 * np.sum(np.log1p(-(q**2))))

    def neg_grad(q):
        others = np.array([np.prod(np.delete(q, i)) for i in range(k)])
        return -(lam2 * others - q / (1.0 - q**2))

    rng = np.random.default_rng(seed)
    bounds = [(-1.0 + 1e-9, 1.0 - 1e-9)] * k
    endpoints = np.empty((n_starts, k))
    values = np.empty(n_starts)
    converged = 0
    for i in range(n_starts):
        x0 = rng.uniform(-0.99, 0.99, size=k)
        res = minimize(
            neg_value,
            x0,
            jac=neg_grad,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-18, "gtol": 1e-12, "maxiter": 1000},
        )
        endpoints[i] = np.abs(res.x)
        values[i] = -res.fun
        converged += bool(res.success)
    best = int(np.argmax(values))
    spread = float(np.max(endpoints.max(axis=0) - endpoints.min(axis=0)))
    return AscentSummary(
        value=float(values[best]),
        argmax_abs=tuple(float(v) for v in endpoints[best]),
        coordinate_spread=spread,
        n_starts=n_starts,
        converged=converged,
    )


def sphere_rate(a: float) -> RateFunctionPoint:
    """Large-deviation rate log(1 - a^2) / 2 for a first coordinate >= a.

    Returns -inf at |a| = 1; |a| > 1 is a domain error.
    """
    if not math.isfinite(a) or abs(a) > 1.0:
        raise ContractError(f"a must lie in [-1, 1], got {a!r}")
    if abs(a) == 1.0:
        return RateFunctionPoint(a=a, value=float("-inf"))
    return RateFunctionPoint(a=a, value=0.5 * math.log1p(-(a * a)))
