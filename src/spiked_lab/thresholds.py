"""Variational functions and critical signal strengths for spiked models.

The symmetric threshold for order k is

    beta_k = inf_{q in (0,1)} sqrt( -log(1 - q^2) / q^k ),

computed by a coarse grid scan (which also checks unimodality) followed by
golden-section refinement, for k up to 10^5: past that the minimizing q nears
1 faster than the golden section can resolve it, and beta_k drifts outside
its reported tolerance. The asymmetric threshold is lambda_k =
sqrt(k/2) * beta_k. Internally the objective is minimized in log form,
log(-log1p(-q^2)) - k log q, which is stable over the whole open interval
(no underflow of q^k for large k, no cancellation near q = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, NumericalFailure, _check_order, _check_real, _check_strength

_Q_LO = 1e-10
_Q_HI = 1.0 - 1e-12
_GRID_POINTS = 10**4
_BRACKET_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_THRESHOLD_ORDER = 10**5


def _brent_root(
    f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * math.ulp(1.0), iters: int = 100
) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A step-for-step port of scipy.optimize.brentq (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), so it returns the same
    float after the same evaluations: ``xcur`` is the best estimate, ``xblk``
    the other end of the bracket and ``xpre`` the previous estimate; each
    step interpolates (secant, or inverse quadratic through all three) when
    that shrinks the bracket fast enough, and bisects otherwise. It stops
    when the bracket is below xtol + rtol |x| and raises NumericalFailure
    after ``iters`` steps.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalFailure(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(iters):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is tried and accepted
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # the C loop gets an infinite or NaN step here and bisects
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = float(f(xcur))
    raise NumericalFailure(f"Brent's method did not converge in {iters} steps")


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


def f_beta(q, beta: float, k: int):
    """Symmetric variational function beta^2 q^k / 2 + log(1 - q^2) / 2, for |q| < 1."""
    k = _check_order(k)
    beta = _check_strength(beta, "beta")
    arr = np.asarray(q, dtype=np.float64)
    if not np.all(np.abs(arr) < 1.0):  # a NaN overlap fails too
        raise ContractError("q must satisfy |q| < 1")
    out = 0.5 * beta**2 * arr**k + 0.5 * np.log1p(-(arr**2))
    return float(out) if np.isscalar(q) or arr.ndim == 0 else out


def g_lambda(qs, lam: float) -> float:
    """Asymmetric variational function lambda^2 prod(q_i) + sum log(1 - q_i^2)/2, for |q_i| < 1."""
    lam = _check_strength(lam, "lambda")
    arr = np.asarray(qs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ContractError("g_lambda expects a vector of k >= 2 overlaps")
    if not np.all(np.abs(arr) < 1.0):  # a NaN overlap fails too
        raise ContractError("overlaps must satisfy |q_i| < 1")
    return float(lam**2 * np.prod(arr) + 0.5 * np.sum(np.log1p(-(arr**2))))


def _log_objective(q: np.ndarray | float, k: int):
    """log of -log(1 - q^2) / q^k, elementwise; stable on (0, 1)."""
    arr = np.asarray(q, dtype=np.float64)
    return np.log(-np.log1p(-(arr**2))) - k * np.log(arr)


def _scan_unimodal(values: np.ndarray) -> bool:
    """True when no fall follows the first rise: the sequence descends then ascends, up to flat noise."""
    diffs = np.diff(values)
    tol = 1e-12 * (1.0 + np.abs(values[:-1]) + np.abs(values[1:]))
    return not np.any((diffs < -tol) & np.logical_or.accumulate(diffs > tol))


def beta_star(k: int) -> ThresholdResult:
    """Critical beta for the symmetric order-k model (equals 1 at k=2), for k <= 10^5."""
    k = _check_order(k, _MAX_THRESHOLD_ORDER)
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
    """Critical lambda for the asymmetric order-k model: sqrt(k/2) * beta_k, for k <= 10^5."""
    return _lambda_from_beta(beta_star(k))


def _lambda_from_beta(base: ThresholdResult) -> ThresholdResult:
    """lambda_k = sqrt(k/2) * beta_k from an already computed ``beta_star(k)``."""
    half_k = base.k / 2.0
    return replace(
        base, kind="lambda", value=math.sqrt(half_k) * base.value, objective_at_min=half_k * base.objective_at_min
    )


def beta_star_asymptotic(k: int) -> float:
    """Large-k approximation sqrt(log(k/2)); defined for every integer k > 2."""
    k = _check_order(k)
    if k <= 2:
        raise ContractError(f"asymptotic threshold needs k > 2, got {k}")
    # log(k / 2) rounds once, but k / 2 overflows past the float range, where math.log takes the int
    return math.sqrt(math.log(k / 2) if k < 2**1023 else math.log(k) - math.log(2))


def g_lambda_critical(lam: float, k: int) -> list[CriticalPoint]:
    """Nonzero stationary overlaps of the equal-coordinate profile.

    Solves phi(q) = lambda^2 q^(k-2) (1 - q^2) - 1 = 0 for q in (0, 1) and
    reports G at (q, ..., q) for each root. phi peaks at q_m^2 = (k - 2)/k,
    so below the fold strength there is no root, at it (within rounding)
    the tangency root q_m, above it one Brent root on each side of q_m.
    Below lambda_k every returned value is negative.
    """
    k = _check_order(k)
    lam = _check_strength(lam, "lambda")

    def phi(q):
        return lam**2 * q ** (k - 2) * (1.0 - q * q) - 1.0

    q_m = math.sqrt((k - 2) / k)
    peak = phi(q_m)
    if k > 2 and abs(peak) <= 8 * math.ulp(1.0):  # phi's terms are about 1: tangent within rounding
        roots = [q_m]
    elif peak <= 0.0:
        roots = []
    else:  # at k = 2 the lower side (0, q_m) is empty
        roots = [_brent_root(phi, a, b, xtol=1e-14) for a, b in ((0.0, q_m), (q_m, 1.0)) if a < b]
    return [CriticalPoint(q=q, value=g_lambda([q] * k, lam)) for q in roots]


def sphere_rate(a: float) -> RateFunctionPoint:
    """Large-deviation rate log(1 - a^2) / 2 for a first coordinate >= a.

    Returns -inf at |a| = 1; |a| > 1 is a domain error.
    """
    a = _check_real(a, "a")
    if abs(a) > 1.0:
        raise ContractError(f"a must lie in [-1, 1], got {a!r}")
    if abs(a) == 1.0:
        return RateFunctionPoint(a=a, value=float("-inf"))
    return RateFunctionPoint(a=a, value=0.5 * math.log1p(-(a * a)))
