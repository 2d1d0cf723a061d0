"""Detection machinery: exact marginals, second moments, tests, experiments.

The overlap of a uniform unit vector with any fixed direction has density
proportional to (1 - t^2)^((n-3)/2) on [-1, 1]. Everything here that
integrates against that density substitutes t = sin(theta) first: the
integrand becomes cos(theta)^(n-2) times a smooth factor on
[-pi/2, pi/2], which kills the n = 2 endpoint singularity. Every theta
integral then goes through one composite Gauss-Legendre rule, which
converges fast for every n, odd or even.

Second moments of the likelihood ratio are computed self-normalized: the
numerator and the density normalization use the same nodes and weights, so
shared quadrature error cancels and zero signal strength returns exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ive, logsumexp, roots_legendre

from .ensembles import (
    STREAM_TEST,
    EnsembleSpec,
    SampleBatch,
    batch_statistics,
    sample_sphere,
    trial_rng,
)
from .errors import (
    ConfigError,
    ContractError,
    NumericalFailure,
    _check_order,
    _check_strength,
    _finite_number,
)
from .spectra import eigvals_sym, ks_distance
from .tensors import _as_array, frobenius, operator_norm_lb

_LOG_TOL_1D = 1e-10
_GL16_X, _GL16_W = roots_legendre(16)
_MC_STREAM = 5
_TV_VACUOUS = "vacuous"


def _check_dim(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ContractError(f"dimension n must be an integer >= 2, got {n!r}")
    return int(n)


def log_cn(n: int) -> float:
    """Log normalizer of the first-coordinate density on the unit sphere."""
    n = _check_dim(n)
    return math.lgamma(n / 2.0) - 0.5 * math.log(math.pi) - math.lgamma((n - 1) / 2.0)


def first_coord_log_density(t: float, n: int) -> float:
    """Log density of one coordinate of a uniform point on the sphere in R^n.

    At |t| = 1 the value is -inf for n > 3, the constant log(1/2) for n = 3,
    and +inf for n = 2 (integrable endpoint blowup).
    """
    n = _check_dim(n)
    if not math.isfinite(t) or abs(t) > 1.0:
        raise ContractError(f"t must lie in [-1, 1], got {t!r}")
    if abs(t) == 1.0:
        if n == 2:
            return float("inf")
        if n == 3:
            return log_cn(3)
        return float("-inf")
    return log_cn(n) + 0.5 * (n - 3) * math.log1p(-(t * t))


def _log_cos(theta):
    # log1p keeps log cos accurate near theta = 0, where the factor n - 2 magnifies its error
    return 0.5 * np.log1p(-np.sin(theta) ** 2)


def _refine_theta(log_integral, lo, hi, sizes, relative):
    """Composite Gauss-Legendre in theta on [lo, hi], node counts from ``sizes``.

    A count m splits the interval into m/16 equal panels with the 16-point
    rule on each, so a rule costs O(m). ``log_integral(theta, log_w)`` gets
    the nodes and the log weights of the composite rule mapped to [-1, 1]
    (they sum to 2). Stops once two values differ by at most 1e-10, times
    max(1, |value|) if ``relative``. Returns value, increment and nodes.
    """
    half = 0.5 * (hi - lo)
    prev = None
    for m in sizes:
        panels = m // 16
        x = ((2.0 * np.arange(panels) + 1.0)[:, None] + _GL16_X).ravel() / panels - 1.0
        cur = log_integral(0.5 * (hi + lo) + half * x, np.tile(np.log(_GL16_W / panels), panels))
        if prev is not None:
            err = abs(cur - prev)
            if err <= _LOG_TOL_1D * (max(1.0, abs(cur)) if relative else 1.0):
                return cur, err, m
        prev = cur
    raise NumericalFailure(
        "Gauss-Legendre quadrature did not stabilize",
        partial={"log_value": prev, "quadrature_error": err},
    )


def first_coord_tail_logprob(a: float, n: int) -> float:
    """log P(first coordinate >= a), by log-space composite Gauss-Legendre in theta.

    The integrand cos(theta)^(n-2) decays geometrically away from its
    maximum, so the interval is first cut where the log integrand has
    fallen by 140 (a relative exp(-140) truncation), then node counts are
    doubled from 128 to 4096 until the log value moves by less than 1e-10.
    For a >= 0 the value is capped at the exact bound log(1/2) and negative
    a goes through the complement, which keeps the result monotone in a.
    """
    n = _check_dim(n)
    if not math.isfinite(a) or abs(a) > 1.0:
        raise ContractError(f"a must lie in [-1, 1], got {a!r}")
    if a == 1.0:
        return float("-inf")
    if a == -1.0:
        return 0.0
    if a < 0.0:
        return math.log1p(-math.exp(first_coord_tail_logprob(-a, n)))
    lo, hi = math.asin(a), math.pi / 2.0
    if n > 3:
        hi = min(hi, math.acos(math.cos(lo) * math.exp(-140.0 / (n - 2))))
    lc, log_half = log_cn(n), math.log(0.5 * (hi - lo))

    def log_tail(theta, log_w):
        return float(logsumexp(lc + (n - 2) * _log_cos(theta) + log_w)) + log_half

    log_p = _refine_theta(log_tail, lo, hi, (128, 256, 512, 1024, 2048, 4096), False)[0]
    return min(log_p, -math.log(2.0))


@dataclass(frozen=True)
class SecondMomentResult:
    """Log second moment of a likelihood ratio plus its error diagnostics.

    ``implied_tv_upper`` is sqrt(exp(L) - 1)/2 when that is an informative
    bound and the string "vacuous" when it reaches 1 or overflows.
    ``quadrature_error`` is the last node-doubling increment for quadrature
    and the relative standard error for the Monte Carlo path.
    """

    model: str
    k: int
    n: int
    strength: float
    log_second_moment: float
    quadrature_error: float
    implied_tv_upper: float | str
    method: str
    nodes: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _implied_tv(log_sm: float):
    if log_sm > 700.0:
        return _TV_VACUOUS
    excess = math.expm1(log_sm)
    if excess <= 0.0:
        # Monte Carlo estimates may sit a hair below a unit second moment
        return 0.0
    bound = 0.5 * math.sqrt(excess)
    return bound if bound < 1.0 else _TV_VACUOUS


def _clamp_log_moment(log_sm: float, context: str) -> float:
    # The second moment is >= 1 for every model here (Jensen against a
    # centered overlap), so a tiny negative value is quadrature noise.
    if log_sm >= 0.0:
        return log_sm
    if log_sm >= -1e-9:
        return 0.0
    raise NumericalFailure(
        f"{context} produced log second moment {log_sm}, below the noise floor",
        partial={"log_second_moment": log_sm},
    )


def second_moment_sym(beta: float, n: int, k: int) -> SecondMomentResult:
    """Second moment of the symmetric-model likelihood ratio under noise.

    Computes E exp(n beta^2 T^k / 2) with T the overlap of two independent
    uniform directions, by self-normalized composite Gauss-Legendre in
    theta with 16 up to 2^21 nodes on [-theta_max, theta_max], beyond which
    the integrand is below exp(-140) of its value at theta = 0.
    """
    n = _check_dim(n)
    k = _check_order(k, 10)
    beta = _check_strength(beta, "beta")
    if beta == 0.0:
        return SecondMomentResult("sym", k, n, 0.0, 0.0, 0.0, 0.0, "quadrature", 0)
    half_nb2 = 0.5 * n * beta * beta

    def log_ratio(theta, log_w):
        dens = (n - 2) * _log_cos(theta) + log_w
        return float(logsumexp(dens + half_nb2 * np.sin(theta) ** k) - logsumexp(dens))

    # exact bound for theta >= 0; for odd k, sin(theta)^k < 0 below 0
    cut, sizes = _theta_cut(n, half_nb2, 0.5 * k), tuple(2**p for p in range(4, 22))
    cur, err, nodes = _refine_theta(log_ratio, -cut, cut, sizes, True)
    log_sm = _clamp_log_moment(cur, "symmetric quadrature")
    return SecondMomentResult(
        "sym", k, n, beta, log_sm, err, _implied_tv(log_sm), "quadrature", nodes
    )


# Debye's u_k(p) = p^k P_k(p^2), k = 1..4 (DLMF 10.41.10), P_k highest power first
_DEBYE = (
    (-5 / 24, 1 / 8),
    (385 / 1152, -77 / 192, 9 / 128),
    (-85085 / 82944, 17017 / 9216, -4563 / 5120, 75 / 1024),
    (37182145 / 7962624, -7436429 / 663552, 144001 / 16384, -96833 / 40960, 3675 / 32768),
)


def _log_mgf(s, n: int) -> np.ndarray:
    """log E exp(sT) = log 0F1(; n/2; s^2/4), T one coordinate of the sphere.

    Even in s, exactly 0 at s = 0. Sums 20 power-series terms while
    s^2/4 <= n/2 (term ratios stay below 1/(j + 1)); beyond that it is
    log(Gamma(nu + 1) (2/s)^nu I_nu(s)), nu = n/2 - 1, by Debye's uniform
    expansion (DLMF 10.41.3) for nu >= 100 and by ive, which cannot
    underflow there, for smaller nu.
    """
    s = np.abs(np.asarray(s, dtype=np.float64))
    b, nu = 0.5 * n, 0.5 * n - 1.0
    small = s * s <= 2.0 * n
    x = 0.25 * s[small] ** 2
    acc = np.zeros_like(x)
    for j in range(20, 0, -1):
        acc = x / ((b + j - 1) * j) * (1.0 + acc)
    out = np.empty_like(s)
    out[small] = np.log1p(acc)
    s = s[~small]
    if nu < 100.0:
        out[~small] = math.lgamma(b) + nu * np.log(2.0 / s) + np.log(ive(nu, s)) + s
        return out
    z2 = (s / nu) ** 2
    p = 1.0 / np.sqrt(1.0 + z2)
    w = z2 * p / (1.0 + p)  # sqrt(1 + z^2) - 1
    series = 1.0 + sum((p / nu) ** k * np.polyval(c, p * p) for k, c in enumerate(_DEBYE, 1))
    # Stirling: log Gamma(nu + 1) - nu log(nu) + nu - log(2 pi nu) / 2
    stirling = 1.0 / (12.0 * nu) - 1.0 / (360.0 * nu**3) + 1.0 / (1260.0 * nu**5)
    out[~small] = stirling + nu * (w - np.log1p(0.5 * w)) + 0.5 * np.log(p) + np.log(series)
    return out


def _theta_cut(n: int, q: float, p: float) -> float:
    """Theta in [0, pi/2] beyond which an integrand stays below exp(-140).

    The caller's log integrand must be 0 at theta = 0 and at most
    a log(u) + q (1 - u)^p for |theta| beyond the cut, with u = cos(theta)^2
    and a = (n - 2)/2. Fixed-point iteration from u = 0 climbs to the
    smallest root of that bound at -140; stopping early only widens the
    interval.
    """
    if n == 2:
        return math.pi / 2.0
    a, u = 0.5 * (n - 2), 0.0
    for _ in range(100):
        u = math.exp(-(q * (1.0 - u) ** p + 140.0) / a)
    return math.acos(math.sqrt(u))


def second_moment_asym(
    lam: float, n: int, k: int, *, mc_samples: int = 1 << 17, seed: int = 0
) -> SecondMomentResult:
    """Second moment E exp(n lam^2 T_1 ... T_k) for independent overlaps.

    Orders 2 and 3 integrate the last overlap out in closed form and the
    others by self-normalized Gauss-Legendre in theta; the integrand is
    even, so ``nodes`` counts nodes per axis on [0, theta_max]. Higher
    orders fall back to Monte Carlo over exact overlap marginals
    (T^2 ~ Beta(1/2, (n-1)/2) with a random sign), reporting the relative
    standard error in ``quadrature_error``. The Monte Carlo value is
    returned unclamped, so it can sit slightly below 0 within its noise.
    ``seed`` must lie in [0, 2^64), the width of the generator key.
    """
    n = _check_dim(n)
    k = _check_order(k, 10)
    lam = _check_strength(lam, "lam")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ContractError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if lam == 0.0:
        return SecondMomentResult("asym", k, n, 0.0, 0.0, 0.0, 0.0, "quadrature", 0)
    if k in (2, 3):
        c = n * lam * lam

        def log_ratio(theta, log_w):
            log_d = (n - 2) * _log_cos(theta) + log_w
            sin = np.sin(theta)
            if k == 2:
                return float(logsumexp(log_d + _log_mgf(c * sin, n)) - logsumexp(log_d))
            # 256 rows at a time bound the memory of the 2-D integrand
            rows = [
                logsumexp(log_d[b, None] + log_d + _log_mgf(np.outer(c * sin[b], sin), n))
                for b in (slice(i, i + 256) for i in range(0, sin.size, 256))
            ]
            return float(logsumexp(rows) - 2.0 * logsumexp(log_d))

        # E exp(sT) <= exp(s^2 / 2n) and the other overlap of k = 3 only
        # shrinks s, so q = c^2 / 2n with p = 1 bounds every axis
        cut = _theta_cut(n, 0.5 * c * c / n, 1.0)
        sizes = tuple(2**p for p in range(4, 13 if k == 2 else 12))
        cur, err, nodes = _refine_theta(log_ratio, 0.0, cut, sizes, True)
        log_sm = _clamp_log_moment(cur, "asymmetric quadrature")
        return SecondMomentResult(
            "asym", k, n, lam, log_sm, err, _implied_tv(log_sm), "quadrature", nodes
        )
    if mc_samples < 2:
        raise ContractError(f"mc_samples must be >= 2, got {mc_samples!r}")
    rng = trial_rng(seed, 0, _MC_STREAM)
    t2 = rng.beta(0.5, (n - 1) / 2.0, size=(mc_samples, k))
    signs = 2.0 * rng.integers(0, 2, size=(mc_samples, k)) - 1.0
    expo = n * lam * lam * np.prod(signs * np.sqrt(t2), axis=1)
    log_sm = float(logsumexp(expo)) - math.log(mc_samples)
    log_m2 = float(logsumexp(2.0 * expo)) - math.log(mc_samples)
    rel_var = math.expm1(min(log_m2 - 2.0 * log_sm, 700.0))
    rel_se = math.sqrt(max(rel_var, 0.0) / mc_samples)
    return SecondMomentResult(
        "asym", k, n, lam, log_sm, rel_se, _implied_tv(log_sm), "monte_carlo", mc_samples
    )


@dataclass(frozen=True)
class LikelihoodRatioEstimate:
    """Monte Carlo likelihood ratio with linear- and log-scale values.

    ``dominated`` flags runs where one sampled direction carries more than
    99% of the total weight, i.e. the average is untrustworthy.
    """

    log_estimate: float
    estimate: float
    std_error: float
    dominated: bool
    n_samples: int


def _contract_all(arr: np.ndarray, v: np.ndarray) -> float:
    w = arr
    for _ in range(arr.ndim):
        w = np.tensordot(w, v, axes=([w.ndim - 1], [0]))
    return float(w)


def likelihood_ratio_mc(
    x, beta: float, n_samples: int = 2048, rng: np.random.Generator | None = None
) -> LikelihoodRatioEstimate:
    """Estimate the spiked-vs-noise likelihood ratio by spherical averaging.

    Averages exp((n beta / 2) <X, v^(x)k> - n beta^2 / 4) over uniform
    directions v. Zero beta short-circuits to the exact value 1.
    """
    beta = _check_strength(beta, "beta")
    arr, k, n = _as_array(x)
    if k < 2:
        raise ContractError("likelihood_ratio_mc expects a cubic tensor of order >= 2")
    if beta == 0.0:
        return LikelihoodRatioEstimate(0.0, 1.0, 0.0, False, 0)
    if n_samples < 2:
        raise ContractError(f"n_samples must be >= 2, got {n_samples!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    shift = -0.25 * n * beta * beta
    logw = np.empty(n_samples)
    for j in range(n_samples):
        v = sample_sphere(n, rng).coords
        logw[j] = 0.5 * n * beta * _contract_all(arr, v) + shift
    top = float(np.max(logw))
    u = np.exp(logw - top)
    total = float(np.sum(u))
    log_est = top + math.log(total / n_samples)
    estimate = float(np.exp(log_est))
    std_error = float(np.exp(top) * np.std(u, ddof=1) / math.sqrt(n_samples))
    dominated = bool(np.max(u) / total > 0.99)
    return LikelihoodRatioEstimate(log_est, estimate, std_error, dominated, n_samples)


def trace_stat(x) -> float:
    """Sum of diagonal entries of a matrix-shaped sample."""
    arr, k, _ = _as_array(x)
    if k != 2:
        raise ContractError("trace_stat expects a square matrix")
    return float(np.trace(arr))


def trace_test(x, beta: float, threshold: float | None = None) -> int:
    """Accept the spike when the trace exceeds the midpoint beta/2.

    Under noise the trace is N(0, 2); a rank-one unit spike of size beta
    shifts its mean to beta, so the likelihood ratio test thresholds at
    the midpoint.
    """
    beta = _check_strength(beta, "beta")
    cut = 0.5 * beta if threshold is None else float(threshold)
    return int(trace_stat(x) >= cut)


def trace_tv(beta: float) -> float:
    """Total variation distance between N(0, 2) and N(beta, 2)."""
    beta = _check_strength(beta, "beta")
    return math.erf(beta / 4.0)


def spectral_test_eig(x, delta: float = 0.15) -> int:
    """Accept when the top eigenvalue clears the bulk edge by delta."""
    if not math.isfinite(delta) or delta <= 0:
        raise ContractError(f"delta must be finite and > 0, got {delta!r}")
    return int(eigvals_sym(x).largest >= 2.0 + delta)


STATISTICS = ("eig", "trace", "lr", "frob", "opnorm")


def _int_param(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"test.params.{name}", f"must be an integer, got {value!r}")
    return int(value)


def make_statistic(name: str, params: dict | None = None):
    """Build a named per-trial statistic callable for batch evaluation.

    The callable takes the sampled tensor plus keyword context
    (spec, trial, context) and returns a float. Randomized statistics
    ("lr", "opnorm") derive their generator from the trial coordinates on
    a stream separate from sampling, so results do not depend on worker
    count or evaluation order.
    """
    params = dict(params or {})
    if name == "eig":
        return lambda x, **kw: eigvals_sym(x).largest
    if name == "trace":
        return lambda x, **kw: trace_stat(x)
    if name == "frob":
        return lambda x, **kw: frobenius(x)
    if name == "lr":
        beta = params.get("beta")
        if beta is None:
            raise ConfigError("test.params.beta", "the lr statistic needs a strength")
        beta = _finite_number(beta, "test.params.beta")
        n_samples = _int_param(params, "samples", 2048)

        def lr_stat(x, *, spec, trial, context=0, **kw):
            rng = trial_rng(spec.seed, trial, STREAM_TEST, context)
            return likelihood_ratio_mc(x, beta, n_samples, rng).log_estimate

        return lr_stat
    if name == "opnorm":
        restarts = _int_param(params, "restarts", 8)
        iters = _int_param(params, "iters", 200)

        def opnorm_stat(x, *, spec, trial, context=0, **kw):
            rng = trial_rng(spec.seed, trial, STREAM_TEST, context)
            return operator_norm_lb(x, restarts=restarts, iters=iters, rng=rng).value

        return opnorm_stat
    raise ConfigError("test.statistic", f"unknown statistic {name!r}; known: {STATISTICS}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Two-hypothesis testing run: null model, alternative model, one test."""

    h0: EnsembleSpec
    h1: EnsembleSpec
    statistic: str
    threshold: float
    trials: int
    seed: int = 0
    params: dict | None = None

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ConfigError(
                "test.statistic", f"unknown statistic {self.statistic!r}; known: {STATISTICS}"
            )
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError("trials", f"must be a positive integer, got {self.trials!r}")
        # streams are keyed by 2 * seed + hypothesis in 64 bits
        if type(self.seed) is not int or not 0 <= self.seed < 2**63:
            raise ConfigError("seed", f"must be an integer in [0, 2^63), got {self.seed!r}")
        _finite_number(self.threshold, "test.threshold")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError("experiment", "expected a JSON object")
        allowed = {"h0", "h1", "test", "trials", "seed"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError("experiment", f"unknown fields {sorted(unknown)}")
        for field in ("h0", "h1", "test", "trials"):
            if field not in data:
                raise ConfigError(field, "is required")
        h0 = EnsembleSpec.from_json_dict(data["h0"])
        h1 = EnsembleSpec.from_json_dict(data["h1"])
        test = data["test"]
        if not isinstance(test, dict) or "statistic" not in test:
            raise ConfigError("test", "expected an object with a 'statistic' field")
        t_unknown = set(test) - {"statistic", "threshold", "delta", "params"}
        if t_unknown:
            raise ConfigError("test", f"unknown fields {sorted(t_unknown)}")
        name = test["statistic"]
        params = test.get("params")
        if params is not None and not isinstance(params, dict):
            raise ConfigError("test.params", "expected an object")
        if name == "lr":
            params = dict(params or {})
            params.setdefault("beta", h1.strength)
        threshold = _resolve_threshold(name, test, h1)
        seed = data.get("seed", 0)
        return cls(
            h0=h0,
            h1=h1,
            statistic=name,
            threshold=threshold,
            trials=data["trials"],
            seed=seed,
            params=params,
        )

    def to_json_dict(self) -> dict:
        test: dict = {"statistic": self.statistic, "threshold": self.threshold}
        if self.params:
            test["params"] = dict(self.params)
        return {
            "h0": self.h0.to_json_dict(),
            "h1": self.h1.to_json_dict(),
            "test": test,
            "trials": self.trials,
            "seed": self.seed,
        }


def _resolve_threshold(name: str, test: dict, h1: EnsembleSpec) -> float:
    if "threshold" in test and "delta" in test:
        raise ConfigError("test", "give either 'threshold' or 'delta', not both")
    if "threshold" in test:
        return _finite_number(test["threshold"], "test.threshold")
    if "delta" in test:
        if name != "eig":
            raise ConfigError("test.delta", "only the eig statistic takes an edge margin")
        value = _finite_number(test["delta"], "test.delta")
        if value <= 0:
            raise ConfigError("test.delta", f"must be a positive number, got {value!r}")
        return 2.0 + value
    if name == "trace":
        return 0.5 * h1.strength
    if name == "lr":
        # log likelihood ratio >= 0 is the equal-prior Bayes rule
        return 0.0
    raise ConfigError("test.threshold", f"required for the {name} statistic")


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of a run plus the per-hypothesis batches it came from.

    Per-trial rows and the ROC are derived from the batches when asked for.
    """

    spec: ExperimentSpec
    fpr: float
    power: float
    ks: float
    batches: tuple[SampleBatch, SampleBatch]

    @property
    def stats0(self) -> np.ndarray:
        return self.batches[0].values

    @property
    def stats1(self) -> np.ndarray:
        return self.batches[1].values

    @property
    def roc(self) -> list:
        return _roc_curve(self.stats0, self.stats1)

    @property
    def rows(self) -> list[dict]:
        return [
            {
                "hypothesis": hyp,
                "trial": trial,
                "statistic": value,
                "decision": int(value >= self.spec.threshold),
                "sub_seed": sub_seed,
            }
            for hyp, batch in enumerate(self.batches)
            for trial, (value, sub_seed) in enumerate(zip(batch.values.tolist(), batch.sub_seeds))
        ]

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.spec.to_json_dict(),
            "threshold": self.spec.threshold,
            "trials": self.spec.trials,
            "seed": self.spec.seed,
            "fpr": self.fpr,
            "power": self.power,
            "ks_distance": self.ks,
            "roc": [[float(a), float(b)] for a, b in self.roc],
        }

    def rows_csv(self) -> str:
        lines = ["hypothesis,trial,statistic,decision,sub_seed"]
        for r in self.rows:
            lines.append(
                f"{r['hypothesis']},{r['trial']},{r['statistic']!r},{r['decision']},{r['sub_seed']}"
            )
        return "\n".join(lines) + "\n"


def _roc_curve(stats0: np.ndarray, stats1: np.ndarray) -> list:
    s0 = np.sort(stats0)
    s1 = np.sort(stats1)
    cuts = np.unique(np.concatenate([s0, s1]))
    fpr = 1.0 - np.searchsorted(s0, cuts, side="left") / s0.size
    tpr = 1.0 - np.searchsorted(s1, cuts, side="left") / s1.size
    pts = [(1.0, 1.0)] + list(zip(fpr, tpr)) + [(0.0, 0.0)]
    return pts


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Sample both hypotheses, apply the test, and summarize separation.

    Each hypothesis gets ``spec.trials`` fresh samples on its own stream
    (derived from the experiment seed and the hypothesis index), so the
    null and alternative never share noise. Decisions are statistic >=
    threshold. The reported KS distance is the exact maximum CDF gap
    between the two statistic samples, which is also the best achievable
    |power - fpr| over all thresholds.
    """
    stat = make_statistic(spec.statistic, spec.params)
    batches = tuple(
        batch_statistics(ens, spec.trials, stat, workers, spec.seed * 2 + hyp)
        for hyp, ens in enumerate((spec.h0, spec.h1))
    )
    stats0, stats1 = batches[0].values, batches[1].values
    return ExperimentResult(
        spec=spec,
        fpr=float(np.mean(stats0 >= spec.threshold)),
        power=float(np.mean(stats1 >= spec.threshold)),
        ks=ks_distance(stats0, stats1),
        batches=batches,
    )
