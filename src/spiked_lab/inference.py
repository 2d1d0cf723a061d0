"""Detection machinery: exact marginals, second moments, tests, experiments.

The overlap T of a uniform unit vector with any fixed direction has density
proportional to (1 - t^2)^((n-3)/2) on [-1, 1] and even moments
E T^(2m) = (1/2)_m / (n/2)_m. The second moments of the likelihood ratio
are power series in the signal strength with these moments in their
coefficients, every term positive, summed exactly in log space. T^2 is
Beta(1/2, (n-1)/2), so the tail probability is a regularized incomplete
beta function, evaluated by its continued fraction.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .ensembles import (
    STREAM_TEST,
    EnsembleSpec,
    SampleBatch,
    _BlockStatistic,
    _evaluate,
    trial_rng,
)
from .errors import (
    ConfigError,
    ContractError,
    NumericalFailure,
    SizingError,
    _check_count,
    _check_order,
    _check_real,
    _check_strength,
    _finite_number,
)
from .spectra import ks_distance, largest_eigenvalue
from .tensors import _BLOCK_ENTRIES, DEFAULT_ENTRY_BUDGET, _as_array, _power_trials, frobenius, operator_norm_lb
from .thresholds import _brent_root

_SERIES_BLOCK = 1024
_SERIES_MAX_TERMS = 1 << 22
_SERIES_MAX_INDEX = 2.0**52
_LOG_SERIES_DROP = -40.0
_TV_VACUOUS = "vacuous"
_STIRLING_FROM = 100.0


def _check_dimension(n) -> int:
    """A dimension n: an integer >= 2 that a float can hold, so below 2^1024."""
    n = _check_count(n, "dimension n", 2)
    try:
        float(n)
    except OverflowError:
        raise ContractError(f"dimension n must be below 2^1024, got a {n.bit_length()}-bit integer") from None
    return n


def log_cn(n: int) -> float:
    """Log normalizer of the first-coordinate density on the unit sphere, -log B(1/2, (n-1)/2).

    A difference of log-gammas at g = (n - 1)/2 would lose about eps g log g
    (19.8 at n = 1e18). From g = 100 on, log (g)_(1/2) is (1/2) log g plus
    ``_log_rising_excess(g, 1/2)``; below, the ratio of gammas (each below
    1e156) keeps the error under 1e-15.
    """
    n = _check_dimension(n)
    g = (n - 1) / 2.0
    if g >= _STIRLING_FROM:
        return 0.5 * math.log(g) + float(_log_rising_excess(g, 0.5)) - 0.5 * math.log(math.pi)
    return math.log(math.gamma(n / 2.0) / math.gamma(g)) - 0.5 * math.log(math.pi)


def _beta_cf(p: float, q: float, x: float) -> float:
    """h in I_x(p, q) = x^p (1 - x)^q h / (p B(p, q)), fast for x < (p + 1)/(p + q + 2).

    h = 1/(1 + d_1/(1 + d_2/(1 + ...))), d_(2m+1) = -(p + m)(p + q + m) x /
    ((p + 2m)(p + 2m + 1)), d_(2m) = m (q - m) x / ((p + 2m - 1)(p + 2m))
    (DLMF 8.17.22), by the modified Lentz method (Thompson and Barnett 1986).
    The stop rule allows a few ulp: near p = 1e30 the factors never settle closer to 1.
    """
    f, c, d = 1.0, 1.0, 0.0
    for m in range(10000):
        for num in (  # as ratios, which stay finite where p^2 would overflow
            -(p + m) / (p + 2 * m) * (p + q + m) / (p + 2 * m + 1) * x,
            (m + 1) * (q - m - 1) / (p + 2 * m + 1) / (p + 2 * m + 2) * x,
        ):
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            f *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            return 1.0 / f
    raise NumericalFailure(f"the incomplete beta fraction did not converge at p={p!r}, x={x!r}")


def first_coord_tail_logprob(a: float, n: int) -> float:
    """log P(first coordinate >= a), the log of (1/2) I_x(p, 1/2), x = 1 - a^2, p = (n - 1)/2.

    T^2 is Beta(1/2, p), so for a > 0 the tail is (1/2) P(T^2 >= a^2). Its
    log is the log of the prefactor x^p a / (p B(p, 1/2)), with
    -log B(1/2, p) = ``log_cn(n)``, plus the log of the continued fraction
    ``_beta_cf``. That fraction converges fast only for x < (p + 1)/(p + 5/2),
    so where a^2 (p + 5/2) < 3/2 the value is log1p(-I_(a^2)(1/2, p)) - log 2
    instead, whose fraction sees a^2 itself. The direct fraction sees x
    rounded to a double and its recurrence magnifies rounding about p-fold: the
    absolute error of the log grows like n * 1e-16 at worst, just past the
    switch (1e-8 at n = 1e8, 4e-5 at 1e12, 5e-2 at 1e15), and where 1 - a^2
    rounds to 1 there it raises NumericalFailure. a = 0 gives log(1/2)
    exactly, and negative a goes through the complement. The result falls
    with a on a grid of 2001 points; between doubles a few ulp apart
    rounding can make it rise, by less than 1e-14 of its size.
    """
    n = _check_dimension(n)
    a = _check_real(a, "a")
    if abs(a) > 1.0:
        raise ContractError(f"a must lie in [-1, 1], got {a!r}")
    if a == 1.0:
        return float("-inf")
    if a == -1.0:
        return 0.0
    if a < 0.0:
        return math.log1p(-math.exp(first_coord_tail_logprob(-a, n)))
    if a == 0.0:
        return -math.log(2.0)
    p, a2 = 0.5 * (n - 1), a * a
    if a2 < 0.5:
        x, log_x = 1.0 - a2, math.log1p(-a2)
    else:  # 1 - a is exact here, where 1 - a * a would lose the low bits of a
        x = (1.0 - a) * (1.0 + a)
        log_x = math.log(x)
    log_front = p * log_x + math.log(a) + log_cn(n)
    if a2 * (p + 2.5) < 1.5:
        inner = math.exp(log_front + math.log(2.0)) * _beta_cf(0.5, p, a2)  # I_(a^2)(1/2, p)
        return math.log1p(-inner) - math.log(2.0)
    if x == 1.0:
        raise NumericalFailure(f"1 - a^2 rounds to 1 at a={a!r}, n={n}")
    return log_front - math.log(p) + math.log(_beta_cf(p, 0.5, x)) - math.log(2.0)


@dataclass(frozen=True)
class SecondMomentResult:
    """Log second moment of a likelihood ratio plus its error diagnostics.

    ``implied_tv_upper`` is sqrt(exp(L) - 1)/2 when that is an informative
    bound and the string "vacuous" when it reaches 1 or overflows.
    ``method`` is "series": ``nodes`` counts the series terms summed and
    ``quadrature_error`` bounds the relative mass of the terms left out,
    which bounds the absolute error of the log value.
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
    # the series never gives a negative log value; one passed in is floored
    bound = 0.5 * math.sqrt(max(math.expm1(log_sm), 0.0))
    return bound if bound < 1.0 else _TV_VACUOUS


@functools.lru_cache(maxsize=256)
def _rising_head(g: float) -> tuple[int, np.ndarray, float]:
    """a = ceil(100 - g), log (g)_j - j log g for j = 0..a, and log1p(a/g).

    The head is the log of a running product of the factors 1 + j/g, so it
    is off by at most 3 a u (3e-14, u = 2^-53) plus the rounding of the log,
    where a running sum of log factors would collect the rounding of every
    partial sum.
    """
    a = math.ceil(_STIRLING_FROM - g)
    head = np.log(np.concatenate(([1.0], np.cumprod(1.0 + np.arange(a) / g))))
    head.flags.writeable = False
    return a, head, math.log1p(a / g)


def _log_rising_excess(g: float, m: np.ndarray) -> np.ndarray:
    """log (g)_m - m log g at ascending integers m; its rounding grows with m, not with g.

    A log-gamma difference loses about eps g log g (3e-7 at g = 5e8), so
    from g = 100 on the Stirling series of both log-gammas is subtracted in
    closed form: (g + m - 1/2) log1p(m/g) - m plus the difference of the
    1/(12x) - 1/(360x^3) + 1/(1260x^5) corrections, whose truncation stays
    below 1e-17 there. That branch holds for any real m >= 0, a scalar
    included, as ``log_cn`` uses it. Below 100, g is lifted past it by
    (g)_m = (g)_a (g + a)_(m - a), a = ceil(100 - g): the first a terms come from
    ``_rising_head`` and the rest add the Stirling form at g + a.
    """
    if g < _STIRLING_FROM:
        a, head, log_lift = _rising_head(g)
        cut = int(np.searchsorted(m, a))
        rest = m[cut:] - a
        lifted = head[a] + rest * log_lift + _log_rising_excess(g + a, rest)
        return np.concatenate((head[m[:cut].astype(np.intp)], lifted)) if cut else lifted

    def corr(x):  # in powers of r = 1/x, which cannot overflow for x >= 100
        r = 1.0 / x
        r2 = r * r
        return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0))

    x = g + m
    return (x - 0.5) * np.log1p(m / g) - m + (corr(x) - corr(g))


def _log_series(log_x: float, pos, neg) -> tuple[float, float, int]:
    """log of sum_i x^i prod_p (p)_i / prod_q (q)_i, a series of positive terms.

    ``neg`` holds the 1 of i! and outnumbers ``pos`` once shared entries
    cancel, so the log term ratio rho(i) = log x + sum log(i + p) -
    sum log(i + q) falls without bound; its slope is negative past
    ``settle``. When every q exceeds every p the slope changes sign at most
    once (Descartes' rule of signs for exponential sums, via the Laplace
    transform), so the terms fall, rise to one interior mode and fall again.
    Otherwise the few terms before ``settle`` are summed whole.

    Blocks are summed down and up from the mode, never stopped on a small
    term alone. The dip between the modes is skipped once both of its edges
    are below exp(-40) of the larger mode over the mode index; past the last
    index J the tail is at most t_J r / (1 - r), r = exp(max rho on [J, inf)).
    Returns the log sum, a bound on the relative mass left out, and the
    number of terms summed.
    """
    net = Counter(pos)
    net.subtract(neg)
    par = [(v, c) for v, c in net.items() if c]
    ups, downs = [v for v, c in par if c > 0], [v for v, c in par if c < 0]
    n_up = sum(c for _, c in par if c > 0)
    n_down = n_up - sum(c for _, c in par)
    slope = log_x + sum(c * math.log(v) for v, c in par)

    def log_term(i):
        return slope * i + sum(c * _log_rising_excess(v, i) for v, c in par)

    def rho(i):
        return log_x + sum(c * math.log(i + v) for v, c in par)

    def d_rho(i):
        return sum(c / (i + v) for v, c in par)

    settle = max(0.0, (n_up * max(downs) - n_down * min(ups, default=0.0)) / (n_down - n_up))
    if ups and max(ups) >= min(downs):
        head = peak = math.ceil(settle)
    else:
        head, peak = 0, _brent_root(d_rho, 0.0, settle + 1.0) if d_rho(0.0) > 0.0 else 0.0
    mode = head
    if rho(peak) > 0.0:
        far = 2.0 * peak + 1.0
        while rho(far) > 0.0:
            far *= 2.0
            if far > _SERIES_MAX_INDEX:
                raise NumericalFailure(f"the series peaks beyond term {_SERIES_MAX_INDEX:.3g}")
        mode = max(head, math.ceil(_brent_root(rho, peak, far)))

    top, rest, nodes = -math.inf, 0.0, 0  # the sum so far is exp(top) * (1 + rest)

    def add(lo: int, hi: int) -> np.ndarray:
        nonlocal top, rest, nodes
        logs = log_term(np.arange(lo, hi, dtype=np.float64))
        i = int(np.argmax(logs))
        btop, bulk = float(logs[i]), np.exp(logs - logs[i])
        bulk[i] = 0.0
        brest = float(bulk.sum())
        if btop > top:
            top, btop, rest, brest = btop, top, brest, rest
        rest += math.exp(btop - top) * (1.0 + brest)
        nodes += hi - lo
        if nodes > _SERIES_MAX_TERMS:
            raise NumericalFailure(f"the series needs more than {_SERIES_MAX_TERMS} terms")
        return logs

    if head:
        add(0, head)
    log_skipped, lo, left, right = -math.inf, mode, head, mode
    if mode > head:
        log_tiny = float(log_term(np.array([head, mode], dtype=np.float64)).max())
        log_tiny += _LOG_SERIES_DROP - math.log(mode + 1.0)
        while lo > head:
            lo, stop = max(head, lo - _SERIES_BLOCK), lo
            if add(lo, stop)[0] <= log_tiny:
                break
        while left < lo:
            start, left = left, min(lo, left + _SERIES_BLOCK)
            if add(start, left)[-1] <= log_tiny:
                break
        if lo > left:
            log_skipped = log_tiny + math.log(lo - left)
    while True:
        logs, right = add(right, right + _SERIES_BLOCK), right + _SERIES_BLOCK
        rho_sup = rho(max(right - 1.0, peak))
        log_total = top + math.log1p(rest)
        if rho_sup < 0.0:
            log_tail = float(logs[-1]) + rho_sup - math.log(-math.expm1(rho_sup))
            if log_tail <= log_total + _LOG_SERIES_DROP:
                break
    rel_err = math.exp(log_tail - log_total) + math.exp(log_skipped - log_total)
    return log_total, rel_err, nodes


def second_moment_sym(beta: float, n: int, k: int) -> SecondMomentResult:
    """Second moment of the symmetric-model likelihood ratio under noise.

    E exp(a T^k), a = n beta^2 / 2, with T the overlap of two independent
    uniform directions, is sum over j with kj even of
    a^j / j! (1/2)_(kj/2) / (n/2)_(kj/2); for k = 2 it is 1F1(1/2; n/2; a).
    Gauss's multiplication formula puts it in the form ``_log_series``
    sums, over i = j / s with s = 1 for even k and 2 for odd k.
    """
    n = _check_dimension(n)
    k = _check_order(k, 10)
    beta = _check_strength(beta, "beta")
    if beta == 0.0:
        return SecondMomentResult("sym", k, n, 0.0, 0.0, 0.0, 0.0, "series", 0)
    b, s = 0.5 * n, 1 + k % 2
    w = k * s // 2
    log_sm, err, nodes = _log_series(
        s * (math.log(b / s) + 2.0 * math.log(beta)),
        [(l + 0.5) / w for l in range(w)],
        [u / s for u in range(1, s + 1)] + [(l + b) / w for l in range(w)],
    )
    return SecondMomentResult("sym", k, n, beta, log_sm, err, _implied_tv(log_sm), "series", nodes)


def second_moment_asym(lam: float, n: int, k: int) -> SecondMomentResult:
    """Second moment E exp(n lam^2 T_1 ... T_k) for independent overlaps.

    With c = n lam^2 and E T^(2j) = (1/2)_j / (n/2)_j it is the series
    sum_j (c^2/4)^j (1/2)_j^(k-1) / (j! (n/2)_j^k), the hypergeometric
    function (k-1)F(k)(1/2, ...; n/2, ...; c^2/4), summed by ``_log_series``.
    """
    n = _check_dimension(n)
    k = _check_order(k, 10)
    lam = _check_strength(lam, "lam")
    if lam == 0.0:
        return SecondMomentResult("asym", k, n, 0.0, 0.0, 0.0, 0.0, "series", 0)
    b = 0.5 * n
    log_sm, err, nodes = _log_series(
        2.0 * math.log(b) + 4.0 * math.log(lam), [0.5] * (k - 1), [1.0] + [b] * k
    )
    return SecondMomentResult("asym", k, n, lam, log_sm, err, _implied_tv(log_sm), "series", nodes)


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


def likelihood_ratio_mc(
    x, beta: float, n_samples: int = 2048, rng: np.random.Generator | None = None
) -> LikelihoodRatioEstimate:
    """Estimate the spiked-vs-noise likelihood ratio by spherical averaging.

    Averages exp((n beta / 2) <X, v^(x)k> - n beta^2 / 4) over uniform
    directions v. Zero beta short-circuits to the exact value 1. Directions
    are drawn as blocks of rows, which uses ``rng`` exactly as sequential
    ``sample_sphere`` calls do; a block holds max(1, 2^16 // n^(k-1)) of
    them, so memory does not grow with ``n_samples``. The block's width can
    change how the BLAS product rounds a direction's column; at n = 30,
    k = 3 the bits are those of the earlier 2^14-entry blocks.
    """
    beta = _check_strength(beta, "beta")
    arr, k, n = _as_array(x)
    _check_order(k)
    if beta == 0.0:
        return LikelihoodRatioEstimate(0.0, 1.0, 0.0, False, 0)
    n_samples = _check_count(n_samples, "n_samples", 2)
    if n_samples > DEFAULT_ENTRY_BUDGET:
        raise SizingError(f"n_samples={n_samples} exceeds the entry budget")
    if rng is None:
        rng = np.random.default_rng(0)
    block = max(1, _BLOCK_ENTRIES // n ** (k - 1))
    contracted = np.empty(n_samples)
    for lo in range(0, n_samples, block):
        g = rng.standard_normal((min(block, n_samples - lo), n))
        vt = (g / np.linalg.norm(g, axis=1, keepdims=True)).T
        # One gemm, then k - 2 einsums, rather than the per-direction gemv of
        # tensors._contract: on 2,048 directions with BLAS at one thread that
        # took 21 ms against 7.6 at n=30, k=3, 18 against 3.5 at (8, 4) and 35
        # against 9.4 at (6, 5), and its values differ in the last bits.
        w = arr.reshape(-1, n) @ vt
        for _ in range(k - 1):
            w = np.einsum("ijs,js->is", w.reshape(-1, n, vt.shape[1]), vt)
        contracted[lo : lo + vt.shape[1]] = w[0]
    logw = 0.5 * n * beta * contracted - 0.25 * n * beta * beta
    top = float(np.max(logw))
    u = np.exp(logw - top)
    total = float(np.sum(u))
    log_est = top + math.log(total / n_samples)
    with np.errstate(over="ignore"):  # past exp(709) the linear-scale values are inf; the log stays
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


def trace_tv(beta: float) -> float:
    """Total variation distance between N(0, 2) and N(beta, 2)."""
    beta = _check_strength(beta, "beta")
    return math.erf(beta / 4.0)


def _int_param(params: dict, name: str, default: int, lo: int) -> int:
    """A spec integer in [lo, 10^8], checked when the spec is parsed, before any sampling."""
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= DEFAULT_ENTRY_BUDGET:
        raise ConfigError(f"test.params.{name}", f"must be an integer in [{lo}, {DEFAULT_ENTRY_BUDGET}], got {value!r}")
    return int(value)


def _lr(params: dict):
    beta = params.get("beta")
    if beta is None:
        raise ConfigError("test.params.beta", "the lr statistic needs a strength")
    beta = _finite_number(beta, "test.params.beta")
    if beta < 0:
        raise ConfigError("test.params.beta", f"must be >= 0, got {beta!r}")
    n_samples = _int_param(params, "samples", 2048, 2)

    def lr_stat(x, *, spec, trial, context=0, **kw):
        rng = trial_rng(spec.seed, trial, STREAM_TEST, context)
        return likelihood_ratio_mc(x, beta, n_samples, rng).log_estimate

    return lr_stat


def _opnorm(params: dict) -> _BlockStatistic:
    restarts = _int_param(params, "restarts", 8, 1)
    iters = _int_param(params, "iters", 200, 1)

    def opnorm_block(xs, *, spec, trials, context=0, **kw):
        rngs = [trial_rng(spec.seed, t, STREAM_TEST, context) for t in trials]
        return [b.value for b in operator_norm_lb(xs, restarts=restarts, iters=iters, rng=rngs)]

    return _BlockStatistic(opnorm_block, lambda spec: _power_trials(spec.n, spec.k, restarts))


@dataclass(frozen=True)
class _Statistic:
    """A statistic's rules. ``build`` makes its callable from the checked ``test.params`` (keys
    ``params``); both hypotheses must be ``symmetric`` models and/or ``matrix`` ones; ``edge`` takes
    ``test.delta``; ``cut`` (None: a threshold is required) and ``defaults`` read the alternative's beta."""

    build: Callable[[dict], Callable]
    params: tuple[str, ...] = ()
    symmetric: bool = False
    matrix: bool = False
    edge: float | None = None
    cut: Callable[[float], float] | None = None
    defaults: Callable[[float], dict] | None = None


_TABLE = {
    "eig": _Statistic(lambda params: lambda x, **kw: largest_eigenvalue(x), symmetric=True, matrix=True, edge=2.0),
    # under noise the trace is N(0, 2); a unit spike of size beta moves its mean to beta
    "trace": _Statistic(lambda params: lambda x, **kw: trace_stat(x), matrix=True, cut=lambda beta: 0.5 * beta),
    # log likelihood ratio >= 0 is the equal-prior Bayes rule
    "lr": _Statistic(_lr, ("beta", "samples"), cut=lambda beta: 0.0, defaults=lambda beta: {"beta": beta}),
    "frob": _Statistic(lambda params: lambda x, **kw: frobenius(x)),
    "opnorm": _Statistic(_opnorm, ("restarts", "iters"), symmetric=True),
}
STATISTICS = tuple(_TABLE)


def _statistic(name) -> _Statistic:
    if name not in STATISTICS:
        raise ConfigError("test.statistic", f"unknown statistic {name!r}; known: {STATISTICS}")
    return _TABLE[name]


def make_statistic(name: str, params: dict | None = None):
    """Build a named per-trial statistic callable for batch evaluation.

    The callable takes the sampled tensor plus keyword context
    (spec, trial, context) and returns a float. ``params`` is None or a
    dict, else a ConfigError on ``test.params``. "eig" is
    ``largest_eigenvalue``, Lanczos from a fixed start vector, so it needs
    no context and its value is a function of the matrix alone. Randomized
    statistics ("lr", "opnorm") derive their generator from the trial
    coordinates on a stream separate from sampling, so results do not
    depend on worker count or evaluation order. "opnorm" is a block
    statistic: the evaluator hands it consecutive trials of one spec for one
    stacked power iteration, and each value keeps the bits it gets alone.
    """
    entry = _statistic(name)
    if params is not None and not isinstance(params, dict):
        raise ConfigError("test.params", "expected an object")
    params = dict(params or {})
    for key in params:
        if key not in entry.params:
            raise ConfigError(f"test.params.{key}", f"not a parameter of the {name} statistic")
    return entry.build(params)


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
        for hyp in ("h0", "h1"):
            if not isinstance(getattr(self, hyp), EnsembleSpec):
                raise ConfigError(hyp, f"expected an EnsembleSpec, got {type(getattr(self, hyp)).__name__}")
        object.__setattr__(self, "threshold", _finite_number(self.threshold, "test.threshold"))
        make_statistic(self.statistic, self.params)  # a bad name or parameter fails before any draw
        symmetric, matrix = _TABLE[self.statistic].symmetric, _TABLE[self.statistic].matrix
        for hyp, ens in (("h0", self.h0), ("h1", self.h1)):
            if symmetric and ens.model in ("asym_noise", "asym_spiked") or matrix and ens.k != 2:
                need = f"{self.statistic} needs a {'symmetric ' * symmetric}{'matrix' if matrix else 'tensor'}"
                raise ConfigError("test.statistic", f"{need}; {hyp} is {ens.model!r} at k={ens.k}")
        if type(self.trials) is not int or not 1 <= self.trials <= DEFAULT_ENTRY_BUDGET:
            raise ConfigError("trials", f"must be an integer in [1, {DEFAULT_ENTRY_BUDGET}], got {self.trials!r}")
        # streams are keyed by 2 * seed + hypothesis in 64 bits
        if type(self.seed) is not int or not 0 <= self.seed < 2**63:
            raise ConfigError("seed", f"must be an integer in [0, 2^63), got {self.seed!r}")

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
        name, params = test["statistic"], test.get("params")
        entry = _statistic(name)
        # a clique of size L is a spike of strength L/sqrt(n) (``sample_hidden_clique``)
        beta = h1.strength / math.sqrt(h1.n) if h1.model == "hidden_clique" else h1.strength
        if entry.defaults and (params is None or isinstance(params, dict)):  # the constructor refuses the rest
            params = dict(params or {})
            for key, value in entry.defaults(beta).items():
                params.setdefault(key, value)
        threshold = _resolve_threshold(name, entry, test, beta)
        return cls(h0=h0, h1=h1, statistic=name, threshold=threshold, trials=data["trials"],
                   seed=data.get("seed", 0), params=params)

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


def _resolve_threshold(name: str, entry: _Statistic, test: dict, beta: float) -> float:
    if "threshold" in test and "delta" in test:
        raise ConfigError("test", "give either 'threshold' or 'delta', not both")
    if "threshold" in test:
        return test["threshold"]  # checked once, by ExperimentSpec
    if "delta" in test:
        if entry.edge is None:
            raise ConfigError("test.delta", "only the eig statistic takes an edge margin")
        value = _finite_number(test["delta"], "test.delta")
        if value <= 0:
            raise ConfigError("test.delta", f"must be a positive number, got {value!r}")
        return entry.edge + value
    if entry.cut is None:
        raise ConfigError("test.threshold", f"required for the {name} statistic")
    return entry.cut(beta)


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of a run plus the per-hypothesis batches it came from.

    Per-trial rows and the ROC are derived from the batches when asked for.
    ``workers`` is the resolved worker count and ``blas_threads`` is 1 when
    the pool held OpenBLAS to one thread, None when no OpenBLAS was found;
    neither changes a result.
    """

    spec: ExperimentSpec
    fpr: float
    power: float
    ks: float
    batches: tuple[SampleBatch, SampleBatch]
    workers: int
    blas_threads: int | None

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


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentResult:
    """Sample both hypotheses, apply the test, and summarize separation.

    Each hypothesis gets ``spec.trials`` fresh samples on its own stream
    (derived from the experiment seed and the hypothesis index), so the
    null and alternative never share noise. Decisions are statistic >=
    threshold. The reported KS distance is the exact maximum CDF gap
    between the two statistic samples, which is also the best achievable
    |power - fpr| over all thresholds. Both hypotheses share one pool of
    ``workers`` threads, by default SPIKED_LAB_THREADS, else the CPU count;
    the results do not depend on it.
    A non-finite statistic, or an overflow or invalid operation inside one,
    is a NumericalFailure naming the hypothesis and the trial (``_evaluate``),
    never a decision.
    """
    stat = make_statistic(spec.statistic, spec.params)
    jobs = [
        (ens, spec.trials, stat, spec.seed * 2 + hyp,
         f"statistic {spec.statistic!r} {{}} at hypothesis H{hyp}, trial {{}}")
        for hyp, ens in enumerate((spec.h0, spec.h1))
    ]
    batches, workers, blas_threads = _evaluate(jobs, workers)
    stats0, stats1 = batches[0].values, batches[1].values
    return ExperimentResult(
        spec=spec,
        fpr=float(np.mean(stats0 >= spec.threshold)),
        power=float(np.mean(stats1 >= spec.threshold)),
        ks=ks_distance(stats0, stats1),
        batches=batches,
        workers=workers,
        blas_threads=blas_threads,
    )
