"""Slow, independent reference computations used to pin down fast code.

Everything here deliberately avoids the code paths under test: eigenvalues,
and the largest one also when it is repeated, come from exact rational
Sturm-chain bisection on the characteristic polynomial, symmetrization
from explicit permutation loops (the orbit sources at k >= 9 from one
gather and product per permutation group), tail
probabilities from the regularized incomplete beta function. Symmetric
samples are composed from whole-array steps, one n^k array per step, to
pin the samplers bit for bit. The maximum of the asymmetric variational
function comes from multistart L-BFGS-B, against the Brent roots of
``g_lambda_critical``, and scipy's own ``brentq`` pins the port of it.
The tensor power iteration is pinned to its restart-by-restart loop. The
symmetry check is pinned to a comparison with all k! index transposes, the
critical strength beta_k to its Lambert-W closed form in 60 digits, and the
grid's unimodality flag to a scan of one difference at a time.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations, product

import numpy as np
import sympy as sp

from spiked_lab.errors import ContractError, _check_count, _check_order, _check_strength
from spiked_lab.tensors import OperatorNormBound, SymmetricTensor, UnitVector


def _sturm_variations(matrix: np.ndarray):
    """The sign-variation count of the exact Sturm chain of the characteristic
    polynomial at a rational point, and a Gershgorin radius holding every root.

    The matrix entries are converted to exact rationals and the chain is built
    symbolically. It ends in gcd(p, p'), so the count falls by one across each
    distinct root, whatever its multiplicity.
    """
    n = matrix.shape[0]
    exact = sp.Matrix(n, n, lambda i, j: sp.Rational(Fraction(float(matrix[i, j]))))
    x = sp.Symbol("x")
    poly = sp.Poly(exact.charpoly(x).as_expr(), x)
    chain = [sp.Poly(p, x) for p in sp.sturm(poly)]
    coeff_chains = [[Fraction(sp.Rational(c)) for c in p.all_coeffs()] for p in chain]

    def variations(pt: Fraction) -> int:
        signs = []
        for coeffs in coeff_chains:
            acc = Fraction(0)
            for c in coeffs:
                acc = acc * pt + c
            if acc != 0:
                signs.append(1 if acc > 0 else -1)
        count = 0
        for a, b in zip(signs, signs[1:]):
            if a != b:
                count += 1
        return count

    return variations, Fraction(float(np.max(np.sum(np.abs(matrix), axis=1)))) + 1


def eigvals_sturm(matrix: np.ndarray, iters: int = 55) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by exact-arithmetic bisection.

    Each root is bisected using the sign-variation counts of the exact Sturm
    chain. 55 halvings of a Gershgorin interval leave an error far below
    1e-12. The eigenvalues must be distinct: the chain counts a repeated root
    once.
    """
    n = matrix.shape[0]
    variations, radius = _sturm_variations(matrix)
    lo_all, hi_all = -radius, radius
    v_lo = variations(lo_all)
    roots = []
    for i in range(1, n + 1):
        lo, hi = lo_all, hi_all
        for _ in range(iters):
            mid = (lo + hi) / 2
            # the i-th smallest root is where the variation count drops by i
            if v_lo - variations(mid) >= i:
                hi = mid
            else:
                lo = mid
        roots.append(float((lo + hi) / 2))
    return np.array(sorted(roots, reverse=True))


def largest_eigval_sturm(matrix: np.ndarray, iters: int = 64) -> float:
    """The largest eigenvalue of a symmetric matrix, repeated or not, by
    exact-arithmetic bisection: the least point above which the Sturm chain
    counts no root. Returns the upper end of the final bracket, which is
    exact when the root is a bisection point (0 for the zero matrix, 1 for
    the identity) and otherwise at most radius * 2^(1 - iters) above it."""
    variations, radius = _sturm_variations(matrix)
    lo, hi = -radius, radius
    v_hi = variations(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if variations(mid) == v_hi:
            hi = mid
        else:
            lo = mid
    return float(hi)


def symmetrize_bruteforce(arr: np.ndarray) -> np.ndarray:
    """Average over index permutations with explicit loops."""
    k = arr.ndim
    n = arr.shape[0]
    out = np.zeros_like(arr)
    perms = list(permutations(range(k)))
    for idx in product(range(n), repeat=k):
        total = 0.0
        for perm in perms:
            total += arr[tuple(idx[p] for p in perm)]
        out[idx] = total / len(perms)
    return out


def symmetrize_transpose_sum(arr: np.ndarray) -> np.ndarray:
    """Sum of all index transpositions in ``permutations`` order over k!.

    Each entry is then read from its sorted-index position with an explicit
    loop, which makes the result exactly symmetric. The rounding is that of
    the whole-array loop, so a fast symmetrize must match it bit for bit.
    """
    k = arr.ndim
    total = arr.copy()
    for perm in list(permutations(range(k)))[1:]:
        total += arr.transpose(perm)
    total /= math.factorial(k)
    out = np.empty_like(total)
    for idx in product(range(arr.shape[0]), repeat=k):
        out[idx] = total[tuple(sorted(idx))]
    return out


def orbit_blocks_by_group(n: int, k: int, per_block: int):
    """The orbit blocks of ``tensors._orbit_blocks`` built group by group: for
    each block, each of the k!/8! heads gathers its tail strides and multiplies
    them into the block's multi-indices. Its sources must match bit for bit."""
    strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    tail = np.array(list(permutations(range(min(k, 8)))), dtype=np.intp)
    h = k - tail.shape[1]
    reps = chain.from_iterable(combinations_with_replacement(range(n), k))
    total = math.comb(n + k - 1, k)
    for lo in range(0, total, per_block):
        multi = np.fromiter(reps, np.int64, min(per_block, total - lo) * k).reshape(-1, k).T
        yield multi, tuple(
            strides[list(head)] @ multi[:h] + strides[[i for i in range(k) if i not in head]][tail] @ multi[h:]
            for head in permutations(range(k), h)
        )


def sym_matrix_composed(g: np.ndarray, strength: float = 0.0, v=None) -> np.ndarray:
    """sqrt(2/n) * symmetrize_transpose_sum(g) + strength * v^(x)k, one whole-array step at a time.

    Works at any order k = g.ndim; at k = 2 the first term is
    sqrt(2/n) * (g + g^T) / 2. Each spike entry multiplies the coordinates
    in sorted index order, with an explicit loop.
    """
    n, k = g.shape[0], g.ndim
    x = math.sqrt(2.0 / n) * symmetrize_transpose_sum(g)
    if strength != 0.0:
        spike = np.empty_like(x)
        for idx in product(range(n), repeat=k):
            val = 1.0
            for i in sorted(idx):
                val *= v[i]
            spike[idx] = val
        x = x + strength * spike
    return x


def outer_power_bruteforce(v: np.ndarray, k: int) -> np.ndarray:
    n = v.size
    out = np.empty((n,) * k)
    for idx in product(range(n), repeat=k):
        val = 1.0
        for i in idx:
            val *= v[i]
        out[idx] = val
    return out


def outer_power_sorted_product(v: np.ndarray, k: int) -> np.ndarray:
    """v^(x)k with each entry's coordinates multiplied in sorted index order."""
    n = v.size
    out = np.empty((n,) * k)
    for idx in product(range(n), repeat=k):
        val = 1.0
        for i in sorted(idx):
            val *= v[i]
        out[idx] = val
    return out


def exactly_symmetric_by_transposes(arr: np.ndarray) -> bool:
    """Whether ``arr`` equals (==) each of its transposes by a permutation of its
    axes other than the identity; so every array of order 1 passes."""
    return all(np.array_equal(arr, arr.transpose(p)) for p in list(permutations(range(arr.ndim)))[1:])


def scan_unimodal_loop(values: np.ndarray) -> bool:
    """The grid's unimodality flag, one difference at a time: False at the first
    fall (beyond 1e-12 relative) after a rise (beyond the same)."""
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


def beta_star_lambert_mp(k: int, dps: int = 60) -> float:
    """beta_k from the stationary point of -log(1 - q^2)/q^k in closed form.

    With w = 1 - q^2 the nontrivial root is w = 2/(k y), y = -W_(-1)(-(2/k) e^(-2/k)),
    on the lower branch of the Lambert W function; then beta^2 = -log(w)/(1 - w)^(k/2).
    """
    import mpmath as mp

    with mp.workdps(dps):
        k = mp.mpf(k)
        y = -mp.re(mp.lambertw(-(2 / k) * mp.exp(-2 / k), -1))
        w = 2 / (k * y)
        return float(mp.sqrt(-mp.log(w) / (1 - w) ** (k / 2)))


def tail_prob_betainc(a: float, n: int) -> float:
    """P(first sphere coordinate >= a) via the incomplete beta function."""
    from scipy.special import betainc

    core = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - a * a)
    return core if a >= 0 else 1.0 - core


def log_cn_mp(n: int) -> float:
    """log Gamma(n/2) - log Gamma((n-1)/2) - log(pi)/2, with 40 digits left after
    the two log-gammas, each about n log n, cancel."""
    import mpmath as mp

    with mp.workdps(45 + len(str(n))):
        return float(mp.loggamma(mp.mpf(n) / 2) - mp.log(mp.pi) / 2 - mp.loggamma((mp.mpf(n) - 1) / 2))


def second_moment_sym_mp(beta: float, n: int, k: int, dps: int = 30) -> float:
    """log E exp(a T^k), a = n beta^2 / 2, by mpmath quadrature over the overlap T,
    whose density is proportional to (1 - t^2)^((n - 3)/2) on (-1, 1)."""
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(n) * mp.mpf(beta) ** 2 / 2
        power = mp.mpf(n - 3) / 2
        density = lambda t: (1 - t * t) ** power
        num = mp.quad(lambda t: density(t) * mp.exp(a * t**k), [-1, 0, 1])
        return float(mp.log(num / mp.quad(density, [-1, 0, 1])))


def tail_logprob_near_sqrt_n_mp(a: float, n: int) -> float:
    """log P(first coordinate >= a) = log((1 - I_(a^2)(1/2, (n-1)/2)) / 2), for a of order 1/sqrt(n).

    There the tail is of order one: the regularized incomplete beta function
    is summed directly in 60 digits, where the quadrature of
    ``tail_logprob_mp`` is for a far out in the tail.
    """
    import mpmath as mp

    assert 0.0 < a < 1.0
    with mp.workdps(60):
        p = (mp.mpf(n) - 1) / 2
        inner = mp.betainc(mp.mpf(0.5), p, 0, mp.mpf(a) ** 2, regularized=True)
        return float(mp.log((1 - inner) / 2))


def tail_logprob_mp(a: float, n: int) -> float:
    """log P(first coordinate >= a) for 0 < a < 1, safe far below double range.

    Factors out the value of the integrand at the left endpoint so the
    high-precision quadrature only ever sees numbers of order one.
    """
    import mpmath as mp

    assert 0.0 < a < 1.0 and n > 3
    with mp.workdps(60):
        aa = mp.mpf(a)
        m = (mp.mpf(n) - 3) / 2
        log_cn = (
            mp.loggamma(mp.mpf(n) / 2)
            - mp.log(mp.pi) / 2
            - mp.loggamma((mp.mpf(n) - 1) / 2)
        )
        base = m * mp.log(1 - aa * aa)
        # the factored integrand decays on scale (1-a^2)/(2*m*a)
        hi = min(mp.mpf(1), aa + 200 * (1 - aa * aa) / (2 * m * aa))
        integral = mp.quad(lambda t: mp.e ** (m * mp.log(1 - t * t) - base), [aa, hi])
        return float(log_cn + base + mp.log(integral))


def asym_moment_series(lam: float, n: int, k: int, terms: int = 400) -> float:
    """log E exp(n lam^2 prod_i T_i) for independent first coordinates T_i.

    Expands the exponential; odd moments vanish and
    E[T^{2i}] = (1/2)_i / (n/2)_i, so the series is explicit and converges
    absolutely (the product of coordinates is bounded by one).

    With c = n lam^2, every later term ratio is below (c / (n + 2i))^2 for
    k >= 2, so once 2 c^2 <= (n + 2i)^2 the tail is below the current term.
    The sum stops only there; far-supercritical terms dip before they grow,
    so a small term alone proves nothing. Raises when ``terms`` runs out.
    """
    import mpmath as mp

    with mp.workdps(60):
        c = mp.mpf(n) * mp.mpf(lam) ** 2
        total = mp.mpf(0)
        for i in range(terms):
            m2i = mp.rf(mp.mpf("0.5"), i) / mp.rf(mp.mpf(n) / 2, i)
            term = c ** (2 * i) * m2i**k / mp.factorial(2 * i)
            total += term
            if term < total * mp.mpf("1e-40") and 2 * c**2 <= (n + 2 * i) ** 2:
                return float(mp.log(total))
        raise RuntimeError(f"series did not converge within {terms} terms")


def pinned_to_brentq(root, brackets: list):
    """``root`` with each result asserted equal, as a float, to scipy.optimize.brentq's.

    Every bracket it is called on is appended to ``brackets``.
    """
    from scipy.optimize import brentq

    def checked(f, a, b, **kw):
        got = root(f, a, b, **kw)
        want = brentq(f, a, b, **kw)
        assert got == want, f"bracket ({a!r}, {b!r}) {kw}: {got!r} != brentq's {want!r}"
        brackets.append((a, b))
        return got

    return checked


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


_POWER_TOL = 1e-12


def operator_norm_lb_sequential(
    x: SymmetricTensor,
    restarts: int = 8,
    iters: int = 200,
    rng: np.random.Generator | None = None,
) -> OperatorNormBound:
    """The power iteration one restart at a time, one 1-d product per step:
    the loop the stacked ``operator_norm_lb`` must match bit for bit."""
    if not isinstance(x, SymmetricTensor):
        raise ContractError("operator_norm_lb expects a SymmetricTensor")
    restarts = _check_count(restarts, "restarts", 1)
    iters = _check_count(iters, "iters", 1)
    if rng is None:
        rng = np.random.default_rng(0)
    arr, k, n = x.array, x.order, x.dim

    def contract(u):
        res = arr
        for _ in range(k - 1):
            res = res @ u
        return res

    best_val = 0.0
    best_u = None
    for _ in range(restarts):
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            continue
        u = g / norm
        prev = None
        for _ in range(iters):
            tu = contract(u)
            val = abs(float(tu @ u))
            if val > best_val:
                best_val, best_u = val, u.copy()
            tn = np.linalg.norm(tu)
            if tn == 0.0:
                break
            u = tu / tn
            if prev is not None and abs(val - prev) <= _POWER_TOL * max(1.0, abs(val)):
                break
            prev = val
        tu = contract(u)
        val = abs(float(tu @ u))
        if val > best_val:
            best_val, best_u = val, u.copy()
    if best_u is None or best_val == 0.0:
        return OperatorNormBound(0.0, UnitVector.basis(n))
    nz = np.nonzero(best_u)[0]
    if nz.size and best_u[nz[0]] < 0:
        best_u = -best_u
    return OperatorNormBound(best_val, UnitVector.normalize(best_u))
