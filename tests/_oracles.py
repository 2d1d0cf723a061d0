"""Slow, independent reference computations used to pin down fast code.

Everything here deliberately avoids the code paths under test: eigenvalues
come from exact rational Sturm-chain bisection on the characteristic
polynomial, symmetrization from explicit permutation loops, tail
probabilities from the regularized incomplete beta function. Symmetric
samples are composed from whole-array steps, one n^k array per step, to
pin the samplers bit for bit.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import sympy as sp


def eigvals_sturm(matrix: np.ndarray, iters: int = 55) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by exact-arithmetic bisection.

    The matrix entries are converted to exact rationals, the characteristic
    polynomial and its Sturm chain are built symbolically, and each root is
    bisected using sign-variation counts. 55 halvings of a Gershgorin
    interval leave an error far below 1e-12.
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

    radius = Fraction(float(np.max(np.sum(np.abs(matrix), axis=1)))) + 1
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


def tail_prob_betainc(a: float, n: int) -> float:
    """P(first sphere coordinate >= a) via the incomplete beta function."""
    from scipy.special import betainc

    core = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - a * a)
    return core if a >= 0 else 1.0 - core


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
