"""Symmetric eigenvalue computations and empirical-spectrum utilities.

``eigvals_sym`` returns the whole spectrum by LAPACK's O(n^3) tridiagonal
reduction. ``largest_eigenvalue``, behind the ``eig`` statistic, returns
the top eigenvalue alone by Lanczos from a fixed start vector: about 100
matrix-vector products at n = 900, within about sqrt(n) eps |X| of the
LAPACK value and, up to that rounding, never above it, unless the start
vector is orthogonal to the top eigenspace: then it can return the second
eigenvalue (a sampled trial meets that with probability zero). Each product
is OpenBLAS's ``cblas_dsymv`` on the upper triangle where the loaded library
exports it, else ``X @ q`` (MKL, Accelerate, no /proc), and each stop test
reads the top Ritz pair from its ``LAPACKE_dstevx`` in O(m), else from a
dense ``eigh`` of the m x m tridiagonal; the value's bits depend on which
paths the platform has (within about 1e-15 relative), never on the worker
count.
Both read their input through one rule, ``_symmetric_matrix``, and both
raise NumericalFailure for an eigenvalue that overflows a double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import COL_MAJOR, ROW_MAJOR, UPPER, openblas
from .errors import ContractError, NumericalFailure, SpikedLabError
from .tensors import SymmetricTensor, _as_array

_SYMMETRY_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
# LAPACK's most accurate bisection tolerance, twice the underflow threshold (dstevx)
_ABSTOL = 2.0 * float(np.finfo(np.float64).tiny)
# Lanczos basis rows allocated first (doubled when full), and the steps at which the stop rule is
# checked: a check costs about half a step at n = 900, and checking every 5 or 8 steps, or from
# step 30, was no faster from n = 64 to 900
_BASIS_BLOCK = 32
_CHECK_FROM = 20
_CHECK_EVERY = 10


@dataclass(frozen=True)
class Spectrum:
    """Finite eigenvalues in descending order."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ContractError("a spectrum is a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):  # a NaN would also pass the order check
            raise ContractError("eigenvalues must be finite")
        if np.any(np.diff(arr) > 0):
            raise ContractError("eigenvalues must be in descending order")
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[0])


def _symmetric_matrix(x) -> np.ndarray:
    """``x`` as a nonempty symmetric C-contiguous float64 matrix, the one input rule of the eigensolvers.

    A plain array must be finite and symmetric within 1e-10 (scaled by the
    largest entry) and is replaced by (X + X^T)/2; a SymmetricTensor is
    exactly symmetric by type and skips both checks.
    """
    sym, k, n = _as_array(x)
    if k != 2:
        raise ContractError(f"expected a square matrix, got order {k}")
    if n == 0:
        raise ContractError("expected a nonempty matrix")
    if isinstance(x, SymmetricTensor):
        return sym
    if not np.all(np.isfinite(sym)):
        raise ContractError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(sym))))
    asym = float(np.max(np.abs(sym - sym.T)))
    if asym > _SYMMETRY_TOL * scale:
        raise ContractError(f"matrix is not symmetric: max |X - X^T| = {asym:g}")
    return (sym + sym.T) / 2.0


def eigvals_sym(x) -> Spectrum:
    """All eigenvalues of a symmetric matrix, descending, by LAPACK (``numpy.linalg.eigvalsh``)."""
    sym = _symmetric_matrix(x)
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise _overflow(sym, "an eigenvalue")
    return Spectrum(eigenvalues=np.ascontiguousarray(w[::-1]))  # eigvalsh returns ascending order


@functools.lru_cache(maxsize=16)
def _lanczos_start(n: int) -> np.ndarray:
    """The fixed Lanczos start vector: the first n standard normals of Philox4x64
    at key (0, 2^64 - 1), normalized. That is the key of trial 2^48 - 1 on
    stream tag 0xFFFF, which no sampler or statistic draws from. Built once
    per n and read-only, as every call of that n shares it."""
    g = np.random.Generator(np.random.Philox(key=np.array([0, (1 << 64) - 1], dtype=np.uint64))).standard_normal(n)
    q = g / np.linalg.norm(g)
    q.flags.writeable = False
    return q


def _symv():
    """The loaded OpenBLAS's typed ``cblas_dsymv``, or None (another BLAS, no /proc)."""
    lib = openblas()
    return None if lib is None else lib.dsymv


def _stevx():
    """The loaded OpenBLAS's typed ``LAPACKE_dstevx``, or None (another BLAS, no /proc)."""
    lib = openblas()
    return None if lib is None else lib.dstevx


def _overflow(sym: np.ndarray, what: str) -> SpikedLabError:
    """The error for a non-finite result of an eigensolver: a ContractError
    where X itself holds a non-finite entry (only a SymmetricTensor gets that
    far), else a NumericalFailure, the result overflowing a double."""
    if not np.all(np.isfinite(sym)):
        return ContractError("matrix has non-finite entries")
    return NumericalFailure(f"{what} overflows a double")


def largest_eigenvalue(x) -> float:
    """The largest eigenvalue of a symmetric matrix, by Lanczos with full reorthogonalization.

    Same input rule as ``eigvals_sym``. The Krylov space of the fixed start
    vector ``_lanczos_start(n)`` grows by one product X q a step: the loaded
    OpenBLAS's ``cblas_dsymv`` on the upper triangle where it is exported
    (half the memory traffic of a general product), else ``X @ q``. Each new
    direction loses its alpha q_m and beta q_(m-1) parts, then is
    orthogonalized against the whole basis (``_orthogonalize``: a second
    Gram-Schmidt pass only where the first cancelled), which starts at
    ``_BASIS_BLOCK`` rows and doubles when full. The value is the top Ritz
    value theta_1, the largest eigenvalue of the tridiagonal projection T_m,
    at the first of:

    - the gap-aware residual test ``_converged``, checked every
      ``_CHECK_EVERY`` steps from step ``_CHECK_FROM``: r^2 <= eps |T|
      (theta_1 - theta_2), with r the residual of the top Ritz pair and
      |T| <= |X|. By Kato-Temple theta_1 is then within about eps |X| of the
      top eigenvalue;
    - breakdown, the new direction below eps |X q| after orthogonalization:
      the Krylov space is invariant and its Ritz values are eigenvalues;
    - dimension n, where T_n holds the whole spectrum to rounding.

    The Ritz values come from ``_ritz``: the loaded OpenBLAS's
    ``LAPACKE_dstevx`` in O(m) where it is exported, else a dense ``eigh``.
    The iteration runs on 2^shift X, the power of two chosen from the first
    product, so no norm under- or overflows at any scale of X, and the
    scaling is exact. A Ritz value never exceeds the top eigenvalue, up to
    rounding of order sqrt(n) eps |X|. It misses the top eigenvalue only if
    the start vector is orthogonal to its eigenspace. The products and the
    tridiagonal solvers round differently, so the value's bits depend on
    which the platform has (within about 1e-15 relative), never on a thread
    or worker count while OpenBLAS is held to one thread. A product X q or a
    top eigenvalue that overflows a double is a NumericalFailure, not a
    warning or an inf.
    """
    sym = _symmetric_matrix(x)
    n = sym.shape[0]
    dsymv = _symv()
    basis = np.empty((min(_BASIS_BLOCK, n), n))
    basis[0] = _lanczos_start(n)
    w, swept = np.empty(n), np.empty(n)
    alpha, beta = np.empty(n), np.empty(n)
    for m in range(1, n + 1):
        q = basis[m - 1]
        if dsymv is None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
                np.matmul(sym, q, out=w)
        else:  # beta 0 and a zeroed output: nothing in w is read
            w.fill(0.0)
            dsymv(ROW_MAJOR, UPPER, n, 1.0, sym.ctypes.data, n, q.ctypes.data, 1, 0.0, w.ctypes.data, 1)
        if m == 1:  # max |2^shift X q_1| is in [1/2, 1); frexp of inf or NaN gives 0
            shift = -math.frexp(float(np.max(np.abs(w))))[1]
        np.ldexp(w, shift, out=w)
        w_norm = math.sqrt(w @ w)
        if not math.isfinite(w_norm):  # q_1 has no zero entry: an inf in a SymmetricTensor shows at step 1
            raise _overflow(sym, f"X q at Lanczos step {m}")
        alpha[m - 1] = q @ w
        w -= np.multiply(q, alpha[m - 1], out=swept)
        if m > 1:
            w -= np.multiply(basis[m - 2], beta[m - 2], out=swept)
        b = math.sqrt(_orthogonalize(w, basis[:m], swept))
        if m == n or b <= _EPS * w_norm:  # also b == 0, which is never divided by
            theta = _ritz(alpha[:m], beta[: m - 1])[0]
            break
        if m >= _CHECK_FROM and m % _CHECK_EVERY == 0:
            theta = _converged(alpha[:m], beta[: m - 1], b)
            if theta is not None:
                break
        beta[m - 1] = b
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        np.divide(w, b, out=basis[m])
    try:
        return math.ldexp(theta, -shift)
    except OverflowError:  # X is finite here: its first product was
        raise NumericalFailure("the top eigenvalue overflows a double") from None


def _orthogonalize(w: np.ndarray, prior: np.ndarray, swept: np.ndarray) -> float:
    """Takes out of w, in place, its parts along the orthonormal rows of prior,
    and returns |w|^2 after.

    One classical Gram-Schmidt pass leaves parts of order eps |w| along the
    rows, |w| as it was before the pass. Where the pass cancelled most of w
    those parts are large next to what is left, so a second pass is made
    where the first left less than 1/sqrt(2) of |w| (Daniel, Gragg, Kaufman
    and Stewart, Math. Comp. 30, 1976). ``swept`` is scratch of w's size.
    """
    before = float(w @ w)
    for _ in range(2):
        w -= np.matmul(prior @ w, prior, out=swept)
        after = float(w @ w)
        if 2.0 * after >= before:
            break
        before = after
    return after


def _converged(alpha: np.ndarray, beta: np.ndarray, b: float) -> float | None:
    """theta_1 of the tridiagonal T_m (diagonal alpha, off-diagonal beta) where
    its top Ritz pair passes the gap-aware residual test, else None.

    The residual is r = b |s_m|, b the next off-diagonal entry and s_m the
    last entry of theta_1's unit eigenvector. The test is r^2 <= eps |T|
    (theta_1 - theta_2), with |T| = max(theta_1, -theta_2, -min alpha): each
    is a Rayleigh quotient of X or its negative, so |T| <= |X|. A gap of 0
    passes only a zero residual, and nothing is divided.
    """
    theta, second, s = _ritz(alpha, beta)
    scale = max(theta, -second, -float(np.min(alpha)))
    return theta if (b * s) ** 2 <= _EPS * scale * (theta - second) else None


def _ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float, float]:
    """theta_1 >= theta_2, the top two eigenvalues of the tridiagonal matrix
    with diagonal alpha and off-diagonal beta, and the last entry of
    theta_1's unit eigenvector (theta_2 = theta_1 and 1 for a 1 x 1 matrix).

    By ``LAPACKE_dstevx`` (bisection and inverse iteration for two indices,
    O(m)) where the loaded OpenBLAS exports it, else by a dense
    ``numpy.linalg.eigh``. Either solver failing is a NumericalFailure.
    """
    m = alpha.size
    if m == 1:
        return float(alpha[0]), float(alpha[0]), 1.0
    stevx = _stevx()
    if stevx is None:
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        try:
            theta, s = np.linalg.eigh(t)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"tridiagonal eigensolver did not converge: {exc}") from exc
        return float(theta[-1]), float(theta[-2]), float(s[-1, -1])
    d, e = alpha.copy(), beta.copy()  # the solver overwrites both
    theta, z = np.empty(m), np.empty((2, m))  # z: the two eigenvectors, column-major m x 2
    found, ifail = np.empty(1, dtype=stevx.argtypes[3]), np.empty(m, dtype=stevx.argtypes[3])
    info = stevx(COL_MAJOR, b"V", b"I", m, d.ctypes.data, e.ctypes.data, 0.0, 0.0, m - 1, m,
                 _ABSTOL, found.ctypes.data, theta.ctypes.data, z.ctypes.data, m, ifail.ctypes.data)
    if info != 0:
        raise NumericalFailure(f"tridiagonal eigensolver failed: LAPACKE_dstevx info {info}")
    return float(theta[1]), float(theta[0]), float(z[1, -1])


def ks_distance(a, b) -> float:
    """Sup-norm distance between the empirical CDFs of two samples, which must not hold NaN."""
    xa = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    xb = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if xa.size == 0 or xb.size == 0:
        raise ContractError("ks_distance needs nonempty samples")
    if np.isnan(xa[-1]) or np.isnan(xb[-1]):  # sorting puts any NaN last
        raise ContractError("ks_distance samples must not contain NaN")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))
