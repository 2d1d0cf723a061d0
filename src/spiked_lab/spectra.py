"""Symmetric eigenvalue computations and empirical-spectrum utilities.

``eigvals_sym`` returns the whole spectrum by LAPACK's O(n^3) tridiagonal
reduction. ``largest_eigenvalue``, behind the ``eig`` statistic, returns
the top eigenvalue alone by Lanczos from a fixed start vector: about 100
matrix-vector products at n = 900, within about sqrt(n) eps |X| of the
LAPACK value and, up to that rounding, never above it, unless the start
vector is orthogonal to the top eigenspace: then it can return the second
eigenvalue (a sampled trial meets that with probability zero). Each product
is OpenBLAS's ``cblas_dsymv`` on the upper triangle where the loaded library
exports it, else ``X @ q`` (MKL, Accelerate, no /proc); the value's bits
depend on which (within about 1e-15 relative), never on the worker count.
Both read their input through one rule, ``_symmetric_matrix``, and both
raise NumericalFailure for an eigenvalue that overflows a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import ROW_MAJOR, UPPER, openblas
from .errors import ContractError, NumericalFailure, SpikedLabError
from .tensors import SymmetricTensor, _as_array

_SYMMETRY_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
# Lanczos basis rows allocated first (doubled when full), and the steps at which the stop rule is checked
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


def _lanczos_start(n: int) -> np.ndarray:
    """The fixed Lanczos start vector: the first n standard normals of Philox4x64
    at key (0, 2^64 - 1), normalized. That is the key of trial 2^48 - 1 on
    stream tag 0xFFFF, which no sampler or statistic draws from."""
    g = np.random.Generator(np.random.Philox(key=np.array([0, (1 << 64) - 1], dtype=np.uint64))).standard_normal(n)
    return g / np.linalg.norm(g)


def _symv():
    """The loaded OpenBLAS's typed ``cblas_dsymv``, or None (another BLAS, no /proc)."""
    lib = openblas()
    return None if lib is None else lib.dsymv


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
    direction is orthogonalized twice against the whole basis, which starts
    at ``_BASIS_BLOCK`` rows and doubles when full. The value is the top
    Ritz value theta_1, the largest eigenvalue of the tridiagonal projection
    T_m, at the first of:

    - the gap-aware residual test, checked every ``_CHECK_EVERY`` steps from
      step ``_CHECK_FROM``: r^2 <= eps |T| (theta_1 - theta_2), with r the
      residual of the top Ritz pair and |T| = max |theta| the Ritz estimate
      of |X|. By Kato-Temple theta_1 is then within about eps |X| of the
      top eigenvalue;
    - breakdown, the new direction below eps |X q| after orthogonalization:
      the Krylov space is invariant and its Ritz values are eigenvalues;
    - dimension n, where T_n holds the whole spectrum to rounding.

    The iteration runs on 2^shift X, the power of two chosen from the first
    product, so no norm under- or overflows at any scale of X, and the
    scaling is exact. A Ritz value never exceeds the top eigenvalue, up to
    rounding of order sqrt(n) eps |X|. It misses the top eigenvalue only if
    the start vector is orthogonal to its eigenspace. The two products round
    differently, so the value's bits depend on which one the platform has
    (within about 1e-15 relative), never on a thread or worker count while
    OpenBLAS is held to one thread. A product X q or a top eigenvalue that
    overflows a double is a NumericalFailure, not a warning or an inf.
    """
    sym = _symmetric_matrix(x)
    n = sym.shape[0]
    dsymv = _symv()
    basis = np.empty((min(_BASIS_BLOCK, n), n))
    basis[0] = _lanczos_start(n)
    swept = np.empty(n)
    alpha: list[float] = []
    beta: list[float] = []
    for m in range(1, n + 1):
        q = basis[m - 1]
        if dsymv is None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
                w = sym @ q
        else:  # beta 0 and a zeroed output: nothing in w is read
            w = np.zeros(n)
            dsymv(ROW_MAJOR, UPPER, n, 1.0, sym.ctypes.data, n, q.ctypes.data, 1, 0.0, w.ctypes.data, 1)
        if m == 1:  # max |2^shift X q_1| is in [1/2, 1); frexp of inf or NaN gives 0
            shift = -math.frexp(float(np.max(np.abs(w))))[1]
        np.ldexp(w, shift, out=w)
        w_norm = float(np.linalg.norm(w))
        if not math.isfinite(w_norm):  # q_1 has no zero entry: an inf in a SymmetricTensor shows at step 1
            raise _overflow(sym, f"X q at Lanczos step {m}")
        prior = basis[:m]
        for sweep in range(2):  # classical Gram-Schmidt twice: orthogonal to rounding
            h = prior @ w
            w -= np.matmul(h, prior, out=swept)
            if sweep == 0:
                alpha.append(float(h[-1]))
        b = float(np.linalg.norm(w))
        if m == n or b <= _EPS * w_norm:  # also b == 0, which is never divided by
            theta = _ritz(alpha, beta)[0]
            break
        if m >= _CHECK_FROM and m % _CHECK_EVERY == 0:
            theta, s = _ritz(alpha, beta)
            if (b * s[-1, -1]) ** 2 <= _EPS * max(theta[-1], -theta[0]) * (theta[-1] - theta[-2]):
                break
        beta.append(b)
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        np.divide(w, b, out=basis[m])
    try:
        return math.ldexp(float(theta[-1]), -shift)
    except OverflowError:  # X is finite here: its first product was
        raise NumericalFailure("the top eigenvalue overflows a double") from None


def _ritz(alpha: list[float], beta: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the tridiagonal matrix with diagonal alpha and off-diagonal beta."""
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    try:
        return np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"tridiagonal eigensolver did not converge: {exc}") from exc


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
