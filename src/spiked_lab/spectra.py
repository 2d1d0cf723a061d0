"""Symmetric eigenvalue computations and empirical-spectrum utilities.

``eigvals_sym`` returns the whole spectrum by LAPACK's O(n^3) tridiagonal
reduction. ``largest_eigenvalue``, behind the ``eig`` statistic, returns
the top eigenvalue alone by Lanczos from a fixed start vector: about 100
matrix-vector products at n = 900, within about sqrt(n) eps |X| of the
LAPACK value and, up to that rounding, never above it, unless the start
vector is orthogonal to the top eigenspace: then it can return the second
eigenvalue (a sampled trial meets that with probability zero). Where the
loaded OpenBLAS exports them, each step is one ``cblas_dsymv`` on the upper
triangle, the step's one call that releases the GIL, and its vector work is
``cblas_ddot``, ``cblas_daxpy`` and ``cblas_dgemv`` with the GIL held, so
two threads in Lanczos at once do not trade the GIL a dozen times a step;
else the step is ``X @ q`` and numpy's vector calls (MKL, Accelerate, no
/proc). Each stop test reads the top Ritz pair from OpenBLAS's
``LAPACKE_dstevx`` in O(m), else from a dense ``eigh`` of the m x m
tridiagonal. The value's bits depend on which of these paths the platform
has (within about 1e-15 relative), never on the worker count.
Both read their input through one rule, ``_symmetric_matrix``, and both
raise NumericalFailure for an eigenvalue that overflows a double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import COL_MAJOR, NO_TRANS, ROW_MAJOR, TRANS, UPPER, openblas
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
# The largest |shift| of the scaling 2^shift X: 2^shift stays a normal double, so does 2^shift q_j
# inside dsymv for |q_j| >= 2^-60, and a scaled product that the clamp leaves above 2^64 or below
# 2^-114 (X near the largest double, or subnormal) still has a finite, nonzero square norm
_MAX_SHIFT = 960


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


def _lanczos_blas():
    """The loaded OpenBLAS where it exports every call of the BLAS Lanczos step
    (``cblas_dsymv``, and the GIL-held ``cblas_ddot``, ``cblas_daxpy`` and
    ``cblas_dgemv``), else None (another BLAS, no /proc)."""
    lib = openblas()
    if lib is None or None in (lib.dsymv, lib.ddot, lib.daxpy, lib.dgemv):
        return None
    return lib


def _lanczos_step_path() -> str:
    """Which Lanczos step this process runs: ``"openblas"`` or ``"numpy"``."""
    return "numpy" if _lanczos_blas() is None else "openblas"


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
    vector ``_lanczos_start(n)`` grows by one product X q a step. Each new
    direction loses its alpha q_m and beta q_(m-1) parts, then is
    orthogonalized against the whole basis (``_orthogonalize``: a second
    Gram-Schmidt pass only where the first cancelled), which starts at
    ``_BASIS_BLOCK`` rows and doubles when full. The step's work is done by
    one of two sets of calls, chosen once a call:

    - ``_BlasStep`` where the loaded OpenBLAS exports them: ``cblas_dsymv``
      on the upper triangle (half the memory traffic of a general product),
      the one call of the step that releases the GIL, and ``cblas_ddot``,
      ``cblas_daxpy`` and ``cblas_dgemv`` with the GIL held, so two threads
      running Lanczos side by side do not trade the GIL a dozen times a step;
    - ``_NumpyStep`` else (MKL, Accelerate, no /proc): ``X @ q`` and numpy's
      vector calls.

    The value is the top Ritz value theta_1, the largest eigenvalue of the
    tridiagonal projection T_m, at the first of:

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
    product and clamped to |shift| <= ``_MAX_SHIFT``, so no norm under- or
    overflows at any scale of X, 2^shift is a double, and the scaling is
    exact. A Ritz value never exceeds the top eigenvalue, up to rounding of
    order sqrt(n) eps |X|. It misses the top eigenvalue only if the start
    vector is orthogonal to its eigenspace. The two steps round differently
    (``daxpy`` may fuse the multiply and the subtraction that numpy rounds
    twice), and so do the two tridiagonal solvers, so the value's bits
    depend on which the platform has (within about 1e-15 relative), never
    on a thread or worker count while OpenBLAS is held to one thread. A call
    keeps all its state to itself, so calls on several threads at once
    return what each returns alone. A product X q or a top eigenvalue that
    overflows a double is a NumericalFailure, not a warning or an inf.
    """
    sym = _symmetric_matrix(x)
    n = sym.shape[0]
    lib = _lanczos_blas()
    step = _NumpyStep(sym) if lib is None else _BlasStep(lib, sym)
    # q_m is row m - 1 and the new direction w of step m is row m, zero before its product
    basis = np.zeros((min(_BASIS_BLOCK, n) + 1, n))
    basis[0] = _lanczos_start(n)
    step.rebase(basis)
    alpha, beta = np.empty(n), np.empty(n)
    shift = None
    for m in range(1, n + 1):
        w = basis[m]
        step.product(m, shift)
        if m == 1:  # max |2^shift X q_1| is in [1/2, 1) unless clamped; frexp of inf or NaN gives 0
            shift = min(max(-math.frexp(float(np.max(np.abs(w))))[1], -_MAX_SHIFT), _MAX_SHIFT)
            np.ldexp(w, shift, out=w)
        w_norm = math.sqrt(step.dot(m, m))
        if not math.isfinite(w_norm):  # q_1 has no zero entry: an inf in a SymmetricTensor shows at step 1
            raise _overflow(sym, f"X q at Lanczos step {m}")
        alpha[m - 1] = step.dot(m - 1, m)
        step.subtract(alpha[m - 1], m - 1, m)
        if m > 1:
            step.subtract(beta[m - 2], m - 2, m)
        b = math.sqrt(_orthogonalize(step, m))
        if m == n or b <= _EPS * w_norm:  # also b == 0, which is never divided by
            theta = _ritz(alpha[:m], beta[: m - 1])[0]
            break
        if m >= _CHECK_FROM and m % _CHECK_EVERY == 0:
            theta = _converged(alpha[:m], beta[: m - 1], b)
            if theta is not None:
                break
        beta[m - 1] = b
        np.divide(w, b, out=w)
        if m + 1 == len(basis):
            basis = np.concatenate([basis, np.zeros((min(m, n - m), n))])
            step.rebase(basis)
    try:
        return math.ldexp(theta, -shift)
    except OverflowError:  # X is finite here: its first product was
        raise NumericalFailure("the top eigenvalue overflows a double") from None


class _NumpyStep:
    """The calls of a Lanczos step by numpy, for a BLAS without the GIL-held
    ones. They act on rows of the basis of the last ``rebase``, by index:
    the step's new direction is row m."""

    def __init__(self, sym: np.ndarray):
        self.sym, self.swept = sym, np.empty(sym.shape[0])

    def rebase(self, basis: np.ndarray) -> None:
        self.basis, self.rows = basis, list(basis)

    def product(self, m: int, shift: int | None) -> None:
        """Row m = 2^shift X row m - 1 (X row m - 1 while shift is None)."""
        w = self.rows[m]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the caller
            np.matmul(self.sym, self.rows[m - 1], out=w)
        if shift is not None:
            np.ldexp(w, shift, out=w)

    def dot(self, i: int, j: int) -> float:
        return float(self.rows[i] @ self.rows[j])

    def subtract(self, c: float, i: int, m: int) -> None:
        """Row m -= c row i."""
        self.rows[m] -= np.multiply(self.rows[i], c, out=self.swept)

    def project(self, m: int) -> None:
        """Row m loses its parts along rows 0 to m - 1: one classical Gram-Schmidt pass."""
        prior, w = self.basis[:m], self.rows[m]
        w -= np.matmul(prior @ w, prior, out=self.swept)


class _BlasStep:
    """The same calls by the loaded OpenBLAS: ``dsymv``, which releases the
    GIL for its 100 us or more, and ``ddot``, ``daxpy`` and ``dgemv``, which
    keep it. Each address is read once, as a ``.ctypes.data`` read costs
    about as much as a short BLAS call: X's and the scratch's per call, the
    rows' per ``rebase``."""

    def __init__(self, lib, sym: np.ndarray):
        self.lib, self.sym, self.n, self.swept = lib, sym, sym.shape[0], np.empty(sym.shape[0])
        self.sym_at, self.swept_at = sym.ctypes.data, self.swept.ctypes.data

    def rebase(self, basis: np.ndarray) -> None:
        at, stride = basis.ctypes.data, basis.strides[0]
        self.basis, self.rows = basis, [at + i * stride for i in range(len(basis))]

    def product(self, m: int, shift: int | None) -> None:
        """As for numpy, with 2^shift as dsymv's alpha, exact in the clamped
        range of shift. Beta is 0 and the row is zero, so nothing in it is read."""
        scale = 1.0 if shift is None else math.ldexp(1.0, shift)
        self.lib.dsymv(ROW_MAJOR, UPPER, self.n, scale, self.sym_at, self.n, self.rows[m - 1], 1, 0.0,
                       self.rows[m], 1)

    def dot(self, i: int, j: int) -> float:
        return self.lib.ddot(self.n, self.rows[i], 1, self.rows[j], 1)

    def subtract(self, c: float, i: int, m: int) -> None:
        self.lib.daxpy(self.n, -c, self.rows[i], 1, self.rows[m], 1)

    def project(self, m: int) -> None:
        """The numpy pass as two dgemv calls: the m coefficients into the
        scratch, then row m minus the rows they weigh (beta 1)."""
        rows, n = self.rows, self.n
        self.lib.dgemv(ROW_MAJOR, NO_TRANS, m, n, 1.0, rows[0], n, rows[m], 1, 0.0, self.swept_at, 1)
        self.lib.dgemv(ROW_MAJOR, TRANS, m, n, -1.0, rows[0], n, self.swept_at, 1, 1.0, rows[m], 1)


def _orthogonalize(step: _NumpyStep | _BlasStep, m: int) -> float:
    """Takes out of the step's row m, in place, its parts along the
    orthonormal rows 0 to m - 1, and returns |row m|^2 after.

    One classical Gram-Schmidt pass leaves parts of order eps |w| along the
    rows, |w| as it was before the pass. Where the pass cancelled most of w
    those parts are large next to what is left, so a second pass is made
    where the first left less than 1/sqrt(2) of |w| (Daniel, Gragg, Kaufman
    and Stewart, Math. Comp. 30, 1976).
    """
    before = step.dot(m, m)
    for _ in range(2):
        step.project(m)
        after = step.dot(m, m)
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
