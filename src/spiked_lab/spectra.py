"""Symmetric eigenvalue computations and empirical-spectrum utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure
from .tensors import SymmetricTensor, _as_array

_SYMMETRY_TOL = 1e-10


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


def eigvals_sym(x) -> Spectrum:
    """Eigenvalues of a symmetric matrix, descending.

    A plain array must be finite and symmetric within 1e-10 (scaled by the
    largest entry); a SymmetricTensor is exactly symmetric by type and skips
    both checks.
    """
    sym, k, _ = _as_array(x)
    if k != 2:
        raise ContractError(f"expected a square matrix, got order {k}")
    if not isinstance(x, SymmetricTensor):
        if not np.all(np.isfinite(sym)):
            raise ContractError("matrix has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(sym))) if sym.size else 1.0)
        asym = float(np.max(np.abs(sym - sym.T))) if sym.size else 0.0
        if asym > _SYMMETRY_TOL * scale:
            raise ContractError(f"matrix is not symmetric: max |X - X^T| = {asym:g}")
        sym = (sym + sym.T) / 2.0
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return Spectrum(eigenvalues=np.ascontiguousarray(w[::-1]))  # eigvalsh returns ascending order


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
