"""Symmetric eigenvalue computations and empirical-spectrum utilities."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure
from .tensors import SymmetricTensor, _as_array

_SYMMETRY_TOL = 1e-10

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order; residual is set when vectors were computed."""

    eigenvalues: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ContractError("a spectrum is a nonempty 1-d array")
        if np.any(np.diff(arr) > 0):
            raise ContractError("eigenvalues must be in descending order")
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[0])


def eigvals_sym(x, vectors: bool = False):
    """Full symmetric eigendecomposition, eigenvalues descending.

    Input must be symmetric within 1e-10 (scaled by the largest entry); a
    SymmetricTensor is exactly symmetric by type and skips that check. With
    ``vectors=True`` returns (Spectrum, V) where column i of V pairs with
    eigenvalue i, and the Spectrum carries the max residual |X v - lambda v|.
    """
    sym, k, _ = _as_array(x)
    if k != 2:
        raise ContractError(f"expected a square matrix, got order {k}")
    if not isinstance(x, SymmetricTensor):
        scale = max(1.0, float(np.max(np.abs(sym))) if sym.size else 1.0)
        asym = float(np.max(np.abs(sym - sym.T))) if sym.size else 0.0
        if asym > _SYMMETRY_TOL * scale:
            raise ContractError(f"matrix is not symmetric: max |X - X^T| = {asym:g}")
        sym = (sym + sym.T) / 2.0
    try:
        if vectors:
            w, v = np.linalg.eigh(sym)
        else:
            w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}", partial={"matrix": sym}) from exc
    w = np.ascontiguousarray(w[::-1])  # the solvers return ascending order
    if vectors:
        v = np.ascontiguousarray(v[:, ::-1])
        residual = float(np.max(np.linalg.norm(sym @ v - v * w, axis=0))) if w.size else 0.0
        return Spectrum(eigenvalues=w, residual=residual), v
    return Spectrum(eigenvalues=w)


@dataclass(frozen=True)
class LargestEigStats:
    trials: int
    mean: float
    std: float
    quantiles: dict


def largest_eig_stats(spectra) -> LargestEigStats:
    """Mean, std, and quantiles of the top eigenvalue over a batch.

    Accepts a sequence of Spectrum objects or of plain top-eigenvalue floats.
    """
    values = [s.largest if isinstance(s, Spectrum) else float(s) for s in spectra]
    if not values:
        raise ContractError("largest_eig_stats needs at least one spectrum")
    arr = np.asarray(values, dtype=np.float64)
    qs = {str(q): float(np.quantile(arr, q)) for q in QUANTILES}
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return LargestEigStats(trials=arr.size, mean=float(arr.mean()), std=std, quantiles=qs)


def ks_distance(a, b) -> float:
    """Sup-norm distance between the empirical CDFs of two samples."""
    xa = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    xb = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if xa.size == 0 or xb.size == 0:
        raise ContractError("ks_distance needs nonempty samples")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def semicircle_ref(x):
    """Semicircle density (1/2pi) sqrt(4 - x^2) on [-2, 2], zero outside."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(arr)
    inside = np.abs(arr) <= 2.0
    out[inside] = np.sqrt(4.0 - arr[inside] ** 2) / (2.0 * np.pi)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def spectra_to_csv(spectra, path) -> None:
    """One row per trial, columns lambda_1..lambda_n (descending)."""
    rows = [s.eigenvalues if isinstance(s, Spectrum) else np.asarray(s) for s in spectra]
    if not rows:
        raise ContractError("no spectra to export")
    n = rows[0].size
    if any(r.size != n for r in rows):
        raise ContractError("spectra have inconsistent lengths")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"lambda_{i + 1}" for i in range(n)])
        for r in rows:
            writer.writerow([repr(float(v)) for v in r])


def spectra_from_csv(path) -> list[Spectrum]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ContractError("empty spectra CSV")
        out = []
        for row in reader:
            out.append(Spectrum(eigenvalues=np.asarray([float(v) for v in row])))
    return out


def summarize_spectra(spectra) -> dict:
    """JSON-ready summary of a batch of spectra."""
    lam1 = largest_eig_stats(spectra)
    rows = [s.eigenvalues for s in spectra]
    traces = [float(r.sum()) for r in rows]
    return {
        "trials": lam1.trials,
        "n": int(rows[0].size),
        "largest": {
            "mean": lam1.mean,
            "std": lam1.std,
            "quantiles": lam1.quantiles,
        },
        "trace_mean": float(np.mean(traces)),
        "trace_std": float(np.std(traces, ddof=1)) if len(traces) > 1 else 0.0,
    }
