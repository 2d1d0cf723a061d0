"""Dense and symmetric tensors, with the handful of multilinear operations
the rest of the package is built on.

Tensors are immutable: the wrapped numpy array is marked read-only at
construction. Entries are stored flat in row-major (C) order, so the flat
index of (i_1, ..., i_k) is i_1 * n^(k-1) + ... + i_k.

Symmetric tensors are *exactly* symmetric, bit for bit: every operation that
promises a symmetric result (``outer_power``, ``symmetrize``) routes each
entry through the value computed at the sorted representative of its index
orbit, so permuting indices cannot even change the last ulp.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContractError, SizingError, _check_count

DEFAULT_ENTRY_BUDGET = 10**8

_MAGIC = b"SPKT"
_HEADER = struct.Struct("<4sIII")  # magic, k, n, format version
_FORMAT_VERSION = 1
_JSON_MAX_ENTRIES = 10**4

# Chunk size (flat indices) for streaming canonicalization of large tensors.
_CANON_CHUNK = 1 << 20
_CANON_CACHE_LIMIT = 1 << 22


def _check_budget(dim: int, order: int, entry_budget: int | None) -> int:
    budget = DEFAULT_ENTRY_BUDGET if entry_budget is None else int(entry_budget)
    # for n >= 2 this order alone gives 2^k > budget; n^k itself could take
    # minutes to form and has too many digits to print
    if dim > 1 and order >= budget.bit_length() or dim**order > budget:
        raise SizingError(f"tensor with n={dim}, k={order} exceeds the entry budget {budget}")
    return dim**order


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class DenseTensor:
    """Order-k tensor over R^n with flat row-major float64 storage."""

    __slots__ = ("order", "dim", "array")

    def __init__(self, array, order=None, dim=None, *, entry_budget=None):
        arr = np.asarray(array, dtype=np.float64)
        if order is None:
            order = arr.ndim
        order = _check_count(order, "tensor order", 1)
        if dim is None:
            if arr.ndim == order:
                dims = set(arr.shape)
                if len(dims) != 1:
                    raise ContractError(f"tensor axes must share one dimension, got shape {arr.shape}")
                dim = arr.shape[0]
            else:
                raise ContractError("dim required when constructing from flat entries")
        dim = _check_count(dim, "tensor dimension", 1)
        count = _check_budget(dim, order, entry_budget)
        if arr.size != count:
            raise ContractError(
                f"entry count {arr.size} does not match n^k = {dim}^{order} = {count}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "array", _freeze(arr.reshape((dim,) * order)))

    def __setattr__(self, name, value):
        raise AttributeError("tensors are immutable")

    @property
    def shape(self):
        return self.array.shape

    @property
    def n_entries(self) -> int:
        return self.array.size

    def flat(self) -> np.ndarray:
        """Entries in row-major order (read-only view)."""
        return self.array.reshape(-1)

    def entry(self, *indices) -> float:
        if len(indices) != self.order:
            raise ContractError(f"expected {self.order} indices, got {len(indices)}")
        return float(self.array[indices])

    def __repr__(self):
        return f"{type(self).__name__}(k={self.order}, n={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self.array, other.array)
        )

    __hash__ = None


class SymmetricTensor(DenseTensor):
    """A DenseTensor invariant under every permutation of its indices.

    The invariance is exact (bitwise). ``check=False`` skips verification and
    is reserved for internal constructors that guarantee symmetry by
    construction.
    """

    def __init__(self, array, order=None, dim=None, *, check=True, entry_budget=None):
        super().__init__(array, order, dim, entry_budget=entry_budget)
        if check and not _exactly_symmetric(self.array):
            raise ContractError("array is not symmetric under index permutations")


class UnitVector:
    """A vector on the unit sphere of R^n, validated to 1e-12."""

    __slots__ = ("coords",)

    NORM_TOL = 1e-12

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ContractError("unit vector needs a nonempty 1-d coordinate array")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > self.NORM_TOL:
            raise ContractError(f"norm {norm!r} is not 1 within {self.NORM_TOL}")
        object.__setattr__(self, "coords", _freeze(arr))

    def __setattr__(self, name, value):
        raise AttributeError("unit vectors are immutable")

    @property
    def dim(self) -> int:
        return self.coords.size

    @classmethod
    def normalize(cls, arr) -> "UnitVector":
        arr = np.asarray(arr, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not math.isfinite(norm):
            raise ContractError("cannot normalize a zero or non-finite vector")
        return cls(arr / norm)

    @classmethod
    def basis(cls, n: int, i: int = 0) -> "UnitVector":
        e = np.zeros(n)
        e[i] = 1.0
        return cls(e)

    def __repr__(self):
        return f"UnitVector(n={self.dim})"


def _as_array(x) -> tuple[np.ndarray, int, int]:
    """Coerce DenseTensor or ndarray input to (array, order, dim)."""
    if isinstance(x, DenseTensor):
        return x.array, x.order, x.dim
    arr = np.asarray(x, dtype=np.float64)
    dims = set(arr.shape)
    if arr.ndim < 1 or len(dims) != 1:
        raise ContractError(f"expected a cubic array, got shape {arr.shape}")
    return arr, arr.ndim, arr.shape[0]


@lru_cache(maxsize=32)
def _canonical_gather_cached(shape: tuple[int, ...]) -> np.ndarray:
    return _canonical_gather_block(shape, 0, int(np.prod(shape)))


def _canonical_gather_block(shape, lo, hi) -> np.ndarray:
    """Flat indices of the sorted-index representative for flat positions [lo, hi)."""
    flat = np.arange(lo, hi, dtype=np.int64)
    multi = np.stack(np.unravel_index(flat, shape))
    multi.sort(axis=0)
    return np.ravel_multi_index(tuple(multi), shape)


def _canonicalize_symmetric(arr: np.ndarray) -> np.ndarray:
    """Copy each entry from its sorted-index orbit representative.

    Assumes ``arr`` is already symmetric up to roundoff; the gather makes the
    symmetry exact without changing any value by more than the existing
    permutation scatter (a few ulp).
    """
    size = arr.size
    flat = arr.reshape(-1)
    if size <= _CANON_CACHE_LIMIT:
        return flat[_canonical_gather_cached(arr.shape)].reshape(arr.shape)
    out = np.empty_like(flat)
    for lo in range(0, size, _CANON_CHUNK):
        hi = min(lo + _CANON_CHUNK, size)
        out[lo:hi] = flat[_canonical_gather_block(arr.shape, lo, hi)]
    return out.reshape(arr.shape)


def _exactly_symmetric(arr: np.ndarray, sample_tuples: int = 128) -> bool:
    k = arr.ndim
    if k == 1:
        return True
    if math.factorial(k) * arr.size <= 2 * 10**6:
        return all(
            np.array_equal(arr, arr.transpose(p))
            for p in itertools.permutations(range(k))
        )
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    idx = rng.integers(0, arr.shape[0], size=(sample_tuples, k))
    for row in idx:
        ref = arr[tuple(row)]
        for p in itertools.permutations(range(k)):
            if arr[tuple(row[list(p)])] != ref:
                return False
    return True


def outer_power(v: UnitVector | np.ndarray, k: int, *, entry_budget=None) -> SymmetricTensor:
    """Rank-one symmetric tensor v^(tensor k): entry (i_1..i_k) = prod_j v_{i_j}."""
    k = _check_count(k, "order", 1)
    coords = v.coords if isinstance(v, UnitVector) else np.asarray(v, dtype=np.float64)
    if coords.ndim != 1:
        raise ContractError("outer_power expects a vector")
    _check_budget(coords.size, k, entry_budget)
    arr = coords
    for _ in range(k - 1):
        arr = np.multiply.outer(arr, coords)
    if k > 2:
        arr = _canonicalize_symmetric(arr)
    return SymmetricTensor(arr, check=False, entry_budget=entry_budget)


def inner(x, y) -> float:
    """Coordinatewise inner product <X, Y> = sum_i X_i Y_i."""
    ax, kx, nx = _as_array(x)
    ay, ky, ny = _as_array(y)
    if (kx, nx) != (ky, ny):
        raise ContractError(f"shape mismatch: (k={kx}, n={nx}) vs (k={ky}, n={ny})")
    return float(np.dot(ax.reshape(-1), ay.reshape(-1)))


def frobenius(x) -> float:
    """Frobenius norm sqrt(<X, X>)."""
    ax, _, _ = _as_array(x)
    return float(np.linalg.norm(ax.reshape(-1)))


def symmetrize(x, *, entry_budget=None):
    """Average of all k! index permutations of X.

    Exactly symmetric output; idempotent (a SymmetricTensor is returned
    unchanged). Cost is k! transpositions, so the order is capped at 10.
    """
    if isinstance(x, SymmetricTensor):
        return x
    arr, k, n = _as_array(x)
    if k > 10:
        raise ContractError(f"symmetrize supports order <= 10, got k={k}")
    if k == 1:
        return SymmetricTensor(arr.copy(), check=False, entry_budget=entry_budget)
    if k == 2:
        # (A + A^T)/2 is exactly symmetric: float addition commutes.
        out = (arr + arr.T) / 2.0
        return SymmetricTensor(out, check=False, entry_budget=entry_budget)
    out = arr.copy()
    for p in itertools.permutations(range(k)):
        if p == tuple(range(k)):
            continue
        out += arr.transpose(p)
    out /= math.factorial(k)
    out = _canonicalize_symmetric(out)
    return SymmetricTensor(out, check=False, entry_budget=entry_budget)


class OperatorNormBound(NamedTuple):
    value: float
    witness: UnitVector


def operator_norm_lb(
    x: SymmetricTensor,
    restarts: int = 8,
    iters: int = 200,
    rng: np.random.Generator | None = None,
    *,
    tol: float = 1e-12,
) -> OperatorNormBound:
    """Lower bound on max_{|u|=1} |<X, u^(tensor k)>| by symmetric power iteration.

    Each restart iterates u <- normalize(X . u^(k-1)) and tracks the best
    |<X, u^k>| seen, so the returned value is a certified lower bound (any
    unit u certifies one). Exact on rank-one input after one step. The
    witness is sign-normalized so its first nonzero coordinate is positive.
    """
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
            if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
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


def save_tensor(x, path) -> None:
    """Write a tensor to ``path`` in the binary format.

    Layout: 16-byte header (magic ``SPKT``, u32 k, u32 n, u32 format version),
    then n^k little-endian float64 entries in row-major order.
    """
    arr, k, n = _as_array(x)
    header = _HEADER.pack(_MAGIC, k, n, _FORMAT_VERSION)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.reshape(-1).astype("<f8").tobytes())


def load_tensor(path, *, entry_budget=None) -> DenseTensor:
    """Read a tensor written by ``save_tensor``; an unreadable path is a ContractError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ContractError(f"cannot read tensor file {str(path)!r}: {exc.strerror or exc}") from None
    with fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ContractError("truncated tensor file: short header")
        magic, k, n, version = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ContractError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _FORMAT_VERSION:
            raise ContractError(f"unsupported tensor format version {version}")
        count = _check_budget(n, k, entry_budget)
        payload = fh.read(8 * count + 8)
        if len(payload) != 8 * count:
            raise ContractError(
                f"payload length {len(payload)} does not match n^k = {count} entries"
            )
    entries = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return DenseTensor(entries, order=k, dim=n, entry_budget=entry_budget)


def tensor_to_json(x) -> str:
    """JSON text form, for tensors with at most 1e4 entries."""
    arr, k, n = _as_array(x)
    if arr.size > _JSON_MAX_ENTRIES:
        raise SizingError(
            f"JSON form is limited to {_JSON_MAX_ENTRIES} entries, got {arr.size}"
        )
    return json.dumps({"k": k, "n": n, "entries": arr.reshape(-1).tolist()})


def tensor_from_json(text: str) -> DenseTensor:
    """Inverse of ``tensor_to_json``; malformed input raises ContractError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractError(f"tensor JSON is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ContractError("tensor JSON must be an object with fields 'k', 'n', 'entries'")
    for field in ("k", "n", "entries"):
        if field not in obj:
            raise ContractError(f"tensor JSON is missing field {field!r}")
    for field in ("k", "n"):
        if type(obj[field]) is not int:
            raise ContractError(f"tensor JSON field {field!r} must be an integer, got {obj[field]!r}")
    try:
        entries = np.asarray(obj["entries"], dtype=object)
        if any(v is None for v in entries.flat):  # float64 would read null as NaN
            raise ValueError("null entry")
        entries = entries.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"tensor JSON field 'entries' must be a list of numbers: {exc}") from None
    return DenseTensor(entries, order=obj["k"], dim=obj["n"])
