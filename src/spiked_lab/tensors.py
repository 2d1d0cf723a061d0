"""Dense and symmetric tensors, with the handful of multilinear operations
the rest of the package is built on.

Tensors are immutable: the wrapped numpy array is marked read-only at
construction. Entries are stored flat in row-major (C) order, so the flat
index of (i_1, ..., i_k) is i_1 * n^(k-1) + ... + i_k.

Symmetric tensors are *exactly* symmetric, bit for bit. One private kernel,
``_symmetric``, builds scale * Sym(G) + strength * v^(tensor k) for
``symmetrize``, ``outer_power`` and the symmetric samplers: each value is
computed once, at the sorted representative of its index orbit, and copied
to the rest of the orbit, so permuting indices cannot change the last ulp.
The spike alone is built one order at a time, each entry's coordinates
multiplied in sorted index order, with no orbit enumerated.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, SizingError, _check_count, _shown

DEFAULT_ENTRY_BUDGET = 10**8
# The most axes an array may have under numpy 1.x (numpy 2 allows 64), and the
# highest order symmetrize and the symmetric samplers take.
_MAX_ORDER = 32
_MAX_SYM_ORDER = 10

_MAGIC = b"SPKT"
_HEADER = struct.Struct("<4sIII")  # magic, k, n, format version
_FORMAT_VERSION = 1
_JSON_MAX_ENTRIES = 10**4

# Source indices per block of a large symmetric tensor, the size (entries plus
# sources) up to which a shape's plan is cached, and the reads of g per step in
# a block of at most half as many representatives.
_ORBIT_BLOCK_SOURCES = 1 << 18
_ORBIT_PLAN_LIMIT = 1 << 22
_READ_CHUNK = 1 << 12

# Entries of X . u^(k-1) computed at once, one n^(k-1) row per direction: the
# likelihood ratio's directions and the power iteration's restarts are
# blocked by it.
_BLOCK_ENTRIES = 1 << 16
# Tensor entries the power iteration copies onto one stack of trials at most;
# a single trial is never copied.
_STACK_ENTRIES = 1 << 20

# Side of the square tiles the k = 2 kernel walks: a pair of them stays in cache.
_FOLD_TILE = 128

# The relative change of |<X, u^k>| at which a power-iteration restart stops.
_POWER_TOL = 1e-12


def _check_budget(dim: int, order: int) -> int:
    if order > _MAX_ORDER:
        raise SizingError(f"tensor order k={_shown(order)} exceeds the {_MAX_ORDER} axes an array may have")
    # for n >= 2 this order alone gives 2^k > budget; n^k itself could take
    # minutes to form and has too many digits to print
    if dim > 1 and order >= DEFAULT_ENTRY_BUDGET.bit_length() or dim**order > DEFAULT_ENTRY_BUDGET:
        raise SizingError(
            f"tensor with n={_shown(dim)}, k={_shown(order)} exceeds the entry budget {DEFAULT_ENTRY_BUDGET}"
        )
    return dim**order


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class DenseTensor:
    """Order-k tensor over R^n with flat row-major float64 storage."""

    __slots__ = ("order", "dim", "array")

    def __init__(self, array, order=None, dim=None):
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
        count = _check_budget(dim, order)
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

    The invariance is exact: the array must equal (==) each of its k - 1
    adjacent index transposes, which generate all k! permutations, so a NaN
    entry is refused at k >= 2. ``check=False`` skips verification and is
    reserved for internal constructors that guarantee symmetry by
    construction.
    """

    def __init__(self, array, order=None, dim=None, *, check=True):
        super().__init__(array, order, dim)
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
        if not abs(norm - 1.0) <= self.NORM_TOL:  # a NaN norm fails too
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


def _fold(n: int, g, scale: float, strength: float, v) -> np.ndarray:
    """The k = 2 kernel: overwrite g with scale (g + g^T)/2 + strength v v^T.

    Walks the upper-triangular tile pairs (I, J), so memory beyond g is a few
    tiles. Halving is exact, so (a + b) * (scale/2) equals scale * ((a + b)/2)
    bit for bit, and (i, j) and (j, i) hold the same sum: exactly symmetric.
    """
    half_scale = scale / 2.0
    for lo in range(0, n, _FOLD_TILE):
        rows = slice(lo, lo + _FOLD_TILE)
        for lo2 in range(lo, n, _FOLD_TILE):
            cols = slice(lo2, lo2 + _FOLD_TILE)
            a, b = g[rows, cols], g[cols, rows]
            np.multiply(a + b.T, half_scale, out=a)
            if strength != 0.0:
                a += strength * np.multiply.outer(v[rows], v[cols])
            if lo2 != lo:
                b[...] = a.T
    return g


def _spike(n: int, k: int, strength: float, v) -> np.ndarray:
    """strength * v^(tensor k), each entry's coordinates multiplied in sorted index
    order, built up one order at a time with no orbit enumerated: entry (p, a) is
    entry p times v_a if a is at least p's largest index ``top``, else entry
    (rest, a) times v_top, where ``rest`` is p without one copy of ``top``."""
    a = np.arange(n)
    out, top, rest = v, a, np.zeros(n, dtype=np.intp)
    for m in range(2, k + 1):
        last = a >= top[:, None]
        prev, out = out.reshape(-1), out.reshape(-1, n)[rest]
        out *= v[top][:, None]
        np.multiply(prev[:, None], v, out=out, where=last)
        if m < k:
            top = np.maximum(top[:, None], a).reshape(-1)
            rest = np.where(last, np.arange(prev.size)[:, None], rest[:, None] * n + a).reshape(-1)
    out *= strength
    return out.reshape((n,) * k)


def _orbit_blocks(n: int, k: int, per_block: int):
    """The orbits of an order-k tensor, ``per_block`` at a time, as ``(multi, sources)``.

    ``multi`` holds the sorted multi-indices as columns, in the order
    ``itertools.combinations_with_replacement`` yields them. Row p of the
    ``sources`` arrays, taken in turn, is the flat index ``transpose(p)`` reads
    at each, in ``itertools.permutations`` order; so a column's sources are its
    orbit. An array holds the (at most 8!) permutations sharing their first
    h = k - 8 entries, the head. Past the head, tail permutation t puts the
    sorted coordinates m_0 <= ... <= m_7 at strides s_(t_0), ..., s_(t_7), and
    sum_j s_(t_j) m_j is the sum over v = 1..n-1 of the s_(t_j) with j >= c_v,
    c_v the count of m_j below v. Each of those is one lookup, by the set of t's
    entries from column c_v on, in the 256 subset sums of the strides the head
    leaves: the sets and sums are built once per call, and the orderings of a
    head share the lookups.
    """
    strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    tail = np.array(list(itertools.permutations(range(min(k, 8)))), dtype=np.intp)
    reps = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(n), k))
    total = math.comb(n + k - 1, k)
    blocks = (
        np.fromiter(reps, np.int64, min(per_block, total - lo) * k).reshape(-1, k).T
        for lo in range(0, total, per_block)
    )
    if k <= 8:
        for multi in blocks:
            yield multi, (strides[tail] @ multi,)
        return
    h = k - 8
    # bit i of suffix[c, p] is set when tail row p holds i in a column >= c; c = 8 is empty
    suffix = np.zeros((9, tail.shape[0]), dtype=np.uint8)
    suffix[:8] = np.cumsum(1 << tail[:, ::-1], axis=1)[:, ::-1].T
    del tail
    subsets = (np.arange(256)[:, None] >> np.arange(8)) & 1
    sums = {
        head: subsets @ strides[[i for i in range(k) if i not in head]]
        for head in itertools.combinations(range(k), h)
    }
    for multi in blocks:
        cuts = (multi[h:, None] < np.arange(1, n)[:, None]).sum(axis=0)  # c_v per column
        picks = suffix[cuts].astype(np.intp)
        pairs = []
        for head, table in sums.items():
            tail_sum = table[picks].sum(axis=0).T
            pairs += [(p, strides[list(p)] @ multi[:h] + tail_sum) for p in itertools.permutations(head)]
        yield multi, tuple(src for _, src in sorted(pairs, key=lambda pair: pair[0]))


@lru_cache(maxsize=32)
def _orbit_plan(n: int, k: int):
    """The whole tensor as one block of ``_orbit_blocks``, plus ``back``: the
    column of each flat position's representative."""
    multi, sources = next(_orbit_blocks(n, k, math.comb(n + k - 1, k)))
    back = np.empty(n**k, dtype=np.int64)
    for src in sources:
        back[src] = np.arange(multi.shape[1])
    for arr in (multi, back, *sources):
        arr.flags.writeable = False  # shared by every caller
    return multi, sources, back


def _orbit_values(flat, multi, sources, k: int, scale: float, strength: float, v) -> np.ndarray:
    """scale * Sym(g) + strength * v^(tensor k) at the sorted multi-indices ``multi``,
    for g's flat entries ``flat``: the k! reads added one by one in ``sources``
    order, divided by k!, then scaled, plus the spike's coordinates multiplied in
    sorted index order."""
    step = _READ_CHUNK // multi.shape[1]
    acc = None
    for src in sources:
        if step < 2:  # wide rows, one at a time
            for row in src:
                acc = flat[row] if acc is None else np.add(acc, flat[row], out=acc)
        else:  # narrow rows, about _READ_CHUNK reads a call
            for lo in range(0, len(src), step):
                reads = flat[src[lo:lo + step]]
                if acc is not None:
                    reads[0] += acc
                acc = np.add.accumulate(reads)[-1]
    acc /= math.factorial(k)
    acc *= scale
    if strength != 0.0:
        spike = v[multi[0]]
        for row in multi[1:]:
            spike *= v[row]
        spike *= strength
        acc += spike
    return acc


def _symmetric(n: int, k: int, g=None, scale=1.0, strength=0.0, v=None) -> np.ndarray:
    """scale * Sym(g) + strength * v^(tensor k), exactly symmetric.

    ``g`` (n^k entries, or None for the spike alone) is overwritten at k = 2
    and read at k >= 3, where k <= 10. There each value is computed once, at
    the sorted-index representative of its orbit, and written to the whole
    orbit: by one gather back from the cached plan for small shapes, otherwise
    in blocks of about ``_ORBIT_BLOCK_SOURCES`` sources. The spike alone needs no orbits.
    """
    if strength != 0.0:
        v = np.asarray(v, dtype=np.float64)
    if g is None:
        return _spike(n, k, strength, v)
    if k == 2:
        return _fold(n, g, scale, strength, v)
    flat = g.reshape(-1)  # one copy at most, if g is not contiguous
    if n**k + math.factorial(k) * math.comb(n + k - 1, k) <= _ORBIT_PLAN_LIMIT:
        multi, sources, back = _orbit_plan(n, k)
        return _orbit_values(flat, multi, sources, k, scale, strength, v)[back].reshape((n,) * k)
    out = np.empty(n**k)
    for multi, sources in _orbit_blocks(n, k, max(1, _ORBIT_BLOCK_SOURCES // math.factorial(k))):
        vals = _orbit_values(flat, multi, sources, k, scale, strength, v)
        for src in sources:
            out[src] = vals
        del sources, src  # k! sources a column at k >= 9: free them before the next block
    return out.reshape((n,) * k)


def _exactly_symmetric(arr: np.ndarray) -> bool:
    """Whether ``arr`` equals (==) its every index transpose: the adjacent
    transpositions (i, i+1) generate all k! of them, so each is checked, one
    leading index j at a time: arr[j] against its own transpose for i >= 1,
    and for (0 1) arr[j, l] against arr[l, j] at l >= j. At k >= 2 every entry
    is compared, so a NaN never passes."""
    for i in range(arr.ndim - 1):
        for j in range(arr.shape[0]):
            a, b = (arr[j, j:], arr[j:, j]) if i == 0 else (arr[j], arr[j].swapaxes(i - 1, i))
            if not np.array_equal(a, b):
                return False
    return True


def outer_power(v: UnitVector | np.ndarray, k: int) -> SymmetricTensor:
    """Rank-one symmetric tensor v^(tensor k): entry (i_1..i_k) = prod_j v_{i_j}."""
    k = _check_count(k, "order", 1)
    coords = v.coords if isinstance(v, UnitVector) else np.asarray(v, dtype=np.float64)
    if coords.ndim != 1:
        raise ContractError("outer_power expects a vector")
    _check_budget(coords.size, k)
    arr = coords if k == 1 else _symmetric(coords.size, k, strength=1.0, v=coords)
    return SymmetricTensor(arr, check=False)


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


def symmetrize(x):
    """Average of all k! index permutations of X.

    Exactly symmetric output; idempotent (a SymmetricTensor is returned
    unchanged). The k! permutations are summed only at the sorted-index
    positions, about n^k/k! of them, and copied to the rest of each orbit.
    The order is capped at 10.
    """
    if isinstance(x, SymmetricTensor):
        return x
    arr, k, n = _as_array(x)
    if k > _MAX_SYM_ORDER:
        raise ContractError(f"symmetrize supports order <= {_MAX_SYM_ORDER}, got k={k}")
    if k == 1:
        return SymmetricTensor(arr.copy(), check=False)
    # the k = 2 kernel folds in place, so it gets a copy
    out = _symmetric(n, k, arr.copy() if k == 2 else arr)
    return SymmetricTensor(out, check=False)


class OperatorNormBound(NamedTuple):
    value: float
    witness: UnitVector


def _contract(arr: np.ndarray, k: int, u: np.ndarray) -> np.ndarray:
    """X_t . u_ti^(k-1) for each row u_ti of ``u`` (trials, rows, n), X_t the
    tensor ``arr[t]``: one stacked matmul per order, which runs on every n x n
    slice the gemv that a 1-d ``X_t @ u_ti`` runs."""
    t, m, n = u.shape
    res = arr[:, None]
    for j in range(k - 1, 0, -1):
        res = (res @ u.reshape((t, m) + (1,) * (j - 1) + (n, 1)))[..., 0]
    return res


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row pair, each by the ddot a 1-d ``a_i @ b_i`` calls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _power_block(arr: np.ndarray, k: int, g: np.ndarray, iters: int):
    """For each trial t (the tensor ``arr[t]``) and restart i started at
    ``g[t, i]``: the best |<X_t, u^k>| and the first u to reach it; 0 and a
    zero row where no value beats 0.

    A restart iterates u <- X . u^(k-1) / |X . u^(k-1)| and leaves after its
    value at its last u: past ``iters`` steps, or once its value changes by at
    most _POWER_TOL relative. A zero start or a zero X . u^(k-1) leaves at
    once, as its last value is the one just seen. All rows step together until
    the last leaves; a row that has left keeps its last u, so it repeats
    products already made, and masks keep it out of every update and every
    division, so no 0/0 is formed.
    """
    best = np.zeros(g.shape[:2])
    witness = np.zeros_like(g)
    norm = np.sqrt(_row_dots(g, g))
    live = norm != 0.0  # the restarts still iterating
    u = np.zeros_like(g)
    np.divide(g, norm[..., None], out=u, where=live[..., None])
    last = np.zeros_like(live)  # rows whose value just seen is their last
    for step in range(iters + 1):
        tu = _contract(arr, k, u)
        val = np.abs(_row_dots(tu, u))
        up = live & (val > best)
        np.copyto(best, val, where=up)
        np.copyto(witness, u, where=up[..., None])
        tn = np.sqrt(_row_dots(tu, tu))
        live &= ~last & (tn != 0.0)
        if not live.any():
            break
        np.divide(tu, tn[..., None], out=u, where=live[..., None])
        if step:
            last = np.abs(val - prev) <= _POWER_TOL * np.maximum(1.0, val)
        prev = val
    return best, witness


def _power_trials(n: int, k: int, restarts: int) -> int:
    """How many trials one stacked power iteration takes: as many whole
    trials' restarts as fit in max(1, 2^16 // n^(k-1)) rows, with their
    tensors in 2^20 entries, and at least one."""
    return max(1, min(_BLOCK_ENTRIES // (restarts * n ** (k - 1)), _STACK_ENTRIES // n**k))


def _unit_bound(value: float, u: np.ndarray, n: int) -> OperatorNormBound:
    """The bound (value, u) with u sign-normalized, or (0, e_1) where no value beat 0."""
    if value == 0.0:
        return OperatorNormBound(0.0, UnitVector.basis(n))
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
    return OperatorNormBound(float(value), UnitVector.normalize(u))


def operator_norm_lb(
    x: SymmetricTensor | Sequence[SymmetricTensor],
    restarts: int = 8,
    iters: int = 200,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> OperatorNormBound | list[OperatorNormBound]:
    """Lower bound on max_{|u|=1} |<X, u^(tensor k)>| by symmetric power iteration.

    Each restart iterates u <- normalize(X . u^(k-1)) and tracks the best
    |<X, u^k>| seen, so the returned value is a certified lower bound (any
    unit u certifies one). Exact on rank-one input after one step. The
    witness is the first u, in restart order, to reach the best value,
    sign-normalized so its first nonzero coordinate is positive.

    ``x`` may also be a list or tuple of same-shape tensors, with ``rng`` a
    list or tuple of one generator each (None gives each its own
    ``default_rng(0)``); then the list of their bounds is returned, each the
    one the tensor gets alone.

    The restarts run together as rows of one stacked iteration, each stopping
    on its own: max(1, 2^16 // n^(k-1)) rows at a time, the restarts of as
    many whole tensors as fit (their entries at most 2^20), or one tensor's
    split into blocks of that many. The start vectors use each generator
    exactly as sequential ``standard_normal(n)`` calls do, and every product
    is the one a restart-by-restart loop over one tensor makes, so each value
    and witness keep its bits.
    """
    single = not isinstance(x, (list, tuple))
    xs = [x] if single else list(x)
    if not xs or not all(isinstance(t, SymmetricTensor) for t in xs):
        raise ContractError("operator_norm_lb expects a SymmetricTensor or a nonempty list of them")
    k, n = xs[0].order, xs[0].dim
    if any((t.order, t.dim) != (k, n) for t in xs):
        raise ContractError("operator_norm_lb takes tensors of one order and dimension at once")
    if single or rng is None:
        rngs = [rng] * len(xs)
    elif isinstance(rng, (list, tuple)) and len(rng) == len(xs):
        rngs = list(rng)
    else:
        raise ContractError(f"operator_norm_lb needs a list of one generator per tensor, for {len(xs)} tensors")
    restarts = _check_count(restarts, "restarts", 1)
    iters = _check_count(iters, "iters", 1)
    if max(restarts, iters) > DEFAULT_ENTRY_BUDGET:
        raise SizingError(f"restarts={restarts}, iters={iters}: each must be at most {DEFAULT_ENTRY_BUDGET}")
    rngs = [np.random.default_rng(0) if r is None else r for r in rngs]
    per_block = min(restarts, max(1, _BLOCK_ENTRIES // n ** (k - 1)))
    trials = _power_trials(n, k, restarts)
    bounds = []
    for lo in range(0, len(xs), trials):
        block = range(lo, min(lo + trials, len(xs)))
        # one tensor is a view; several are stacked on a leading axis
        arr = xs[lo].array[None] if len(block) == 1 else np.stack([xs[t].array for t in block])
        each = np.arange(len(block))
        best_val, best_u = np.zeros(len(block)), np.zeros((len(block), n))
        for r in range(0, restarts, per_block):
            g = np.stack([rngs[t].standard_normal((min(per_block, restarts - r), n)) for t in block])
            best, witness = _power_block(arr, k, g, iters)
            top = np.argmax(best, axis=1)  # each tensor's first restart to reach its best
            top_val = best[each, top]
            up = top_val > best_val
            best_val[up] = top_val[up]
            best_u[up] = witness[each, top][up]
        bounds += [_unit_bound(v, u, n) for v, u in zip(best_val, best_u)]
    return bounds[0] if single else bounds


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


def load_tensor(path) -> DenseTensor:
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
        count = _check_budget(n, k)
        payload = fh.read(8 * count + 8)
        if len(payload) != 8 * count:
            raise ContractError(
                f"payload length {len(payload)} does not match n^k = {count} entries"
            )
    entries = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return DenseTensor(entries, order=k, dim=n)


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
    except (TypeError, ValueError) as exc:  # not text, not UTF-8, or not JSON
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
