"""Random ensembles: sphere vectors, Gaussian orthogonal matrices, symmetric
and asymmetric noise tensors, their rank-one spiked versions, and the planted
clique matrix model.

Reproducibility contract
------------------------
Every trial draws from a counter-based Philox4x64 generator keyed by
``(seed [xor splitmix64(context)], stream << 48 | trial)``. Trials therefore
have independent streams addressed by index, so batches are bit-reproducible
regardless of execution order or worker count, and trial `t` of a batch can
be regenerated in isolation. Gaussians come from numpy's
``Generator.standard_normal`` (ziggurat); that choice is frozen. Statistics
run with the loaded OpenBLAS held to one thread, so their bits depend
neither on the worker count nor, where OpenBLAS is found, on the BLAS
thread count. The ``eig`` statistic's Lanczos iteration starts from a
fixed vector that no trial, worker count or keyword changes. Its steps
come from the loaded OpenBLAS where that exports ``cblas_dsymv`` and the
GIL-held ``cblas_ddot``, ``cblas_daxpy`` and ``cblas_dgemv``, else from
``X @ q`` and numpy's vector calls, and its Ritz pairs from OpenBLAS's
``LAPACKE_dstevx``, else from a dense ``eigh``; its bits depend on which of
these the platform has (the two steps differ by about an ulp a step, and
the values agree within about 1e-15 relative), never on the worker count.
A statistic may take a block of consecutive trials of one spec at once
(``opnorm`` does, one stacked power iteration a block); each trial's value
keeps the bits it has alone, so how the trials fall into blocks, which the
worker count decides, changes no result. Every batch runs through one
evaluator, ``_evaluate``: a non-finite statistic, or an overflow
or invalid operation inside one, is a NumericalFailure naming its trial,
never a value.

Within a trial the noise tensor is always drawn before any spike direction,
so a spiked model with strength 0 produces bit-identically the same tensor
as the corresponding pure-noise model under the same key.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from ._blas import openblas
from .errors import ConfigError, ContractError, NumericalFailure, SizingError
from .errors import _check_count, _check_order, _finite_number, _shown
from .tensors import _MAX_ORDER, _MAX_SYM_ORDER, DEFAULT_ENTRY_BUDGET, DenseTensor, SymmetricTensor, UnitVector
from .tensors import _check_budget, _symmetric

MODELS = ("goe", "sym_noise", "asym_noise", "sym_spiked", "asym_spiked", "hidden_clique")
_SPIKED = ("sym_spiked", "asym_spiked")
_MATRIX_ONLY = ("goe", "hidden_clique")

_M64 = (1 << 64) - 1
_MAX_TRIAL = 1 << 48
# Worker threads one pool may start: far above any core count, far below what
# an operating system refuses.
_MAX_WORKERS = 1024

# Sub-stream tags within a trial.
STREAM_SAMPLE = 0
STREAM_TEST = 2


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; used to fold context into seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def trial_key(seed: int, trial: int, stream: int = STREAM_SAMPLE, context: int = 0) -> tuple[int, int]:
    """The two 64-bit Philox key words for a (seed, trial, stream, context) cell."""
    if not 0 <= trial < _MAX_TRIAL:
        raise ContractError(f"trial index must be in [0, 2^48), got {trial}")
    if not 0 <= stream < (1 << 16):
        raise ContractError(f"stream tag must be in [0, 2^16), got {stream}")
    word0 = seed & _M64
    if context:
        word0 ^= splitmix64(context & _M64)
    word1 = (stream << 48) | trial
    return word0, word1


def trial_rng(seed: int, trial: int = 0, stream: int = STREAM_SAMPLE, context: int = 0) -> np.random.Generator:
    """Counter-based generator for one trial; independent of all other trials."""
    w0, w1 = trial_key(seed, trial, stream, context)
    return np.random.Generator(np.random.Philox(key=np.array([w0, w1], dtype=np.uint64)))


def sub_seed_hex(seed: int, trial: int, stream: int = STREAM_SAMPLE, context: int = 0) -> str:
    """Printable per-trial sub-seed (the Philox key words, hex)."""
    w0, w1 = trial_key(seed, trial, stream, context)
    return f"{w0:016x}:{w1:016x}"


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one sampling distribution.

    ``strength`` is the spike size: beta for symmetric models, lambda for
    asymmetric ones, and the clique size L for ``hidden_clique`` (where the
    induced spike is beta = L/sqrt(n)). ``spike`` optionally pins the planted
    structure: a unit vector (list of n floats) for ``sym_spiked``, a list of
    k unit vectors for ``asym_spiked``, or the clique index set U for
    ``hidden_clique``.
    """

    model: str
    n: int
    k: int = 2
    strength: float = 0.0
    spike: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError("model", f"unknown model {self.model!r}; expected one of {MODELS}")
        if type(self.n) is not int or self.n < 1:
            raise ConfigError("n", f"dimension must be a positive integer, got {_shown(self.n)}")
        if type(self.k) is not int or self.k < 2:
            raise ConfigError("k", f"order must be an integer >= 2, got {_shown(self.k)}")
        if self.model in _MATRIX_ONLY and self.k != 2:
            raise ConfigError("k", f"model {self.model!r} is a matrix model; k must be 2")
        if self.model in ("sym_noise", "sym_spiked") and self.k > _MAX_SYM_ORDER:
            raise ConfigError("k", f"model {self.model!r} supports order k <= {_MAX_SYM_ORDER}, got {_shown(self.k)}")
        try:
            _check_budget(self.n, self.k)
        except SizingError as exc:  # refused before any draw, not as a failed allocation
            raise ConfigError("k" if self.k > _MAX_ORDER else "n", str(exc)) from None
        if _finite_number(self.strength, "strength") < 0:
            raise ConfigError("strength", f"strength must be >= 0, got {self.strength}")
        if type(self.seed) is not int or not 0 <= self.seed <= _M64:
            raise ConfigError("seed", f"seed must be a 64-bit unsigned integer, got {_shown(self.seed)}")
        if self.model == "hidden_clique":
            L = self.strength
            if L != int(L) or int(L) < 1:
                raise ConfigError("strength", f"clique size L must be a positive integer, got {L!r}")
            if int(L) > self.n:
                raise ConfigError("strength", f"clique size L={int(L)} exceeds n={self.n}")
        spike = self.spike
        if spike is not None:
            object.__setattr__(self, "spike", self._normalize_spike(spike))

    def _normalize_spike(self, spike):
        if self.model == "hidden_clique":
            try:
                return _clique_members(spike, int(self.strength), self.n)
            except ContractError as exc:
                raise ConfigError("spike", str(exc)) from None
        if self.model == "sym_spiked":
            vec = self._as_unit(spike, "spike")
            return tuple(vec)
        if self.model == "asym_spiked":
            if not isinstance(spike, (list, tuple, np.ndarray)) or len(spike) != self.k:
                raise ConfigError("spike", f"asymmetric spike must be a list of k={self.k} vectors")
            return tuple(tuple(self._as_unit(r, "spike")) for r in spike)
        raise ConfigError("spike", f"model {self.model!r} does not take a spike")

    def _as_unit(self, values, fieldname):
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):  # ragged, nested or not numbers
            arr = np.empty(0)
        if arr.ndim != 1 or arr.size != self.n:
            raise ConfigError(fieldname, f"spike vector must be a list of n={self.n} numbers")
        if not abs(float(np.linalg.norm(arr)) - 1.0) <= 1e-9:  # a NaN norm fails too
            raise ConfigError(fieldname, "spike vector must have unit norm")
        return arr

    def to_json_dict(self) -> dict:
        """The fields by name; a pinned spike stays a tuple, which JSON writes as a list."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj) -> "EnsembleSpec":
        if not isinstance(obj, dict):
            raise ConfigError("spec", "ensemble spec must be a JSON object")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(min(extra, key=str), "unknown field in ensemble spec")
        for f in fields(cls):
            if f.default is MISSING and f.name not in obj:
                raise ConfigError(f.name, "required field missing from ensemble spec")
        return cls(**obj)


def _clique_members(U, L: int, n: int) -> tuple[int, ...]:
    """The clique vertex set U as a tuple of L distinct indices in [0, n), in the given order."""
    try:  # operator.index refuses 3.9, "1" and np.float64(1.0) rather than rounding them
        members = tuple(operator.index(i) for i in U)
    except TypeError:
        raise ContractError("clique members must be a sequence of vertex indices") from None
    if len(members) != L:
        raise ContractError(f"clique has {len(members)} vertices but L={L}")
    if len(set(members)) != L:
        raise ContractError("clique members must be distinct")
    if members and not (0 <= min(members) and max(members) < n):
        raise ContractError(f"clique members must lie in [0, {n})")
    return members


def sample_sphere(n: int, rng: np.random.Generator) -> UnitVector:
    """Uniform point on the unit sphere of R^n (normalized Gaussian)."""
    n = _check_count(n, "dimension", 1)
    _check_budget(n, 1)
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 0:
            return UnitVector(g / norm)


def sample_sym_noise(n: int, k: int, rng: np.random.Generator) -> SymmetricTensor:
    """Symmetric Gaussian noise: sqrt(2/n) times the symmetrized iid tensor.

    Entries with distinct indices have variance 2/(n k!); for k=2 this is the
    Gaussian orthogonal ensemble normalized so the spectrum converges to
    [-2, 2], folded in place into its own draw.
    """
    n = _check_count(n, "dimension", 1)
    k = _check_order(k, _MAX_SYM_ORDER)
    _check_budget(n, k)
    g = rng.standard_normal((n,) * k)
    return SymmetricTensor(_symmetric(n, k, g, math.sqrt(2.0 / n)), check=False)


def sample_goe(n: int, rng: np.random.Generator) -> SymmetricTensor:
    """GOE matrix: off-diagonal variance 1/n, diagonal variance 2/n."""
    return sample_sym_noise(n, 2, rng)


def sample_asym_noise(n: int, k: int, rng: np.random.Generator) -> DenseTensor:
    """Tensor with iid N(0, 1/n) entries."""
    n = _check_count(n, "dimension", 1)
    k = _check_order(k)
    _check_budget(n, k)
    return DenseTensor(rng.standard_normal((n,) * k) / math.sqrt(n))


def _rank_one(vectors: Sequence[np.ndarray]) -> np.ndarray:
    arr = np.asarray(vectors[0], dtype=np.float64)
    for v in vectors[1:]:
        arr = np.multiply.outer(arr, np.asarray(v, dtype=np.float64))
    return arr


def sample_spiked(spec: EnsembleSpec, rng: np.random.Generator):
    """Draw from a spiked model: strength * rank-one + noise.

    Noise is drawn before the spike direction, so strength 0 reproduces the
    pure-noise tensor bit for bit under the same generator state.
    """
    if spec.model not in _SPIKED:
        raise ConfigError("model", f"sample_spiked needs a spiked model, got {spec.model!r}")
    n, k, strength = spec.n, spec.k, float(spec.strength)
    if spec.model == "sym_spiked":
        k = _check_order(k, _MAX_SYM_ORDER)
        _check_budget(n, k)
        g = rng.standard_normal((n,) * k)
        v = sample_sphere(n, rng).coords if spec.spike is None else spec.spike
        return SymmetricTensor(_symmetric(n, k, g, math.sqrt(2.0 / n), strength, v), check=False)
    noise = sample_asym_noise(n, k, rng)
    if spec.spike is not None:
        vs = [np.asarray(r) for r in spec.spike]
    else:
        vs = [sample_sphere(n, rng).coords for _ in range(k)]
    if strength == 0.0:
        return noise
    return DenseTensor(noise.array + strength * _rank_one(vs))


def sample_hidden_clique(
    n: int, L: int, U: Sequence[int] | None, rng: np.random.Generator
) -> SymmetricTensor:
    """Planted clique surrogate: (1/sqrt(n)) 1_U 1_U^T + GOE noise.

    Equivalent to the symmetric spiked matrix with beta = L/sqrt(n) and spike
    1_U/sqrt(L). U is drawn uniformly over size-L subsets when not given.
    """
    n = _check_count(n, "dimension", 1)
    if _check_count(L, "clique size L", 1) > n:
        raise ContractError(f"clique size must satisfy 1 <= L <= n, got L={_shown(L)}, n={_shown(n)}")
    _check_budget(n, 2)
    pinned = None if U is None else _clique_members(U, L, n)
    x = _symmetric(n, 2, rng.standard_normal((n, n)), math.sqrt(2.0 / n))
    members = np.sort(rng.choice(n, size=L, replace=False)) if pinned is None else np.asarray(pinned)
    x[np.ix_(members, members)] += 1.0 / math.sqrt(n)
    return SymmetricTensor(x, check=False)


def sample_trial(spec: EnsembleSpec, trial: int, context: int = 0):
    """The tensor for one trial of a spec; bit-reproducible per (spec, trial)."""
    rng = trial_rng(spec.seed, trial, STREAM_SAMPLE, context)
    if spec.model == "goe":
        return sample_goe(spec.n, rng)
    if spec.model == "sym_noise":
        return sample_sym_noise(spec.n, spec.k, rng)
    if spec.model == "asym_noise":
        return sample_asym_noise(spec.n, spec.k, rng)
    if spec.model in _SPIKED:
        return sample_spiked(spec, rng)
    if spec.model == "hidden_clique":
        return sample_hidden_clique(spec.n, int(spec.strength), spec.spike, rng)
    raise ConfigError("model", f"unknown model {spec.model!r}")


@dataclass(frozen=True)
class SampleBatch:
    """Per-trial scalar statistics for a spec; sub-seeds are derived on demand."""

    spec: EnsembleSpec
    trials: int
    values: np.ndarray
    context: int = 0

    @property
    def sub_seeds(self) -> tuple[str, ...]:
        return tuple(
            sub_seed_hex(self.spec.seed, t, STREAM_SAMPLE, self.context) for t in range(self.trials)
        )


StatisticFn = Callable[..., float]


@dataclass(frozen=True)
class _BlockStatistic:
    """A statistic that takes consecutive trials of one spec at once.

    ``evaluate(tensors, spec=..., trials=..., context=...)`` returns one value
    per tensor, ``trials`` being the range of their trial indices, and
    ``per_block(spec)`` is how many trials one call takes. Called as a plain
    statistic, on one tensor, it is the block of that one trial.
    """

    evaluate: Callable[..., Sequence[float]]
    per_block: Callable[[EnsembleSpec], int]

    def __call__(self, x, *, spec, trial, context=0, **kw):
        return self.evaluate([x], spec=spec, trials=range(trial, trial + 1), context=context)[0]


def _as_block(statistic) -> _BlockStatistic:
    """``statistic`` as a block statistic: a plain one takes blocks of one trial."""
    if isinstance(statistic, _BlockStatistic):
        return statistic

    def evaluate(tensors, *, trials, **kw):
        return [statistic(x, trial=t, **kw) for x, t in zip(tensors, trials)]

    return _BlockStatistic(evaluate, lambda spec: 1)


def _worker_count(value, field: str | None = None) -> int:
    """``value`` as a worker count: an integer in [1, _MAX_WORKERS], the one check of the ceiling.

    Anything else is a ConfigError on ``field`` (the --threads flag, the
    SPIKED_LAB_THREADS variable) or, with no field, a ContractError on the
    ``workers`` argument.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or not 1 <= value <= _MAX_WORKERS:
        message = f"must be in [1, {_MAX_WORKERS}], got {_shown(value)}"
        raise ContractError(f"workers {message}") if field is None else ConfigError(field, message)
    return int(value)


def _threads_default() -> int:
    """The default worker count: SPIKED_LAB_THREADS, else the CPU count."""
    env = os.environ.get("SPIKED_LAB_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError("SPIKED_LAB_THREADS", f"not an integer: {env!r}") from exc
        return _worker_count(value, "SPIKED_LAB_THREADS")
    return max(1, os.cpu_count() or 1)


def _openblas_threads():
    """The (get, set) thread-count calls of the loaded OpenBLAS, or None where
    none is found (``_blas.openblas``, looked up once, on the first call)."""
    lib = openblas()
    return None if lib is None else (lib.get_threads, lib.set_threads)


class _OneBlasThread:
    """Holds the loaded OpenBLAS to one thread while any pool runs.

    The worker threads are the one level of parallelism: a multi-threaded
    BLAS inside each of them would put more busy threads than cores on the
    machine, and its blocking would make eigenvalue bits depend on the BLAS
    thread count. The count is global to the process, so pools that overlap
    on several Python threads share one hold: the first in saves the count,
    the last out restores it, also when a statistic raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    @contextlib.contextmanager
    def __call__(self):
        """Yields 1 while the hold is in place, or None where no OpenBLAS is found."""
        api = _openblas_threads()
        if api is None:
            yield None
            return
        get, set_ = api
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield 1
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_one_blas_thread = _OneBlasThread()


def _evaluate(jobs: Sequence[tuple], workers: int | None) -> tuple[tuple[SampleBatch, ...], int, int | None]:
    """Evaluate (spec, trials, statistic, context, label) jobs on one pool of worker threads.

    ``workers`` is resolved before any allocation or thread. A trial's value
    is ``statistic(tensor, spec=..., trial=..., context=...)`` on its
    ``sample_trial`` tensor. The (job, trial) cells, in job order, are cut
    into at most ``workers`` contiguous ranges, one per worker thread, and
    each value lands in its job's preallocated array, so the outcome is
    identical for any worker count. A block statistic gets a range's
    consecutive trials of one job ``per_block(spec)`` at a time; any other
    statistic gets one trial at a time. Each call runs with numpy's error
    state, which is per thread, raising on overflow and invalid operations;
    a block that raises that or a NumericalFailure is rerun one trial at a
    time with the same bits. The first failing trial, raising or
    non-finite, is a NumericalFailure worded
    by ``label.format(what, trial)``; a worker stops there, and the failure
    of the lowest range is raised. Returns the batches, the resolved worker
    count and the BLAS hold (1, or None where no OpenBLAS is found).
    """
    workers = _threads_default() if workers is None else _worker_count(workers)
    offsets = list(itertools.accumulate((trials for _, trials, *_ in jobs), initial=0))
    values = [np.empty(trials, dtype=np.float64) for _, trials, *_ in jobs]

    def guarded(statistic, label, tensors, block, **kw) -> list[float]:
        try:
            with np.errstate(over="raise", invalid="raise"):
                out = [float(v) for v in statistic.evaluate(tensors, trials=block, **kw)]
        except (FloatingPointError, NumericalFailure) as exc:
            if len(block) == 1:
                raise NumericalFailure(f"{label.format('failed', block[0])}: {exc}") from exc
            return [v for x, t in zip(tensors, block) for v in guarded(statistic, label, [x], range(t, t + 1), **kw)]
        for t, value in zip(block, out):
            if not math.isfinite(value):
                raise NumericalFailure(label.format(f"is {value!r}", t))
        return out

    def run_range(lo: int, hi: int):
        for (spec, trials, statistic, context, label), start, out in zip(jobs, offsets, values):
            statistic = _as_block(statistic)
            first, stop = max(lo - start, 0), min(hi - start, trials)
            size = statistic.per_block(spec)
            for b in range(first, stop, size):
                block = range(b, min(b + size, stop))
                tensors = [sample_trial(spec, t, context) for t in block]
                out[block.start:block.stop] = guarded(statistic, label, tensors, block, spec=spec, context=context)
                del tensors  # else they stay alive while the next block is drawn: one more n x n matrix a worker

    cells = offsets[-1]
    chunk = -(-cells // workers)
    ranges = [(lo, min(lo + chunk, cells)) for lo in range(0, cells, chunk)]
    with _one_blas_thread() as blas, ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        list(pool.map(lambda r: run_range(*r), ranges))
    batches = tuple(
        SampleBatch(spec=spec, trials=trials, values=out, context=context)
        for (spec, trials, _, context, _), out in zip(jobs, values)
    )
    return batches, workers, blas


def batch_statistics(
    spec: EnsembleSpec,
    trials: int,
    statistic: StatisticFn,
    workers: int | None = None,
    context: int = 0,
) -> SampleBatch:
    """Evaluate ``statistic(tensor, spec=..., trial=..., context=...)`` per trial.

    Worker threads partition the trial range; results land in a preallocated
    array indexed by trial, so the outcome is identical for any worker count.
    ``workers`` defaults to SPIKED_LAB_THREADS, else the CPU count. More than
    the entry budget of trials is a SizingError, raised before any allocation.
    A non-finite statistic, or an overflow or invalid operation inside one,
    is a NumericalFailure naming the trial (``_evaluate``), never a value.
    """
    trials = _check_count(trials, "trials", 1)
    if trials > DEFAULT_ENTRY_BUDGET:
        raise SizingError(f"trials={trials} exceeds the entry budget {DEFAULT_ENTRY_BUDGET}")
    (batch,), _, _ = _evaluate([(spec, trials, statistic, context, "statistic {} at trial {}")], workers)
    return batch
