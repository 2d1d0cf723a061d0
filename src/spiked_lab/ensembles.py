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
thread count.

Within a trial the noise tensor is always drawn before any spike direction,
so a spiked model with strength 0 produces bit-identically the same tensor
as the corresponding pure-noise model under the same key.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, SizingError, _check_count, _check_order, _finite_number
from .tensors import DenseTensor, SymmetricTensor, UnitVector, _check_budget, _symmetric

MODELS = ("goe", "sym_noise", "asym_noise", "sym_spiked", "asym_spiked", "hidden_clique")
_SPIKED = ("sym_spiked", "asym_spiked")
_MATRIX_ONLY = ("goe", "hidden_clique")

_M64 = (1 << 64) - 1
_MAX_TRIAL = 1 << 48

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
            raise ConfigError("n", f"dimension must be a positive integer, got {self.n!r}")
        if type(self.k) is not int or self.k < 2:
            raise ConfigError("k", f"order must be an integer >= 2, got {self.k!r}")
        if self.model in _MATRIX_ONLY and self.k != 2:
            raise ConfigError("k", f"model {self.model!r} is a matrix model; k must be 2")
        try:
            _check_budget(self.n, self.k)
        except SizingError as exc:  # refused before any draw, not as a failed allocation
            raise ConfigError("n", str(exc)) from None
        if _finite_number(self.strength, "strength") < 0:
            raise ConfigError("strength", f"strength must be >= 0, got {self.strength}")
        if type(self.seed) is not int or not 0 <= self.seed <= _M64:
            raise ConfigError("seed", f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
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
            try:  # operator.index refuses 1.5, "3" and inf rather than rounding them
                members = tuple(operator.index(i) for i in spike)
            except TypeError:
                raise ConfigError("spike", "clique spike must be a list of vertex indices") from None
            if len(members) != int(self.strength):
                raise ConfigError("spike", f"clique has {len(members)} vertices but L={int(self.strength)}")
            if len(set(members)) != len(members):
                raise ConfigError("spike", "clique vertices must be distinct")
            if members and not (0 <= min(members) and max(members) < self.n):
                raise ConfigError("spike", f"clique vertices must lie in [0, {self.n})")
            return members
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
        spike = self.spike
        if spike is not None and self.model in _SPIKED:
            spike = [list(r) for r in spike] if self.model == "asym_spiked" else list(spike)
        elif spike is not None:
            spike = list(spike)
        return {
            "model": self.model,
            "n": self.n,
            "k": self.k,
            "strength": self.strength,
            "spike": spike,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj) -> "EnsembleSpec":
        if not isinstance(obj, dict):
            raise ConfigError("spec", "ensemble spec must be a JSON object")
        known = {"model", "n", "k", "strength", "spike", "seed"}
        extra = set(obj) - known
        if extra:
            raise ConfigError(sorted(extra)[0], "unknown field in ensemble spec")
        for required in ("model", "n"):
            if required not in obj:
                raise ConfigError(required, "required field missing from ensemble spec")
        return cls(
            model=obj["model"],
            n=obj["n"],
            k=obj.get("k", 2),
            strength=obj.get("strength", 0.0),
            spike=obj.get("spike"),
            seed=obj.get("seed", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "EnsembleSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("spec", f"invalid JSON: {exc}") from None
        return cls.from_json_dict(obj)


def sample_sphere(n: int, rng: np.random.Generator) -> UnitVector:
    """Uniform point on the unit sphere of R^n (normalized Gaussian)."""
    n = _check_count(n, "dimension", 1)
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
    k = _check_order(k, 10)
    g = rng.standard_normal((n,) * k)
    return SymmetricTensor(_symmetric(n, k, g, math.sqrt(2.0 / n)), check=False)


def sample_goe(n: int, rng: np.random.Generator) -> SymmetricTensor:
    """GOE matrix: off-diagonal variance 1/n, diagonal variance 2/n."""
    return sample_sym_noise(n, 2, rng)


def sample_asym_noise(n: int, k: int, rng: np.random.Generator) -> DenseTensor:
    """Tensor with iid N(0, 1/n) entries."""
    k = _check_order(k)
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
        k = _check_order(k, 10)
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
    if not 1 <= L <= n:
        raise ContractError(f"clique size must satisfy 1 <= L <= n, got L={L}, n={n}")
    x = _symmetric(n, 2, rng.standard_normal((n, n)), math.sqrt(2.0 / n))
    if U is None:
        members = np.sort(rng.choice(n, size=L, replace=False))
    else:
        members = np.asarray(sorted(int(i) for i in U))
        if members.size != L or (members.size and (members[0] < 0 or members[-1] >= n)):
            raise ContractError("clique member set does not match L or lies outside [0, n)")
        if np.unique(members).size != members.size:
            raise ContractError("clique members must be distinct")
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


def _threads_default() -> int:
    """The default worker count: SPIKED_LAB_THREADS, else the CPU count."""
    env = os.environ.get("SPIKED_LAB_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError("SPIKED_LAB_THREADS", f"not an integer: {env!r}") from exc
        if value < 1:
            raise ConfigError("SPIKED_LAB_THREADS", f"must be >= 1, got {value}")
        return value
    return max(1, os.cpu_count() or 1)


def _resolve_workers(workers: int | None) -> int:
    """``workers`` checked as an integer >= 1; None means ``_threads_default()``."""
    return _threads_default() if workers is None else _check_count(workers, "workers", 1)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of the loaded OpenBLAS, or None where none is found.

    Looked up on the first call, not at import: the mapped libraries are read
    from /proc/self/maps and opened with ctypes. Other BLAS libraries (MKL,
    Accelerate) and systems without /proc give None.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


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


def _evaluate(jobs: Sequence[tuple], workers: int) -> tuple[tuple[SampleBatch, ...], int | None]:
    """Evaluate (spec, trials, statistic, context) jobs on one pool of worker threads.

    A trial's value is ``statistic(tensor, spec=..., trial=..., context=...)``
    on its ``sample_trial`` tensor. The (job, trial) cells, in job order,
    are cut into at most ``workers`` contiguous ranges, one per worker
    thread, and each value lands in its job's preallocated array, so the
    outcome is identical for any worker count. The serial case is one range.
    A worker stops at its first failing cell, and the failure of the lowest
    range is raised. Returns the batches and the BLAS hold (1, or None where
    no OpenBLAS is found).
    """
    offsets = list(itertools.accumulate((trials for _, trials, _, _ in jobs), initial=0))
    values = [np.empty(trials, dtype=np.float64) for _, trials, _, _ in jobs]

    def run_range(lo: int, hi: int):
        for (spec, trials, statistic, context), start, out in zip(jobs, offsets, values):
            for t in range(max(lo - start, 0), min(hi - start, trials)):
                tensor = sample_trial(spec, t, context)
                out[t] = statistic(tensor, spec=spec, trial=t, context=context)

    cells = offsets[-1]
    chunk = -(-cells // workers)
    ranges = [(lo, min(lo + chunk, cells)) for lo in range(0, cells, chunk)]
    with _one_blas_thread() as blas, ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        list(pool.map(lambda r: run_range(*r), ranges))
    batches = tuple(
        SampleBatch(spec=spec, trials=trials, values=out, context=context)
        for (spec, trials, _, context), out in zip(jobs, values)
    )
    return batches, blas


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
    ``workers`` defaults to SPIKED_LAB_THREADS, else the CPU count.
    """
    trials = _check_count(trials, "trials", 1)
    (batch,), _ = _evaluate([(spec, trials, statistic, context)], _resolve_workers(workers))
    return batch
