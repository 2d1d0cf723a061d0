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
``Generator.standard_normal`` (ziggurat); that choice is frozen.

Within a trial the noise tensor is always drawn before any spike direction,
so a spiked model with strength 0 produces bit-identically the same tensor
as the corresponding pure-noise model under the same key.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, _check_count, _check_order, _finite_number
from .tensors import DenseTensor, SymmetricTensor, UnitVector, outer_power, symmetrize

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
            try:
                members = tuple(int(i) for i in spike)
            except (TypeError, ValueError):
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
            rows = list(spike)
            if len(rows) != self.k or not all(isinstance(r, (list, tuple, np.ndarray)) for r in rows):
                raise ConfigError("spike", f"asymmetric spike must be a list of k={self.k} vectors")
            return tuple(tuple(self._as_unit(r, "spike")) for r in rows)
        raise ConfigError("spike", f"model {self.model!r} does not take a spike")

    def _as_unit(self, values, fieldname):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.n:
            raise ConfigError(fieldname, f"spike vector must have length n={self.n}")
        if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-9:
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
    [-2, 2].
    """
    k = _check_order(k, 10)
    g = rng.standard_normal((n,) * k)
    sym = symmetrize(g)
    return SymmetricTensor(math.sqrt(2.0 / n) * sym.array, check=False)


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
        noise = sample_sym_noise(n, k, rng)
        v = sample_sphere(n, rng) if spec.spike is None else spec.spike
        if strength == 0.0:
            return noise
        return SymmetricTensor(noise.array + strength * outer_power(v, k).array, check=False)
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
    noise = sample_goe(n, rng)
    if U is None:
        members = np.sort(rng.choice(n, size=L, replace=False))
    else:
        members = np.asarray(sorted(int(i) for i in U))
        if members.size != L or (members.size and (members[0] < 0 or members[-1] >= n)):
            raise ContractError("clique member set does not match L or lies outside [0, n)")
        if np.unique(members).size != members.size:
            raise ContractError("clique members must be distinct")
    indicator = np.zeros(n)
    indicator[members] = 1.0
    x = noise.array + np.multiply.outer(indicator, indicator) / math.sqrt(n)
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


def batch_statistics(
    spec: EnsembleSpec,
    trials: int,
    statistic: StatisticFn,
    workers: int = 1,
    context: int = 0,
) -> SampleBatch:
    """Evaluate ``statistic(tensor, spec=..., trial=..., context=...)`` per trial.

    Worker threads partition the trial range; results land in a preallocated
    array indexed by trial, so the outcome is identical for any worker count.
    """
    trials = _check_count(trials, "trials", 1)
    values = np.empty(trials, dtype=np.float64)

    def run_range(lo: int, hi: int):
        for t in range(lo, hi):
            tensor = sample_trial(spec, t, context)
            values[t] = statistic(tensor, spec=spec, trial=t, context=context)

    workers = max(1, int(workers))
    if workers == 1 or trials == 1:
        run_range(0, trials)
    else:
        chunk = (trials + workers - 1) // workers
        ranges = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda r: run_range(*r), ranges))
    return SampleBatch(spec=spec, trials=trials, values=values, context=context)
