import dataclasses
import itertools
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from spiked_lab import tensors as tensors_mod
from spiked_lab.ensembles import (
    MODELS,
    STREAM_SAMPLE,
    STREAM_TEST,
    EnsembleSpec,
    _threads_default,
    batch_statistics,
    sample_asym_noise,
    sample_goe,
    sample_hidden_clique,
    sample_sphere,
    sample_spiked,
    sample_sym_noise,
    sample_trial,
    sub_seed_hex,
    trial_key,
    trial_rng,
)
from spiked_lab.errors import ConfigError, ContractError, NumericalFailure, SizingError
from spiked_lab.inference import make_statistic
from spiked_lab.tensors import SymmetricTensor, outer_power


# --- seeding scheme ---------------------------------------------------------


def test_trial_key_is_deterministic_and_injective_over_trials():
    keys = {trial_key(3, t) for t in range(2000)}
    assert len(keys) == 2000
    assert trial_key(3, 7) == trial_key(3, 7)


def test_trial_key_separates_streams_and_contexts():
    base = trial_key(5, 1, STREAM_SAMPLE, 0)
    assert trial_key(5, 1, STREAM_TEST, 0) != base
    assert trial_key(5, 1, STREAM_SAMPLE, 9) != base
    # context 0 leaves the seed word untouched
    assert trial_key(5, 1, STREAM_SAMPLE, 0)[0] == 5


def test_trial_key_bounds():
    with pytest.raises(ContractError):
        trial_key(0, 1 << 48)
    with pytest.raises(ContractError):
        trial_key(0, 0, stream=1 << 16)
    # seeds wrap into 64 bits rather than erroring
    assert trial_key(1 << 64, 0) == trial_key(0, 0)


def test_sub_seed_hex_format():
    s = sub_seed_hex(11, 2)
    w0, w1 = s.split(":")
    assert len(w0) == len(w1) == 16
    assert int(w0, 16) == 11
    assert int(w1, 16) == 2


def test_trial_rng_streams_are_reproducible():
    a = trial_rng(1, 5).standard_normal(4)
    b = trial_rng(1, 5).standard_normal(4)
    c = trial_rng(1, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- spec validation --------------------------------------------------------


def test_spec_rejects_unknown_model():
    with pytest.raises(ConfigError):
        EnsembleSpec(model="wishart", n=10)


@pytest.mark.parametrize("field", ["n", "k", "seed"])
def test_spec_rejects_bool_integers(field):
    kwargs = {"model": "sym_noise", "n": 5, "k": 3, field: True}
    with pytest.raises(ConfigError) as err:
        EnsembleSpec(**kwargs)
    assert err.value.field == field


def test_spec_goe_requires_k2():
    with pytest.raises(ConfigError) as err:
        EnsembleSpec(model="goe", n=10, k=3)
    assert "k" in str(err.value)


def test_spec_clique_size_bounds():
    EnsembleSpec(model="hidden_clique", n=16, strength=4)
    with pytest.raises(ConfigError):
        EnsembleSpec(model="hidden_clique", n=16, strength=17)
    with pytest.raises(ConfigError):
        EnsembleSpec(model="hidden_clique", n=16, strength=0)
    with pytest.raises(ConfigError):
        EnsembleSpec(model="hidden_clique", n=16, strength=2.5)


def test_spec_clique_member_list():
    EnsembleSpec(model="hidden_clique", n=10, strength=3, spike=(0, 4, 9))
    with pytest.raises(ConfigError):  # wrong length
        EnsembleSpec(model="hidden_clique", n=10, strength=3, spike=(0, 4))
    with pytest.raises(ConfigError):  # duplicate
        EnsembleSpec(model="hidden_clique", n=10, strength=3, spike=(0, 4, 4))
    with pytest.raises(ConfigError):  # out of range
        EnsembleSpec(model="hidden_clique", n=10, strength=3, spike=(0, 4, 10))
    for members in ((0, 4, 1.5), (0, 4, float("inf")), (0, 4, "9")):  # not rounded or parsed
        with pytest.raises(ConfigError):
            EnsembleSpec(model="hidden_clique", n=10, strength=3, spike=members)


def test_spec_sym_spike_must_be_unit_norm():
    v = tuple([1.0] + [0.0] * 7)
    EnsembleSpec(model="sym_spiked", n=8, k=3, strength=1.0, spike=v)
    with pytest.raises(ConfigError):
        EnsembleSpec(model="sym_spiked", n=8, k=3, strength=1.0, spike=tuple([0.7] * 8))
    with pytest.raises(ConfigError):  # wrong length
        EnsembleSpec(model="sym_spiked", n=8, k=3, strength=1.0, spike=(1.0, 0.0))
    for bad in ((float("nan"),) + v[1:], "", [[1.0], [0.0] * 7], {"a": 1.0}):
        with pytest.raises(ConfigError):  # a NaN norm, or not a list of numbers
            EnsembleSpec(model="sym_spiked", n=8, k=3, strength=1.0, spike=bad)


def test_spec_asym_spike_is_k_unit_vectors():
    e = tuple([1.0] + [0.0] * 5)
    EnsembleSpec(model="asym_spiked", n=6, k=3, strength=1.0, spike=(e, e, e))
    with pytest.raises(ConfigError):
        EnsembleSpec(model="asym_spiked", n=6, k=3, strength=1.0, spike=(e, e))
    for bad in (False, 3, "abc"):
        with pytest.raises(ConfigError):
            EnsembleSpec(model="asym_spiked", n=6, k=3, strength=1.0, spike=bad)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"model": "sym_spiked", "n": 4, "k": 3, "strength": -1.0}, "strength"),
        ({"model": "goe", "n": 4, "spike": (1.0, 0.0, 0.0, 0.0)}, "spike"),
    ],
    ids=["negative-strength", "spike-on-goe"],
)
def test_spec_refuses_a_negative_strength_and_a_spike_without_a_spiked_model(kwargs, field):
    with pytest.raises(ConfigError) as info:
        EnsembleSpec(**kwargs)
    assert info.value.field == field


def test_sample_spiked_refuses_a_model_without_a_spike():
    with pytest.raises(ConfigError) as info:
        sample_spiked(EnsembleSpec(model="sym_noise", n=4, k=3), NoDraws())
    assert info.value.field == "model"


@pytest.mark.parametrize("model", ["sym_noise", "asym_noise", "sym_spiked", "asym_spiked"])
def test_spec_refuses_tensors_over_the_entry_budget(model):
    with pytest.raises(ConfigError) as info:
        EnsembleSpec(model=model, n=100000, k=3)
    assert info.value.field == "n"
    assert "entry budget" in str(info.value)
    assert EnsembleSpec(model=model, n=464, k=3).n == 464  # 464^3 < 10^8


@pytest.mark.parametrize(
    "model,n,k",
    [("sym_noise", 2, 11), ("sym_spiked", 1, 11), ("asym_noise", 1, 33), ("asym_spiked", 1, 100)],
)
def test_spec_names_the_order_when_the_order_alone_is_refused(model, n, k):
    # the symmetric samplers stop at k = 10, and no array has more than 32 axes
    # under numpy 1.x; both were refused only inside the draw
    with pytest.raises(ConfigError) as info:
        EnsembleSpec(model=model, n=n, k=k, strength=1.0)
    assert info.value.field == "k"
    assert EnsembleSpec(model="asym_noise", n=1, k=32).k == 32


def test_spec_json_roundtrip_and_strictness():
    spec = EnsembleSpec(model="sym_spiked", n=12, k=3, strength=1.5, seed=9)
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert set(data) == {"model", "n", "k", "strength", "spike", "seed"}
    assert EnsembleSpec.from_json_dict(data) == spec
    with pytest.raises(ConfigError) as info:
        EnsembleSpec.from_json_dict({**data, "extra": 1})
    assert info.value.field == "extra"
    for missing in ("model", "n"):
        with pytest.raises(ConfigError) as info:
            EnsembleSpec.from_json_dict({f: v for f, v in data.items() if f != missing})
        assert info.value.field == missing


_HALF = math.sqrt(0.5)


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(model="goe", n=4, seed=2),
        EnsembleSpec(model="sym_noise", n=3, k=3),
        EnsembleSpec(model="asym_noise", n=3, k=4, seed=2**64 - 1),
        EnsembleSpec(model="sym_spiked", n=2, k=3, strength=1.5),
        EnsembleSpec(model="sym_spiked", n=2, k=3, strength=1.5, spike=[_HALF, _HALF]),
        EnsembleSpec(model="asym_spiked", n=2, k=2, strength=0.5),
        EnsembleSpec(model="asym_spiked", n=2, k=2, strength=0.5, spike=[[_HALF, _HALF], [1, 0]]),
        EnsembleSpec(model="hidden_clique", n=6, strength=3),
        EnsembleSpec(model="hidden_clique", n=6, strength=3.0, spike=[4, 0, 2]),
    ],
    ids=lambda spec: f"{spec.model}{'-pinned' if spec.spike else ''}",
)
def test_every_spec_survives_a_json_round_trip(spec):
    data = spec.to_json_dict()
    assert list(data) == ["model", "n", "k", "strength", "spike", "seed"]
    assert EnsembleSpec.from_json_dict(json.loads(json.dumps(data))) == spec


def test_spec_defaults_from_json():
    spec = EnsembleSpec.from_json_dict({"model": "goe", "n": 5})
    assert spec.k == 2 and spec.strength == 0.0 and spec.seed == 0 and spec.spike is None


# --- samplers ---------------------------------------------------------------


def test_goe_is_exactly_symmetric_and_matches_sym_noise_k2():
    rng = trial_rng(3, 0)
    x = sample_goe(20, rng)
    assert np.array_equal(x.array, x.array.T)
    y = sample_sym_noise(20, 2, trial_rng(3, 0))
    assert np.array_equal(x.array, y.array)


def test_goe_entry_variances():
    """Diagonal entries carry variance 2/n, off-diagonal 1/n."""
    n, trials = 6, 4000
    diag = np.empty((trials, n))
    off = np.empty((trials, n * (n - 1) // 2))
    iu = np.triu_indices(n, 1)
    for t in range(trials):
        x = sample_goe(n, trial_rng(17, t)).array
        diag[t] = np.diag(x)
        off[t] = x[iu]
    assert np.var(diag) * n == pytest.approx(2.0, rel=0.1)
    assert np.var(off) * n == pytest.approx(1.0, rel=0.1)


def test_sym_noise_is_exactly_symmetric_k3():
    x = sample_sym_noise(5, 3, trial_rng(1, 0)).array
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(x, np.transpose(x, perm))


def test_sym_noise_distinct_entry_variance():
    """Entries with all-distinct indices have variance 2/(n k!)."""
    n, k, trials = 5, 3, 6000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = sample_sym_noise(n, k, trial_rng(23, t)).entry(0, 1, 2)
    want = 2.0 / (n * math.factorial(k))
    assert np.var(vals) == pytest.approx(want, rel=0.12)


def test_asym_noise_variance_and_shape():
    n, k, trials = 4, 3, 5000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = sample_asym_noise(n, k, trial_rng(29, t)).entry(0, 1, 2)
    assert np.var(vals) == pytest.approx(1.0 / n, rel=0.12)


def test_sphere_sampler_unit_norm():
    for t in range(20):
        v = sample_sphere(9, trial_rng(31, t))
        assert abs(np.linalg.norm(v.coords) - 1.0) <= 1e-12


def test_zero_strength_spiked_equals_pure_noise_bitwise():
    """Turning the spike off must reproduce the noise draw bit for bit."""
    spiked = sample_trial(EnsembleSpec(model="sym_spiked", n=10, k=3, strength=0.0, seed=5), 2)
    noise = sample_trial(EnsembleSpec(model="sym_noise", n=10, k=3, seed=5), 2)
    assert spiked == noise


def test_sym_spiked_is_noise_plus_rank_one():
    v = tuple([1.0] + [0.0] * 9)
    spec = EnsembleSpec(model="sym_spiked", n=10, k=2, strength=2.0, spike=v, seed=8)
    x = sample_trial(spec, 0)
    z = sample_trial(EnsembleSpec(model="sym_noise", n=10, k=2, seed=8), 0)
    diff = x.array - z.array
    want = 2.0 * outer_power(np.array(v), 2).array
    assert np.allclose(diff, want, atol=1e-12)


def test_asym_spiked_uses_k_independent_directions():
    spec = EnsembleSpec(model="asym_spiked", n=7, k=3, strength=1.3, seed=4)
    x = sample_trial(spec, 1)
    z = sample_trial(EnsembleSpec(model="asym_noise", n=7, k=3, seed=4), 1)
    diff = x.array - z.array
    # rank-one: every 2-d slice along the first axis is proportional
    s0 = diff[0]
    for i in range(1, 7):
        ratio = diff[i][np.abs(s0) > 1e-12] / s0[np.abs(s0) > 1e-12]
        assert np.allclose(ratio, ratio.flat[0], rtol=1e-9)


def test_hidden_clique_adds_indicator_block():
    members = (1, 3, 4)
    spec = EnsembleSpec(model="hidden_clique", n=8, strength=3, spike=members, seed=2)
    x = sample_trial(spec, 0)
    z = sample_trial(EnsembleSpec(model="goe", n=8, seed=2), 0)
    diff = x.array - z.array
    ind = np.zeros(8)
    ind[list(members)] = 1.0
    assert np.allclose(diff, np.outer(ind, ind) / math.sqrt(8), atol=1e-12)


def test_hidden_clique_equals_spiked_with_normalized_indicator():
    """A clique of size L is the symmetric model at strength L/sqrt(n) with
    the normalized indicator as spike, up to floating point."""
    n, members = 9, (0, 2, 5, 7)
    L = len(members)
    clique = sample_trial(
        EnsembleSpec(model="hidden_clique", n=n, strength=L, spike=members, seed=6), 3
    )
    v = np.zeros(n)
    v[list(members)] = 1.0 / math.sqrt(L)
    spiked = sample_trial(
        EnsembleSpec(
            model="sym_spiked", n=n, k=2, strength=L / math.sqrt(n), spike=tuple(v), seed=6
        ),
        3,
    )
    assert np.allclose(clique.array, spiked.array, atol=1e-12)


def test_hidden_clique_random_membership_size():
    spec = EnsembleSpec(model="hidden_clique", n=30, strength=6, seed=1)
    x = sample_trial(spec, 0).array
    z = sample_trial(EnsembleSpec(model="goe", n=30, seed=1), 0).array
    bump = (x - z) * math.sqrt(30)
    members = np.nonzero(np.abs(np.diag(bump)) > 0.5)[0]
    assert members.size == 6
    ind = np.zeros(30)
    ind[members] = 1.0
    assert np.allclose(bump, np.outer(ind, ind), atol=1e-9)


def test_all_models_sample_without_error():
    for model in MODELS:
        kwargs = {"model": model, "n": 6, "seed": 0}
        if model in ("sym_noise", "sym_spiked"):
            kwargs["k"] = 3
        if model in ("asym_noise", "asym_spiked"):
            kwargs["k"] = 3
        if model in ("sym_spiked", "asym_spiked"):
            kwargs["strength"] = 1.0
        if model == "hidden_clique":
            kwargs["strength"] = 2
        x = sample_trial(EnsembleSpec(**kwargs), 0)
        assert x.dim == 6


def test_sample_trial_reproducible():
    spec = EnsembleSpec(model="sym_spiked", n=8, k=3, strength=1.2, seed=13)
    assert sample_trial(spec, 4) == sample_trial(spec, 4)
    assert sample_trial(spec, 4) != sample_trial(spec, 5)
    assert sample_trial(spec, 4, context=1) != sample_trial(spec, 4)


def test_spiked_samples_are_symmetric_tensors():
    spec = EnsembleSpec(model="sym_spiked", n=6, k=3, strength=1.5, seed=3)
    x = sample_trial(spec, 0)
    assert isinstance(x, SymmetricTensor)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(x.array, np.transpose(x.array, perm))


class NoDraws:
    """A generator that fails the test when any normal is drawn."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("normals were drawn before the shape was checked")


def resized(spec: EnsembleSpec, n: int) -> EnsembleSpec:
    """``spec`` with its dimension changed after the spec's own checks ran."""
    object.__setattr__(spec, "n", n)
    return spec


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: sample_sym_noise(465, 3, rng),
        lambda rng: sample_goe(100000, rng),
        lambda rng: sample_asym_noise(465, 3, rng),
        lambda rng: sample_hidden_clique(100000, 1, None, rng),
        lambda rng: sample_spiked(resized(EnsembleSpec(model="sym_spiked", n=4, k=3), 465), rng),
        lambda rng: sample_spiked(resized(EnsembleSpec(model="asym_spiked", n=4, k=3), 465), rng),
    ],
    ids=["sym_noise", "goe", "asym_noise", "hidden_clique", "sym_spiked", "asym_spiked"],
)
def test_samplers_refuse_a_shape_over_the_budget_before_any_draw(draw):
    # sample_sym_noise(465, 3) drew 1.01e8 normals (800 MB) before refusing them
    with pytest.raises(SizingError, match="entry budget"):
        draw(NoDraws())


@pytest.mark.parametrize(
    "draw",
    [
        lambda n, rng: sample_sym_noise(n, 3, rng),
        lambda n, rng: sample_goe(n, rng),
        lambda n, rng: sample_asym_noise(n, 3, rng),
        lambda n, rng: sample_hidden_clique(n, 1, None, rng),
    ],
    ids=["sym_noise", "goe", "asym_noise", "hidden_clique"],
)
@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_samplers_refuse_a_dimension_that_is_not_a_positive_integer(draw, n):
    # n = 0 divided by zero in sqrt(2/n); n = -1 reached numpy's negative-dimension
    # error; the clique sampler ended n = 2.5 and True in numpy TypeErrors
    with pytest.raises(ContractError, match="dimension must be an integer >= 1"):
        draw(n, NoDraws())


@pytest.mark.parametrize("L", [0, 2.5, True])
def test_hidden_clique_refuses_a_size_that_is_not_a_positive_integer(L):
    with pytest.raises(ContractError, match="clique size L must be an integer >= 1"):
        sample_hidden_clique(5, L, None, NoDraws())


@pytest.mark.parametrize(
    "members", [[1, 3.9], ["1", 3], [np.float64(1.0), 3], 7], ids=["3.9", "str", "float64", "not-a-list"]
)
def test_hidden_clique_refuses_members_that_are_not_vertex_indices(members):
    # members went through int(), so [1, 3.9] planted the clique on {1, 3}
    with pytest.raises(ContractError, match="clique members must be a sequence of vertex indices"):
        sample_hidden_clique(5, 2, members, trial_rng(0, 0))


@pytest.mark.parametrize(
    "members", [[1, 3.9], 7, [1], [1, 2, 3], [3, 3], [-1, 2], [2, 5]],
    ids=["3.9", "not-a-list", "too-few", "too-many", "repeated", "negative", "past-n"],
)
def test_spec_and_sampler_refuse_a_clique_member_set_alike_before_any_draw(members):
    with pytest.raises(ContractError) as drawn:
        sample_hidden_clique(5, 2, members, NoDraws())
    with pytest.raises(ConfigError) as parsed:
        EnsembleSpec(model="hidden_clique", n=5, strength=2, spike=members)
    assert parsed.value.field == "spike"
    assert str(parsed.value) == f"spike: {drawn.value}"


def test_hidden_clique_takes_integer_members_of_any_integer_type_in_any_order():
    want = sample_hidden_clique(5, 2, [1, 3], trial_rng(0, 0)).array
    got = sample_hidden_clique(5, 2, (np.int64(3), 1), trial_rng(0, 0)).array
    assert got.tobytes() == want.tobytes()


# Sizes around the fold's 128-wide tiles, plus the degenerate ones.
FOLD_SIZES = [1, 2, 127, 128, 129, 300]


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_goe_bits_match_whole_array_composition(n):
    for seed, trial in ((0, 0), (9, 4)):
        g = trial_rng(seed, trial).standard_normal((n, n))
        x = sample_trial(EnsembleSpec(model="goe", n=n, seed=seed), trial).array
        assert x.tobytes() == _oracles.sym_matrix_composed(g).tobytes()


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_sym_spiked_k2_bits_match_whole_array_composition(n):
    pinned = np.cos(np.arange(n) + 0.5)
    pinned /= np.linalg.norm(pinned)
    for strength, spike in ((1.3, None), (0.0, None), (2.5, tuple(pinned)), (0.0, tuple(pinned))):
        rng = trial_rng(4, 1)
        g = rng.standard_normal((n, n))
        v = sample_sphere(n, rng).coords if spike is None else pinned
        spec = EnsembleSpec(model="sym_spiked", n=n, strength=strength, spike=spike, seed=4)
        want = _oracles.sym_matrix_composed(g, strength, v)
        assert sample_trial(spec, 1).array.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_hidden_clique_bits_match_whole_array_composition(n):
    for L, members in ((1, None), ((n + 1) // 2, None), (min(n, 3), (0, n // 2, n - 1)[: min(n, 3)])):
        rng = trial_rng(2, 3)
        g = rng.standard_normal((n, n))
        chosen = np.sort(rng.choice(n, size=L, replace=False)) if members is None else members
        indicator = np.zeros(n)
        indicator[list(chosen)] = 1.0
        want = _oracles.sym_matrix_composed(g, 1.0 / math.sqrt(n), indicator)
        spec = EnsembleSpec(model="hidden_clique", n=n, strength=L, spike=members, seed=2)
        assert sample_trial(spec, 3).array.tobytes() == want.tobytes()


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (5, 3), (30, 3), (2, 4), (7, 4)])
def test_sym_tensor_bits_match_whole_array_composition(monkeypatch, n, k, streamed):
    """k >= 3 noise and spiked draws, on the cached plan and streamed in 7-entry chunks."""
    if streamed:
        monkeypatch.setattr(tensors_mod, "_ORBIT_PLAN_LIMIT", 64)
        monkeypatch.setattr(tensors_mod, "_ORBIT_BLOCK_SOURCES", 7)
    g = trial_rng(4, 1).standard_normal((n,) * k)
    noise = sample_trial(EnsembleSpec(model="sym_noise", n=n, k=k, seed=4), 1).array
    assert noise.tobytes() == _oracles.sym_matrix_composed(g).tobytes()
    pinned = np.cos(np.arange(n) + 0.5)
    pinned /= np.linalg.norm(pinned)
    for strength, spike in ((1.3, None), (0.0, None), (2.5, tuple(pinned)), (0.0, tuple(pinned))):
        rng = trial_rng(4, 1)
        g = rng.standard_normal((n,) * k)
        v = sample_sphere(n, rng).coords if spike is None else pinned
        spec = EnsembleSpec(model="sym_spiked", n=n, k=k, strength=strength, spike=spike, seed=4)
        want = _oracles.sym_matrix_composed(g, strength, v)
        assert sample_trial(spec, 1).array.tobytes() == want.tobytes()


def test_sym_spiked_k3_draw_holds_little_beyond_draw_and_result():
    """Past the warm-up that caches the plan, a k=3 draw peaks below 2.5 draws."""
    n = 30
    spec = EnsembleSpec(model="sym_spiked", n=n, k=3, strength=2.0, seed=1)
    sample_trial(spec, 0)
    tracemalloc.start()
    try:
        sample_trial(spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n**3


def test_goe_sampler_folds_in_place():
    """Beyond its own draw, the sampler allocates only a few tiles."""
    n = 512
    rng = trial_rng(0, 0)
    tracemalloc.start()
    try:
        sample_goe(n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


# --- batching ---------------------------------------------------------------


def frob_stat(tensor, **kw):
    return float(np.linalg.norm(tensor.array))


def test_batch_statistics_worker_count_is_invisible():
    spec = EnsembleSpec(model="goe", n=12, seed=21)
    one = batch_statistics(spec, 23, frob_stat, workers=1)
    four = batch_statistics(spec, 23, frob_stat, workers=4)
    assert np.array_equal(one.values, four.values)
    assert one.sub_seeds == four.sub_seeds


def test_batch_statistics_defaults_to_the_experiment_worker_count(monkeypatch):
    """None means SPIKED_LAB_THREADS, else the CPU count, as for run_experiment."""
    spec = EnsembleSpec(model="goe", n=12, seed=21)
    monkeypatch.setenv("SPIKED_LAB_THREADS", "0")
    with pytest.raises(ConfigError, match="SPIKED_LAB_THREADS"):
        batch_statistics(spec, 2, frob_stat)
    monkeypatch.setenv("SPIKED_LAB_THREADS", "2")
    both = threading.Barrier(2, timeout=30)

    def meet(tensor, **kw):
        both.wait()  # one worker alone would break the barrier
        return frob_stat(tensor)

    batch = batch_statistics(spec, 2, meet)
    assert np.array_equal(batch.values, batch_statistics(spec, 2, frob_stat, workers=1).values)


def test_the_pool_holds_openblas_to_one_thread_and_restores_it(openblas):
    spec = EnsembleSpec(model="goe", n=12, seed=21)
    seen = []

    def record(tensor, **kw):
        seen.append(openblas())
        return 0.0

    batch_statistics(spec, 4, record, workers=2)
    assert seen == [1, 1, 1, 1]
    assert openblas() == 2

    def fail_at_trial_1(tensor, *, trial, **kw):
        if trial == 1:
            raise NumericalFailure("synthetic failure")
        return 0.0

    for workers in (1, 2):
        with pytest.raises(NumericalFailure, match="synthetic"):
            batch_statistics(spec, 4, fail_at_trial_1, workers=workers)
        assert openblas() == 2


def _nan_at_trial_1(tensor, *, trial, **kw):
    return math.nan if trial == 1 else 1.0


def _inf_at_trial_2(tensor, *, trial, **kw):
    return -math.inf if trial == 2 else 1.0


def _overflow_at_trial_2(tensor, *, trial, **kw):
    big = np.float64(1e300 if trial == 2 else 1.0)
    return float(big * big)


def _invalid_at_trial_1(tensor, *, trial, **kw):
    return float(np.float64(math.inf if trial == 1 else 1.0) * 0.0)


REFUSED = [
    (_nan_at_trial_1, "statistic is nan at trial 1"),
    (_inf_at_trial_2, "statistic is -inf at trial 2"),
    (_overflow_at_trial_2, "statistic failed at trial 2: overflow encountered in "),
    (_invalid_at_trial_1, "statistic failed at trial 1: invalid value encountered in "),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("statistic,message", REFUSED, ids=["nan", "inf", "overflow", "invalid"])
def test_batch_statistics_refuses_a_non_finite_statistic_naming_the_trial(statistic, message, workers):
    """A NaN is never handed back as a value (it was: [1, nan, 1, 1]), and no warning escapes."""
    spec = EnsembleSpec(model="goe", n=5, seed=1)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            batch_statistics(spec, 4, statistic, workers=workers)
    assert str(info.value).startswith(message)
    assert np.geterr() == before


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("calm", [0, 3], ids=["every-trial", "from-trial-3"])
def test_an_overflowing_opnorm_block_names_its_first_failing_trial(monkeypatch, workers, calm):
    """``sym_spiked`` at strength 1e300 overflows ``opnorm``'s power iteration.
    The six trials run as one block at one worker; the first ``calm`` are
    drawn at strength 2 instead, so the block is rerun trial by trial."""
    spec = EnsembleSpec(model="sym_spiked", n=6, k=3, strength=1e300, seed=3)
    calm_spec = dataclasses.replace(spec, strength=2.0)

    def sample(spec, trial, context=0):
        return sample_trial(calm_spec if trial < calm else spec, trial, context)

    monkeypatch.setattr("spiked_lab.ensembles.sample_trial", sample)
    statistic = make_statistic("opnorm", {"iters": 20})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            batch_statistics(spec, 6, statistic, workers=workers)
    assert str(info.value).startswith(f"statistic failed at trial {calm}: overflow encountered in ")


@pytest.mark.parametrize("statistic", [_nan_at_trial_1, _overflow_at_trial_2], ids=["nan", "overflow"])
def test_the_blas_count_is_restored_after_a_refused_statistic(openblas, statistic):
    spec = EnsembleSpec(model="goe", n=5, seed=1)
    for workers in (1, 2):
        with pytest.raises(NumericalFailure):
            batch_statistics(spec, 4, statistic, workers=workers)
        assert openblas() == 2


def test_batch_statistics_keeps_finite_values_bit_for_bit():
    """The guard changes no finite value: each is the statistic's own float, at any worker count."""
    spec = EnsembleSpec(model="sym_spiked", n=6, k=3, strength=2.0, seed=5)
    statistic = make_statistic("opnorm", {"iters": 20})
    want = [statistic(sample_trial(spec, t), spec=spec, trial=t) for t in range(7)]
    for workers in (1, 2, 4):
        assert batch_statistics(spec, 7, statistic, workers=workers).values.tolist() == want


def test_default_worker_count_resolution(monkeypatch):
    monkeypatch.delenv("SPIKED_LAB_THREADS", raising=False)
    assert _threads_default() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv("SPIKED_LAB_THREADS", "3")
    assert _threads_default() == 3
    for bad in ("bogus", "0", "-2", "1.5", "1025", "100000"):
        monkeypatch.setenv("SPIKED_LAB_THREADS", bad)
        with pytest.raises(ConfigError) as info:
            _threads_default()
        assert info.value.field == "SPIKED_LAB_THREADS"


def test_batch_statistics_sub_seeds_match_scheme():
    spec = EnsembleSpec(model="goe", n=5, seed=2)
    batch = batch_statistics(spec, 3, frob_stat, context=7)
    assert batch.sub_seeds == tuple(sub_seed_hex(2, t, STREAM_SAMPLE, 7) for t in range(3))


@pytest.mark.parametrize("bad", [0, 2.5, True])
def test_batch_statistics_refuses_bad_trial_counts(bad):
    with pytest.raises(ContractError, match="trials"):
        batch_statistics(EnsembleSpec(model="goe", n=5, seed=2), bad, frob_stat)


def test_batch_statistics_refuses_trials_over_the_entry_budget_before_allocating(no_pool):
    # 10^20 would fail inside np.empty as a ValueError, 3 * 10^14 as a MemoryError
    for trials in (10**8 + 1, 3 * 10**14, 10**20):
        with pytest.raises(SizingError, match="entry budget"):
            batch_statistics(EnsembleSpec(model="goe", n=5, seed=2), trials, frob_stat)


def test_batch_statistics_refuses_more_workers_than_the_ceiling(no_pool, monkeypatch):
    spec = EnsembleSpec(model="goe", n=5, seed=2)
    with pytest.raises(ContractError, match=r"workers must be in \[1, 1024\], got 1025"):
        batch_statistics(spec, 4, frob_stat, workers=1025)
    monkeypatch.setenv("SPIKED_LAB_THREADS", "100000")
    with pytest.raises(ConfigError, match="SPIKED_LAB_THREADS"):
        batch_statistics(spec, 4, frob_stat)


def test_batch_statistics_takes_the_ceiling_itself():
    # one trial is one range, so the largest count starts one thread
    spec = EnsembleSpec(model="goe", n=5, seed=2)
    want = batch_statistics(spec, 1, frob_stat, workers=1).values
    assert np.array_equal(batch_statistics(spec, 1, frob_stat, workers=1024).values, want)


def test_batch_statistics_passes_context_through():
    spec = EnsembleSpec(model="goe", n=5, seed=2)
    a = batch_statistics(spec, 4, frob_stat, context=0)
    b = batch_statistics(spec, 4, frob_stat, context=1)
    assert not np.array_equal(a.values, b.values)


@settings(max_examples=20)
@given(st.integers(0, 2**40), st.integers(0, 1000), st.integers(0, 50))
def test_key_collision_free_across_contexts(seed, trial, context):
    k0 = trial_key(seed, trial, STREAM_SAMPLE, context)
    k1 = trial_key(seed, trial, STREAM_TEST, context)
    assert k0 != k1


@settings(max_examples=20)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_goe_sampler_symmetry_property(n, seed):
    x = sample_goe(n, trial_rng(seed, 0)).array
    assert np.array_equal(x, x.T)
