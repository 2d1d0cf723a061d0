import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiked_lab.ensembles import EnsembleSpec, sample_trial, trial_rng
from spiked_lab.errors import ContractError, SizingError
from spiked_lab.tensors import (
    DenseTensor,
    SymmetricTensor,
    UnitVector,
    frobenius,
    inner,
    load_tensor,
    operator_norm_lb,
    outer_power,
    save_tensor,
    symmetrize,
    tensor_from_json,
    tensor_to_json,
)

import spiked_lab.tensors as tensors_mod
from _oracles import (
    exactly_symmetric_by_transposes,
    operator_norm_lb_sequential,
    orbit_blocks_by_group,
    outer_power_bruteforce,
    outer_power_sorted_product,
    symmetrize_bruteforce,
    symmetrize_transpose_sum,
)


def random_tensor(n, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) * k)


def test_dense_tensor_flat_and_cubic_agree():
    arr = random_tensor(3, 2, 0)
    a = DenseTensor(arr)
    b = DenseTensor(arr.reshape(-1), order=2, dim=3)
    assert a == b
    assert a.shape == (3, 3)
    assert a.n_entries == 9
    assert a.entry(1, 2) == arr[1, 2]
    assert np.array_equal(a.flat(), arr.reshape(-1))


def test_dense_tensor_rejects_bad_shapes():
    with pytest.raises(ContractError):
        DenseTensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        DenseTensor(np.zeros(7), order=2, dim=3)
    with pytest.raises(ContractError):
        DenseTensor(np.zeros(4), order=2)  # flat input needs dim


def test_dense_tensor_immutable():
    t = DenseTensor(np.eye(3))
    with pytest.raises(AttributeError):
        t.dim = 5
    with pytest.raises(ValueError):
        t.array[0, 0] = 2.0


def test_entry_budget_enforced():
    """The fixed 10^8-entry budget, checked before any n^k array exists."""
    assert tensors_mod._check_budget(10**4, 2) == 10**8  # exactly at budget is fine
    with pytest.raises(SizingError):
        tensors_mod._check_budget(10**4 + 1, 2)
    with pytest.raises(SizingError):
        DenseTensor(np.zeros(1), order=3, dim=465)  # 465^3 > 10^8


def test_symmetric_tensor_check():
    arr = random_tensor(4, 2, 1)
    with pytest.raises(ContractError):
        SymmetricTensor(arr)
    sym = (arr + arr.T) / 2.0
    t = SymmetricTensor(sym)
    assert np.array_equal(t.array, t.array.T)


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, math.nan, -0.0, 0.0, 1.0, "next"]),
)
def test_symmetry_check_agrees_with_every_transpose(n, k, seed, poke):
    """Symmetrized arrays of -1, 0 and 1, so ties and signed zeros occur, with
    one entry now and then set to NaN, a zero of either sign, 1, or its next float."""
    rng = np.random.default_rng(seed)
    arr = np.array(symmetrize(rng.integers(-1, 2, size=(n,) * k).astype(float)).array)
    if poke is not None:
        idx = tuple(rng.integers(0, n, size=k))
        arr[idx] = np.nextafter(arr[idx], np.inf) if poke == "next" else poke
    if exactly_symmetric_by_transposes(arr):
        assert np.array_equal(SymmetricTensor(arr).array, arr, equal_nan=True)
    else:
        with pytest.raises(ContractError):
            SymmetricTensor(arr)


def test_symmetric_tensor_refuses_one_broken_pair_in_a_large_matrix():
    # a 128-tuple sample of the entries accepted this matrix
    arr = np.array(symmetrize(random_tensor(1100, 2, 5)).array)
    arr[3, 1000] = np.nextafter(arr[3, 1000], np.inf)
    with pytest.raises(ContractError):
        SymmetricTensor(arr)


@pytest.mark.parametrize("n,k", [(2, 8), (1, 10)])
def test_symmetric_tensor_checks_a_high_order_in_k_minus_one_reads(n, k):
    # walking all k! permutations of 128 sampled tuples took 27 s at (2, 8),
    # and at (1, 10) did not finish within 8 minutes
    arr = symmetrize(random_tensor(n, k, 6)).array
    assert SymmetricTensor(arr).array.tobytes() == arr.tobytes()


def test_unit_vector_validation():
    with pytest.raises(ContractError):
        UnitVector([1.0, 1.0])
    with pytest.raises(ContractError, match="nonempty 1-d"):
        UnitVector([])
    v = UnitVector.normalize([3.0, 4.0])
    assert v.dim == 2
    assert abs(np.linalg.norm(v.coords) - 1.0) <= UnitVector.NORM_TOL
    e = UnitVector.basis(5, 2)
    assert e.coords[2] == 1.0 and np.sum(e.coords != 0) == 1
    with pytest.raises(ContractError):
        UnitVector.normalize([0.0, 0.0])
    with pytest.raises(AttributeError):
        v.coords = np.zeros(2)
    for bad in (np.nan, np.inf):  # a NaN norm is not within tolerance of 1 either
        with pytest.raises(ContractError, match="is not 1"):
            UnitVector([bad, 0.0])


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (2, 4), (3, 4)])
def test_outer_power_matches_bruteforce(n, k):
    v = np.random.default_rng(n * 10 + k).standard_normal(n)
    v /= np.linalg.norm(v)
    got = outer_power(v, k)
    want = outer_power_bruteforce(v, k)
    assert np.allclose(got.array, want, rtol=0, atol=1e-15)
    assert isinstance(got, SymmetricTensor)


@pytest.mark.parametrize("n,k", [(4, 3), (3, 4), (5, 5), (2, 7), (3, 12), (1, 30)])
def test_outer_power_bits_match_sorted_index_product(n, k):
    """Every entry is the coordinates multiplied in sorted index order, to the
    last bit and the sign of a zero."""
    v = np.random.default_rng(7 * n + k).standard_normal(n)
    v /= np.linalg.norm(v)
    v[-1] = -0.0
    assert outer_power(v, k).array.tobytes() == outer_power_sorted_product(v, k).tobytes()


def test_outer_power_symmetrize_and_entry_refuse_the_wrong_order():
    with pytest.raises(ContractError, match="expects a vector"):
        outer_power(np.eye(2), 2)
    with pytest.raises(ContractError, match="order <= 10, got k=11"):
        symmetrize(np.zeros((1,) * 11))
    for indices in ((0,), (0, 0, 0)):
        with pytest.raises(ContractError, match="expected 2 indices"):
            DenseTensor(np.eye(2)).entry(*indices)


def test_outer_power_accepts_unit_vector():
    v = UnitVector.normalize([1.0, 2.0, -1.0])
    t = outer_power(v, 3)
    assert t.order == 3 and t.dim == 3


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (2, 5)])
def test_symmetrize_close_to_bruteforce(n, k):
    arr = random_tensor(n, k, 17 * n + k)
    got = symmetrize(arr)
    want = symmetrize_bruteforce(arr)
    assert np.allclose(got.array, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "n,k", [(1, 3), (2, 3), (7, 3), (30, 3), (2, 4), (5, 4), (2, 5), (4, 5), (3, 6), (2, 7), (1, 9)]
)
def test_symmetrize_bits_match_transpose_sum(n, k):
    arr = random_tensor(n, k, 31 * n + k)
    assert symmetrize(arr).array.tobytes() == symmetrize_transpose_sum(arr).tobytes()


def test_symmetrize_streamed_path_keeps_the_bits(monkeypatch):
    """Above the plan's size limit, representatives taken a few at a time and
    written straight to their orbits give the bits of the transpose sum."""
    monkeypatch.setattr(tensors_mod, "_ORBIT_PLAN_LIMIT", 64)
    monkeypatch.setattr(tensors_mod, "_ORBIT_BLOCK_SOURCES", 7)
    for n, k in ((5, 3), (4, 4), (2, 9)):
        arr = random_tensor(n, k, 8)
        assert symmetrize(arr).array.tobytes() == symmetrize_transpose_sum(arr).tobytes()


@pytest.mark.parametrize("n,k,per_block", [(2, 10, 1), (2, 9, 10), (3, 9, 4), (1, 9, 1)])
def test_orbit_blocks_match_the_group_by_group_build(n, k, per_block):
    """At k >= 9 the sources come from subset-sum lookups; they must be the
    group-by-group build's indices, in its order, which keeps the sums' bits."""
    blocks = itertools.zip_longest(
        tensors_mod._orbit_blocks(n, k, per_block), orbit_blocks_by_group(n, k, per_block)
    )
    for got, want in blocks:
        assert got is not None and want is not None
        assert np.array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1])
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


def test_symmetrize_exactly_invariant_under_transposition():
    """The defining contract: every axis permutation leaves the array
    bitwise unchanged, not merely close."""
    arr = random_tensor(4, 3, 5)
    sym = symmetrize(arr).array
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(sym, np.transpose(sym, perm))


def test_symmetrize_k2_is_halved_sum():
    arr = random_tensor(6, 2, 9)
    got = symmetrize(arr)
    assert np.array_equal(got.array, (arr + arr.T) / 2.0)


def test_symmetrize_idempotent_bitwise():
    arr = random_tensor(3, 4, 2)
    once = symmetrize(arr)
    twice = symmetrize(once)
    assert twice is once  # fast path returns the same object


@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6))
def test_symmetrize_preserves_inner_with_symmetric(n, k, seed):
    """<sym(X), v^(x)k> must equal <X, v^(x)k> up to roundoff."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n,) * k)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    p = outer_power(v, k)
    lhs = inner(symmetrize(arr), p)
    rhs = inner(DenseTensor(arr), p)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_inner_and_frobenius():
    a = random_tensor(3, 3, 3)
    b = random_tensor(3, 3, 4)
    ta, tb = DenseTensor(a), DenseTensor(b)
    assert inner(ta, tb) == pytest.approx(float(np.sum(a * b)), rel=1e-14)
    assert inner(ta, tb) == inner(tb, ta)
    assert frobenius(ta) == pytest.approx(float(np.linalg.norm(a)), rel=1e-14)
    assert frobenius(ta) ** 2 == pytest.approx(inner(ta, ta), rel=1e-12)
    with pytest.raises(ContractError):
        inner(ta, DenseTensor(np.zeros((4, 4, 4))))


def _same_bound(got, want):
    return got.value == want.value and got.witness.coords.tobytes() == want.witness.coords.tobytes()


def test_operator_norm_matrix_matches_eigenvalue():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((8, 8))
    sym = (g + g.T) / 2.0
    top = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    got = operator_norm_lb(SymmetricTensor(sym), restarts=12, iters=400, rng=rng)
    assert got.value <= top + 1e-10
    assert got.value >= top - 1e-7
    # the witness achieves the reported value
    v = got.witness
    quad = float(v.coords @ sym @ v.coords)
    assert abs(abs(quad) - got.value) <= 1e-9


def test_operator_norm_rank_one_tensor():
    v = np.random.default_rng(7).standard_normal(5)
    v /= np.linalg.norm(v)
    t = SymmetricTensor(2.5 * outer_power(v, 3).array)
    got = operator_norm_lb(t, restarts=8, iters=300)
    assert got.value == pytest.approx(2.5, abs=1e-9)
    assert abs(abs(float(np.dot(got.witness.coords, v))) - 1.0) <= 1e-8


def test_operator_norm_zero_tensor():
    x = SymmetricTensor(np.zeros((3, 3, 3)))
    got = operator_norm_lb(x)
    assert got.value == 0.0
    assert got.witness.coords[0] == 1.0
    assert _same_bound(got, operator_norm_lb_sequential(x))


def test_operator_norm_rejects_plain_dense():
    with pytest.raises(ContractError):
        operator_norm_lb(DenseTensor(np.zeros((3, 3))))


@pytest.mark.parametrize("field", ["restarts", "iters"])
@pytest.mark.parametrize("bad", [0, 2.5, True])
def test_operator_norm_refuses_bad_counts(field, bad):
    with pytest.raises(ContractError, match=field):
        operator_norm_lb(SymmetricTensor(np.eye(3)), **{field: bad})


@pytest.mark.parametrize("field", ["restarts", "iters"])
def test_operator_norm_refuses_counts_over_the_entry_budget_before_any_draw(field):
    class NoStarts:
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("a start vector was drawn")

    with pytest.raises(SizingError, match=f"{field}={10**8 + 1}"):
        operator_norm_lb(SymmetricTensor(np.eye(3)), rng=NoStarts(), **{field: 10**8 + 1})


def test_operator_norm_is_lower_bound_for_matrices():
    rng = np.random.default_rng(99)
    for trial in range(5):
        g = rng.standard_normal((6, 6))
        sym = (g + g.T) / 2.0
        top = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        got = operator_norm_lb(SymmetricTensor(sym), restarts=6, iters=200, rng=rng)
        assert got.value <= top + 1e-10


@pytest.mark.parametrize("n,k", [(30, 3), (12, 3), (30, 2), (100, 2), (8, 4), (7, 5), (1, 3)])
@pytest.mark.parametrize("model", ["sym_noise", "sym_spiked"])
def test_operator_norm_bits_match_the_sequential_loop(n, k, model):
    """The stacked restarts give the value and witness bits of one restart at a time."""
    strength = {"strength": 2.0} if model == "sym_spiked" else {}
    spec = EnsembleSpec.from_json_dict({"model": model, "n": n, "k": k, "seed": 3, **strength})
    for trial in range(4):
        x = sample_trial(spec, trial)
        got = operator_norm_lb(x, rng=trial_rng(5, trial))
        assert _same_bound(got, operator_norm_lb_sequential(x, rng=trial_rng(5, trial)))


def test_operator_norm_bits_where_restarts_stop_at_different_steps():
    """From nine starts, the matrix's restarts meet the tolerance at steps 29
    to 41, the n = 6 noise tensor's at 58 and 70 while the rest run all 100,
    and the rank-one tensor's after two steps."""
    matrix = SymmetricTensor(np.diag([3.0, -2.0, 1.0, 0.5]) + 0.01 * np.ones((4, 4)))
    noise = sample_trial(EnsembleSpec(model="sym_noise", n=6, k=3, seed=1), 1)
    v = np.random.default_rng(7).standard_normal(5)
    rank_one = SymmetricTensor(2.5 * outer_power(v / np.linalg.norm(v), 3).array)
    for x, iters in ((matrix, 200), (noise, 100), (rank_one, 200), (noise, 1)):
        for seed in range(4):
            got = operator_norm_lb(x, restarts=9, iters=iters, rng=np.random.default_rng(seed))
            want = operator_norm_lb_sequential(x, restarts=9, iters=iters, rng=np.random.default_rng(seed))
            assert _same_bound(got, want)


class _RowSource:
    """Hands out the rows of ``starts`` in turn, whether asked for one vector or a block."""

    def __init__(self, starts):
        self.rows = iter(starts)

    def standard_normal(self, shape):
        if isinstance(shape, int):
            return next(self.rows)
        return np.array([next(self.rows) for _ in range(shape[0])])


@pytest.mark.parametrize("entries", [3, 1 << 16])
def test_operator_norm_witness_is_the_first_to_reach_a_tied_best(monkeypatch, entries):
    """On diag(2, -2, 1) from starts in the first two axes every step flips
    the second coordinate and can repeat the value bit for bit; on diag(2, 2,
    1) two restarts tie. The witness is the first u to reach the best, with
    the restarts in one block or one a block."""
    monkeypatch.setattr(tensors_mod, "_BLOCK_ENTRIES", entries)
    flips = np.zeros((4, 3))
    flips[:, :2] = np.random.default_rng(0).standard_normal((4, 2))
    flip = SymmetricTensor(np.diag([2.0, -2.0, 1.0]))
    got = operator_norm_lb(flip, restarts=4, rng=_RowSource(flips))
    assert _same_bound(got, operator_norm_lb_sequential(flip, restarts=4, rng=_RowSource(flips)))
    pair = SymmetricTensor(np.diag([2.0, 2.0, 1.0]))
    got = operator_norm_lb(pair, restarts=9, rng=np.random.default_rng(1))
    assert _same_bound(got, operator_norm_lb_sequential(pair, restarts=9, rng=np.random.default_rng(1)))


def test_operator_norm_skips_zero_start_vectors():
    x = sample_trial(EnsembleSpec(model="sym_noise", n=5, k=3, seed=6), 0)
    starts = np.random.default_rng(3).standard_normal((6, 5))
    starts[[0, 3]] = 0.0
    got = operator_norm_lb(x, restarts=6, rng=_RowSource(starts))
    assert _same_bound(got, operator_norm_lb_sequential(x, restarts=6, rng=_RowSource(starts)))
    assert got.value > 0.0
    none = operator_norm_lb(x, restarts=2, rng=_RowSource(np.zeros((2, 5))))
    assert none.value == 0.0 and none.witness.coords[0] == 1.0


@pytest.mark.parametrize("entries", [1, 300, 400])
def test_operator_norm_bits_across_blocks_of_restarts(monkeypatch, entries):
    """With blocks of 1, 3 and 4 of the 11 restarts at n = 10, k = 3, the
    best is still the first restart, in order, to reach it."""
    monkeypatch.setattr(tensors_mod, "_BLOCK_ENTRIES", entries)
    spec = EnsembleSpec.from_json_dict({"model": "sym_spiked", "n": 10, "k": 3, "strength": 1.5, "seed": 8})
    for trial in range(4):
        x = sample_trial(spec, trial)
        got = operator_norm_lb(x, restarts=11, iters=60, rng=trial_rng(2, trial))
        assert _same_bound(got, operator_norm_lb_sequential(x, restarts=11, iters=60, rng=trial_rng(2, trial)))


def _mixed_tensors():
    """n = 6, k = 3 tensors whose restarts stop at different steps: noise that
    runs every step, a strong rank-one tensor that stops after two, and a zero
    tensor that stops at once."""
    noise = EnsembleSpec(model="sym_noise", n=6, k=3, seed=4)
    v = np.random.default_rng(2).standard_normal(6)
    rank_one = SymmetricTensor(20.0 * outer_power(v / np.linalg.norm(v), 3).array)
    zero = SymmetricTensor(np.zeros((6, 6, 6)))
    return [sample_trial(noise, 0), rank_one, zero, sample_trial(noise, 1), rank_one, sample_trial(noise, 2), zero]


@pytest.mark.parametrize("entries", [36 * 8 * 3, 36 * 3, 1 << 16], ids=["3-trials", "3-restarts", "default"])
def test_operator_norm_of_a_list_is_each_tensor_alone(monkeypatch, entries):
    """Seven tensors in blocks of 3, 3 and 1 trials, one trial a block with its
    8 restarts in blocks of 3, 3 and 2, and all seven in one block: each value
    and witness has the bits of the tensor's own restart-by-restart loop."""
    monkeypatch.setattr(tensors_mod, "_BLOCK_ENTRIES", entries)
    xs = _mixed_tensors()
    got = operator_norm_lb(xs, iters=50, rng=[trial_rng(6, t) for t in range(len(xs))])
    assert len(got) == len(xs)
    for t, (x, bound) in enumerate(zip(xs, got)):
        assert _same_bound(bound, operator_norm_lb_sequential(x, iters=50, rng=trial_rng(6, t)))
    assert [b.value for b in got][2::4] == [0.0, 0.0]  # the zero tensors
    assert _same_bound(operator_norm_lb(tuple(xs[:2]))[1], operator_norm_lb(xs[1]))  # None: default_rng(0) each


@pytest.mark.parametrize(
    "n,k,restarts,trials",
    [(30, 3, 8, 9), (30, 3, 80, 1), (8, 4, 8, 16), (300, 2, 8, 11), (1000, 2, 8, 1), (100, 3, 8, 1)],
)
def test_a_power_block_holds_whole_trials_within_both_bounds(n, k, restarts, trials):
    """9 trials of 8 restarts fill 72 of the 72 rows at n = 30, k = 3; at
    n = 300, k = 2 the 2^20-entry stack, not the 218 rows, holds 11 trials;
    where one trial's restarts fill the rows or its tensor the stack, one."""
    assert tensors_mod._power_trials(n, k, restarts) == trials


def test_operator_norm_of_a_list_refuses_mismatched_inputs():
    x3, x2 = SymmetricTensor(np.zeros((2, 2, 2))), SymmetricTensor(np.eye(2))
    rng = np.random.default_rng(0)
    for xs, rngs, match in (
        ([], None, "nonempty list"),
        ([x3, DenseTensor(np.zeros((2, 2, 2)))], None, "SymmetricTensor"),
        ([x3, x2], None, "one order and dimension"),
        ([x3, x3], [rng], "one generator per tensor"),
        ([x3, x3], rng, "one generator per tensor"),
    ):
        with pytest.raises(ContractError, match=match):
            operator_norm_lb(xs, rng=rngs)


def test_an_order_too_long_to_print_is_a_sizing_error():
    with pytest.raises(SizingError, match="a 16610-bit integer"):
        DenseTensor(np.ones(1), order=10**5000, dim=1)
    with pytest.raises(ContractError, match="a 16610-bit integer"):
        operator_norm_lb(SymmetricTensor(np.eye(2)), restarts=-(10**5000))


def test_operator_norm_consumes_the_stream_of_sequential_start_draws():
    x = sample_trial(EnsembleSpec(model="sym_noise", n=30, k=3, seed=2), 0)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    operator_norm_lb(x, restarts=8, iters=5, rng=rng)
    for _ in range(8):
        ref.standard_normal(30)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_save_load_roundtrip(tmp_path):
    t = DenseTensor(random_tensor(4, 3, 21))
    path = tmp_path / "x.spkt"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back == t


def test_load_rejects_corruption(tmp_path):
    t = DenseTensor(random_tensor(3, 2, 22))
    path = tmp_path / "x.spkt"
    save_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.spkt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ContractError):
        load_tensor(bad)
    truncated = tmp_path / "short.spkt"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContractError):
        load_tensor(truncated)


@pytest.mark.parametrize("name", ["missing.spkt", "."], ids=["missing", "directory"])
def test_load_unreadable_path_raises_contract_error_naming_it(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(ContractError, match=re.escape(repr(path))):
        load_tensor(path)


def test_json_roundtrip():
    t = DenseTensor(random_tensor(3, 3, 30))
    back = tensor_from_json(tensor_to_json(t))
    assert back == t


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "1",
        '{"k": 2, "n": 2, "entries": "ab"}',
        '{"k": "x", "n": 2, "entries": [1, 2, 3, 4]}',
        '{"k": 2, "n": "x", "entries": [1, 2, 3, 4]}',
        '{"k": 2, "n": 2, "entries": [1, 2, 3, null]}',
        '{"k": 2, "n": 2}',
        {"k": 2, "n": 2, "entries": [1, 2, 3, 4]},
        b"\xff",
    ],
    ids=["truncated", "not-an-object", "entries-text", "k-text", "n-text", "entries-null", "entries-missing",
         "not-text", "not-utf8"],
)
def test_json_malformed_input_raises_contract_error(text):
    with pytest.raises(ContractError):
        tensor_from_json(text)


def test_huge_order_is_refused_before_the_entry_count_is_formed():
    # 3^1000000 has 477,122 digits: formatting it into the message raised
    # a raw ValueError, and forming it grows superlinearly in k
    with pytest.raises(SizingError):
        tensor_from_json('{"k": 1000000, "n": 3, "entries": [1.0]}')


def test_orders_past_the_array_axes_are_refused(tmp_path):
    # numpy 1.x arrays have at most 32 axes; order 100 at n = 1 ended in numpy's own ValueError
    assert outer_power(np.ones(1), 32).order == 32
    with pytest.raises(SizingError, match="32 axes"):
        DenseTensor(np.ones(1), order=100, dim=1)
    with pytest.raises(SizingError, match="32 axes"):
        outer_power(np.ones(1), 33)
    path = tmp_path / "deep.spkt"
    path.write_bytes(struct.pack("<4sIII", b"SPKT", 100, 1, 1) + np.ones(1).tobytes())
    with pytest.raises(SizingError, match="32 axes"):
        load_tensor(path)


def test_json_rejects_oversized():
    big = DenseTensor(np.zeros((101, 101)))
    with pytest.raises(SizingError):
        tensor_to_json(big)


@given(st.integers(2, 5), st.integers(0, 10**6))
def test_outer_power_has_unit_frobenius_for_unit_vectors(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    t = outer_power(v, 2)
    assert frobenius(t) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25)
@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6))
def test_inner_outer_power_is_overlap_power(n, k, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    got = inner(outer_power(u, k), outer_power(w, k))
    want = float(np.dot(u, w)) ** k
    assert got == pytest.approx(want, abs=1e-12)
