import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from _oracles import outer_power_bruteforce, symmetrize_bruteforce


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
    with pytest.raises(SizingError):
        DenseTensor(np.zeros((4, 4)), entry_budget=10)
    # exactly at budget is fine
    DenseTensor(np.zeros((4, 4)), entry_budget=16)


def test_symmetric_tensor_check():
    arr = random_tensor(4, 2, 1)
    with pytest.raises(ContractError):
        SymmetricTensor(arr)
    sym = (arr + arr.T) / 2.0
    t = SymmetricTensor(sym)
    assert np.array_equal(t.array, t.array.T)


def test_unit_vector_validation():
    with pytest.raises(ContractError):
        UnitVector([1.0, 1.0])
    v = UnitVector.normalize([3.0, 4.0])
    assert v.dim == 2
    assert abs(np.linalg.norm(v.coords) - 1.0) <= UnitVector.NORM_TOL
    e = UnitVector.basis(5, 2)
    assert e.coords[2] == 1.0 and np.sum(e.coords != 0) == 1
    with pytest.raises(ContractError):
        UnitVector.normalize([0.0, 0.0])
    with pytest.raises(AttributeError):
        v.coords = np.zeros(2)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (2, 4), (3, 4)])
def test_outer_power_matches_bruteforce(n, k):
    v = np.random.default_rng(n * 10 + k).standard_normal(n)
    v /= np.linalg.norm(v)
    got = outer_power(v, k)
    want = outer_power_bruteforce(v, k)
    assert np.allclose(got.array, want, rtol=0, atol=1e-15)
    assert isinstance(got, SymmetricTensor)


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
    got = operator_norm_lb(SymmetricTensor(np.zeros((3, 3, 3))))
    assert got.value == 0.0
    assert got.witness.coords[0] == 1.0


def test_operator_norm_rejects_plain_dense():
    with pytest.raises(ContractError):
        operator_norm_lb(DenseTensor(np.zeros((3, 3))))


@pytest.mark.parametrize("field", ["restarts", "iters"])
@pytest.mark.parametrize("bad", [0, 2.5, True])
def test_operator_norm_refuses_bad_counts(field, bad):
    with pytest.raises(ContractError, match=field):
        operator_norm_lb(SymmetricTensor(np.eye(3)), **{field: bad})


def test_operator_norm_is_lower_bound_for_matrices():
    rng = np.random.default_rng(99)
    for trial in range(5):
        g = rng.standard_normal((6, 6))
        sym = (g + g.T) / 2.0
        top = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        got = operator_norm_lb(SymmetricTensor(sym), restarts=6, iters=200, rng=rng)
        assert got.value <= top + 1e-10


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
    ],
    ids=["truncated", "not-an-object", "entries-text", "k-text", "n-text", "entries-null"],
)
def test_json_malformed_input_raises_contract_error(text):
    with pytest.raises(ContractError):
        tensor_from_json(text)


def test_huge_order_is_refused_before_the_entry_count_is_formed():
    # 3^1000000 has 477,122 digits: formatting it into the message raised
    # a raw ValueError, and forming it grows superlinearly in k
    with pytest.raises(SizingError):
        tensor_from_json('{"k": 1000000, "n": 3, "entries": [1.0]}')


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
