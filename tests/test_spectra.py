import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.stats import ks_2samp

from spiked_lab.ensembles import EnsembleSpec, sample_goe, sample_trial, trial_rng
from spiked_lab.errors import ContractError
from spiked_lab.spectra import (
    Spectrum,
    eigvals_sym,
    ks_distance,
    largest_eigenvalue,
)
from spiked_lab.tensors import SymmetricTensor

from _oracles import eigvals_sturm, largest_eigval_sturm

EPS = float(np.finfo(np.float64).eps)


def sym_matrix(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def test_eigvals_descending_and_largest():
    spec = eigvals_sym(sym_matrix(7, 0))
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    assert spec.largest == spec.eigenvalues[0]
    assert spec.n == 7


def test_eigvals_match_exact_rational_bisection():
    """Five 5x5 matrices against the exact characteristic-polynomial oracle."""
    for seed in range(5):
        m = sym_matrix(5, seed)
        got = eigvals_sym(m).eigenvalues
        want = eigvals_sturm(m)
        assert np.max(np.abs(got - want)) <= 1e-11


SOLVERS = (eigvals_sym, largest_eigenvalue)  # one input rule, _symmetric_matrix


def test_eigvals_accepts_symmetric_tensor_input():
    m = sym_matrix(6, 4)
    t = SymmetricTensor(m)
    assert np.array_equal(eigvals_sym(t).eigenvalues, eigvals_sym(m).eigenvalues)
    assert largest_eigenvalue(t) == largest_eigenvalue(m)


def test_eigvals_rejects_asymmetric():
    g = np.random.default_rng(5).standard_normal((4, 4))
    for solver in SOLVERS:
        with pytest.raises(ContractError, match="not symmetric"):
            solver(g)
        for bad in (np.nan, np.inf):  # NaN would pass the symmetry tolerance
            with pytest.raises(ContractError, match="non-finite"):
                solver(np.array([[bad, 0.0], [0.0, 1.0]]))
    # a SymmetricTensor skips the entry checks, but an inf is not decided as NaN
    with np.errstate(over="raise", invalid="raise"), pytest.raises(ContractError, match="non-finite"):
        largest_eigenvalue(SymmetricTensor(np.array([[np.inf, 0.0], [0.0, 1.0]])))


def test_eigvals_refuses_an_array_that_is_not_a_matrix():
    for solver in SOLVERS:
        with pytest.raises(ContractError, match="square matrix, got order 3"):
            solver(np.zeros((2, 2, 2)))
        with pytest.raises(ContractError, match="nonempty matrix"):
            solver(np.zeros((0, 0)))


def test_eigvals_diag_exact():
    d = np.diag([3.0, -1.0, 0.5])
    assert np.array_equal(eigvals_sym(d).eigenvalues, np.array([3.0, 0.5, -1.0]))


def lanczos_bound(n: int, norm: float) -> float:
    """How far ``largest_eigenvalue`` may be from the top eigenvalue of an n x n
    matrix of spectral norm ``norm``: eps |X| from its stop rule (Kato-Temple)
    plus 2 sqrt(n) eps |X| for the rounding of its n-term products, the
    probabilistic bound lambda sqrt(n) u with lambda = 4 and u = eps/2."""
    return (1.0 + 2.0 * math.sqrt(n)) * EPS * norm


def test_largest_eigenvalue_matches_exact_rational_bisection():
    """100 random 6x6 matrices against the exact Sturm-chain top root."""
    for seed in range(100):
        m = sym_matrix(6, 1000 + seed)
        got, want = largest_eigenvalue(m), largest_eigval_sturm(m)
        bound = lanczos_bound(6, np.linalg.norm(m, 2))
        assert abs(got - want) <= bound
        assert got <= want + bound


def _structured():
    v = np.random.default_rng(7).standard_normal(6)
    return {
        "zero": np.zeros((6, 6)),
        "identity": np.eye(6),
        "minus-J": -np.ones((6, 6)),  # top eigenspace orthogonal to the all-ones vector
        "diag-3-3-1": np.diag([3.0, 3.0, 1.0]),
        "rank-one": np.outer(v, v),
        "block-diagonal": block_diag(sym_matrix(3, 8), sym_matrix(3, 9) - 2.0 * np.eye(3)),
        "n1": np.array([[-0.7]]),
        "n2": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "n2-random": sym_matrix(2, 10),
    }


@pytest.mark.parametrize("name", list(_structured()))
def test_largest_eigenvalue_structured_cases_match_exact_bisection(name):
    """Repeated tops, breakdown after one or two steps, and n = 1, 2: every
    exit of the iteration, with no invalid operation at breakdown."""
    m = _structured()[name]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = largest_eigenvalue(m)
    want = largest_eigval_sturm(m)
    bound = lanczos_bound(m.shape[0], np.linalg.norm(m, 2))
    assert abs(got - want) <= bound
    assert got <= want + bound


@pytest.mark.parametrize("power", [-1000, -560, 560, 1000])
def test_largest_eigenvalue_at_any_scale(power):
    """2^power X has the top eigenvalue 2^power lambda: no norm may underflow
    to a false breakdown or overflow into a NumericalFailure."""
    m = sym_matrix(6, 11)
    with np.errstate(over="raise", invalid="raise"):
        got = largest_eigenvalue(np.ldexp(m, power))
    bound = lanczos_bound(6, np.linalg.norm(m, 2))
    assert abs(math.ldexp(got, -power) - largest_eigval_sturm(m)) <= bound


def _statistic_cases(n):
    root = math.ceil(math.sqrt(n))
    return [
        EnsembleSpec("goe", n, seed=n),
        EnsembleSpec("hidden_clique", n, strength=math.ceil(0.5 * math.sqrt(n)), seed=n + 1),
        EnsembleSpec("hidden_clique", n, strength=2 * root, seed=n + 2),
        *(EnsembleSpec("sym_spiked", n, strength=beta, seed=n + 3) for beta in (0.5, 1.0, 1.5)),
    ]


@pytest.mark.parametrize("n", [200, 500, 900, 1000])
def test_largest_eigenvalue_matches_eigvalsh_at_scale(n):
    """The eig statistic's shapes against LAPACK. The reference rounds too,
    by the same sqrt(n) model, so the bound is the Lanczos one plus
    2 sqrt(n) eps |X|; a Ritz value is a lower bound up to that rounding."""
    for spec in _statistic_cases(n):
        x = sample_trial(spec, 0)
        w = np.linalg.eigvalsh(x.array)
        got, want = largest_eigenvalue(x), float(w[-1])
        norm = float(max(abs(w[0]), abs(w[-1])))
        bound = lanczos_bound(n, norm) + 2.0 * math.sqrt(n) * EPS * norm
        assert abs(got - want) <= bound, spec
        assert got <= want + bound, spec


def test_largest_eigenvalue_grows_its_basis_in_blocks():
    """An (n+1) x n basis up front would hold as much memory as X itself."""
    n = 1000
    x = sample_trial(EnsembleSpec("goe", n, seed=3), 0)
    tracemalloc.start()
    try:
        largest_eigenvalue(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_ks_distance_extremes():
    a = np.array([0.0, 1.0, 2.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 10.0) == 1.0


def test_ks_distance_rejects_nan():
    """A NaN would sort last and count as a value."""
    with pytest.raises(ContractError, match="NaN"):
        ks_distance([np.nan, 0.0], [0.0, 1.0])
    with pytest.raises(ContractError, match="NaN"):
        ks_distance([0.0, 1.0], np.array([[0.5, np.nan]]))


def test_ks_distance_refuses_an_empty_sample():
    for a, b in (([], [0.0, 1.0]), ([0.0, 1.0], [])):
        with pytest.raises(ContractError, match="nonempty"):
            ks_distance(a, b)


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(301)
    b = rng.standard_normal(400) + 0.3
    got = ks_distance(a, b)
    want = float(ks_2samp(a, b).statistic)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 10**6), st.integers(5, 60), st.integers(5, 60))
def test_ks_distance_symmetric_and_bounded(seed, na, nb):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(na)
    b = rng.standard_normal(nb) * 1.3
    d = ks_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == ks_distance(b, a)


def test_goe_bulk_close_to_semicircle():
    """Eigenvalue histogram of one big GOE draw against the limit density."""
    x = sample_goe(500, trial_rng(77, 0))
    eigs = eigvals_sym(x).eigenvalues
    hist, edges = np.histogram(eigs, bins=20, range=(-2.0, 2.0), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    semicircle = np.sqrt(4.0 - centers**2) / (2.0 * np.pi)
    assert np.max(np.abs(hist - semicircle)) <= 0.06


def test_spectrum_validates_order():
    with pytest.raises(ContractError):
        Spectrum(eigenvalues=np.array([1.0, 2.0]))


def test_spectrum_refuses_an_empty_array():
    with pytest.raises(ContractError, match="nonempty 1-d"):
        Spectrum(eigenvalues=[])


def test_spectrum_rejects_non_finite():
    """NaN makes the descending check np.diff(arr) > 0 False, so it is refused on its own."""
    for bad in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ContractError, match="finite"):
            Spectrum(eigenvalues=np.array(bad))
