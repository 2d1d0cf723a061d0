import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from spiked_lab.ensembles import sample_goe, trial_rng
from spiked_lab.errors import ContractError
from spiked_lab.spectra import (
    Spectrum,
    eigvals_sym,
    ks_distance,
)
from spiked_lab.tensors import SymmetricTensor

from _oracles import eigvals_sturm


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


def test_eigvals_accepts_symmetric_tensor_input():
    m = sym_matrix(6, 4)
    t = SymmetricTensor(m)
    assert np.array_equal(eigvals_sym(t).eigenvalues, eigvals_sym(m).eigenvalues)


def test_eigvals_rejects_asymmetric():
    g = np.random.default_rng(5).standard_normal((4, 4))
    with pytest.raises(ContractError):
        eigvals_sym(g)
    for bad in (np.nan, np.inf):  # NaN would pass the symmetry tolerance
        with pytest.raises(ContractError, match="non-finite"):
            eigvals_sym(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_eigvals_refuses_an_array_that_is_not_a_matrix():
    with pytest.raises(ContractError, match="square matrix, got order 3"):
        eigvals_sym(np.zeros((2, 2, 2)))


def test_eigvals_diag_exact():
    d = np.diag([3.0, -1.0, 0.5])
    assert np.array_equal(eigvals_sym(d).eigenvalues, np.array([3.0, 0.5, -1.0]))


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
