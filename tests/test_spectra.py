import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import ks_2samp

from spiked_lab.ensembles import sample_goe, trial_rng
from spiked_lab.errors import ContractError
from spiked_lab.spectra import (
    QUANTILES,
    Spectrum,
    eigvals_sym,
    ks_distance,
    largest_eig_stats,
    semicircle_ref,
    spectra_from_csv,
    spectra_to_csv,
    summarize_spectra,
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


def test_eigvals_with_vectors_reports_residual():
    m = sym_matrix(9, 3)
    spec, v = eigvals_sym(m, vectors=True)
    assert spec.residual is not None
    assert spec.residual <= 1e-12
    # columns reconstruct the matrix
    assert np.allclose(v @ np.diag(spec.eigenvalues) @ v.T, m, atol=1e-12)


def test_eigvals_accepts_symmetric_tensor_input():
    m = sym_matrix(6, 4)
    t = SymmetricTensor(m)
    assert np.array_equal(eigvals_sym(t).eigenvalues, eigvals_sym(m).eigenvalues)
    (st, vt), (sm, vm) = eigvals_sym(t, vectors=True), eigvals_sym(m, vectors=True)
    assert np.array_equal(vt, vm) and st.residual == sm.residual


def test_eigvals_rejects_asymmetric():
    g = np.random.default_rng(5).standard_normal((4, 4))
    with pytest.raises(ContractError):
        eigvals_sym(g)


def test_eigvals_diag_exact():
    d = np.diag([3.0, -1.0, 0.5])
    assert np.array_equal(eigvals_sym(d).eigenvalues, np.array([3.0, 0.5, -1.0]))


def test_largest_eig_stats_matches_numpy():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(200)
    stats = largest_eig_stats(list(vals))
    assert stats.trials == 200
    assert stats.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert stats.std == pytest.approx(float(np.std(vals, ddof=1)), rel=1e-12)
    for q in QUANTILES:
        assert stats.quantiles[str(q)] == pytest.approx(float(np.quantile(vals, q)), rel=1e-12)


def test_largest_eig_stats_accepts_spectra():
    spectra = [eigvals_sym(sym_matrix(4, s)) for s in range(6)]
    stats = largest_eig_stats(spectra)
    assert stats.mean == pytest.approx(np.mean([s.largest for s in spectra]))


def test_ks_distance_extremes():
    a = np.array([0.0, 1.0, 2.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 10.0) == 1.0


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


def test_semicircle_density_normalizes():
    val, _ = integrate.quad(lambda x: semicircle_ref(x), -2, 2)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert semicircle_ref(2.5) == 0.0
    assert semicircle_ref(0.0) == pytest.approx(1.0 / np.pi, rel=1e-12)
    arr = semicircle_ref(np.array([-3.0, 0.0, 3.0]))
    assert arr[0] == arr[2] == 0.0


def test_goe_bulk_close_to_semicircle():
    """Eigenvalue histogram of one big GOE draw against the limit density."""
    x = sample_goe(500, trial_rng(77, 0))
    eigs = eigvals_sym(x).eigenvalues
    hist, edges = np.histogram(eigs, bins=20, range=(-2.0, 2.0), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    assert np.max(np.abs(hist - semicircle_ref(centers))) <= 0.06


def test_csv_roundtrip_bitwise(tmp_path):
    spectra = [eigvals_sym(sym_matrix(5, s)) for s in range(4)]
    path = tmp_path / "spectra.csv"
    spectra_to_csv(spectra, path)
    back = spectra_from_csv(path)
    assert len(back) == 4
    for a, b in zip(spectra, back):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_summarize_spectra_keys():
    spectra = [eigvals_sym(sym_matrix(5, s)) for s in range(3)]
    summary = summarize_spectra(spectra)
    assert summary["trials"] == 3
    assert "largest" in summary and "mean" in summary["largest"]


def test_spectrum_validates_order():
    with pytest.raises(ContractError):
        Spectrum(eigenvalues=np.array([1.0, 2.0]))
