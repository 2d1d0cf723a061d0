import ctypes
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.stats import ks_2samp

from spiked_lab import _blas, spectra
from spiked_lab.ensembles import EnsembleSpec, _one_blas_thread, _openblas_threads, sample_goe, sample_trial, trial_rng
from spiked_lab.errors import ContractError, NumericalFailure
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


@pytest.fixture(params=["dsymv", "matmul"])
def product(request, monkeypatch):
    """Each Lanczos step path in turn: the loaded OpenBLAS's cblas_dsymv with
    its GIL-held ddot, daxpy and dgemv, and ``X @ q`` with numpy's vector
    calls, those symbols hidden as on MKL or without /proc."""
    if request.param == "dsymv":
        if spectra._lanczos_blas() is None:
            pytest.skip("no OpenBLAS with the Lanczos step's calls is loaded in this process")
    else:
        monkeypatch.setattr(spectra, "_lanczos_blas", lambda: None)
    return request.param


@pytest.fixture(params=["dstevx", "eigh"])
def tridiagonal(request, monkeypatch):
    """Each Ritz pair path in turn: the loaded OpenBLAS's LAPACKE_dstevx, and
    a dense ``numpy.linalg.eigh`` of T_m with that symbol hidden."""
    if request.param == "dstevx":
        if spectra._stevx() is None:
            pytest.skip("no OpenBLAS LAPACKE_dstevx is loaded in this process")
    else:
        monkeypatch.setattr(spectra, "_stevx", lambda: None)
    return request.param


def test_largest_eigenvalue_matches_exact_rational_bisection(product, tridiagonal):
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
def test_largest_eigenvalue_structured_cases_match_exact_bisection(name, product, tridiagonal):
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
def test_largest_eigenvalue_at_any_scale(power, product, tridiagonal):
    """2^power X has the top eigenvalue 2^power lambda: no norm may underflow
    to a false breakdown or overflow into a NumericalFailure."""
    m = sym_matrix(6, 11)
    with np.errstate(over="raise", invalid="raise"):
        got = largest_eigenvalue(np.ldexp(m, power))
    bound = lanczos_bound(6, np.linalg.norm(m, 2))
    assert abs(math.ldexp(got, -power) - largest_eigval_sturm(m)) <= bound


def test_a_matrix_of_subnormal_entries_keeps_its_scaling_a_double(product, tridiagonal):
    """The first product of X = 2^-1062 M is subnormal, and a shift of its
    exponent would make 2^shift overflow a double: the shift is clamped.
    Bounds in units of 2^-1062, where X is M as stored: a subnormal product
    errs by up to 2^-13 a term, absolutely, so each product is X q plus an
    error of norm n^1.5 2^-13 at most, and over m <= n steps the top Ritz
    value moves by at most sqrt(n) times that; the subnormal result rounds
    by up to 2^-13 more."""
    x = np.ldexp(sym_matrix(6, 11), -1062)
    stored = np.ldexp(x, 1062)  # exact: only a power of two
    got = math.ldexp(largest_eigenvalue(x), 1062)
    bound = lanczos_bound(6, np.linalg.norm(stored, 2)) + (6**2 + 1) * 2.0**-13
    assert abs(got - largest_eigval_sturm(stored)) <= bound


def _statistic_cases(n):
    root = math.ceil(math.sqrt(n))
    return [
        EnsembleSpec("goe", n, seed=n),
        EnsembleSpec("hidden_clique", n, strength=math.ceil(0.5 * math.sqrt(n)), seed=n + 1),
        EnsembleSpec("hidden_clique", n, strength=2 * root, seed=n + 2),
        *(EnsembleSpec("sym_spiked", n, strength=beta, seed=n + 3) for beta in (0.5, 1.0, 1.5)),
    ]


@pytest.mark.parametrize("n", [200, 500, 900, 1000])
def test_largest_eigenvalue_matches_eigvalsh_at_scale(n, product, tridiagonal):
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


def test_largest_eigenvalue_grows_its_basis_in_blocks(product):
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


def test_calls_on_two_threads_at_once_return_what_each_returns_alone(product):
    """Two n = 600 matrices, each on its own thread, their Lanczos steps
    interleaved (the interpreter switching threads every microsecond): no
    call may read another's scratch, and a GIL-held call never waits on a
    released one, or the threads would not finish."""
    xs = [sample_trial(EnsembleSpec(model, 600, strength=strength, seed=21), 0)
          for model, strength in (("goe", 0.0), ("hidden_clique", 13))]
    got = ([], [])
    barrier = threading.Barrier(2)

    def run(i):
        barrier.wait()
        for _ in range(3):
            got[i].append(largest_eigenvalue(xs[i]))

    switch = sys.getswitchinterval()
    with _one_blas_thread():
        alone = [largest_eigenvalue(x) for x in xs]
        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == ([alone[0]] * 3, [alone[1]] * 3)


@pytest.mark.parametrize("n", [64, 900])
def test_an_overflowing_top_eigenvalue_is_a_numerical_failure(n, product):
    """All entries 1e307: at n = 64 every product is finite and the top
    eigenvalue 6.4e308 is not; at n = 900 a product X q overflows first. A
    BLAS call sets no numpy error flag, so the values themselves are checked,
    and no warning escapes either path."""
    x = SymmetricTensor(np.full((n, n), 1e307))
    with pytest.raises(NumericalFailure, match="overflows a double"):
        largest_eigenvalue(x)


@pytest.mark.parametrize("n", [64, 900])
def test_an_overflowing_eigenvalue_is_a_numerical_failure_in_the_full_spectrum(n):
    with pytest.raises(NumericalFailure, match="an eigenvalue overflows a double"):
        eigvals_sym(SymmetricTensor(np.full((n, n), 1e307)))


def test_the_symmetric_product_is_bound_wherever_openblas_is():
    """A silent fall back to ``X @ q`` would lose the product's speed with no
    other test failing. The integer arguments take the width the library's
    configuration string names, and a call gives X q."""
    if _openblas_threads() is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    lib = _blas.openblas()
    assert lib.dsymv is not None and spectra._lanczos_blas() is lib
    wide = "USE64BITINT" in lib.config.split()
    assert all(ctypes.sizeof(lib.dsymv.argtypes[i]) == (8 if wide else 4) for i in (2, 5, 7, 10))
    x = sym_matrix(5, 12)
    q = np.random.default_rng(13).standard_normal(5)
    w = np.zeros(5)
    lib.dsymv(_blas.ROW_MAJOR, _blas.UPPER, 5, 1.0, x.ctypes.data, 5, q.ctypes.data, 1, 0.0, w.ctypes.data, 1)
    # each of the two 5-term sums is within 5 eps sum |x_ij q_j| of the exact one
    assert np.all(np.abs(w - x @ q) <= 2 * 5 * EPS * (np.abs(x) @ np.abs(q)))


def test_the_gil_held_step_calls_are_bound_wherever_openblas_is():
    """A silent fall back to numpy's vector calls would bring back the GIL
    trading between two Lanczos threads with no other test failing. ddot,
    daxpy and dgemv take the config string's integer width, each call gives
    what numpy gives within its rounding bound, and each keeps the GIL while
    the long dsymv and dstevx release it."""
    if _openblas_threads() is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    lib = _blas.openblas()
    assert None not in (lib.ddot, lib.daxpy, lib.dgemv) and spectra._lanczos_step_path() == "openblas"
    size = 8 if "USE64BITINT" in lib.config.split() else 4
    for fn, positions in ((lib.ddot, (0, 2, 4)), (lib.daxpy, (0, 3, 5)), (lib.dgemv, (2, 3, 6, 8, 11))):
        assert all(ctypes.sizeof(fn.argtypes[i]) == size for i in positions)
        assert fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert not lib.dsymv._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert not lib.dstevx._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    rng = np.random.default_rng(17)
    m, n = 4, 9
    a, x, y = rng.standard_normal((m, n)), rng.standard_normal(n), rng.standard_normal(n)
    c = rng.standard_normal(m)
    # an n-term dot product errs by at most n eps sum |x_i y_i|
    assert abs(lib.ddot(n, x.ctypes.data, 1, y.ctypes.data, 1) - x @ y) <= 2 * n * EPS * (np.abs(x) @ np.abs(y))
    # y + 0.75 x: each entry rounded at most twice, so each result within 2 eps (|y| + 0.75 |x|)
    got = y.copy()
    lib.daxpy(n, 0.75, x.ctypes.data, 1, got.ctypes.data, 1)
    assert np.all(np.abs(got - (y + 0.75 * x)) <= 2 * 2 * EPS * (np.abs(y) + 0.75 * np.abs(x)))
    # A x (NoTrans) and y - A^T c (Trans, beta 1): each entry an n- or (m + 1)-term sum
    got = np.empty(m)
    lib.dgemv(_blas.ROW_MAJOR, _blas.NO_TRANS, m, n, 1.0, a.ctypes.data, n, x.ctypes.data, 1, 0.0, got.ctypes.data, 1)
    assert np.all(np.abs(got - a @ x) <= 2 * n * EPS * (np.abs(a) @ np.abs(x)))
    got = y.copy()
    lib.dgemv(_blas.ROW_MAJOR, _blas.TRANS, m, n, -1.0, a.ctypes.data, n, c.ctypes.data, 1, 1.0, got.ctypes.data, 1)
    assert np.all(np.abs(got - (y - c @ a)) <= 2 * (m + 1) * EPS * (np.abs(y) + np.abs(c) @ np.abs(a)))


def test_the_tridiagonal_solver_is_bound_wherever_openblas_is():
    """As for the product: a silent fall back to the dense ``eigh`` would cost
    O(m^3) a check with no other test failing. The integer arguments and the
    returned info take the config string's width, and a call gives the top
    two eigenvalues of T and the last entry of the top eigenvector."""
    if _openblas_threads() is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    lib = _blas.openblas()
    assert lib.dstevx is not None and spectra._stevx() is lib.dstevx
    size = 8 if "USE64BITINT" in lib.config.split() else 4
    assert all(ctypes.sizeof(lib.dstevx.argtypes[i]) == size for i in (3, 8, 9, 14))
    assert ctypes.sizeof(lib.dstevx.restype) == size
    rng = np.random.default_rng(14)
    m = 7
    alpha, beta = rng.standard_normal(m), rng.uniform(0.5, 1.5, m - 1)
    got = spectra._ritz(alpha, beta)
    want, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    # both solvers are backward stable: each eigenvalue within m eps |T| of
    # the exact one, and the unit eigenvector within that over the gap
    norm = float(np.max(np.abs(want)))
    bound = 2 * m * EPS * norm
    assert abs(got[0] - want[-1]) <= bound and abs(got[1] - want[-2]) <= bound
    assert abs(abs(got[2]) - abs(s[-1, -1])) <= bound / (want[-1] - want[-2])


def test_a_2x2_ritz_pair_matches_its_closed_form(tridiagonal):
    """The smallest T a check can see: eigenvalues (a + c)/2 +- sqrt(((a - c)/2)^2
    + b^2), the top eigenvector along (b, theta_1 - a), to 50 digits."""
    rng = np.random.default_rng(15)
    for _ in range(20):
        a, c = rng.standard_normal(2)
        b = float(rng.uniform(1e-3, 2.0))
        top, second, s = spectra._ritz(np.array([a, c]), np.array([b]))
        with mpmath.workdps(50):
            ea, eb, ec = (mpmath.mpf(float(v)) for v in (a, b, c))
            mid, rad = (ea + ec) / 2, mpmath.sqrt(((ea - ec) / 2) ** 2 + eb**2)
            want = (float(mid + rad), float(mid - rad), float((mid + rad - ea) / mpmath.hypot(eb, mid + rad - ea)))
        bound = 2 * 2 * EPS * max(abs(want[0]), abs(want[1]))  # m eps |T| each, m = 2
        assert abs(top - want[0]) <= bound and abs(second - want[1]) <= bound
        assert abs(abs(s) - want[2]) <= bound / (want[0] - want[1])


def test_a_repeated_top_pair_never_passes_the_stop_test(tridiagonal):
    """T's top two eigenvalues equal in floating point: a gap of 0 passes no
    residual above 0, and the test divides by nothing."""
    cases = [([1.0, 1.0], [1e-200]), ([2.0, 2.0, 2.0], [1e-170, 1e-170])]
    for alpha, beta in cases:
        alpha, beta = np.array(alpha), np.array(beta)
        top, second, _ = spectra._ritz(alpha, beta)
        assert top == second
        with np.errstate(all="raise"):
            for b in (1.0, 1e-100):
                assert spectra._converged(alpha, beta, b) is None


def test_a_tridiagonal_solver_failure_is_a_numerical_failure():
    """LAPACKE_dstevx returns info -5 for a NaN on the diagonal (its NaN check)."""
    if spectra._stevx() is None:
        pytest.skip("no OpenBLAS LAPACKE_dstevx is loaded in this process")
    with pytest.raises(NumericalFailure, match="info"):
        spectra._ritz(np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("left", [1e-12, 0.5])
def test_reorthogonalization_leaves_only_rounding_along_the_basis(left, product):
    """w mostly inside the span of 10 orthonormal rows, with ``left`` of it
    outside. One classical Gram-Schmidt pass leaves about eps |w| along the
    rows, which next to a remainder of 1e-12 |w| is no longer rounding; the
    second pass takes it out. Each pass is backward stable: its products
    err by at most n eps and m eps relative, so what it leaves along the
    rows is within (n sqrt(m) + (m + 1)(1 + sqrt(m))) eps of |w| before it,
    and the pass that ends it kept at least 1/sqrt(2) of that."""
    n, m = 60, 10
    rng = np.random.default_rng(16)
    prior = np.linalg.qr(rng.standard_normal((n, m)))[0].T.copy()
    inside, outside = prior.T @ rng.standard_normal(m), rng.standard_normal(n)
    for _ in range(2):
        outside -= prior.T @ (prior @ outside)
    basis = np.vstack([prior, inside + left * (np.linalg.norm(inside) / np.linalg.norm(outside)) * outside])
    lib = spectra._lanczos_blas()
    step = spectra._NumpyStep(np.eye(n)) if lib is None else spectra._BlasStep(lib, np.eye(n))
    step.rebase(basis)
    after = spectra._orthogonalize(step, m)
    w = basis[m]
    assert after == w @ w
    bound = (n * math.sqrt(m) + (m + 1) * (1 + math.sqrt(m))) * EPS * math.sqrt(2.0 * after)
    assert np.max(np.abs(prior @ w)) <= bound


def test_the_lanczos_start_vector_is_built_once_per_n_and_read_only():
    """Every call of one n shares the vector; a write to it would move every
    later eig value, so none is allowed. Its bits are the first n standard
    normals of Philox at key (0, 2^64 - 1), normalized."""
    q = spectra._lanczos_start(50)
    assert spectra._lanczos_start(50) is q
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[0] = 0.0
    g = np.random.Generator(np.random.Philox(key=np.array([0, (1 << 64) - 1], dtype=np.uint64))).standard_normal(50)
    assert np.array_equal(q, g / np.linalg.norm(g))


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
