"""The OpenBLAS that numpy loaded, found once: its thread-count calls, the
calls of a Lanczos step and its tridiagonal eigensolver.

The mapped libraries are read from /proc/self/maps on the first call, not at
import, and opened with ctypes, so ``import spiked_lab`` opens no library.
Other BLAS libraries (MKL, Accelerate) and systems without /proc give None.

The library is opened twice. Calls through the ``CDLL`` handle release the
GIL while they run: ``dsymv`` (about 200 us at n = 900) and ``dstevx``, long
enough for another Python thread to use the interpreter meanwhile. Calls
through the ``PyDLL`` handle keep it: ``ddot``, ``daxpy`` and ``dgemv`` take
a few microseconds in a Lanczos step, and each release of the GIL there
hands it to any other thread that waits for it and then waits to get it
back (the convoy effect of CPython's GIL), which cost two threads running
Lanczos side by side about four times the step's own time.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

# CBLAS and LAPACKE enum values (cblas.h, lapacke.h)
ROW_MAJOR = 101
COL_MAJOR = 102
NO_TRANS = 111
TRANS = 112
UPPER = 121

# (get threads, set threads, config string, cblas_dsymv, LAPACKE_dstevx, cblas_ddot,
# cblas_daxpy, cblas_dgemv) in each naming scheme: the symbol-prefixed scipy-openblas
# wheels numpy ships, then a plain OpenBLAS
_SCHEMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_config64_",
     "scipy_cblas_dsymv64_", "scipy_LAPACKE_dstevx64_",
     "scipy_cblas_ddot64_", "scipy_cblas_daxpy64_", "scipy_cblas_dgemv64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_config",
     "cblas_dsymv", "LAPACKE_dstevx", "cblas_ddot", "cblas_daxpy", "cblas_dgemv"),
)


class OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: str  # the build's configuration string, e.g. "OpenBLAS 0.3.31 USE64BITINT ..."
    # The typed calls below take 64-bit integers where the config string says
    # USE64BITINT; each is None where it is not exported. These two release the GIL:
    # cblas_dsymv(order, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
    dsymv: Callable | None
    # LAPACKE_dstevx(layout, jobz, range, n, d, e, vl, vu, il, iu, abstol, m, w, z, ldz, ifail) -> info
    dstevx: Callable | None
    # and these three keep it:
    # cblas_ddot(n, x, incx, y, incy) -> x . y
    ddot: Callable | None
    # cblas_daxpy(n, alpha, x, incx, y, incy): y += alpha x
    daxpy: Callable | None
    # cblas_dgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
    dgemv: Callable | None


@functools.cache
def openblas() -> OpenBlas | None:
    """The loaded OpenBLAS, or None where none with a thread-count API is found."""
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
        for get_name, set_name, config_name, *typed_names in _SCHEMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            config_fn = getattr(lib, config_name, None)
            if config_fn is None:  # without it the integer width is unknown: no call below is typed
                return OpenBlas(get, set_, "", None, None, None, None, None)
            config_fn.argtypes, config_fn.restype = [], ctypes.c_char_p
            config = config_fn().decode("ascii", "replace")
            held = ctypes.PyDLL(path)  # the same library: its functions keep the GIL
            dsymv_name, dstevx_name, ddot_name, daxpy_name, dgemv_name = typed_names
            blasint = ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int
            ptr, c_double, enum, char = ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_char
            return OpenBlas(
                get, set_, config,
                _typed(lib, dsymv_name,
                       [enum, enum, blasint, c_double, ptr, blasint, ptr, blasint, c_double, ptr, blasint]),
                _typed(lib, dstevx_name, [enum, char, char, blasint, ptr, ptr, c_double, c_double,
                                          blasint, blasint, c_double, ptr, ptr, ptr, blasint, ptr], blasint),
                _typed(held, ddot_name, [blasint, ptr, blasint, ptr, blasint], c_double),
                _typed(held, daxpy_name, [blasint, c_double, ptr, blasint, ptr, blasint]),
                _typed(held, dgemv_name, [enum, enum, blasint, blasint, c_double, ptr, blasint, ptr, blasint,
                                          c_double, ptr, blasint]),
            )
    return None


def _typed(handle, name: str, argtypes: list, restype=None) -> Callable | None:
    """The library's function ``name`` with its argument and result types set, or None where it is not exported."""
    fn = getattr(handle, name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn
