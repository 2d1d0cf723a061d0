"""The OpenBLAS that numpy loaded, found once: its thread-count calls, its
symmetric matrix-vector product and its tridiagonal eigensolver.

The mapped libraries are read from /proc/self/maps on the first call, not at
import, and opened with ctypes, so ``import spiked_lab`` opens no library.
Other BLAS libraries (MKL, Accelerate) and systems without /proc give None.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

# CBLAS and LAPACKE enum values (cblas.h, lapacke.h)
ROW_MAJOR = 101
COL_MAJOR = 102
UPPER = 121

# (get threads, set threads, cblas_dsymv, LAPACKE_dstevx, config string) in each
# naming scheme: the symbol-prefixed scipy-openblas wheels numpy ships, then a plain OpenBLAS
_SCHEMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_cblas_dsymv64_", "scipy_LAPACKE_dstevx64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "cblas_dsymv", "LAPACKE_dstevx", "openblas_get_config"),
)


class OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: str  # the build's configuration string, e.g. "OpenBLAS 0.3.31 USE64BITINT ..."
    # The typed calls below take 64-bit integers where the config string says
    # USE64BITINT; each is None where it is not exported.
    # cblas_dsymv(order, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
    dsymv: Callable | None
    # LAPACKE_dstevx(layout, jobz, range, n, d, e, vl, vu, il, iu, abstol, m, w, z, ldz, ifail) -> info
    dstevx: Callable | None


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
            lib = ctypes.CDLL(path)  # its functions release the GIL while they run
        except OSError:
            continue
        for get_name, set_name, dsymv_name, dstevx_name, config_name in _SCHEMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            config, dsymv, dstevx = "", None, None
            config_fn = getattr(lib, config_name, None)
            if config_fn is not None:  # without it the integer width is unknown: no call below is typed
                config_fn.argtypes, config_fn.restype = [], ctypes.c_char_p
                config = config_fn().decode("ascii", "replace")
                dsymv, dstevx = getattr(lib, dsymv_name, None), getattr(lib, dstevx_name, None)
            blasint = ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int
            ptr, c_double, enum, char = ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_char
            if dsymv is not None:
                dsymv.argtypes = [enum, enum, blasint, c_double, ptr, blasint, ptr, blasint, c_double, ptr, blasint]
                dsymv.restype = None
            if dstevx is not None:
                dstevx.argtypes = [enum, char, char, blasint, ptr, ptr, c_double, c_double,
                                   blasint, blasint, c_double, ptr, ptr, ptr, blasint, ptr]
                dstevx.restype = blasint
            return OpenBlas(get, set_, config, dsymv, dstevx)
    return None
