"""The OpenBLAS that numpy loaded, found once: its thread-count calls and its
symmetric matrix-vector product.

The mapped libraries are read from /proc/self/maps on the first call, not at
import, and opened with ctypes, so ``import spiked_lab`` opens no library.
Other BLAS libraries (MKL, Accelerate) and systems without /proc give None.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

# CBLAS enum values (cblas.h)
ROW_MAJOR = 101
UPPER = 121

# (get threads, set threads, cblas_dsymv, config string) in each naming scheme:
# the symbol-prefixed scipy-openblas wheels numpy ships, then a plain OpenBLAS
_SCHEMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_cblas_dsymv64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "cblas_dsymv", "openblas_get_config"),
)


class OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: str  # the build's configuration string, e.g. "OpenBLAS 0.3.31 USE64BITINT ..."
    # cblas_dsymv(order, uplo, n, alpha, a, lda, x, incx, beta, y, incy), its integers
    # 64-bit where the config string says USE64BITINT; None where it is not exported
    dsymv: Callable | None


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
        for get_name, set_name, dsymv_name, config_name in _SCHEMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            config, dsymv = "", None
            config_fn = getattr(lib, config_name, None)
            if config_fn is not None:  # without it the integer width is unknown: no dsymv call is typed
                config_fn.argtypes, config_fn.restype = [], ctypes.c_char_p
                config = config_fn().decode("ascii", "replace")
                dsymv = getattr(lib, dsymv_name, None)
            if dsymv is not None:
                blasint = ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int
                ptr, c_double, enum = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
                dsymv.argtypes = [enum, enum, blasint, c_double, ptr, blasint, ptr, blasint, c_double, ptr, blasint]
                dsymv.restype = None
            return OpenBlas(get, set_, config, dsymv)
    return None
