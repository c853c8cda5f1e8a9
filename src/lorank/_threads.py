"""Worker-thread cap via the LORANK_THREADS environment variable.

BLAS backends read their thread settings at load time, so this module should
run before numpy is first imported; the package __init__ imports it first.
Values already set explicitly by the user are left alone.  With neither
LORANK_THREADS nor any BLAS variable set, BLAS runs single-threaded: the
solvers' dense blocks are small, and on a 2-core VM OpenBLAS's default
thread count made an interior-point solve of tru7 about 3x slower than one
thread.  When numpy or scipy was imported first, the OpenBLAS builds their
wheels bundle are already loaded and past reading the variables; those get
the cap through their own ``*_set_num_threads``.
"""

import ctypes
import glob
import os
import sys

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# thread setters of the scipy-openblas builds (64- and 32-bit integer
# interfaces) and of a plain OpenBLAS
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _set_loaded_openblas_threads(count: int) -> None:
    """Set ``count`` threads in each OpenBLAS that the loaded numpy and scipy
    bundle (``numpy.libs``, ``scipy.libs``) and that is loaded already; a
    library not loaded yet reads the environment when it is."""
    no_load = getattr(os, "RTLD_NOLOAD", None)
    if no_load is None:
        return
    for pkg in ("numpy", "scipy"):
        init = getattr(sys.modules.get(pkg), "__file__", None)
        if init is None:
            continue
        site = os.path.dirname(os.path.dirname(init))
        for path in glob.glob(os.path.join(site, f"{pkg}.libs", "*openblas*")):
            try:
                lib = ctypes.CDLL(path, mode=no_load)
            except OSError:
                continue
            setter = next((getattr(lib, n) for n in _OPENBLAS_SETTERS if hasattr(lib, n)), None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(count)


def apply_thread_cap() -> int | None:
    cap = os.environ.get("LORANK_THREADS")
    if not cap:
        if any(var in os.environ for var in _BLAS_VARS):
            return None
        cap = "1"
    try:
        value = str(max(1, int(cap)))
    except ValueError:
        return None
    for var in _BLAS_VARS:
        os.environ.setdefault(var, value)
    # a user's own OPENBLAS_NUM_THREADS was read when OpenBLAS loaded
    if os.environ["OPENBLAS_NUM_THREADS"] == value and ("numpy" in sys.modules or "scipy" in sys.modules):
        _set_loaded_openblas_threads(int(value))
    return int(value)


apply_thread_cap()
