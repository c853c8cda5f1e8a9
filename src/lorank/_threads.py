"""Worker-thread cap via the LORANK_THREADS environment variable.

BLAS backends read their thread settings at load time, so this module must
run before numpy is first imported; the package __init__ imports it first.
Values already set explicitly by the user are left alone.  With neither
LORANK_THREADS nor any BLAS variable set, BLAS runs single-threaded: the
solvers' dense blocks are small, and on a 2-core VM OpenBLAS's default
thread count made an interior-point solve of tru7 about 3x slower than one
thread.
"""

import os

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


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
    return int(value)


apply_thread_cap()
