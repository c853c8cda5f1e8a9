"""The BLAS thread default that importing ``lorank`` sets, checked in a
fresh interpreter: BLAS reads these variables once, when numpy loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def blas_env_after_import(**env) -> dict:
    """The BLAS variables after ``import lorank`` in a child whose
    environment has none of them and no LORANK_THREADS, apart from ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("LORANK_THREADS",)}
    clean.update(env, PYTHONPATH=str(SRC))
    code = f"import json, os, lorank; print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))"
    out = subprocess.run([sys.executable, "-c", code], env=clean, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_single_thread_by_default():
    assert blas_env_after_import() == dict.fromkeys(BLAS_VARS, "1")


@pytest.mark.parametrize("env, expected", [
    ({"OMP_NUM_THREADS": "2"}, {**dict.fromkeys(BLAS_VARS), "OMP_NUM_THREADS": "2"}),
    ({"LORANK_THREADS": "2", "MKL_NUM_THREADS": "3"}, {**dict.fromkeys(BLAS_VARS, "2"), "MKL_NUM_THREADS": "3"}),
])
def test_values_the_user_set_are_kept(env, expected):
    """A BLAS variable the user set turns the default off; LORANK_THREADS
    fills in only the variables that are not set."""
    assert blas_env_after_import(**env) == expected


# In the child: every OpenBLAS mapped into the process (read from
# /proc/self/maps), its thread getter and setter, and a count of 3 set in
# each before lorank is imported, so the check does not rest on the
# machine's core count.
OPENBLAS_PROBE = """
import ctypes, json
import numpy, scipy.linalg

def loaded():
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    return [ctypes.CDLL(p) for p in sorted(paths) if p.startswith("/")]

def call(lib, what, *args):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            name = prefix + what + suffix
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [ctypes.c_int] * len(args), ctypes.c_int
                return fn(*args)
    raise LookupError(what)

for lib in loaded():
    call(lib, "set_num_threads", 3)
import lorank
print(json.dumps([call(lib, "get_num_threads") for lib in loaded()]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_cap_reaches_openblas_loaded_before_lorank():
    """``import numpy`` before ``import lorank``: the OpenBLAS builds numpy
    and scipy loaded have read their variables already, and the cap of
    LORANK_THREADS=1 reaches them through their thread setters."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("LORANK_THREADS",)}
    clean.update(LORANK_THREADS="1", PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", OPENBLAS_PROBE], env=clean, capture_output=True, text=True, check=True)
    counts = json.loads(out.stdout)
    if not counts:
        pytest.skip("numpy and scipy load no OpenBLAS here")
    assert counts == [1] * len(counts)
