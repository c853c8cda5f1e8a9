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
