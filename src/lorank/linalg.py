"""Dense symmetric kernels.

Everything downstream (solvers, preconditioners, the instance generator)
works with plain float64 numpy arrays for dense symmetric matrices.  Block
sizes stay in the low thousands, so dense LAPACK eigendecomposition and
Cholesky are the right tools; no iterative eigensolvers are used anywhere.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky factorization hits a nonpositive pivot.

    ``pivot`` is the 0-based index of the failing pivot.  In the solvers this
    signals a step that left the cone or a stale preconditioner.
    """

    def __init__(self, pivot: int, context: str = ""):
        self.pivot = pivot
        msg = f"matrix not positive definite (pivot {pivot})"
        if context:
            msg += f" in {context}"
        super().__init__(msg)


class EigDecomp(NamedTuple):
    """Eigendecomposition A = Q diag(w) Q^T with w ascending."""

    w: np.ndarray
    q: np.ndarray


def sym(a: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize, purging round-off asymmetry."""
    return 0.5 * (a + a.T)


def sym_eig(a: np.ndarray) -> EigDecomp:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises a diagnostic ``np.linalg.LinAlgError`` on non-convergence, which
    for finite symmetric input does not happen in practice.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("sym_eig: input contains non-finite entries")
    w, q = np.linalg.eigh(sym(a))
    return EigDecomp(w, q)


def chol(a: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor L with L L^T = a.

    Raises :class:`NotPositiveDefinite` with the failing pivot index when the
    matrix is not positive definite.  LAPACK's wrapper zeroes the upper
    triangle and returns Fortran order, which the other factor kernels read
    without a copy.
    """
    a = np.asarray(a, dtype=float)
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(info - 1, context)
    if info < 0:
        raise ValueError(f"chol: illegal argument {-info}")
    return c


def is_pd(a: np.ndarray) -> bool:
    """True iff the symmetric matrix factors (strictly positive definite)."""
    try:
        chol(a)
        return True
    except NotPositiveDefinite:
        return False


def chol_solve(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower Cholesky factor."""
    x, info = lapack.dpotrs(l, b, lower=1)
    if info != 0:
        raise ValueError(f"chol_solve: illegal argument {-info}")
    return x


def chol_inv(l: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} given the lower Cholesky factor with a zero upper
    triangle (as :func:`chol` returns it); the result is exactly symmetric."""
    c, info = lapack.dpotri(l, lower=1)
    if info != 0:
        raise ValueError(f"chol_inv: singular factor or illegal argument ({info})")
    return c + np.tril(c, -1).T


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of sym(a) alone: LAPACK ``dsyevr`` restricted to
    the first index, without eigenvectors, at about half the cost of a full
    ``eigvalsh`` at the block sizes used here.  Raises
    ``np.linalg.LinAlgError`` on non-finite input, as ``eigvalsh`` does
    (``dsyevr`` itself would return a number)."""
    a = np.asarray(a, dtype=float)
    s = a + a.T  # 2 sym(a); halving the eigenvalue afterwards is exact
    if not np.isfinite(s).all():
        raise np.linalg.LinAlgError("min_eig: input contains non-finite entries")
    # s.T is s in Fortran order, so the wrapper overwrites it without a copy
    w, _, _, _, info = lapack.dsyevr(s.T, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"min_eig: dsyevr failed (info={info})")
    return 0.5 * float(w[0])

