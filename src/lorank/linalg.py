"""Dense symmetric kernels.

Everything downstream (solvers, preconditioners, the instance generator)
works with plain float64 numpy arrays for dense symmetric matrices.  Block
sizes stay in the low thousands, so dense LAPACK kernels are the right tools:
Cholesky, ``min_eig`` for the cone tests, and ``top_eig``, one tridiagonal
reduction that yields the whole spectrum and only the few top eigenvectors
the spectral split needs.  No Krylov eigensolver is used anywhere.
"""

from __future__ import annotations

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


def sym(a: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize, purging round-off asymmetry."""
    return 0.5 * (a + a.T)


def top_eig(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of sym(a), ascending, and the m x k eigenvectors of
    the k largest, in the same order, all from one tridiagonal reduction.

    LAPACK ``dsytrd`` (blocked, at the queried workspace) reduces a to
    T = Q'aQ; ``dsterf`` takes T's whole spectrum in O(m^2) and ``dstein``
    the k top vectors of T by inverse iteration; ``dormqr`` on the
    reflectors below the subdiagonal maps them back by Q (the reduction's Q
    is diag(1, Q~), so it acts on rows 1..m-1).  Neither the m - k other
    vectors nor Q itself is formed: at the block sizes used here this costs
    about half a full ``eigh``.  Raises ``ValueError`` on non-finite input
    and ``np.linalg.LinAlgError`` if LAPACK fails.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    if not 0 <= k <= m:
        raise ValueError(f"top_eig: k = {k} outside [0, {m}]")
    s = a + a.T  # 2 sym(a); halving the eigenvalues afterwards is exact
    if not np.isfinite(s).all():
        raise ValueError("top_eig: input contains non-finite entries")
    if m == 1:
        return 0.5 * s[0], np.ones((1, k))
    # dsytrd and dormqr fail only on illegal arguments, which the wrappers
    # rule out; dsterf and dstein can fail to converge
    lwork, _ = lapack.dsytrd_lwork(m, lower=1)
    # s.T is s in Fortran order, so the wrapper overwrites it without a copy
    c, d, e, tau, _ = lapack.dsytrd(s.T, lower=1, lwork=int(lwork), overwrite_a=1)
    w, info = lapack.dsterf(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(f"top_eig: dsterf failed (info={info})")
    if k == 0:
        return 0.5 * w, np.zeros((m, 0))
    # T as one block: dstein's split indices say rows 1..m
    z, info = lapack.dstein(d, e, w[m - k :], np.ones(m, dtype=np.int32), np.full(m, m, dtype=np.int32))
    if info != 0:
        raise np.linalg.LinAlgError(f"top_eig: dstein failed (info={info})")
    z[1:], _, _ = lapack.dormqr("L", "N", c[1:, :-1], tau, z[1:], k)
    return 0.5 * w, z


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

