"""Preconditioned conjugate gradient core on abstract operators.

Operators are plain callables vector -> vector; both the system operator and
the preconditioner inverse must act as symmetric positive definite maps.
The preconditioner is always given: the drivers' ``none`` kind applies
P = I (``precond.identity``).  Long runs (the no-preconditioner baseline
reaches 1e5 iterations in one system) drift in the recursive residual, so
the true residual is recomputed every 50 iterations.

Two options of ``pcg_solve`` let a second solve with the same H and P reuse
the first (the IP's predictor and corrector).  ``record=True`` keeps the
first ``RECORD_DIRS`` directions p_j and products H p_j and returns in
``PcgReport.deflation`` the span Z of the ``DEFLATE_RANK`` smallest Ritz
vectors of P^{-1}H, from CG's own coefficients and the stored products, so
without applying H or P.  ``deflate=`` runs PCG with the balancing
two-level preconditioner (Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 39,
2009)

    M = (I - Z E^{-1} (HZ)') P^{-1} (I - HZ E^{-1} Z') + Z E^{-1} Z',  E = Z'HZ,

SPD for any full-rank Z, even with an inexact stored HZ, since
v'Mv = |P^{-1/2}(v - HZ E^{-1} Z'v)|^2 + v'Z E^{-1} Z'v.  A space of
recorded directions starts from x0 = Z E^{-1} Z'b with the residual
b - HZ E^{-1} Z'b, no product with H.  A Ritz space starts from x0 = 0: a
Ritz vector combines many, often nearly parallel, directions, and late in
an IP run its stored HZ can be off by more than the CG tolerance, which a
start residual computed from it would hide.  Every product with H and
apply of P stays inside a counted iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .linalg import sym

LinOp = Callable[[np.ndarray], np.ndarray]

RECORD_DIRS = 64     # search directions a recording solve keeps (memory bound)
DEFLATE_RANK = 16    # Ritz vectors in a deflation space
DEFLATE_DROP = 1e-8  # least eigenvalue of the unit-diagonal E a kept direction has


@dataclass
class Deflation:
    """A deflation space kept H-orthonormal, Z'HZ = I, so E^{-1} drops out
    of the apply: exactly for a space from ``of``, and up to CG's loss of
    conjugacy for recorded directions scaled by 1/sqrt(p_j'Hp_j).  The rows
    of ``z`` and ``hz`` (K x n) are the columns of Z and HZ; ``exact_hz``
    tells that HZ is accurate enough to start from x0 = Z Z'b (module
    docstring)."""

    z: np.ndarray
    hz: np.ndarray
    exact_hz: bool = True

    @classmethod
    def of(cls, y: np.ndarray, hy: np.ndarray) -> Deflation:
        """The space spanned by the rows of ``y`` (``hy`` = the rows of
        H y', not trusted for the start), H-orthonormalized through the
        eigendecomposition of E = y H y' scaled to unit diagonal.
        Independent rows leave
        eigenvalues near 1; finite-precision Lanczos repeats converged Ritz
        vectors, and each repeat leaves one near 0.  Directions below
        ``DEFLATE_DROP`` are dropped; the largest eigenvalue, at least the
        mean diagonal 1, always stays."""
        e = y @ hy.T
        d = 1.0 / np.sqrt(np.diag(e))
        w, u = np.linalg.eigh(sym(e * d * d[:, None]))
        keep = w > DEFLATE_DROP
        t = (u[:, keep] / np.sqrt(w[keep])).T * d
        return cls(t @ y, t @ hy, exact_hz=False)

    @property
    def rank(self) -> int:
        return self.z.shape[0]

    def start(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x0 = Z Z'b and its residual b - HZ Z'b."""
        c = self.z @ rhs
        return c @ self.z, rhs - c @ self.hz

    def balance(self, precond_inv: LinOp) -> LinOp:
        """M v = u + Z(Z'v - (HZ)'u) with u = P^{-1}(v - HZ Z'v)."""
        z, hz = self.z, self.hz

        def apply(v: np.ndarray) -> np.ndarray:
            a = z @ v
            u = precond_inv(v - a @ hz)
            return u + (a - hz @ u) @ z

        return apply


@dataclass
class PcgReport:
    iterations: int
    relres: float
    converged: bool
    breakdown: bool = False
    stagnated: bool = False
    deflation: Deflation | None = field(default=None, repr=False)

    @property
    def usable(self) -> bool:
        """Converged, or stagnated at the float64 residual floor with
        relres <= 0.1: the drivers take such a solve as an accurate
        direction (the computed residual is dominated by round-off in the
        operator when the system is extremely ill-conditioned), except at
        a point that already meets the standard DIMACS tolerance
        (``report.RunRecord.take``)."""
        return self.converged or (self.stagnated and self.relres <= 0.1)


def cg_tolerance(iteration: int, floor: float) -> float:
    """The CG tolerance of outer iteration ``iteration`` (from 0): 0.01,
    halved per outer iteration, down to ``floor``.  0.01 * 2**-k is exact
    in float64, so this equals the repeated halving bit for bit."""
    return max(floor, 0.01 * 0.5**iteration)


def pcg_solve(
    op: LinOp,
    precond_inv: LinOp,
    rhs: np.ndarray,
    tol: float = 1e-6,
    maxiter: int = 100000,
    record: bool = False,
    deflate: Deflation | None = None,
) -> tuple[np.ndarray, PcgReport]:
    """Solve op(x) = rhs to relative residual ||op(x) - rhs|| / ||rhs|| <= tol
    from x = 0, or with ``deflate`` under the two-level preconditioner and
    from the start the module docstring gives.

    Returns the iterate together with a report; a nonpositive curvature
    p'Ap <= 0 sets the breakdown flag (indefinite operator: preconditioner
    bug or penalty collapse) and returns the current iterate.  When the true
    residual stops improving across three consecutive refresh windows the
    iteration has hit its floating-point floor and returns with the
    stagnation flag; the caller decides whether the iterate is usable.
    With ``record`` the report carries the deflation space of this solve
    (``_LanczosRecord.ritz_space``; None after a breakdown); recording does
    not change the iterates.
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, PcgReport(0, 0.0, True)

    if deflate is not None and deflate.exact_hz:
        x, r = deflate.start(rhs)
    else:
        r = rhs.copy()
    if deflate is not None:
        precond_inv = deflate.balance(precond_inv)
    relres = float(np.linalg.norm(r)) / bnorm
    if relres <= tol:
        return x, PcgReport(0, relres, True)

    lanczos = _LanczosRecord() if record else None
    z = precond_inv(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    refresh_relres = relres
    stall_count = 0
    while it < maxiter:
        it += 1
        q = op(p)
        pq = float(p @ q)
        if pq <= 0.0 or not np.isfinite(pq):
            return x, PcgReport(it, relres, False, breakdown=True)
        alpha = rz / pq
        if lanczos is not None:
            lanczos.step(p, q, alpha, rz)
        x += alpha * p
        if it % 50 == 0:
            r = rhs - op(x)
        else:
            r -= alpha * q
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            return x, _report(PcgReport(it, relres, True), lanczos)
        if it % 50 == 0:
            if relres > 0.99 * refresh_relres:
                stall_count += 1
                if stall_count >= 3:
                    return x, _report(PcgReport(it, relres, False, stagnated=True), lanczos)
            else:
                stall_count = 0
            refresh_relres = relres
        z = precond_inv(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, _report(PcgReport(it, relres, False), lanczos)


class _LanczosRecord:
    """The first ``RECORD_DIRS`` steps of a PCG solve: directions p_j,
    products H p_j and the coefficients alpha_j and r_j'z_j (beta_j is
    r_{j+1}'z_{j+1} / r_j'z_j, the same division PCG makes).  Each p_j and
    H p_j is a fresh array that PCG never writes again, so they are kept
    without copies."""

    def __init__(self):
        self.ps: list[np.ndarray] = []
        self.qs: list[np.ndarray] = []
        self.alphas: list[float] = []
        self.rzs: list[float] = []

    def step(self, p: np.ndarray, q: np.ndarray, alpha: float, rz: float) -> None:
        if len(self.ps) < RECORD_DIRS:
            self.ps.append(p)
            self.qs.append(q)
            self.alphas.append(alpha)
            self.rzs.append(rz)

    def ritz_space(self) -> Deflation | None:
        """Span of the ``DEFLATE_RANK`` smallest Ritz vectors of P^{-1}H on
        the recorded directions; None when some r'z <= 0 (P^{-1} did not
        act positive definite, round-off in an ill-conditioned P), which
        voids the Lanczos relation.  With at most ``DEFLATE_RANK``
        directions every Ritz vector is taken, and the directions span the
        same space.  Otherwise PCG's coefficients give the Lanczos
        tridiagonal (diagonal 1/alpha_j + beta_{j-1}/alpha_{j-1},
        off-diagonal sqrt(beta_j)/alpha_j) on (-1)^j z_j / sqrt(r_j'z_j),
        and z_j = p_j - beta_{j-1} p_{j-1} maps its eigenvectors onto the
        p_j.  The directions are H-conjugate and only scaled; the Ritz
        vectors are H-orthonormalized by ``Deflation.of``."""
        k = len(self.rzs)
        if k == 0 or min(self.rzs) <= 0.0:
            return None
        a, rz = np.array(self.alphas), np.array(self.rzs)
        w = np.array(self.ps + self.qs).reshape(2, k, -1)
        if k <= DEFLATE_RANK:
            # p_j'Hp_j = r_j'z_j / alpha_j
            return Deflation(*(w * np.sqrt(a / rz)[:, None]))
        b = rz[1:] / rz[:-1]
        diag = 1.0 / a
        diag[1:] += b / a[:-1]
        _, s = eigh_tridiagonal(diag, np.sqrt(b) / a[:-1])
        c = s[:, :DEFLATE_RANK] * ((-1.0) ** np.arange(k) / np.sqrt(rz))[:, None]
        c[:-1] -= b[:, None] * c[1:]
        return Deflation.of(*(c.T @ w))


def _report(rep: PcgReport, lanczos: _LanczosRecord | None) -> PcgReport:
    if lanczos is not None:
        rep.deflation = lanczos.ritz_space()
    return rep
