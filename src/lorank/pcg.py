"""Preconditioned conjugate gradient core on abstract operators.

Operators are plain callables vector -> vector; both the system operator and
the preconditioner inverse must act as symmetric positive definite maps.
Long runs (the no-preconditioner baseline reaches 1e5 iterations in one
system) drift in the recursive residual, so the true residual is recomputed
every 50 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

LinOp = Callable[[np.ndarray], np.ndarray]


@dataclass
class PcgReport:
    iterations: int
    relres: float
    converged: bool
    breakdown: bool = False
    stagnated: bool = False

    @property
    def usable(self) -> bool:
        """Converged, or stagnated at the float64 residual floor with
        relres <= 0.1: the drivers take such a solve as an accurate
        direction (the computed residual is dominated by round-off in the
        operator when the system is extremely ill-conditioned), except ip
        at a point that already meets the standard DIMACS tolerance."""
        return self.converged or (self.stagnated and self.relres <= 0.1)


def cg_tolerance(iteration: int, floor: float) -> float:
    """The CG tolerance of outer iteration ``iteration`` (from 0): 0.01,
    halved per outer iteration, down to ``floor``.  0.01 * 2**-k is exact
    in float64, so this equals the repeated halving bit for bit."""
    return max(floor, 0.01 * 0.5**iteration)


def identity_prec(v: np.ndarray) -> np.ndarray:
    return v


def pcg_solve(
    op: LinOp,
    precond_inv: LinOp | None,
    rhs: np.ndarray,
    tol: float = 1e-6,
    maxiter: int = 100000,
) -> tuple[np.ndarray, PcgReport]:
    """Solve op(x) = rhs from x = 0 to relative residual
    ||op(x) - rhs|| / ||rhs|| <= tol.

    Returns the iterate together with a report; a nonpositive curvature
    p'Ap <= 0 sets the breakdown flag (indefinite operator: preconditioner
    bug or penalty collapse) and returns the current iterate.  When the true
    residual stops improving across three consecutive refresh windows the
    iteration has hit its floating-point floor and returns with the
    stagnation flag; the caller decides whether the iterate is usable.
    """
    if precond_inv is None:
        precond_inv = identity_prec
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, PcgReport(0, 0.0, True)

    r = rhs.copy()
    relres = float(np.linalg.norm(r)) / bnorm
    if relres <= tol:
        return x, PcgReport(0, relres, True)

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
        x += alpha * p
        if it % 50 == 0:
            r = rhs - op(x)
        else:
            r -= alpha * q
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            return x, PcgReport(it, relres, True)
        if it % 50 == 0:
            if relres > 0.99 * refresh_relres:
                stall_count += 1
                if stall_count >= 3:
                    return x, PcgReport(it, relres, False, stagnated=True)
            else:
                stall_count = 0
            refresh_relres = relres
        z = precond_inv(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, PcgReport(it, relres, False)
