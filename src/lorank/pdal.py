"""Primal-dual augmented Lagrangian solver with penalty rescaling.

The dual problem max b'y with A0(y) - C <= 0 and D y <= d is solved by
minimizing the generalized augmented Lagrangian

    F(y) = -b'y + r/2 ||y - y_prox||^2 + sum_i X_i . Phi_pi(A0_i(y) - C_i)
         + sum_j x_j phi_pi((D y - d)_j),

where Phi/phi are penalty rescalings that vanish at the constraint boundary
and blow up as the argument approaches the penalty parameter pi.  LMI blocks
use the hyperbolic penalty t -> t / (1 - t), whose matrix lift needs only the
resolvent Z = (pi I - A)^{-1} and admits the closed multiplier update
Xbar = pi^2 Z X Z; box rows use the quadratic-extrapolated logarithm.

Each outer iteration solves the stationarity condition as a primal-dual
system in (y, X) by damped Newton steps; the n x n Newton matrix (the
Hessian of F) is applied matrix-free and solved by PCG with the gamma/delta
preconditioners.  An early-stopping rule hands control back to the outer
loop as soon as the combined primal-dual error halves, which near the
solution reduces the inner loop to a single Newton step.

The outer loop stops when all six DIMACS measures reach eps_dimacs, the
interior-point driver's rule; each iterate is measured once, and the report
carries that measurement.  Each Newton step's CG solve passes the gate both
drivers share, ``RunRecord.take``: it ends the run ``numerical_limit`` when
a solve that did not converge comes at an outer point meeting the standard
1e-5 level, and ``cg_failure`` when the solve is not usable.  An outer
iteration that takes no Newton step and leaves every quantity its successor
reads unchanged ends the run, with status ``numerical_limit`` at the
standard 1e-5 level and ``stalled`` above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import precond as pc
from .linalg import NotPositiveDefinite, chol, chol_inv, is_pd, min_eig, sym
from .model import (
    BlockSymMatrix,
    DimacsErrors,
    PrimalDualPoint,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    block_min_eigs,
    dimacs,
    dual_slack,
    pd_errors,
)
from .pcg import cg_tolerance, pcg_solve
from .report import DIAG_LIMIT, RunRecord, SolveReport, SolverConfig

PDAL_KINDS = ("gamma", "delta", "beta", "none")

# One parameter set for the tru and the vib instances: the ``tru`` column of
# the paper's parameter table, with the proximal weight ``PdalConfig.r``
# lowered from 0.01 to 1e-4.
QLOG_TAU = 0.5          # box-penalty extrapolation point
PI_LIN_MIN = 1e-9       # penalty floors, box rows and LMI blocks
PI_LMI_MIN = 1e-5
PI_LIN_UPD = 0.5        # penalty decrease factors per outer iteration
PI_LMI_UPD = 0.5
GAMMA_LIN = 0.5         # multiplier damping: the inner solve's share
GAMMA_LMI = 0.5
INNER_EPS0 = 1e-2       # inner merit target eps_k = max(MIN, EPS0 * DECAY**k)
INNER_EPS_DECAY = 0.3
INNER_EPS_MIN = 1e-14
ARMIJO = 0.05           # sufficient-decrease fraction of the line search
LS_MAX_HALVINGS = 40
PD_TOL = 1e-10          # relative round-off the multiplier's definiteness test allows


class DomainViolation(Exception):
    """The largest constraint eigenvalue of an LMI block reached its penalty
    parameter; the caller must shrink the step or enlarge the parameter."""


def penalty_eval(t, pi: float, tau: float = QLOG_TAU):
    """(value, first, second derivative) of the scaled box penalty
    pi*phi(t/pi), vectorized over t.

    phi is the logarithm -log(1-s) extrapolated twice-differentiably by its
    quadratic Taylor polynomial beyond tau (Ben-Tal & Zibulevsky 1997):
    increasing, convex, value 0 and slope 1 at 0, and defined for every t.
    """
    t = np.asarray(t, dtype=float)
    s = t / pi
    log_mask = s <= tau
    denom = np.where(log_mask, 1.0 - s, 1.0)
    l1 = 1.0 / (1.0 - tau)
    ds = np.where(log_mask, 0.0, s - tau)
    val = np.where(
        log_mask,
        -np.log(denom),
        -np.log(1.0 - tau) + l1 * ds + 0.5 * l1**2 * ds**2,
    )
    d1 = np.where(log_mask, 1.0 / denom, l1 + l1**2 * ds)
    d2 = np.where(log_mask, 1.0 / denom**2, l1**2)
    return pi * val, d1, d2 / pi


def z_matrix(a_lmi: np.ndarray, pi: float) -> np.ndarray:
    """Resolvent Z = (pi I - A)^{-1}; positive definite iff A < pi I."""
    m = a_lmi.shape[0]
    try:
        l = chol(pi * np.eye(m) - a_lmi, "penalty resolvent")
    except NotPositiveDefinite as exc:
        raise DomainViolation("largest constraint eigenvalue reached pi") from exc
    return chol_inv(l)


def multiplier_update_lmi(z: np.ndarray, x: np.ndarray, pi: float) -> np.ndarray:
    """Closed-form multiplier update pi^2 Z X Z; positive definite for
    positive definite inputs."""
    return sym(pi**2 * z @ x @ z)


@dataclass
class PdalConfig(SolverConfig):
    SOLVER = "pdal"
    KINDS = PDAL_KINDS
    CG_FLOOR = 1e-6

    max_iter: int = 500
    precond: str = "gamma"
    r: float = 1e-4                # proximal weight; also the floor of the inner Hessian
    max_inner: int = 100

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be finite and positive, got {self.r!r}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner!r}")


def pdal_config_profile(profile: str) -> PdalConfig:
    """``PdalConfig()``; 'tru' is the one profile name.

    PDAL has one parameter set: it solves the tru and the vib instances
    alike.  Any other profile name raises ValueError."""
    if profile != "tru":
        raise ValueError(f"unknown profile {profile!r}; PDAL has only 'tru'")
    return PdalConfig()


@dataclass
class OuterCtx:
    """Quantities frozen during one inner solve: proximal center, multiplier
    estimates and penalty parameters.  The X arrays are the outer iterate's
    own, uncopied: the context only reads them, and each outer iteration
    builds a new X."""

    prob: SdpProblem
    y_prox: np.ndarray
    x_blocks: list[np.ndarray]
    x_lin: np.ndarray
    pi_lmi: float
    pi_lin: float
    r: float

    @property
    def b_min(self) -> np.ndarray:
        return -self.prob.b


@dataclass
class PointEval:
    """Penalty state at a trial point y: resolvents, updated multipliers and
    the gradient of the augmented Lagrangian."""

    y: np.ndarray
    a_blocks: list[np.ndarray]     # A0_i(y) - C_i
    z_blocks: list[np.ndarray]
    xbar_blocks: list[np.ndarray]  # pi^2 Z X Z
    t_lin: np.ndarray              # D y - d
    xbar_lin: np.ndarray
    wbar_lin: np.ndarray           # x phi''_pi, the linear Hessian weights
    grad: np.ndarray

    def slack(self) -> BlockSymMatrix:
        """The dual slack at y: -(A0(y) - C) and -(D y - d).  Negating a
        rounded difference is exact, so this is dual_slack(prob, y) bit for
        bit without its adjoint product."""
        return BlockSymMatrix([-a for a in self.a_blocks], -self.t_lin)

    @cached_property
    def slack_min_eigs(self) -> list[float]:
        """lambda_min of each LMI block of the slack, computed once for the
        three tests that read it at y: the early-stopping err4, the penalty
        update's lambda_max(A0(y) - C) and the next outer DIMACS err4."""
        return block_min_eigs(self.slack())


def evaluate_point(ctx: OuterCtx, y: np.ndarray) -> PointEval:
    prob = ctx.prob
    ay = apply_A_adjoint(prob, y)
    a_blocks = [a - c for a, c in zip(ay.blocks, prob.C)]
    z_blocks = [z_matrix(a, ctx.pi_lmi) for a in a_blocks]
    xbar_blocks = [
        multiplier_update_lmi(z, x, ctx.pi_lmi)
        for z, x in zip(z_blocks, ctx.x_blocks)
    ]
    t_lin = ay.lin - prob.d
    _, d1, d2 = penalty_eval(t_lin, ctx.pi_lin)
    xbar_lin = ctx.x_lin * d1
    wbar_lin = ctx.x_lin * d2
    xbar = BlockSymMatrix(xbar_blocks, xbar_lin)
    grad = ctx.b_min + ctx.r * (y - ctx.y_prox) + apply_A(prob, xbar)
    return PointEval(y, a_blocks, z_blocks, xbar_blocks, t_lin, xbar_lin, wbar_lin, grad)


def hessian_matvec(ctx: OuterCtx, ev: PointEval, dy: np.ndarray) -> np.ndarray:
    """(r I + 2 sum_i A_i'(Xbar_i x Z_i) A_i + D' Wbar D) dy, matrix-free.

    Xbar_i, Z_i and A_i(dy) are symmetric, so Z M Xbar is the transpose of
    Xbar M Z and one product per block suffices."""
    ady = apply_A_adjoint(ctx.prob, dy)
    blocks = []
    for xbar, mat, z in zip(ev.xbar_blocks, ady.blocks, ev.z_blocks):
        t = xbar @ mat @ z
        blocks.append(t + t.T)
    return ctx.r * dy + apply_A(ctx.prob, BlockSymMatrix(blocks, ev.wbar_lin * ady.lin))


def pd_residuals(
    ctx: OuterCtx, ev: PointEval, x_hat: BlockSymMatrix
) -> tuple[np.ndarray, BlockSymMatrix]:
    """G1 = grad of the Lagrangian part at (y, Xhat); G2 = Xhat - Xbar(y)."""
    prob = ctx.prob
    g1 = ctx.b_min + ctx.r * (ev.y - ctx.y_prox) + apply_A(prob, x_hat)
    g2 = BlockSymMatrix(
        [x_hat.blocks[i] - ev.xbar_blocks[i] for i in range(prob.p)],
        x_hat.lin - ev.xbar_lin,
    )
    return g1, g2


def merit(g1: np.ndarray, g2: BlockSymMatrix) -> float:
    return 0.5 * (float(g1 @ g1) + g2.dot(g2))


def merit_dderiv(
    ctx: OuterCtx,
    ev: PointEval,
    g1: np.ndarray,
    g2: BlockSymMatrix,
    dy: np.ndarray,
    dx: BlockSymMatrix,
) -> float:
    """Directional derivative of the merit function along (dy, dx).

    dG2 = -G2 holds exactly by construction of dx; dG1 picks up the PCG
    residual, so it is evaluated honestly from the Jacobian.
    """
    dg1 = ctx.r * dy + apply_A(ctx.prob, dx)
    return float(g1 @ dg1) - g2.dot(g2)


def newton_direction(
    ctx: OuterCtx,
    ev: PointEval,
    g2: BlockSymMatrix,
    dy: np.ndarray,
) -> BlockSymMatrix:
    """dX = -G2 + linearized multiplier change along dy (exact given dy)."""
    prob = ctx.prob
    ady = apply_A_adjoint(prob, dy)
    blocks = []
    for i in range(prob.p):
        t = ev.xbar_blocks[i] @ ady.blocks[i] @ ev.z_blocks[i]
        blocks.append(-g2.blocks[i] + t + t.T)
    lin = -g2.lin + ev.wbar_lin * ady.lin
    return BlockSymMatrix(blocks, lin)


def pd_error(
    prob: SdpProblem,
    y: np.ndarray,
    x: BlockSymMatrix,
    s: BlockSymMatrix,
    s_eigs: list[float] | None = None,
) -> float:
    """Primal feasibility, dual cone violation and normalized gap: the
    DIMACS err1, err4 and err5 at (y, x) with the exact dual slack ``s`` at
    y and its blocks' smallest eigenvalues ``s_eigs`` (computed when not
    given), without the three measures it does not read."""
    return max(pd_errors(prob, PrimalDualPoint(y, x, s), s_eigs))


def _pd_error_of(errs: DimacsErrors) -> float:
    return max(errs.err1, errs.err4, errs.err5)


def _block_pd(x: BlockSymMatrix) -> bool:
    """Positive semidefiniteness of the multiplier candidate up to the
    relative round-off ``PD_TOL``: at the merit's float64 floor the
    candidate carries harmless round-off negativity, and inactive-bound
    multipliers legitimately underflow to zero.
    """
    for b in x.blocks:
        if min_eig(b) < -PD_TOL * max(1.0, float(np.abs(b).max())):
            return False
    if x.lin.size and x.lin.min() < -PD_TOL * max(1.0, float(np.abs(x.lin).max())):
        return False
    return True


def _pdal_preconditioner(ctx: OuterCtx, ev: PointEval, cfg: PdalConfig) -> pc.SmwPreconditioner:
    """The ``cfg.precond`` build (gamma, delta, beta or none), or beta from
    gamma's base when a low-rank build meets a matrix that is not positive
    definite."""
    kind = cfg.precond
    prob = ctx.prob
    if kind == "none":
        return pc.identity(prob.n)
    h_lin_diag = ctx.r + prob.ops.d_sq_t @ ev.wbar_lin
    w_mats = [xb / ctx.pi_lmi for xb in ev.xbar_blocks]
    v_mats = [ctx.pi_lmi * z for z in ev.z_blocks]
    w_splits = [pc.spectral_split(w, cfg.rank) for w in w_mats]
    try:
        if kind == "gamma":
            return pc.build_h_gamma(prob, w_splits, v_mats, h_lin_diag)
        if kind == "delta":
            v_splits = [pc.spectral_split(v, cfg.rank) for v in v_mats]
            return pc.build_h_delta(prob, w_splits, v_splits, h_lin_diag)
    except NotPositiveDefinite:
        pass
    return pc.build_h_beta(pc.gamma_base(prob, w_splits, v_mats, h_lin_diag))


@dataclass
class InnerResult:
    ev: PointEval                  # penalty state at the returned point ev.y
    x: BlockSymMatrix
    iterations: int
    merit: float
    early_stop: bool
    converged: bool
    line_search_failures: int = 0
    precond_kinds: list[str] = field(default_factory=list)  # applied, in order of first use
    cap_hit: bool = False          # ended at max_inner Newton steps


def inner_solve(
    ctx: OuterCtx,
    run: RunRecord,
    pt: PrimalDualPoint,
    errs: DimacsErrors,
    eps_inner: float,
    cg_tol: float,
    outer_index: int = 0,
) -> InnerResult | None:
    """Damped Newton on the primal-dual stationarity system, from the outer
    point ``pt`` with its DIMACS errors ``errs``.

    Stops when the merit drops below eps_inner with a positive definite
    multiplier, or when the early-stopping conjunction (outer error halved,
    both residuals small, multiplier positive definite) fires.  Returns
    None when ``RunRecord.take`` ends the run at a Newton step's solve.
    """
    prob, cfg = ctx.prob, run.config
    e_outer = _pd_error_of(errs)
    y = pt.y.copy()
    x_hat = pt.X.copy()
    ev = evaluate_point(ctx, y)
    kinds: list[str] = []

    for ell in range(cfg.max_inner):
        g1, g2 = pd_residuals(ctx, ev, x_hat)
        m_val = merit(g1, g2)
        if m_val <= eps_inner and _block_pd(x_hat):
            return InnerResult(ev, x_hat, ell, m_val, False, True, precond_kinds=kinds)
        # the residual clauses first: they are cheap, and most points that
        # fail the conjunction fail one of them before pd_error is measured
        if (
            ell > 0
            and g2.dot(g2) < 0.1
            and float(g1 @ g1) < 0.05 * max(1.0, float(np.linalg.norm(ev.grad)))
            and pd_error(prob, y, x_hat, ev.slack(), ev.slack_min_eigs) < 0.5 * e_outer
            and _block_pd(x_hat)
        ):
            return InnerResult(ev, x_hat, ell, m_val, True, True, precond_kinds=kinds)

        prec = _pdal_preconditioner(ctx, ev, cfg)
        if prec.kind not in kinds:
            kinds.append(prec.kind)
        if cfg.diag and prob.n <= DIAG_LIMIT:
            run.diagnostics.append(_dense_hessian_record(ctx, ev, prec, outer_index, ell))
        op = lambda v: hessian_matvec(ctx, ev, v)  # noqa: E731
        dy, rep = pcg_solve(op, prec.apply_inv, -ev.grad, tol=cg_tol, maxiter=cfg.cg_maxiter)
        if not run.take(rep, f"inner {ell}", outer_index, pt, errs):
            return None
        dx = newton_direction(ctx, ev, g2, dy)

        slope = merit_dderiv(ctx, ev, g1, g2, dy, dx)
        if slope >= 0:
            slope = 0.0
        alpha = 1.0
        accepted = False
        for _ in range(LS_MAX_HALVINGS):
            try:
                ev_trial = evaluate_point(ctx, y + alpha * dy)
            except DomainViolation:
                alpha *= 0.5
                continue
            x_trial = x_hat + alpha * dx
            g1t, g2t = pd_residuals(ctx, ev_trial, x_trial)
            if merit(g1t, g2t) <= m_val + ARMIJO * alpha * slope:
                y = ev_trial.y
                x_hat = x_trial
                ev = ev_trial
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # step collapsed below ~1e-12 (merit at its float64 floor): hand
            # the unchanged point back so the outer loop can refresh
            # multipliers; it failed the convergence test at the top
            return InnerResult(
                ev, x_hat, ell + 1, m_val, False, False, line_search_failures=1, precond_kinds=kinds
            )

    g1, g2 = pd_residuals(ctx, ev, x_hat)
    return InnerResult(
        ev, x_hat, cfg.max_inner, merit(g1, g2), False, False, precond_kinds=kinds, cap_hit=True
    )


def _dense_hessian_record(
    ctx: OuterCtx, ev: PointEval, prec: pc.SmwPreconditioner, outer: int, inner: int
) -> dict:
    """Dense record of one Newton step (n <= diag limit): the extreme
    eigenvalues of the Hessian, against the floor r, and its conditioning
    under the preconditioner the step applied."""
    h = pc.dense_of(lambda v: hessian_matvec(ctx, ev, v), ctx.prob.n)
    return {
        "outer": outer,
        "inner": inner,
        "precond": prec.kind,
        "r": ctx.r,
        **pc.conditioning(h, prec.dense()),
    }


def penalty_update(pi_lin: float, pi_lmi: float, lam_max_lmi: float) -> tuple[float, float]:
    """Penalty decrease down to the floors; the LMI penalty also stays above
    the largest constraint eigenvalue, where its resolvent exists."""
    new_lin = max(PI_LIN_MIN, PI_LIN_UPD * pi_lin)
    new_lmi = max(PI_LMI_MIN, PI_LMI_UPD * pi_lmi, 1.01 * lam_max_lmi)
    return new_lin, new_lmi


def pdal_solve(prob: SdpProblem, config: PdalConfig | None = None) -> tuple[PrimalDualPoint, SolveReport]:
    """Outer loop: inner primal-dual solve, damped multiplier update, penalty
    decrease, until the DIMACS measures converge, an outer iteration would
    repeat itself, or the iteration cap is hit."""
    cfg = config or PdalConfig()
    run = RunRecord(prob, cfg)
    n = prob.n

    y = np.zeros(n)
    x = BlockSymMatrix([np.eye(m) for m in prob.block_dims], np.ones(prob.nu))
    s = dual_slack(prob, y)
    s_eigs = block_min_eigs(s)  # of the slack at y, read by DIMACS and the penalties
    pi_lmi = 1.1 * max(1.0, -min(s_eigs))
    pi_lin = 1.0

    status = "max_iterations"

    # one pass more than max_iter: the last only measures the final iterate
    for k in range(cfg.max_iter + 1):
        pt = PrimalDualPoint(y, x, s)
        errs = dimacs(prob, pt, s_eigs)
        if errs.max() <= cfg.eps_dimacs:
            status = "optimal"
            break
        if k == cfg.max_iter:
            break

        ctx = OuterCtx(
            prob=prob,
            y_prox=y,
            x_blocks=x.blocks,
            x_lin=x.lin,
            pi_lmi=pi_lmi,
            pi_lin=pi_lin,
            r=cfg.r,
        )
        eps_k = max(INNER_EPS_MIN, INNER_EPS0 * INNER_EPS_DECAY**k)
        cg_tol = cg_tolerance(k, cfg.CG_FLOOR)
        res = inner_solve(ctx, run, pt, errs, eps_k, cg_tol, k)
        if res is None:
            status = "numerical_limit"
            break

        y_old, x_old, pi_old = y, x, (pi_lin, pi_lmi)
        ev = res.ev
        y, s, s_eigs = ev.y, ev.slack(), ev.slack_min_eigs
        x_new_blocks = []
        for i in range(prob.p):
            cand = (1.0 - GAMMA_LMI) * x.blocks[i] + GAMMA_LMI * res.x.blocks[i]
            if not is_pd(cand):
                # blend with the always-positive closed-form update instead
                cand = (1.0 - GAMMA_LMI) * x.blocks[i] + GAMMA_LMI * ev.xbar_blocks[i]
            x_new_blocks.append(sym(cand))
        x_lin_new = (1.0 - GAMMA_LIN) * x.lin + GAMMA_LIN * res.x.lin
        bad = x_lin_new <= 0
        x_lin_new[bad] = (1.0 - GAMMA_LIN) * x.lin[bad] + GAMMA_LIN * ev.xbar_lin[bad]
        x = BlockSymMatrix(x_new_blocks, x_lin_new)

        # lambda_max(A0(y) - C) = -lambda_min of the slack
        pi_lin, pi_lmi = penalty_update(pi_lin, pi_lmi, -min(s_eigs))

        run.record(
            k,
            precond="+".join(res.precond_kinds),
            cg_tol=cg_tol,
            dimacs_max=errs.max(),
            inner_iterations=res.iterations,
            merit=res.merit,
            early_stop=res.early_stop,
            inner_converged=res.converged,
            inner_cap_hit=res.cap_hit,
            line_search_failures=res.line_search_failures,
            pd_error=_pd_error_of(errs),
            pi_lin=pi_lin,
            pi_lmi=pi_lmi,
        )
        # with no Newton step, unchanged y, X and penalties and the inner
        # target at its floor, the next outer iteration would repeat this one
        if (
            res.iterations == 0
            and eps_k == INNER_EPS_MIN
            and (pi_lin, pi_lmi) == pi_old
            and np.array_equal(y, y_old)
            and all(map(np.array_equal, x.blocks + [x.lin], x_old.blocks + [x_old.lin]))
        ):
            status = "numerical_limit" if errs.max() <= cfg.graceful_tol else "stalled"
            break

    return pt, run.report(status, pt, errs)
