"""Primal-dual predictor-corrector interior-point solver with NT scaling.

The condensed n x n system

    H dy = r,   H = sum_i A_i'(W_i x W_i)A_i + D' X_lin S_lin^{-1} D,

is never assembled: matvecs cost p matrix sandwiches plus sparse operator
applications, and the system is solved by PCG with one of the low-rank
preconditioners.  Directions for the matrix blocks are recovered in closed
form from the scaling identities once dy is known.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular, svd

from . import precond as pc
from .linalg import NotPositiveDefinite, chol, chol_inv, min_eig_pencil, sym
from .model import (
    BlockSymMatrix,
    PrimalDualPoint,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    dimacs,
)
from .pcg import CgTolerance, next_tolerance, pcg_solve
from .report import SolveReport, make_report

IP_KINDS = ("alpha", "beta", "hybrid", "tilde", "none")


@dataclass
class IpConfig:
    eps_dimacs: float = 1e-5
    max_iter: int = 200
    tau_frac: float = 0.9          # fraction-to-boundary in the step rule
    sigma_power: int = 3
    rank: int | list[int] | str = 1  # outlier count per block, or "auto"
    precond: str = "hybrid"          # one of IP_KINDS
    tau_rule: str = "cluster_mean"
    cg_tol: CgTolerance = field(default_factory=CgTolerance)
    cg_maxiter: int = 100000
    step_repair_limit: int = 10
    diag: bool = False
    diag_limit: int = 400

    def __post_init__(self):
        if not 0.0 < self.tau_frac < 1.0:
            raise ValueError("fraction-to-boundary must lie in (0, 1)")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        pc.check_kind("ip", self.precond, IP_KINDS)


class SolverFailure(RuntimeError):
    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


@dataclass
class NtBlock:
    w: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    d: np.ndarray        # diag(G' S G), the scaling singular values
    s_chol: np.ndarray

    @cached_property
    def s_inv(self) -> np.ndarray:
        """S^{-1} from the S factor, formed on first read (the corrector's
        right-hand side and its direction recovery both use it)."""
        return chol_inv(self.s_chol)


def nt_scaling(x: np.ndarray, s: np.ndarray) -> NtBlock:
    """Scaling block W with W S W = X, W = G G'.

    Computed from the Cholesky factors X = L L', S = R R' through the SVD of
    R'L; propagates NotPositiveDefinite when a block left the cone.
    """
    l = chol(x, "NT scaling (X block)")
    r = chol(s, "NT scaling (S block)")
    u, sig, vt = svd(r.T @ l)
    g = l @ vt.T / np.sqrt(sig)
    g_inv = solve_triangular(l, vt.T * np.sqrt(sig), lower=True, trans="T").T
    w = g @ g.T
    return NtBlock(sym(w), g, g_inv, sig, r)


@dataclass
class Scaling:
    blocks: list[NtBlock]
    lin_w2: np.ndarray   # x_lin / s_lin, the squared diagonal scaling

    def lin_diag(self, prob: SdpProblem) -> np.ndarray:
        """Diagonal of D' diag(x/s) D (exact for disjoint box rows)."""
        return prob.ops.d_sq_t @ self.lin_w2


def make_scaling(pt: PrimalDualPoint) -> Scaling:
    blocks = [nt_scaling(x, s) for x, s in zip(pt.X.blocks, pt.S.blocks)]
    return Scaling(blocks, pt.X.lin / pt.S.lin)


def schur_matvec(prob: SdpProblem, scal: Scaling, dy: np.ndarray) -> np.ndarray:
    """H dy computed as p sandwiches W (sum dy_j A_j) W plus the linear term."""
    ady = apply_A_adjoint(prob, dy)
    blocks = [nt.w @ mat @ nt.w for nt, mat in zip(scal.blocks, ady.blocks)]
    return apply_A(prob, BlockSymMatrix(blocks, scal.lin_w2 * ady.lin))


def second_order_correction(
    g: np.ndarray, g_inv: np.ndarray, dx: np.ndarray, ds: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Second-order NT correction term, entrywise divided by d_i + d_j."""
    denom = d[:, None] + d[None, :]
    if np.any(denom <= 0.0):
        raise ValueError("degenerate scaling: nonpositive divisor in correction")
    t = g_inv @ (dx @ ds) @ g
    return -(t + t.T) / denom


def _residuals(prob: SdpProblem, pt: PrimalDualPoint):
    rp = prob.b - apply_A(prob, pt.X)
    ay = apply_A_adjoint(prob, pt.y)
    rd_blocks = [
        prob.c_dense(i) - pt.S.blocks[i] - ay.blocks[i] for i in range(prob.p)
    ]
    rd_lin = prob.d - ay.lin - pt.S.lin
    return rp, rd_blocks, rd_lin


def _rhs(
    prob: SdpProblem,
    pt: PrimalDualPoint,
    scal: Scaling,
    rp: np.ndarray,
    rd_blocks: list[np.ndarray],
    rd_lin: np.ndarray,
    sigma_mu: float = 0.0,
    corr_blocks: list[np.ndarray] | None = None,
    corr_lin: np.ndarray | None = None,
) -> np.ndarray:
    """Right-hand side of the condensed system.

    Predictor: r = r_p + A'vec(W R_d W + X); the corrector subtracts the
    centering term sigma mu S^{-1} and the second-order correction.
    """
    blocks = []
    for i, nt in enumerate(scal.blocks):
        mat = nt.w @ rd_blocks[i] @ nt.w + pt.X.blocks[i]
        if sigma_mu:
            mat = mat - sigma_mu * nt.s_inv
        if corr_blocks is not None:
            mat = mat - corr_blocks[i]
        blocks.append(mat)
    lin = scal.lin_w2 * rd_lin + pt.X.lin
    if sigma_mu:
        lin = lin - sigma_mu / pt.S.lin
    if corr_lin is not None:
        lin = lin - corr_lin
    return rp + apply_A(prob, BlockSymMatrix(blocks, lin))


def recover_directions(
    prob: SdpProblem,
    pt: PrimalDualPoint,
    scal: Scaling,
    dy: np.ndarray,
    rd_blocks: list[np.ndarray],
    rd_lin: np.ndarray,
    sigma_mu: float = 0.0,
    corr_blocks: list[np.ndarray] | None = None,
    corr_lin: np.ndarray | None = None,
) -> tuple[BlockSymMatrix, BlockSymMatrix]:
    """(dX, dS) from dy: dS is the dual residual minus the adjoint step, dX
    follows from the scaled complementarity linearization."""
    ady = apply_A_adjoint(prob, dy)
    ds_blocks = [rd_blocks[i] - ady.blocks[i] for i in range(prob.p)]
    ds_lin = rd_lin - ady.lin
    dx_blocks = []
    for i, nt in enumerate(scal.blocks):
        dx = -pt.X.blocks[i] - nt.w @ ds_blocks[i] @ nt.w
        if sigma_mu:
            dx = dx + sigma_mu * nt.s_inv
        if corr_blocks is not None:
            dx = dx + corr_blocks[i]
        dx_blocks.append(sym(dx))
    dx_lin = -pt.X.lin - scal.lin_w2 * ds_lin
    if sigma_mu:
        dx_lin = dx_lin + sigma_mu / pt.S.lin
    if corr_lin is not None:
        dx_lin = dx_lin + corr_lin
    return BlockSymMatrix(dx_blocks, dx_lin), BlockSymMatrix(ds_blocks, ds_lin)


def step_length(
    mats: BlockSymMatrix, dirs: BlockSymMatrix, tau_frac: float
) -> float:
    """min(1, -tau / lambda_min(M^{-1} dM)) over all blocks and the linear part."""
    candidates = [1.0]
    for m, dm in zip(mats.blocks, dirs.blocks):
        lam = min_eig_pencil(m, dm)
        if lam < 0:
            candidates.append(-tau_frac / lam)
    if mats.lin is not None and mats.lin.size:
        ratio = float((dirs.lin / mats.lin).min())
        if ratio < 0:
            candidates.append(-tau_frac / ratio)
    return min(candidates)


def _is_interior(mats: BlockSymMatrix) -> bool:
    try:
        for b in mats.blocks:
            chol(b)
    except NotPositiveDefinite:
        return False
    if mats.lin is not None and mats.lin.size and mats.lin.min() <= 0:
        return False
    return True


def step_with_repair(
    mats: BlockSymMatrix, dirs: BlockSymMatrix, tau_frac: float, repair_limit: int
) -> float:
    """Step length that provably keeps the updated matrices factorizable;
    halves on round-off failures up to the repair limit."""
    alpha = step_length(mats, dirs, tau_frac)
    for _ in range(repair_limit + 1):
        if _is_interior(mats + alpha * dirs):
            return alpha
        alpha *= 0.5
    raise NotPositiveDefinite(0, "step repair exhausted")


def initial_point(prob: SdpProblem) -> PrimalDualPoint:
    """Scale-aware identity start in the style of standard IP codes.

    The linear dual slack starts componentwise near d so the bound rows do
    not contribute a huge initial dual residual when the box is wide."""
    col_norms = [np.sqrt(sq) for sq in prob.ops.a_norms_sq]
    xi = 10.0
    eta = 10.0
    for i, m in enumerate(prob.block_dims):
        denom = 1.0 + col_norms[i]
        xi = max(xi, np.sqrt(m), float(m * np.max((1.0 + np.abs(prob.b)) / denom)))
        c_norm = prob.C[i].norm_fro()
        eta = max(eta, np.sqrt(m), (1.0 + max(float(col_norms[i].max(initial=0.0)), c_norm)) / np.sqrt(m))
    dims = prob.block_dims
    s_lin = np.maximum(eta, 1.0 + np.abs(prob.d))
    X = BlockSymMatrix([xi * np.eye(m) for m in dims], xi * np.ones(prob.nu))
    S = BlockSymMatrix([eta * np.eye(m) for m in dims], s_lin)
    return PrimalDualPoint(np.zeros(prob.n), X, S)


def _build_preconditioner(
    kind: str, prob: SdpProblem, splits: list[pc.SplitBlock], lin_diag: np.ndarray
):
    """The ``kind`` build (alpha, beta, tilde or none), or beta from alpha's
    base when a stale split makes a low-rank build fail."""
    if kind == "none":
        return None
    if kind != "beta":
        build = pc.build_h_alpha if kind == "alpha" else pc.build_h_tilde
        try:
            return build(prob, splits, lin_diag)
        except NotPositiveDefinite:
            pass
    return pc.build_h_beta(pc.alpha_base(splits, lin_diag, prob.n))


def _dense_diagnostics(
    prob: SdpProblem,
    scal: Scaling,
    splits: list[pc.SplitBlock],
    lin_diag: np.ndarray,
) -> dict:
    """Dense conditioning record for one iteration (n <= diag limit)."""
    n = prob.n
    h_dense = (prob.D.T @ sp.diags(scal.lin_w2) @ prob.D).toarray()
    for a_op, nt in zip(prob.A, scal.blocks):
        h_dense += pc.dense_sandwich(a_op, nt.w, nt.w)
    halpha = pc.build_h_alpha(prob, splits, lin_diag)
    terms = [pc.dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits)]
    approx = [s.tau**2 * np.eye(n) for s in splits]
    rep = pc.conditioning_report(h_dense, halpha, terms, approx)
    return {
        "kappa_h": rep.kappa_raw,
        "kappa_alpha_preconditioned": rep.kappa_preconditioned,
        "bound": rep.bound,
        "eps_hi": rep.eps_hi,
        "eps_lo": rep.eps_lo,
    }


def ip_solve(prob: SdpProblem, config: IpConfig | None = None) -> tuple[PrimalDualPoint, SolveReport]:
    """Run the predictor-corrector loop until the DIMACS measures drop below
    the configured tolerance or the iteration cap is hit."""
    config = config or IpConfig()
    t0 = time.perf_counter()
    pt = initial_point(prob)
    ranks = pc.block_ranks(config.rank, prob.block_dims)
    cg_tol = config.cg_tol
    hybrid_on_alpha = False
    trace: list[dict] = []
    diagnostics: list[dict] = []
    status = "max_iterations"
    cg_total = 0

    def finish(stat: str) -> SolveReport:
        """The report at ``pt``, with the errors the loop measured there."""
        return make_report(
            "ip", prob, pt, stat, errs, trace, cg_total, t0, config.precond, diagnostics
        )

    # one pass more than max_iter: the last only measures the final iterate
    for it in range(config.max_iter + 1):
        errs = dimacs(prob, pt)
        if errs.max() <= config.eps_dimacs:
            status = "optimal"
            break
        if it == config.max_iter:
            break

        mu = (pt.X.dot(pt.S)) / (prob.m_total + prob.nu)
        scal = make_scaling(pt)
        lin_diag = scal.lin_diag(prob)
        splits = [
            pc.spectral_split(nt.w, k, config.tau_rule)
            for nt, k in zip(scal.blocks, ranks)
        ]

        kind = config.precond
        if kind == "hybrid":
            kind = "alpha" if hybrid_on_alpha else "beta"
        prec = _build_preconditioner(kind, prob, splits, lin_diag)
        prec_apply = prec.apply_inv if prec is not None else None

        if config.diag and prob.n <= config.diag_limit:
            rec = _dense_diagnostics(prob, scal, splits, lin_diag)
            rec["iteration"] = it
            diagnostics.append(rec)

        rp, rd_blocks, rd_lin = _residuals(prob, pt)
        op = lambda v: schur_matvec(prob, scal, v)  # noqa: E731
        graceful = max(1e-5, config.eps_dimacs)

        def check_cg(rep, what) -> bool:
            """True when the direction is usable (``PcgReport.usable``);
            anything worse ends the run, gracefully if the point already
            meets the standard tolerance.  Such a point keeps only converged
            directions: there a stagnated solve marks the float64 floor, and
            its step can undo the accuracy already reached."""
            nonlocal status
            if rep.converged:
                return True
            if errs.max() <= graceful:
                status = "numerical_limit"
                return False
            if rep.usable:
                return True
            raise SolverFailure(
                f"{what} CG failed at iteration {it} "
                f"(breakdown={rep.breakdown}, relres={rep.relres:.2e})",
                finish("cg_failure"),
            )

        r_pred = _rhs(prob, pt, scal, rp, rd_blocks, rd_lin)
        dy_p, rep_p = pcg_solve(
            op, prec_apply, r_pred, tol=cg_tol.current, maxiter=config.cg_maxiter
        )
        cg_total += rep_p.iterations
        if not check_cg(rep_p, "predictor"):
            break
        dX_p, dS_p = recover_directions(prob, pt, scal, dy_p, rd_blocks, rd_lin)

        alpha_p = step_length(pt.X, dX_p, config.tau_frac)
        beta_p = step_length(pt.S, dS_p, config.tau_frac)
        num = (pt.X + alpha_p * dX_p).dot(pt.S + beta_p * dS_p)
        den = pt.X.dot(pt.S)
        sigma = min(1.0, max(0.0, num / den)) ** config.sigma_power

        corr_blocks = []
        for i, nt in enumerate(scal.blocks):
            rnt = second_order_correction(
                nt.g, nt.g_inv, dX_p.blocks[i], dS_p.blocks[i], nt.d
            )
            corr_blocks.append(nt.g @ rnt @ nt.g.T)
        corr_lin = -dX_p.lin * dS_p.lin / pt.S.lin
        sigma_mu = sigma * mu

        r_corr = _rhs(
            prob, pt, scal, rp, rd_blocks, rd_lin, sigma_mu, corr_blocks, corr_lin
        )
        dy, rep_c = pcg_solve(
            op, prec_apply, r_corr, tol=cg_tol.current, maxiter=config.cg_maxiter
        )
        cg_total += rep_c.iterations
        if not check_cg(rep_c, "corrector"):
            break
        dX, dS = recover_directions(
            prob, pt, scal, dy, rd_blocks, rd_lin, sigma_mu, corr_blocks, corr_lin
        )

        try:
            alpha = step_with_repair(pt.X, dX, config.tau_frac, config.step_repair_limit)
            beta = step_with_repair(pt.S, dS, config.tau_frac, config.step_repair_limit)
        except NotPositiveDefinite as exc:
            if errs.max() <= graceful:
                status = "numerical_limit"
                break
            raise SolverFailure(f"step repair failed at iteration {it}", finish("factorization_failure")) from exc

        pt = PrimalDualPoint(pt.y + beta * dy, pt.X + alpha * dX, pt.S + beta * dS)

        trace.append(
            {
                "iteration": it,
                "mu": mu,
                "sigma": sigma,
                "alpha": alpha,
                "beta": beta,
                "cg_pred": rep_p.iterations,
                "cg_corr": rep_c.iterations,
                "cg": rep_p.iterations + rep_c.iterations,
                "cg_stagnated": rep_p.stagnated or rep_c.stagnated,
                "cg_tol": cg_tol.current,
                "precond": prec.kind if prec is not None else "none",
                "dimacs_max": errs.max(),
                "time": time.perf_counter() - t0,
            }
        )
        cg_tol = next_tolerance(cg_tol)
        if config.precond == "hybrid" and not hybrid_on_alpha:
            k_hint = max([s.k for s in splits] + [1])
            if pc.hybrid_should_switch(prob.n, prob.p, k_hint, it + 1, rep_c.iterations):
                hybrid_on_alpha = True

    return pt, finish(status)
