"""Primal-dual predictor-corrector interior-point solver with NT scaling.

The condensed n x n system

    H dy = r,   H = sum_i A_i'(W_i x W_i)A_i + D' X_lin S_lin^{-1} D,

is never assembled: matvecs cost p matrix sandwiches plus sparse operator
applications, and the system is solved by PCG with one of the low-rank
preconditioners.  Directions for the matrix blocks are recovered in closed
form from the scaling identities once dy is known.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, svd

from . import precond as pc
from .linalg import NotPositiveDefinite, chol, min_eig, sym
from .model import (
    BlockSymMatrix,
    PrimalDualPoint,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    dimacs,
)
from .pcg import Deflation, cg_tolerance, pcg_solve
from .report import DIAG_LIMIT, RunRecord, SolveReport, SolverConfig, SolverFailure

IP_KINDS = ("alpha", "beta", "cluster", "tilde", "none")

TAU_FRAC = 0.9          # least fraction-to-boundary of the corrector step ...
TAU_GAIN = 0.09         # ... raised by this times min(alpha_p, beta_p)
STALL_STEP = 1e-3       # min(alpha, beta) below this is a stalled step ...
STALL_ITERS = 5         # ... and this many in a row end the run "stalled"
SIGMA_POWER = 3         # Mehrotra centering exponent
STEP_REPAIR_LIMIT = 10  # step halvings on round-off before giving up


@dataclass
class IpConfig(SolverConfig):
    SOLVER = "ip"
    KINDS = IP_KINDS

    max_iter: int = 200
    precond: str = "cluster"
    # floor 1e-8: at 1e-6 the late, ill-conditioned Schur systems leave
    # directions whose outcome on tru9 depends on rounding alone
    cg_floor: float = 1e-8


@dataclass
class NtBlock:
    w: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    d: np.ndarray        # diag(G' S G), the scaling singular values

    def x_inv_factor(self) -> np.ndarray:
        """F = D^{-1/2} G^{-1} with F'F = X^{-1} (X = G D G')."""
        return self.g_inv / np.sqrt(self.d)[:, None]

    def s_inv_factor(self) -> np.ndarray:
        """F = D^{-1/2} G' with F'F = S^{-1} (S = G^{-T} D G^{-1})."""
        return self.g.T / np.sqrt(self.d)[:, None]


def nt_scaling(x: np.ndarray, s: np.ndarray) -> NtBlock:
    """Scaling block W with W S W = X, W = G G'.

    Computed from the Cholesky factors X = L L', S = R R' through the SVD
    R'L = U D V': G = L V D^{-1/2} and G^{-1} = D^{1/2} V' L^{-1}, so that
    X = G D G' and S = G^{-T} D G^{-1}.  G^{-1} comes from a triangular solve
    with L, not from the equal product D^{-1/2} U' R': the product, which
    leans on the SVD identity, cost late IP iterates more iterations on tru8
    and tru9 across variable orders.  Propagates NotPositiveDefinite when a
    block left the cone.
    """
    l = chol(x, "NT scaling (X block)")
    r = chol(s, "NT scaling (S block)")
    u, sig, vt = svd(r.T @ l)
    g = l @ vt.T / np.sqrt(sig)
    g_inv = solve_triangular(l, vt.T * np.sqrt(sig), lower=True, trans="T").T
    w = g @ g.T
    return NtBlock(sym(w), g, g_inv, sig)


@dataclass
class Scaling:
    blocks: list[NtBlock]
    lin_w2: np.ndarray   # x_lin / s_lin, the squared diagonal scaling

    def lin_diag(self, prob: SdpProblem) -> np.ndarray:
        """Diagonal of D' diag(x/s) D (exact for disjoint box rows)."""
        return prob.ops.d_sq_t @ self.lin_w2

    def sandwich(self, m: BlockSymMatrix) -> BlockSymMatrix:
        """W M W per block and (x/s) m on the linear part."""
        blocks = [nt.w @ mat @ nt.w for nt, mat in zip(self.blocks, m.blocks)]
        return BlockSymMatrix(blocks, self.lin_w2 * m.lin)


def make_scaling(pt: PrimalDualPoint) -> Scaling:
    blocks = [nt_scaling(x, s) for x, s in zip(pt.X.blocks, pt.S.blocks)]
    return Scaling(blocks, pt.X.lin / pt.S.lin)


def schur_matvec(prob: SdpProblem, scal: Scaling, dy: np.ndarray) -> np.ndarray:
    """H dy computed as p sandwiches W (sum dy_j A_j) W plus the linear term."""
    return apply_A(prob, scal.sandwich(apply_A_adjoint(prob, dy)))


def second_order_correction(
    g: np.ndarray, g_inv: np.ndarray, dx: np.ndarray, ds: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Second-order NT correction term, entrywise divided by d_i + d_j."""
    denom = d[:, None] + d[None, :]
    if np.any(denom <= 0.0):
        raise ValueError("degenerate scaling: nonpositive divisor in correction")
    t = g_inv @ (dx @ ds) @ g
    return -(t + t.T) / denom


def _rhs(prob: SdpProblem, rp: np.ndarray, wrdw: BlockSymMatrix, target: BlockSymMatrix) -> np.ndarray:
    """Right-hand side r_p + A(W R_d W + T) of the condensed system, with
    ``wrdw`` = W R_d W (``Scaling.sandwich``), shared by both solves.

    The complementarity target T is X for the predictor and
    X - sigma mu S^{-1} - (second-order correction) for the corrector."""
    return rp + apply_A(prob, wrdw + target)


def _corrector_target(
    pt: PrimalDualPoint, scal: Scaling, dx_p: BlockSymMatrix, ds_p: BlockSymMatrix, sigma_mu: float
) -> BlockSymMatrix:
    """The corrector's target X - sigma mu S^{-1} - G rnt G' from the
    predictor step (dx_p, ds_p), rnt the second-order correction.  With
    S^{-1} = G D^{-1} G' a block is X - G (rnt + diag(sigma mu / d)) G', one
    product and no inverse."""
    blocks = []
    for x, nt, dx, ds in zip(pt.X.blocks, scal.blocks, dx_p.blocks, ds_p.blocks):
        rnt = second_order_correction(nt.g, nt.g_inv, dx, ds, nt.d) + np.diag(sigma_mu / nt.d)
        blocks.append(x - nt.g @ rnt @ nt.g.T)
    return BlockSymMatrix(blocks, pt.X.lin - sigma_mu / pt.S.lin + dx_p.lin * ds_p.lin / pt.S.lin)


def recover_directions(
    prob: SdpProblem, scal: Scaling, dy: np.ndarray, rd: BlockSymMatrix, target: BlockSymMatrix
) -> tuple[BlockSymMatrix, BlockSymMatrix]:
    """(dX, dS) from dy: dS = R_d - A*(dy) and, from the scaled
    complementarity linearization, dX = -T - W dS W."""
    ds = rd - apply_A_adjoint(prob, dy)
    wdsw = scal.sandwich(ds)
    dx_blocks = [sym(-t - m) for t, m in zip(target.blocks, wdsw.blocks)]
    return BlockSymMatrix(dx_blocks, -target.lin - wdsw.lin), ds


def step_length(
    factors: list[np.ndarray], mats: BlockSymMatrix, dirs: BlockSymMatrix, tau_frac: float
) -> float:
    """min(1, -tau / lambda_min(M^{-1} dM)) over all blocks and the linear part.

    ``factors`` holds one F per block with F'F = M^{-1} (``NtBlock``'s
    ``x_inv_factor`` or ``s_inv_factor``), so lambda_min(M^{-1} dM) is that
    of F dM F' and no block is factored again."""
    candidates = [1.0]
    for f, dm in zip(factors, dirs.blocks):
        lam = min_eig(f @ dm @ f.T)
        if lam < 0:
            candidates.append(-tau_frac / lam)
    if mats.lin.size:
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
    if mats.lin.size and mats.lin.min() <= 0:
        return False
    return True


def step_with_repair(
    factors: list[np.ndarray],
    mats: BlockSymMatrix,
    dirs: BlockSymMatrix,
    tau_frac: float,
    repair_limit: int,
) -> tuple[float, int]:
    """Step length that provably keeps the updated matrices factorizable,
    and the number of halvings it took on round-off failures (at most the
    repair limit)."""
    alpha = step_length(factors, mats, dirs, tau_frac)
    for halvings in range(repair_limit + 1):
        if _is_interior(mats + alpha * dirs):
            return alpha, halvings
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
        c_norm = float(np.linalg.norm(prob.C[i]))
        eta = max(eta, np.sqrt(m), (1.0 + max(float(col_norms[i].max(initial=0.0)), c_norm)) / np.sqrt(m))
    dims = prob.block_dims
    s_lin = np.maximum(eta, 1.0 + np.abs(prob.d))
    X = BlockSymMatrix([xi * np.eye(m) for m in dims], xi * np.ones(prob.nu))
    S = BlockSymMatrix([eta * np.eye(m) for m in dims], s_lin)
    return PrimalDualPoint(np.zeros(prob.n), X, S)


def _build_preconditioner(
    kind: str, prob: SdpProblem, splits: list[pc.SplitBlock], lin_diag: np.ndarray
):
    """The ``kind`` build of one iteration (alpha, beta, cluster, tilde or
    none; the same kind on every iteration), or beta, cluster's base without
    its columns, when a stale split makes a low-rank build fail."""
    if kind == "none":
        return None
    try:
        if kind == "cluster":
            return pc.build_h_alpha(prob, splits, lin_diag, base="cluster")
        if kind == "alpha":
            return pc.build_h_alpha(prob, splits, lin_diag)
        if kind == "tilde":
            return pc.build_h_tilde(prob, splits, lin_diag)
    except NotPositiveDefinite:
        pass
    return pc.build_h_beta(pc.cluster_base(prob, splits, lin_diag))


def _dense_diagnostics(
    prob: SdpProblem, scal: Scaling, splits: list[pc.SplitBlock], prec: pc.SmwPreconditioner | None
) -> dict:
    """Dense conditioning record for one iteration (n <= diag limit) of the
    preconditioner the iteration applied, P = I for none.  For alpha and
    cluster it adds the split bound: their bases stand in for each
    B_i = A_i'(W0_i x W0_i)A_i by tau_i^2 I and by diag(B_i)."""
    n = prob.n
    h = pc.dense_of(lambda v: schur_matvec(prob, scal, v), n)
    kind = prec.kind if prec is not None else "none"
    bounded = kind in ("alpha", "cluster")
    terms = [pc.dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits)] if bounded else []
    approx = [s.tau**2 * np.eye(n) if kind == "alpha" else np.diag(np.diag(t)) for s, t in zip(splits, terms)]
    return {"precond": kind, **pc.conditioning(h, None if prec is None else prec.dense(), terms, approx)}


def ip_solve(prob: SdpProblem, config: IpConfig | None = None) -> tuple[PrimalDualPoint, SolveReport]:
    """Run the predictor-corrector loop until the DIMACS measures drop below
    the configured tolerance, the steps stall (``STALL_ITERS`` iterations in
    a row with min(alpha, beta) < ``STALL_STEP``) or the iteration cap is
    hit."""
    config = config or IpConfig()
    run = RunRecord(prob, config)
    pt = initial_point(prob)
    ranks = pc.block_ranks(config.rank, prob.block_dims)
    status = "max_iterations"
    short_steps = 0  # consecutive iterations with min(alpha, beta) < STALL_STEP

    # one pass more than max_iter: the last only measures the final iterate
    for it in range(config.max_iter + 1):
        errs = dimacs(prob, pt)
        if errs.max() <= config.eps_dimacs:
            status = "optimal"
            break
        if short_steps >= STALL_ITERS:
            status = "stalled"
            break
        if it == config.max_iter:
            break

        cg_tol = cg_tolerance(it, config.cg_floor)
        mu = (pt.X.dot(pt.S)) / (prob.m_total + prob.nu)
        scal = make_scaling(pt)
        lin_diag = scal.lin_diag(prob)
        splits = [pc.spectral_split(nt.w, k) for nt, k in zip(scal.blocks, ranks)]

        prec = _build_preconditioner(config.precond, prob, splits, lin_diag)
        prec_apply = prec.apply_inv if prec is not None else None

        if config.diag and prob.n <= DIAG_LIMIT:
            rec = _dense_diagnostics(prob, scal, splits, prec)
            rec["iteration"] = it
            run.diagnostics.append(rec)

        rp, rd = errs.rp, errs.rd
        wrdw = scal.sandwich(rd)

        def direction(target: BlockSymMatrix, what: str, record: bool = False, deflate: Deflation | None = None):
            """(dy, dX, dS, CG report) for the complementarity target, or
            None when the run ends at this solve.  A direction is used when
            ``PcgReport.usable``; anything worse ends the run, gracefully if
            the point already meets the standard tolerance.  Such a point
            keeps only converged directions: there a stagnated solve marks
            the float64 floor, and its step can undo the accuracy already
            reached."""
            nonlocal status
            dy, rep = pcg_solve(
                lambda v: schur_matvec(prob, scal, v),
                prec_apply,
                _rhs(prob, rp, wrdw, target),
                tol=cg_tol,
                maxiter=config.cg_maxiter,
                record=record,
                deflate=deflate,
            )
            run.cg_total += rep.iterations
            if not rep.converged:
                if errs.max() <= config.graceful_tol:
                    status = "numerical_limit"
                    return None
                if not rep.usable:
                    raise SolverFailure(
                        f"{what} CG failed at iteration {it} "
                        f"(breakdown={rep.breakdown}, relres={rep.relres:.2e})",
                        run.report("cg_failure", pt, errs),
                    )
            return (dy, *recover_directions(prob, scal, dy, rd, target), rep)

        # the corrector solves with the same H and P: deflate it with the
        # predictor's smallest Ritz pairs, when P has low-rank columns (on a
        # diagonal P, deflation cost vib5 none CG and stalled tru9 beta)
        pred = direction(pt.X, "predictor", record=prec is not None and prec.rank > 0)
        if pred is None:
            break
        _, dX_p, dS_p, rep_p = pred
        space = rep_p.deflation

        x_factors = [nt.x_inv_factor() for nt in scal.blocks]
        s_factors = [nt.s_inv_factor() for nt in scal.blocks]
        # Mehrotra's sigma from the full predictor step to the boundary
        alpha_p = step_length(x_factors, pt.X, dX_p, 1.0)
        beta_p = step_length(s_factors, pt.S, dS_p, 1.0)
        num = (pt.X + alpha_p * dX_p).dot(pt.S + beta_p * dS_p)
        den = pt.X.dot(pt.S)
        sigma = min(1.0, max(0.0, num / den)) ** SIGMA_POWER
        # SDPT3's corrector fraction: closer to the boundary after a long predictor
        step_frac = TAU_FRAC + TAU_GAIN * min(alpha_p, beta_p)

        corr = direction(_corrector_target(pt, scal, dX_p, dS_p, sigma * mu), "corrector", deflate=space)
        if corr is None:
            break
        dy, dX, dS, rep_c = corr

        try:
            alpha, alpha_repairs = step_with_repair(x_factors, pt.X, dX, step_frac, STEP_REPAIR_LIMIT)
            beta, beta_repairs = step_with_repair(s_factors, pt.S, dS, step_frac, STEP_REPAIR_LIMIT)
        except NotPositiveDefinite as exc:
            if errs.max() <= config.graceful_tol:
                status = "numerical_limit"
                break
            raise SolverFailure(
                f"step repair failed at iteration {it}", run.report("factorization_failure", pt, errs)
            ) from exc

        pt = PrimalDualPoint(pt.y + beta * dy, pt.X + alpha * dX, pt.S + beta * dS)
        short_steps = short_steps + 1 if min(alpha, beta) < STALL_STEP else 0

        run.record(
            it,
            cg=rep_p.iterations + rep_c.iterations,
            precond=prec.kind if prec is not None else "none",
            cg_tol=cg_tol,
            dimacs_max=errs.max(),
            mu=mu,
            sigma=sigma,
            alpha=alpha,
            beta=beta,
            alpha_p=alpha_p,
            beta_p=beta_p,
            step_frac=step_frac,
            step_repairs=alpha_repairs + beta_repairs,
            cg_pred=rep_p.iterations,
            cg_corr=rep_c.iterations,
            defl_rank=space.rank if space is not None else 0,
            cg_stagnated=rep_p.stagnated or rep_c.stagnated,
        )

    return pt, run.report(status, pt, errs)
