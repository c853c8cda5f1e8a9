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
from .linalg import NotPositiveDefinite, chol, is_pd, min_eig, sym
from .model import (
    BlockSymMatrix,
    PrimalDualPoint,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    dimacs,
)
from .pcg import Deflation, cg_tolerance, pcg_solve
from .report import ConfigError, RunRecord, SolveReport, SolverConfig, SolverFailure

IP_KINDS = ("alpha", "beta", "cluster", "tilde", "none")

TAU_FRAC = 0.9          # least fraction-to-boundary of the corrector step ...
TAU_GAIN = 0.09         # ... raised by this times min(alpha_p, beta_p)
STALL_STEP = 1e-3       # min(alpha, beta) below this is a stalled step ...
STALL_ITERS = 5         # ... and this many in a row end the run "stalled"
SIGMA_POWER = 3         # Mehrotra centering exponent
STEP_REPAIR_LIMIT = 10  # step halvings on round-off before giving up
# NT scaling reads D^2 from the Gram matrix L'SL while D^2_max / D^2_min
# stays within this; past it the SVD of R'L is taken.  The Gram eigenvalues
# carry an absolute error of eps * D^2_max, so at 1e6 the step-length
# factors keep about 1e-10 relative accuracy (the pencil oracle test asks
# 1e-9).  Truss iterates up to tru13 stay below 6e3.
GRAM_SPREAD_MAX = 1e6


@dataclass
class IpConfig(SolverConfig):
    SOLVER = "ip"
    KINDS = IP_KINDS
    # floor 1e-8: at 1e-6 the late, ill-conditioned Schur systems leave
    # directions whose outcome on tru9 depends on rounding alone
    CG_FLOOR = 1e-8

    max_iter: int = 200
    precond: str = "cluster"


@dataclass
class NtBlock:
    w: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    d: np.ndarray        # diag(G' S G), the scaling singular values
    fx: np.ndarray       # D^{-1/2} G^{-1}, with fx'fx = X^{-1} (X = G D G')
    fs: np.ndarray       # D^{-1/2} G', with fs'fs = S^{-1} (S = G^{-T} D G^{-1})


def nt_scaling(x: np.ndarray, s: np.ndarray) -> NtBlock:
    """Scaling block W with W S W = X, W = G G'.

    Computed from the Cholesky factors X = L L', S = R R' and the singular
    value decomposition R'L = U D V', of which only D and V are used:
    G = L V D^{-1/2} and G^{-1} = D^{1/2} V' L^{-1}, so that X = G D G' and
    S = G^{-T} D G^{-1}.  D^2 and V come from ``eigh`` of the Gram matrix
    (R'L)'(R'L) = L'SL, as in SDPT3, at about half the cost of the SVD; the
    SVD itself is taken only past the spread ``GRAM_SPREAD_MAX``, where
    squaring would cost the step lengths their accuracy.  G^{-1} comes from
    a triangular solve with L, not from the equal product D^{-1/2} U' R':
    the product, which leans on the SVD identity, cost late IP iterates
    more iterations on tru8 and tru9 across variable orders.  Propagates
    NotPositiveDefinite when a block left the cone.  Forms ``fx``, ``fs`` too.
    """
    l = chol(x, "NT scaling (X block)")
    r = chol(s, "NT scaling (S block)")
    rl = r.T @ l
    sig2, v = np.linalg.eigh(rl.T @ rl)
    if sig2[0] * GRAM_SPREAD_MAX >= sig2[-1]:
        sig = np.sqrt(sig2)
    else:
        _, sig, vt = svd(rl)
        v = vt.T
    g = l @ v / np.sqrt(sig)
    g_inv = solve_triangular(l, v * np.sqrt(sig), lower=True, trans="T").T
    w = g @ g.T
    root = np.sqrt(sig)[:, None]
    return NtBlock(sym(w), g, g_inv, sig, g_inv / root, g.T / root)


@dataclass
class Scaling:
    blocks: list[NtBlock]
    lin_w2: np.ndarray   # x_lin / s_lin, the squared diagonal scaling
    fx: list[np.ndarray]  # the blocks' step-length factors, for step_length
    fs: list[np.ndarray]

    def lin_diag(self, prob: SdpProblem) -> np.ndarray:
        """Diagonal of D' diag(x/s) D (exact for disjoint box rows)."""
        return prob.ops.d_sq_t @ self.lin_w2

    def sandwich(self, m: BlockSymMatrix) -> BlockSymMatrix:
        """W M W per block and (x/s) m on the linear part."""
        blocks = [nt.w @ mat @ nt.w for nt, mat in zip(self.blocks, m.blocks)]
        return BlockSymMatrix(blocks, self.lin_w2 * m.lin)


def make_scaling(pt: PrimalDualPoint) -> Scaling:
    blocks = [nt_scaling(x, s) for x, s in zip(pt.X.blocks, pt.S.blocks)]
    return Scaling(blocks, pt.X.lin / pt.S.lin, [nt.fx for nt in blocks], [nt.fs for nt in blocks])


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

    ``factors`` holds one F per block with F'F = M^{-1} (``Scaling.fx`` or
    ``Scaling.fs``), so lambda_min(M^{-1} dM) is that of F dM F' and no
    block is factored again."""
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
    if mats.lin.size and mats.lin.min() <= 0:
        return False
    return all(is_pd(b) for b in mats.blocks)


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
) -> pc.SmwPreconditioner:
    """The ``kind`` build of one iteration (alpha, beta, cluster, tilde or
    none; the same kind on every iteration), or beta, cluster's base without
    its columns, when a stale split makes a low-rank build fail."""
    if kind == "none":
        return pc.identity(prob.n)
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


def _split_bound(prob: SdpProblem, splits: list[pc.SplitBlock], kind: str) -> tuple[list, list]:
    """The (terms, approx) pairs of the split bound of a dense record: the
    alpha and cluster bases stand in for each B_i = A_i'(W0_i x W0_i)A_i by
    tau_i^2 I and by diag(B_i).  Other kinds have none."""
    bounded = kind in ("alpha", "cluster")
    terms = [pc.dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits)] if bounded else []
    approx = [s.tau**2 * np.eye(prob.n) if kind == "alpha" else np.diag(np.diag(t)) for s, t in zip(splits, terms)]
    return terms, approx


def ip_solve(prob: SdpProblem, config: IpConfig | None = None) -> tuple[PrimalDualPoint, SolveReport]:
    """Run the predictor-corrector loop until the DIMACS measures drop below
    the configured tolerance, the steps stall (``STALL_ITERS`` iterations in
    a row with min(alpha, beta) < ``STALL_STEP``) or the iteration cap is
    hit.  Raises ConfigError for ``tilde`` past ``TILDE_DENSE_LIMIT``."""
    config = config or IpConfig()
    if config.precond == "tilde" and prob.n > pc.TILDE_DENSE_LIMIT:
        raise ConfigError(f"precond tilde refuses n = {prob.n} > TILDE_DENSE_LIMIT = {pc.TILDE_DENSE_LIMIT} (dense base)")
    run = RunRecord(prob, config)
    pt = initial_point(prob)
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

        cg_tol = cg_tolerance(it, config.CG_FLOOR)
        xs = pt.X.dot(pt.S)
        mu = xs / (prob.m_total + prob.nu)
        scal = make_scaling(pt)
        lin_diag = scal.lin_diag(prob)
        splits = [pc.spectral_split(nt.w, config.rank) for nt in scal.blocks]

        prec = _build_preconditioner(config.precond, prob, splits, lin_diag)

        if run.diagnosing:
            run.diagnose(lambda v: schur_matvec(prob, scal, v), prec, *_split_bound(prob, splits, prec.kind),
                         iteration=it)

        rp, rd = errs.rp, errs.rd
        wrdw = scal.sandwich(rd)

        def direction(target: BlockSymMatrix, what: str, record: bool = False, deflate: Deflation | None = None):
            """(dy, dX, dS, CG report) for the complementarity target, or
            None when ``RunRecord.take`` ends the run at this solve."""
            nonlocal status
            dy, rep = pcg_solve(
                lambda v: schur_matvec(prob, scal, v),
                prec.apply_inv,
                _rhs(prob, rp, wrdw, target),
                tol=cg_tol,
                maxiter=config.cg_maxiter,
                record=record,
                deflate=deflate,
            )
            if not run.take(rep, what, it, pt, errs):
                status = "numerical_limit"
                return None
            return (dy, *recover_directions(prob, scal, dy, rd, target), rep)

        # the corrector solves with the same H and P: deflate it with the
        # predictor's smallest Ritz pairs, when P has low-rank columns (on a
        # diagonal P, deflation cost vib5 none CG and stalled tru9 beta)
        pred = direction(pt.X, "predictor", record=prec.rank > 0)
        if pred is None:
            break
        _, dX_p, dS_p, rep_p = pred
        space = rep_p.deflation

        # Mehrotra's sigma from the full predictor step to the boundary
        alpha_p = step_length(scal.fx, pt.X, dX_p, 1.0)
        beta_p = step_length(scal.fs, pt.S, dS_p, 1.0)
        num = (pt.X + alpha_p * dX_p).dot(pt.S + beta_p * dS_p)
        sigma = min(1.0, max(0.0, num / xs)) ** SIGMA_POWER
        # SDPT3's corrector fraction: closer to the boundary after a long predictor
        step_frac = TAU_FRAC + TAU_GAIN * min(alpha_p, beta_p)

        corr = direction(_corrector_target(pt, scal, dX_p, dS_p, sigma * mu), "corrector", deflate=space)
        if corr is None:
            break
        dy, dX, dS, rep_c = corr

        try:
            alpha, alpha_repairs = step_with_repair(scal.fx, pt.X, dX, step_frac, STEP_REPAIR_LIMIT)
            beta, beta_repairs = step_with_repair(scal.fs, pt.S, dS, step_frac, STEP_REPAIR_LIMIT)
        except NotPositiveDefinite as exc:
            if errs.max() <= config.graceful_tol:
                status = "numerical_limit"
                break
            raise SolverFailure(run.report("factorization_failure", pt, errs), "step repair", it) from exc

        pt = PrimalDualPoint(pt.y + beta * dy, pt.X + alpha * dX, pt.S + beta * dS)
        short_steps = short_steps + 1 if min(alpha, beta) < STALL_STEP else 0

        run.record(
            it,
            precond=prec.kind,
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
