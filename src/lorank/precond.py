"""Low-rank preconditioner family for the Schur-complement / Newton systems.

Both solvers lead to systems with a matrix of the form

    H = sum_i  A_i' (Phi_i x Psi_i) A_i  +  (diagonal linear-block term),

where the per-block matrices develop a handful of outlying eigenvalues as the
solver converges.  Splitting each scaling matrix W = W0 + U U' at a threshold
tau separates the cluster from the outliers; approximating the clustered part
by a multiple of the identity (or of diag(A'A)) leaves a diagonal-plus-low-rank
preconditioner whose inverse is applied through the Sherman-Morrison-Woodbury
identity with a small factored inner Schur complement.

Each driver accepts only its own kinds and rejects any other when its config
is constructed:

- ``ip`` (Schur complement): alpha | beta | cluster | tilde | none.
  ``cluster``, the default from the first iteration on, is alpha's
  low-rank part on the exact diagonal of the cluster term,
  diag(sum_i A_i'(W0_i x W0_i)A_i), in place of sum_i tau_i^2 I; on truss
  data that term spreads over decades late in the run, where no multiple
  of I fits it.
- ``pdal`` (augmented-Lagrangian Hessian): gamma | delta | beta | none.

``beta`` is the driver's default kind without its columns: cluster's base
for ip, gamma's for pdal.  Both drivers fall back to it when a low-rank
build meets a matrix that is not positive definite.  ``none`` is P = I
(``identity``), so each driver applies an ``SmwPreconditioner`` on every
solve.  Each block's outlier count comes from the config's ``rank``,
clamped to the block by ``spectral_split``.

Every build returns through one SMW assembly, which keeps the low-rank
block V = G F factored (G sparse, F block diagonal), lays G out on one
padded slot grid with s slots per row and outlier, and applies P through
SMW on a diagonal base, or by a Cholesky factor of P itself for tilde's
dense base or K >= n columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .linalg import chol, chol_solve, sym, top_eig
from .model import SdpProblem, Support

TILDE_DENSE_LIMIT = 4000  # largest n whose dense tilde base is assembled and factored


@dataclass
class SplitBlock:
    """Spectral split W = w0 + u u' of one scaling block.

    ``tau`` is the cluster threshold; ``u`` has the k outlier eigenvectors
    as columns, scaled by sqrt(lambda - tau).  ``eigs`` keeps the full
    ascending spectrum of W for the cheap scalar summaries the gamma/delta
    bases need, and ``w`` the block itself.  The m x m cluster part
    w0 = W - u u' is formed on first read: pdal's gamma and beta bases never
    read it.
    """

    u: np.ndarray
    tau: float
    k: int
    eigs: np.ndarray
    w: np.ndarray

    @cached_property
    def w0(self) -> np.ndarray:
        """sym(W - u u'): W with its k top eigenvalues lowered to tau, exact
        in exact arithmetic and within eps * lambda_max in floating point."""
        return sym(self.w - self.u @ self.u.T)

    def min_eig_w0(self) -> float:
        return float(min(self.eigs[0], self.tau))

    def mean_eig_w0(self) -> float:
        m = self.eigs.size
        return float((self.eigs[: m - self.k].sum() + self.k * self.tau) / m)


def tau_cluster_mean(eigs: np.ndarray, k: int) -> float:
    """Cluster threshold lambda_1 + 0.5 * mean(lambda_1..lambda_{m-k})."""
    m = eigs.size
    if k >= m:
        raise ValueError("rank hint must be smaller than the block dimension")
    return float(eigs[0] + 0.5 * np.mean(eigs[: m - k]))


def spectral_split(w: np.ndarray, rank: int) -> SplitBlock:
    """Split a positive definite scaling matrix into cluster + rank-k part.

    ``rank`` is the config's outlier count k, clamped to [0, m - 1] for the
    block: the rank the solution is known to have per block, one on the
    single-load truss instances.  The cluster threshold tau is
    ``tau_cluster_mean``.  When it exceeds the largest cluster eigenvalue
    the split is degenerate; tau is pulled just below it so the
    decomposition identity still holds exactly.  The spectrum and the k
    outlier vectors come from one tridiagonal reduction (``top_eig``); no
    other eigenvector is formed.
    """
    m = w.shape[0]
    k = min(max(0, rank), m - 1)
    lam, v = top_eig(w, k)
    tau = tau_cluster_mean(lam, k)
    lam_edge = lam[m - k - 1]  # largest eigenvalue kept in the cluster
    if tau > lam_edge:
        tau = lam_edge * (1.0 - 1e-8)
    u = v * np.sqrt(np.maximum(lam[m - k :] - tau, 0.0))
    return SplitBlock(u, tau, k, lam, w)


def low_rank_factor(support: Support, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the piece A'(left x right) of V, columns A' vec(outer(
    left[:, a], right[:, b])) for all (a, b), kept factored as G F.

    ``support`` is the block's :class:`Support` (``SdpProblem.ops.supports``),
    ``left`` the m x k outlier factor and ``right`` the full m x m factor F.
    Returns ``(cols, vals)``, each n x (k s): slot a s + l of row j is
    outlier a's, at column a m + rows[j, l] of G with value (A_j u_a)_c at
    c = rows[j, l], exactly 0 on the padding.  One batched s x s product for
    all j and outliers, summed in ascending row order as a sum over the
    entries of A' would (``matmul`` rounds differently); neither the
    (m^2, m) Kronecker product nor the n x (k m) block is formed.
    """
    n, s = support.rows.shape
    lt = left[support.rows]  # (n, s, k)
    vals = sum(support.sub[:, None, :, l] * lt[:, l, :, None] for l in range(s))  # (n, k, s)
    cols = len(right) * np.arange(left.shape[1])[:, None] + support.rows[:, None, :]
    return cols.reshape(n, -1), vals.reshape(n, -1)


@dataclass
class SmwPreconditioner:
    """base + V V' preconditioner with V = G F kept factored.

    G is the sparse n x K matrix of the pieces' G_u, held as the
    coordinates (``g_rows``, ``g_cols``, ``g_vals``) of the real slots of
    the build's slot grid (:func:`_smw`); F is block diagonal: ``factors``
    lists each piece's columns [start, stop) of V and its m x m factor,
    repeated over the piece's outliers.  ``base`` is a positive diagonal or
    tilde's dense n x n matrix.  The apply has two modes: through SMW with
    ``theta_l``, the Cholesky factor of Theta = I + F'G' base^{-1} G F, or,
    when ``p_l`` is set, one solve with the Cholesky factor of P itself.
    """

    kind: str
    base: np.ndarray
    g_rows: np.ndarray
    g_cols: np.ndarray
    g_vals: np.ndarray
    factors: list[tuple[int, int, np.ndarray]]
    theta_l: np.ndarray | None = None
    p_l: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def rank(self) -> int:
        return self.factors[-1][1] if self.factors else 0

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """P^{-1} x = t - base^{-1} G F Theta^{-1} F'G' t with t = base^{-1} x."""
        if self.p_l is not None:
            return chol_solve(self.p_l, x)
        t = x / self.base
        if not self.factors:
            return t
        w = np.bincount(self.g_cols, self.g_vals * t[self.g_rows], minlength=self.rank)
        # F'w, then F s, per piece: the rows of w[a:b] are its outliers
        z = np.concatenate([w[a:b].reshape(-1, len(f)) @ f for a, b, f in self.factors], axis=None)
        s = chol_solve(self.theta_l, z)
        y = np.concatenate([s[a:b].reshape(-1, len(f)) @ f.T for a, b, f in self.factors], axis=None)
        return t - np.bincount(self.g_rows, self.g_vals * y[self.g_cols], minlength=t.size) / self.base

    def dense_v(self) -> np.ndarray:
        """Dense low-rank block V = G F (diagnostic sizes and the direct mode)."""
        n, size = self.n, self.rank
        g = np.bincount(self.g_rows * size + self.g_cols, self.g_vals, minlength=n * size).reshape(n, size)
        parts = [(g[:, a:b].reshape(-1, len(f)) @ f).reshape(n, b - a) for a, b, f in self.factors]
        return np.hstack(parts + [np.zeros((n, 0))])

    def dense(self) -> np.ndarray:
        """Dense assembly base + V V' (diagnostic sizes and the direct mode)."""
        v = self.dense_v()
        return (np.diag(self.base) if self.base.ndim == 1 else self.base) + v @ v.T


def _smw(
    kind: str, base: np.ndarray, recipe: Sequence[tuple[Support, np.ndarray, np.ndarray]]
) -> SmwPreconditioner:
    """The one SMW assembly of base + V V' with V the pieces A_i'(U x F)
    of ``recipe``, one ``(support, U, F)`` per piece.

    The pieces' slots (:func:`low_rank_factor`) lie side by side in one
    padded n x P slot grid, P = sum k s; G's apply keeps the real slots.
    ``base`` is a diagonal, which must be positive, or tilde's dense n x n
    matrix.  On a diagonal base the lower triangle of Theta = I +
    F'(G' base^{-1} G)F is summed one outlier pair at a time: one bincount
    over the pair's slots into the m x m2 cells, each over ascending j, the
    padding adding exact zeros.  A dense base, or K >= n columns, has
    P = base + V V' assembled and factored instead: its n x n Cholesky then
    costs no more than Theta's, and the SMW apply, which passes through
    Theta's larger condition number, loses accuracy that a direct solve
    keeps.
    """
    if base.ndim == 1 and np.any(base <= 0.0):
        raise ValueError(f"{kind}: nonpositive base diagonal entry")
    cols, vals, real = ([np.zeros((base.shape[0], 0), dtype=t)] for t in (np.intp, float, bool))
    factors, outliers = [], []  # per outlier: its slots' support rows and values, first column, F
    size = 0
    for sup, u, f in recipe:
        c, v = low_rank_factor(sup, u, f)
        k, m, s = u.shape[1], len(f), sup.rows.shape[1]
        if k:
            cols.append(c + size)
            vals.append(v)
            real += [sup.real] * k
            factors.append((size, size + k * m, f))
            outliers += [(sup.rows, v[:, a * s : a * s + s], size + a * m, f) for a in range(k)]
            size += k * m
    cols, vals, real = np.hstack(cols), np.hstack(vals), np.hstack(real)
    slots = np.flatnonzero(real)  # the real slots in row-major order
    prec = SmwPreconditioner(kind, base, slots // real.shape[1], cols.ravel()[slots], vals.ravel()[slots], factors)
    if base.ndim == 2 or size >= prec.n:
        prec.p_l = chol(prec.dense(), f"{kind} preconditioner")
        return prec
    theta = np.eye(size)
    binv = 1.0 / base
    for i, (rows, g, c, f) in enumerate(outliers):
        x = g * binv[:, None]
        for rows2, g2, c2, f2 in outliers[i:]:
            m, m2 = len(f), len(f2)
            cells = (rows[:, :, None] * m2 + rows2[:, None, :]).ravel()
            sums = np.bincount(cells, (x[:, :, None] * g2[:, None, :]).ravel(), minlength=m * m2)
            theta[c2 : c2 + m2, c : c + m] += (f.T @ sums.reshape(m, m2) @ f2).T
    prec.theta_l = chol(theta, f"{kind} inner Schur complement")  # reads the lower triangle
    return prec


def alpha_base(splits: Sequence[SplitBlock], lin_diag: np.ndarray, n: int) -> np.ndarray:
    """Base diagonal of alpha: sum_i tau_i^2 + linear term."""
    return np.full(n, sum(s.tau**2 for s in splits)) + lin_diag


def cluster_base(prob: SdpProblem, splits: Sequence[SplitBlock], lin_diag: np.ndarray) -> np.ndarray:
    """Base diagonal of cluster, and of ip's beta: lin_diag + sum_i
    diag(A_i'(W0_i x W0_i)A_i).

    Entry j of block i's term is <A_ij, W0_i A_ij W0_i> = tr(a w a w) with a
    the restriction of A_ij to its support rows (``SdpProblem.ops.supports``)
    and w that of W0_i: one gather of W0_i and two batched s x s products
    for all j together."""
    a_diag = lin_diag.astype(float)
    for sup, s in zip(prob.ops.supports, splits):
        aw = sup.sub @ s.w0[sup.rows[:, :, None], sup.rows[:, None, :]]
        a_diag += np.einsum("jkl,jlk->j", aw, aw)
    return a_diag


def _lagrangian_base(
    prob: SdpProblem, w_splits: Sequence[SplitBlock], v_means: Sequence[float], h_lin_diag: np.ndarray
) -> np.ndarray:
    """h_lin_diag + sum_i tau1_i tau2_i diag(A_i'A_i) with tau1 = 10 *
    lambda_min(W_i^0) and tau2 = ``v_means[i]``.

    W_i = Xbar_i / pi is positive semidefinite in exact arithmetic, so tau1
    is clamped at 0: next to a spectrum reaching 1e12 the computed
    lambda_min can be a round-off -1e-4, whose term would outweigh
    h_lin_diag and leave a nonpositive base."""
    a_diag = h_lin_diag.astype(float)
    for norms_sq, s, tau2 in zip(prob.ops.a_norms_sq, w_splits, v_means):
        a_diag += 10.0 * max(s.min_eig_w0(), 0.0) * tau2 * norms_sq
    return a_diag


def gamma_base(
    prob: SdpProblem, w_splits: Sequence[SplitBlock], v_mats: Sequence[np.ndarray], h_lin_diag: np.ndarray
) -> np.ndarray:
    """Base diagonal of gamma (and of pdal's beta); tau2 is the mean
    eigenvalue of V_i."""
    v_means = [float(np.trace(v)) / v.shape[0] for v in v_mats]
    return _lagrangian_base(prob, w_splits, v_means, h_lin_diag)


def _outlier_recipe(prob: SdpProblem, splits: Sequence[SplitBlock], what: str) -> list:
    """Per block (U_i, Gamma_i) with Gamma_i Gamma_i' = 2 W_i^0 + U_i U_i'."""
    return [
        (sup, s.u, chol(2.0 * s.w0 + s.u @ s.u.T, f"{what} block factor"))
        for sup, s in zip(prob.ops.supports, splits)
    ]


def build_h_alpha(
    prob: SdpProblem, splits: Sequence[SplitBlock], lin_diag: np.ndarray, base: str = "tau"
) -> SmwPreconditioner:
    """Diagonal-plus-low-rank preconditioner from the scaling splits.

    Base: with ``base="tau"`` alpha's sum_i tau_i^2 I + diag(linear term),
    with ``base="cluster"`` the cluster kind's ``cluster_base``; the
    preconditioner is labelled with the kind.  Low-rank part: per block
    A_i'(U_i x Gamma_i) with Gamma_i Gamma_i' = 2 W_i^0 + U_i U_i'.
    A factorization failure (stale split) propagates NotPositiveDefinite so
    the caller can refresh the split or fall back to beta.
    """
    if base == "tau":
        kind, a_diag = "alpha", alpha_base(splits, lin_diag, prob.n)
    elif base == "cluster":
        kind, a_diag = "cluster", cluster_base(prob, splits, lin_diag)
    else:
        raise ValueError(f"alpha base must be tau or cluster, got {base!r}")
    return _smw(kind, a_diag, _outlier_recipe(prob, splits, kind))


def build_h_beta(a_diag: np.ndarray) -> SmwPreconditioner:
    """Diagonal-only preconditioner: the base diagonal of the driver's
    default kind (``cluster_base`` for ip, ``gamma_base`` for pdal) without
    its columns."""
    return _smw("beta", a_diag, [])


def identity(n: int) -> SmwPreconditioner:
    """The ``none`` kind: P = I, rank 0; its apply x / 1.0 is exact."""
    return _smw("none", np.ones(n), [])


def build_h_tilde(prob: SdpProblem, splits: Sequence[SplitBlock], lin_diag: np.ndarray) -> SmwPreconditioner:
    """Variant with base sum tau_i^2 A_i'A_i + diag(linear term).

    The base is dense, so the build assembles and factors P itself; on
    problems where A'A has no convenient structure this is exactly the cost
    the alpha variant avoids.  Refuses n beyond ``TILDE_DENSE_LIMIT`` with
    ValueError.  A P that does not factor raises NotPositiveDefinite, and
    the IP falls back to beta as for the other kinds.
    """
    n = prob.n
    if n > TILDE_DENSE_LIMIT:
        raise ValueError(
            f"tilde base factorization refused for n={n} > {TILDE_DENSE_LIMIT}: "
            "A'A is not cheaply invertible at this size"
        )
    base = np.zeros((n, n))
    for a_op, s in zip(prob.A, splits):
        base += s.tau**2 * (a_op.T.tocsr() @ a_op).toarray()
    base[np.diag_indices(n)] += lin_diag
    return _smw("tilde", base, _outlier_recipe(prob, splits, "tilde"))


def build_h_gamma(
    prob: SdpProblem,
    w_splits: Sequence[SplitBlock],
    v_mats: Sequence[np.ndarray],
    h_lin_diag: np.ndarray,
) -> SmwPreconditioner:
    """Augmented-Lagrangian preconditioner: only the multiplier-side scaling
    W is split; the companion matrices V (eigenvalues in (0,1] at feasible
    points) enter whole through their Cholesky factors.

    Base: ``gamma_base``, h_lin_diag + sum_i tau1_i tau2_i diag(A_i'A_i) with
    tau1 = 10 * max(lambda_min(W_i^0), 0) and tau2 the mean eigenvalue of
    V_i.  The factor 2 of the Hessian is carried in the factors sqrt(2) Delta_i.
    """
    a_diag = gamma_base(prob, w_splits, v_mats, h_lin_diag)
    root2 = math.sqrt(2.0)
    recipe = [
        (sup, s.u, root2 * chol(sym(v_mat), "gamma companion factor"))
        for sup, s, v_mat in zip(prob.ops.supports, w_splits, v_mats)
    ]
    return _smw("gamma", a_diag, recipe)


def build_h_delta(
    prob: SdpProblem,
    w_splits: Sequence[SplitBlock],
    v_splits: Sequence[SplitBlock],
    h_lin_diag: np.ndarray,
) -> SmwPreconditioner:
    """Augmented-Lagrangian preconditioner with both factors split.

    Base: as gamma with tau2 the mean eigenvalue of V_i^0.  Low-rank part
    stacks (W-outliers x Theta_i) and (V-outliers x Gamma_i) with Gamma_i
    Gamma_i' = W_i^0 + 0.5 U_i^W (U_i^W)' and Theta_i Theta_i' = V_i^0 + 0.5
    U_i^V (U_i^V)'.  With no V outliers it degenerates to the gamma
    structure.
    """
    a_diag = _lagrangian_base(prob, w_splits, [sv.mean_eig_w0() for sv in v_splits], h_lin_diag)
    recipe = []
    root2 = math.sqrt(2.0)
    for sup, sw, sv in zip(prob.ops.supports, w_splits, v_splits):
        gamma = chol(sw.w0 + 0.5 * sw.u @ sw.u.T, "delta W factor")
        theta = chol(sv.w0 + 0.5 * sv.u @ sv.u.T, "delta V factor")
        if sw.k:
            recipe.append((sup, sw.u, root2 * theta))
        if sv.k:
            recipe.append((sup, sv.u, root2 * gamma))
    return _smw("delta", a_diag, recipe)


# ---------------------------------------------------------------------------
# Dense diagnostics (n <= 400): conditioning of the preconditioned operator
# and the split-approximation bound it must respect.
# ---------------------------------------------------------------------------


def dense_of(op: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """The n x n matrix of a symmetric linear map, from its columns op(e_j)."""
    return sym(np.column_stack([op(e) for e in np.eye(n)]))


def dense_sandwich(a_op: sp.csr_matrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dense A'(left x right)A; small problems only.  Column j is
    A' vec(left A_j right'), so n m x m products stand in for the m^2 x m^2
    Kronecker product."""
    a = a_op.toarray()
    m = left.shape[0]
    mats = left @ a.T.reshape(-1, m, m) @ right.T
    return a.T @ mats.reshape(len(mats), -1).T


def conditioning(
    h: np.ndarray,
    p: np.ndarray,
    terms: Sequence[np.ndarray] = (),
    approx: Sequence[np.ndarray] = (),
) -> dict:
    """Extreme eigenvalues and condition number of H, and the condition
    number of P^{-1}H read from the pencil (H, P).

    ``terms`` are the exact per-block contributions B_i that P approximates
    by ``approx`` (for alpha: the clustered sandwich A'(W0 x W0)A versus
    tau^2 I).  With them the record adds the split-approximation bound
    (1 + sum eps_hi) / (1 + sum eps_lo), eps the extreme eigenvalues of the
    pencils (B_i - Btilde_i, P).
    """
    lam_h = np.linalg.eigvalsh(h)
    lam_pre = eigh(h, p, eigvals_only=True)
    rec = {
        "hessian_min_eig": float(lam_h[0]),
        "hessian_max_eig": float(lam_h[-1]),
        "kappa_h": float(lam_h[-1] / lam_h[0]),
        "kappa_preconditioned": float(lam_pre[-1] / lam_pre[0]),
    }
    if terms:
        eps = np.array([eigh(b - bt, p, eigvals_only=True)[[0, -1]] for b, bt in zip(terms, approx)])
        eps_lo, eps_hi = eps.T.tolist()
        denom = 1.0 + sum(eps_lo)
        bound = math.inf if denom <= 0 else (1.0 + sum(eps_hi)) / denom
        rec.update(bound=bound, eps_hi=eps_hi, eps_lo=eps_lo)
    return rec
