import numpy as np
import pytest
import scipy.sparse as sp

from lorank.ip import IpConfig, initial_point, ip_solve, make_scaling, nt_scaling, schur_matvec
from lorank.linalg import sym
from lorank.model import column_norms_sq
from lorank.pdal import OuterCtx, PdalConfig, _pdal_preconditioner, evaluate_point, pdal_solve
from lorank import precond
from lorank.precond import (
    _slot_plan,
    _smw,
    alpha_base,
    build_h_alpha,
    build_h_beta,
    build_h_delta,
    build_h_gamma,
    build_h_tilde,
    cluster_base,
    conditioning,
    dense_of,
    dense_sandwich,
    gamma_base,
    identity,
    low_rank_factor,
    spectral_split,
    tau_cluster_mean,
)

from conftest import (
    dense_pdal_hessian,
    dense_schur,
    make_truss_problem,
    rand_spd,
    random_problem,
    spd_with_spectrum,
)


class TestTauRule:
    def test_flat_plus_outlier(self):
        assert tau_cluster_mean(np.array([1.0, 1.0, 1.0, 100.0]), 1) == pytest.approx(1.5)

    def test_degenerate_two_point(self):
        # tau = 2 + 0.5*2 = 3 exceeds the cluster edge; split must fall back
        tau = tau_cluster_mean(np.array([2.0, 2.0]), 1)
        assert tau == pytest.approx(3.0)
        s = spectral_split(np.diag([2.0, 2.0]), 1)
        assert s.tau == s.eigs[0] * (1.0 - 1e-8)
        assert s.tau < 2.0

    def test_arithmetic(self):
        eigs = np.array([0.5, 1.5, 3.0, 1e6])
        expected = 0.5 + 0.5 * np.mean([0.5, 1.5, 3.0])
        assert tau_cluster_mean(eigs, 1) == pytest.approx(expected)
        assert expected == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestSpectralSplit:
    def test_threshold_at_cluster_edge(self):
        # tau = 3 + 0.5 * mean(3, 5) = 5 is the cluster edge and the outlier:
        # a clean split with a zero column
        w = np.diag([3.0, 5.0, 5.0])
        s = spectral_split(w, 1)
        assert s.tau == 5.0 and s.tau <= s.eigs[1]
        assert np.linalg.norm(s.u) == 0.0
        assert np.allclose(s.w0, w, atol=1e-12)

    def test_identity_degenerate_fallback(self):
        # the threshold rule asks for tau = 1.5 > cluster edge: fallback engages
        s = spectral_split(np.eye(3), 1)
        assert s.tau == s.eigs[1] * (1.0 - 1e-8)
        assert np.linalg.norm(s.u) <= 2e-4
        assert np.allclose(s.w0, np.eye(3), atol=1e-7)
        assert np.allclose(s.w0 + s.u @ s.u.T, np.eye(3), atol=1e-12)

    def test_clean_outlier(self):
        s = spectral_split(np.diag([3.0, 5.0, 100.0]), 1)
        assert s.tau == tau_cluster_mean(s.eigs, 1) and s.tau <= s.eigs[1]
        assert np.allclose(s.w0, np.diag([3.0, 5.0, 5.0]), atol=1e-12)
        assert np.allclose(s.u @ s.u.T, np.diag([0.0, 0.0, 95.0]), atol=1e-10)

    def test_planted_spectrum(self):
        rng = np.random.default_rng(3)
        eigs = np.concatenate([np.linspace(0.9, 1.1, 8), [1e4, 1e4]])
        w = spd_with_spectrum(rng, eigs)
        s = spectral_split(w, 2)
        recon = s.w0 + s.u @ s.u.T
        assert np.linalg.norm(recon - w) <= 1e-10 * np.linalg.norm(w)
        w0_eigs = np.linalg.eigvalsh(s.w0)
        assert w0_eigs[-1] / w0_eigs[0] <= 1.3
        assert s.u.shape == (10, 2)
        assert np.linalg.matrix_rank(s.u) == 2

    def test_rank_hint_too_large(self):
        """A rank of m or more is clamped to m - 1, not refused."""
        w = np.diag([1.0, 1.1, 1.2, 1e4, 1e5])
        for rank in (4, 5, 20):
            s = spectral_split(w, rank)
            assert s.k == 4 and s.u.shape == (5, 4)
            assert np.allclose(s.w0 + s.u @ s.u.T, w, rtol=1e-12, atol=1e-9)
        s = spectral_split(np.eye(3), 3)
        assert s.k == 2 and s.u.shape == (3, 2)
        assert np.allclose(s.w0 + s.u @ s.u.T, np.eye(3), atol=1e-12)
        # a 1 x 1 block has no outliers
        assert spectral_split(np.array([[2.0]]), 3).k == 0

    def test_block_ranks(self):
        """The config's rank goes to each block's split as it is, kept
        within [0, m - 1]."""
        w = np.diag([1.0, 1.1, 1.2, 1e4, 1e5])
        assert spectral_split(w, -1).k == 0
        # rank 0 is honoured: both drivers pass the config's rank through
        assert spectral_split(w, 0).k == 0
        assert spectral_split(w, 2).k == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        w = rand_spd(rng, 7)
        for k in (0, 1, 3):
            s = spectral_split(w, k)
            assert np.allclose(s.w0 + s.u @ s.u.T, w, rtol=1e-10, atol=1e-10)
            # cluster part stays within [lambda_1, max(tau, cluster edge)]
            w0_eigs = np.linalg.eigvalsh(s.w0)
            assert w0_eigs[0] >= s.eigs[0] - 1e-10
            edge = max(s.tau, s.eigs[len(s.eigs) - k - 1] if k else s.eigs[-1])
            assert w0_eigs[-1] <= edge * (1 + 1e-10)


def ip_state_splits(prob, seed=0, k=1):
    """Random interior state: NT scalings and their splits."""
    rng = np.random.default_rng(seed)
    pt = initial_point(prob)
    for i, m in enumerate(prob.block_dims):
        pt.X.blocks[i] = rand_spd(rng, m)
        pt.S.blocks[i] = rand_spd(rng, m)
    pt.X.lin = rng.random(prob.nu) + 0.5
    pt.S.lin = rng.random(prob.nu) + 0.5
    scal = make_scaling(pt)
    splits = [spectral_split(nt.w, k) for nt in scal.blocks]
    lin_diag = scal.lin_diag(prob)
    return pt, scal, splits, lin_diag


def piece_dense(plan, vals, f, n):
    """Dense n x (k m) columns [G_{u_1} F ... G_{u_k} F] of a one-piece
    slot plan and the piece's slot values."""
    k, m = len(plan.outliers), len(f)
    g = np.zeros((n, k * m))
    g[plan.g_rows, plan.g_cols] = vals.ravel()[plan.slots]  # the real slots are distinct cells
    return np.hstack([g[:, a * m : a * m + m] @ f for a in range(k)] + [np.zeros((n, 0))])


def random_recipe(seed, dims, n, k):
    """A random problem, positive base diagonal and one (support, U, F)
    piece per block with k random outlier columns and a random Cholesky
    factor."""
    rng = np.random.default_rng(seed)
    prob = random_problem(seed, dims=dims, n=n, nu=2)
    recipe = [
        (sup, rng.standard_normal((m, k)), np.linalg.cholesky(rand_spd(rng, m)))
        for sup, m in zip(prob.ops.supports, dims)
    ]
    return prob, rng.random(n) + 0.5, recipe


def recipe_dense_v(prob, recipe):
    """The oracle V = [A_i'(U_i x F_i)] formed densely with Kronecker
    products, from a recipe of one piece per block in block order."""
    return np.hstack([prob.A[i].toarray().T @ np.kron(u, f) for i, (_, u, f) in enumerate(recipe)])


# Largest cond(P) whose dense solve still resolves an apply to 1e-8.  At the
# 12th iterate the worst P at rank 1 or 4 is cluster's on tru3 at rank 4:
# cond 9.5e6, apply off by 2.7e-10.
RESOLVED_COND = 1e9


def late_state_preconditioner(prob, kind, rank):
    """The ``kind`` preconditioner at the 12th iterate of its own driver."""
    if kind in ("alpha", "cluster", "tilde"):
        pt, _ = ip_solve(prob, IpConfig(precond="alpha", max_iter=12, eps_dimacs=1e-30))
        scal = make_scaling(pt)
        splits = [spectral_split(nt.w, rank) for nt in scal.blocks]
        if kind == "cluster":
            return build_h_alpha(prob, splits, scal.lin_diag(prob), base="cluster")
        build = build_h_alpha if kind == "alpha" else build_h_tilde
        return build(prob, splits, scal.lin_diag(prob))
    pt, _ = pdal_solve(prob, PdalConfig(max_iter=12, eps_dimacs=1e-30))
    ctx = OuterCtx(prob, pt.y, pt.X.blocks, pt.X.lin, pi_lmi=1.0, pi_lin=1.0, r=1e-3)
    cfg = PdalConfig(precond=kind, rank=rank)
    pc = _pdal_preconditioner(ctx, evaluate_point(ctx, pt.y), cfg)
    assert pc.kind == kind
    return pc


class TestAlpha:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("block", [0, 1])
    def test_low_rank_factor_matches_kron_oracle(self, vib5, block, k):
        """Columns from the support index equal the dense A'(u x F)."""
        _, _, prob = vib5
        m = prob.block_dims[block]
        rng = np.random.default_rng(10 * block + k)
        u = rng.standard_normal((m, k))
        f = np.linalg.cholesky(rand_spd(rng, m))
        sup = prob.ops.supports[block]
        vals = low_rank_factor(sup, u, f)
        assert vals.shape == (prob.n, k * sup.rows.shape[1])
        assert not vals[~np.tile(sup.real, k)].any()  # Theta sums the padding too
        plan = _slot_plan({}, [(sup, u, f)], prob.n)
        assert plan.slots.size == k * sup.real.sum()
        got = piece_dense(plan, vals, f, prob.n)
        assert got.shape == (prob.n, k * m)
        want = prob.A[block].toarray().T @ np.kron(u, f)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_toy_identity_scaling(self):
        # single block, identity scaling, no linear part: H_alpha = tau^2 I
        prob = random_problem(11, dims=(3,), n=3, nu=0)
        s = spectral_split(np.eye(3), 1)
        pc = build_h_alpha(prob, [s], np.zeros(prob.n))
        tau2 = s.tau**2
        assert np.allclose(pc.dense(), tau2 * np.eye(3), atol=1e-6)
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(pc.apply_inv(v), v / tau2, rtol=1e-6)

    def test_decomposition_identity_truss(self, tru3):
        """Low-rank factor reproduces the exact splitting of the system
        matrix: H = sum A'(W0 x W0)A + lin + V V'."""
        _, _, prob = tru3
        pt, scal, splits, lin_diag = ip_state_splits(prob, seed=1)
        pc = build_h_alpha(prob, splits, lin_diag)
        h_dense = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
        cluster = sum(
            dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits)
        )
        v = pc.dense_v()
        recon = cluster + np.diag(lin_diag) + v @ v.T
        assert np.linalg.norm(recon - h_dense) <= 1e-10 * np.linalg.norm(h_dense)

    def test_dense_assembly_matches(self, tru3):
        _, _, prob = tru3
        _, _, splits, lin_diag = ip_state_splits(prob, seed=2)
        pc = build_h_alpha(prob, splits, lin_diag)
        dense = pc.dense()
        v = pc.dense_v()
        expected = np.diag(pc.base) + v @ v.T
        assert np.allclose(dense, expected, rtol=1e-12)

    def test_conditioning_bound(self, tru3):
        _, _, prob = tru3
        pt, scal, splits, lin_diag = ip_state_splits(prob, seed=3)
        pc = build_h_alpha(prob, splits, lin_diag)
        h_dense = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
        h = dense_of(lambda v: schur_matvec(prob, scal, v), prob.n)
        assert np.linalg.norm(h - h_dense) <= 1e-12 * np.linalg.norm(h_dense)
        terms = [dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits)]
        approx = [s.tau**2 * np.eye(prob.n) for s in splits]
        rep = conditioning(h, pc.dense(), terms, approx)
        assert rep["kappa_preconditioned"] <= rep["bound"] * (1 + 1e-8)


class TestDenseSandwich:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_kron_oracle(self, seed):
        """Per block, 2 A_i'(L x R)A_i with non-symmetric L, R equals the
        conftest Hessian oracle's explicit Kronecker product with the other
        block, r and the linear weights zeroed."""
        rng = np.random.default_rng(seed)
        prob = random_problem(40 + seed, dims=(4, 5), n=9, nu=2)
        dims = prob.block_dims
        for i, m in enumerate(dims):
            left, right = rng.standard_normal((m, m)), rng.standard_normal((m, m))
            lefts = [left if j == i else np.zeros((mj, mj)) for j, mj in enumerate(dims)]
            rights = [right if j == i else np.zeros((mj, mj)) for j, mj in enumerate(dims)]
            want = dense_pdal_hessian(prob, 0.0, lefts, rights, np.zeros(prob.nu))
            got = 2.0 * dense_sandwich(prob.A[i], left, right)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestSmwInverse:
    def test_zero_lowrank_is_division(self):
        prob = random_problem(12, dims=(4,), n=5, nu=3)
        splits = [spectral_split(np.eye(4), 0)]
        lin = np.arange(1.0, 6.0)
        pc = build_h_beta(alpha_base(splits, lin, 5))
        v = np.arange(5.0) + 1.0
        assert np.allclose(pc.apply_inv(v), v / pc.base)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_inverse(self, seed):
        rng = np.random.default_rng(seed)
        prob, a_diag, recipe = random_recipe(seed, dims=(3, 4), n=5, k=1)
        pc = _smw("alpha", a_diag, recipe, prob.ops.slot_plans)
        v = recipe_dense_v(prob, recipe)
        dense = np.diag(a_diag) + v @ v.T
        rhs = rng.standard_normal(5)
        assert np.allclose(pc.apply_inv(rhs), np.linalg.solve(dense, rhs), rtol=1e-10)

    @pytest.mark.parametrize("n", [12, 7])
    def test_theta_or_direct_factor(self, n):
        """K = 7 columns: at n = 12 the apply goes through Theta, at K = n
        through the factor of P itself; both match the dense inverse."""
        rng = np.random.default_rng(n)
        prob, a_diag, recipe = random_recipe(n, dims=(3, 4), n=n, k=1)
        pc = _smw("alpha", a_diag, recipe, prob.ops.slot_plans)
        assert pc.rank == 7 and (pc.p_l is None) == (n > 7) and (pc.theta_l is None) == (n <= 7)
        v = recipe_dense_v(prob, recipe)
        rhs = rng.standard_normal(n)
        want = np.linalg.solve(np.diag(a_diag) + v @ v.T, rhs)
        assert np.allclose(pc.apply_inv(rhs), want, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_theta_matches_dense_oracle(self, seed):
        """Theta = I + V' base^{-1} V, summed over the padded support grids,
        on two blocks whose A_j touch different numbers of rows; A_0 is zero
        on the first block, so its row of that grid is all padding."""
        rng = np.random.default_rng(200 + seed)
        dims, n, k = (4, 6), 26, 2
        prob = random_problem(200 + seed, dims=dims, n=n, nu=2)
        keep = np.ones(n)
        keep[0] = 0.0
        prob.A[0] = (prob.A[0] @ sp.diags(keep)).tocsr()
        prob.A[0].eliminate_zeros()
        sups = prob.ops.supports
        assert not sups[0].real[0].any() and sups[1].real[0].any()
        assert all(not sup.real.all() for sup in sups)  # padded slots on both blocks
        recipe = [
            (sup, rng.standard_normal((m, k)), np.linalg.cholesky(rand_spd(rng, m)))
            for sup, m in zip(sups, dims)
        ]
        base = rng.random(n) + 0.5
        pc = _smw("alpha", base, recipe, prob.ops.slot_plans)
        assert pc.rank == k * sum(dims) < n and pc.theta_l is not None
        v = pc.dense_v()
        assert np.linalg.norm(v - recipe_dense_v(prob, recipe)) <= 1e-13 * np.linalg.norm(v)
        want = np.eye(pc.rank) + v.T @ (v / base[:, None])
        got = pc.theta_l @ pc.theta_l.T
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_theta_with_unequal_outlier_counts(self, seed):
        """Theta against the dense oracle when the pieces have k = 2 and
        k = 1 outliers on blocks of different size, with a k = 0 piece
        between them that adds no columns."""
        rng = np.random.default_rng(300 + seed)
        dims, n = (4, 6), 26
        prob = random_problem(300 + seed, dims=dims, n=n, nu=2)
        sups = prob.ops.supports
        pieces = [(0, 2), (1, 0), (1, 1)]  # (block, k)
        recipe = [
            (sups[i], rng.standard_normal((dims[i], k)), np.linalg.cholesky(rand_spd(rng, dims[i])))
            for i, k in pieces
        ]
        base = rng.random(n) + 0.5
        pc = _smw("alpha", base, recipe, prob.ops.slot_plans)
        assert pc.rank == 2 * 4 + 6 < n and pc.theta_l is not None
        assert [(a, b) for a, b, _ in pc.factors] == [(0, 8), (8, 14)]
        v = pc.dense_v()
        want_v = np.hstack([prob.A[i].toarray().T @ np.kron(u, f) for (i, _), (_, u, f) in zip(pieces, recipe)])
        assert np.linalg.norm(v - want_v) <= 1e-13 * np.linalg.norm(v)
        want = np.eye(pc.rank) + v.T @ (v / base[:, None])
        got = pc.theta_l @ pc.theta_l.T
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_slot_plan_is_computed_once_per_shape(self):
        """Builds of one recipe shape share one slot plan, and a build from
        the stored plan equals one from a fresh plan bit for bit; another
        outlier count is another shape."""
        prob, base, recipe = random_recipe(7, dims=(4, 6), n=26, k=2)
        plans = prob.ops.slot_plans
        first = _smw("alpha", base, recipe, plans)
        rng = np.random.default_rng(7)
        recipe2 = [(sup, rng.standard_normal(u.shape), f) for sup, u, f in recipe]
        second = _smw("alpha", base, recipe2, plans)
        assert len(plans) == 1 and second.g_rows is first.g_rows and second.g_cols is first.g_cols
        fresh = _smw("alpha", base, recipe2, {})
        assert np.array_equal(second.g_vals, fresh.g_vals)
        assert np.array_equal(second.theta_l, fresh.theta_l)
        _smw("alpha", base, [(sup, u[:, :1], f) for sup, u, f in recipe], plans)
        assert len(plans) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry_probe(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 8
        prob, _, recipe = random_recipe(100 + seed, dims=(4,), n=n, k=3)
        pc = _smw("alpha", rng.random(n) + 0.2, recipe, prob.ops.slot_plans)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        lhs = float(pc.apply_inv(a) @ b)
        rhs = float(a @ pc.apply_inv(b))
        assert lhs == pytest.approx(rhs, rel=1e-11)
        # positive definiteness probe
        assert float(a @ pc.apply_inv(a)) > 0

    @pytest.mark.parametrize("rank", [1, 4])
    @pytest.mark.parametrize("instance", ["tru3", "vib3"])
    @pytest.mark.parametrize("kind", ["alpha", "cluster", "tilde", "gamma", "delta"])
    def test_apply_matches_dense_solve(self, request, kind, instance, rank):
        """Every kind's factored apply against a dense solve with its own
        assembly from the pieces, at late solver states whose P the dense
        solve resolves; with rank 4 every kind gets K > n columns and factors
        P itself (tru3: K = 52 or 104 against n = 36)."""
        _, _, prob = request.getfixturevalue(instance)
        pc = late_state_preconditioner(prob, kind, rank)
        if rank == 4:
            assert pc.rank > prob.n and pc.p_l is not None
        dense = pc.dense()
        assert np.linalg.cond(dense) <= RESOLVED_COND
        rhs = np.random.default_rng(7).standard_normal(prob.n)
        want = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(pc.apply_inv(rhs) - want) <= 1e-8 * np.linalg.norm(want)

    def test_holds_no_dense_n_by_k_block(self):
        """The built preconditioner keeps G (a few nonzeros per row and
        outlier), the m x m factors and Theta's factor: O(nnz(A') + K^2)
        numbers, where the dense V alone would hold n K."""
        _, _, prob = make_truss_problem(7, "tru")
        _, _, splits, lin_diag = ip_state_splits(prob, seed=1)
        pc = build_h_alpha(prob, splits, lin_diag)
        n, size = prob.n, pc.rank
        arrays = [a for a in vars(pc).values() if isinstance(a, np.ndarray)]
        arrays += [f for _, _, f in pc.factors]
        held = sum(a.size for a in arrays)
        nnz = sum(a.nnz for a in prob.A)
        assert held <= 3 * nnz + 2 * size**2 + n
        assert held < n * size / 2


class TestBeta:
    def test_single_block_constant(self):
        s = spectral_split(np.diag([3.0, 5.0, 100.0]), 1)  # tau = 5
        pc = build_h_beta(alpha_base([s], np.zeros(6), 6))
        assert np.allclose(pc.base, 25.0)

    def test_matches_dense_diagonal(self, tru3):
        _, _, prob = tru3
        _, scal, splits, lin_diag = ip_state_splits(prob, seed=4)
        pc = build_h_beta(alpha_base(splits, lin_diag, prob.n))
        expected = sum(s.tau**2 for s in splits) + np.diag(
            prob.D.toarray().T @ np.diag(scal.lin_w2) @ prob.D.toarray()
        )
        assert np.allclose(pc.base, expected, rtol=1e-12)

    def test_nonpositive_entry_rejected(self):
        s = spectral_split(np.eye(3), 0)
        with pytest.raises(ValueError, match="nonpositive"):
            build_h_beta(alpha_base([s], np.array([-10.0, 0.0, 0.0]), 3))


def test_identity_is_exact():
    """The ``none`` kind: P = I with no columns, and x / 1.0 gives x bit
    for bit."""
    pc = identity(7)
    x = np.random.default_rng(5).standard_normal(7) * np.geomspace(1e-300, 1e300, 7)
    assert pc.kind == "none" and pc.rank == 0 and pc.n == 7
    assert pc.apply_inv(x).tobytes() == x.tobytes()
    assert np.array_equal(pc.dense(), np.eye(7))


class TestCluster:
    @staticmethod
    def state(seed):
        """A random problem with box rows and two blocks whose A_j touch
        different numbers of rows, and random splits of rank 1."""
        rng = np.random.default_rng(seed)
        prob = random_problem(seed, dims=(4, 6), n=9, nu=3)
        splits = [spectral_split(rand_spd(rng, m), 1) for m in prob.block_dims]
        return prob, splits, rng.random(prob.n)

    @pytest.mark.parametrize("seed", range(4))
    def test_support_index_restricts_each_matrix(self, seed):
        """A_j is the support restriction put back in place; the support
        sizes differ, so some rows of the index are padded, and the mask
        marks the real positions."""
        prob, _, _ = self.state(seed)
        padded = []
        for a_op, m, sup in zip(prob.A, prob.block_dims, prob.ops.supports):
            sizes = []
            for j in range(prob.n):
                a = a_op[:, j].toarray().reshape(m, m)
                touched = np.flatnonzero(np.any(a != 0.0, axis=1))
                sizes.append(touched.size)
                assert np.array_equal(sup.rows[j, : touched.size], touched)
                assert np.array_equal(sup.rows[j][sup.real[j]], touched)
                back = np.zeros((m, m))
                np.add.at(back, np.ix_(sup.rows[j], sup.rows[j]), sup.sub[j])  # padding repeats row 0
                assert np.array_equal(back, a)
            assert sup.rows.shape[1] == max(sizes)
            padded.append(max(sizes) > min(sizes))
        assert any(padded)

    @pytest.mark.parametrize("seed", range(4))
    def test_base_matches_kron_oracle(self, seed):
        """The base is lin_diag + diag(sum_i A_i'(W0_i x W0_i)A_i)."""
        prob, splits, lin_diag = self.state(seed)
        terms = sum(dense_sandwich(a, s.w0, s.w0) for a, s in zip(prob.A, splits))
        want = lin_diag + np.diag(terms)
        got = cluster_base(prob, splits, lin_diag)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_low_rank_part_is_alphas(self, vib3):
        """Only the base differs from alpha: same columns, cluster's label."""
        _, _, prob = vib3
        _, _, splits, lin_diag = ip_state_splits(prob, seed=6)
        pa = build_h_alpha(prob, splits, lin_diag)
        pc = build_h_alpha(prob, splits, lin_diag, base="cluster")
        assert (pa.kind, pc.kind) == ("alpha", "cluster")
        assert np.array_equal(pc.base, cluster_base(prob, splits, lin_diag))
        assert np.array_equal(pa.dense_v(), pc.dense_v())
        with pytest.raises(ValueError, match="tau or cluster"):
            build_h_alpha(prob, splits, lin_diag, base="tilde")

    def test_fits_the_late_cluster_term_better_than_alpha(self, tru3):
        """At a late iterate the cluster term spreads over decades: with the
        cluster base the preconditioned Schur complement is better
        conditioned than with alpha's tau^2 I."""
        _, _, prob = tru3
        pt, _ = ip_solve(prob, IpConfig(precond="cluster", max_iter=12, eps_dimacs=1e-30))
        scal = make_scaling(pt)
        splits = [spectral_split(nt.w, 1) for nt in scal.blocks]
        h = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
        kappa = {}
        for base in ("tau", "cluster"):
            p = build_h_alpha(prob, splits, scal.lin_diag(prob), base=base).dense()
            kappa[base] = conditioning(h, p)["kappa_preconditioned"]
        assert kappa["cluster"] < kappa["tau"]


class TestTilde:
    def test_orthonormal_columns_agree_with_alpha(self):
        """With A'A = I the tilde base collapses to the alpha base."""
        from lorank.model import build_problem

        m = 3
        # constraint matrices with orthonormal vectorizations: E_11, E_22, E_33
        diag = np.arange(m)
        c = [np.diag([1.0, 0.0, 0.0])]
        prob = build_problem([m], [(diag, diag, diag, np.ones(m))], c, np.ones(m), sp.csr_matrix((0, m)), np.zeros(0))
        w = np.diag([3.0, 5.0, 100.0])
        s = spectral_split(w, 1)
        pa = build_h_alpha(prob, [s], np.zeros(prob.n))
        pt = build_h_tilde(prob, [s], np.zeros(prob.n))
        assert np.allclose(pa.dense(), pt.dense(), rtol=1e-10)

    def test_dense_formula(self, tru3):
        _, _, prob = tru3
        _, _, splits, lin_diag = ip_state_splits(prob, seed=5)
        pc = build_h_tilde(prob, splits, lin_diag)
        gram = (prob.A[0].T @ prob.A[0]).toarray()
        v = pc.dense_v()
        expected = splits[0].tau**2 * gram + np.diag(lin_diag) + v @ v.T
        assert np.linalg.norm(pc.dense() - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_inverse_matches_dense(self, tru3):
        _, _, prob = tru3
        _, _, splits, lin_diag = ip_state_splits(prob, seed=6)
        pc = build_h_tilde(prob, splits, lin_diag)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(prob.n)
        assert np.allclose(
            pc.apply_inv(rhs), np.linalg.solve(pc.dense(), rhs), rtol=1e-8, atol=1e-10
        )

    def test_size_refusal(self, monkeypatch):
        prob = random_problem(13, dims=(3,), n=8, nu=4)
        s = [spectral_split(np.eye(3), 1)]
        monkeypatch.setattr(precond, "TILDE_DENSE_LIMIT", 4)
        with pytest.raises(ValueError, match="refused"):
            build_h_tilde(prob, s, np.ones(8))


def pdal_state(prob, seed=0):
    """Feasible augmented-Lagrangian state on a truss problem: y = t large
    enough that the compliance block is strictly feasible."""
    rng = np.random.default_rng(seed)
    y = 50.0 + 10.0 * rng.random(prob.n)
    x_blocks = [rand_spd(np.random.default_rng(seed + 1), m, shift=2.0) for m in prob.block_dims]
    ctx = OuterCtx(
        prob=prob,
        y_prox=y.copy(),
        x_blocks=x_blocks,
        x_lin=rng.random(prob.nu) + 0.5,
        pi_lmi=2.0,
        pi_lin=1.0,
        r=0.01,
    )
    ev = evaluate_point(ctx, y)
    return ctx, ev


class TestGamma:
    def test_lowrank_identity(self, tru3):
        """2 sum A'(Wtilde Wtilde' x V)A equals the stacked factor product."""
        _, _, prob = tru3
        ctx, ev = pdal_state(prob)
        w_mats = [xb / ctx.pi_lmi for xb in ev.xbar_blocks]
        v_mats = [ctx.pi_lmi * z for z in ev.z_blocks]
        splits = [spectral_split(w, 1) for w in w_mats]
        h_lin = 0.01 + np.zeros(prob.n)
        pc = build_h_gamma(prob, splits, v_mats, h_lin)
        lr_dense = sum(
            2.0 * dense_sandwich(a, s.u @ s.u.T, v)
            for a, s, v in zip(prob.A, splits, v_mats)
        )
        v = pc.dense_v()
        assert np.linalg.norm(v @ v.T - lr_dense) <= 1e-10 * max(
            1.0, np.linalg.norm(lr_dense)
        )

    def test_identity_companion_reduces_to_diagonal(self, tru3):
        _, _, prob = tru3
        w = np.eye(13)
        s = spectral_split(w, 1)  # degenerate: u ~ 0
        pc = build_h_gamma(prob, [s], [np.eye(13)], np.ones(prob.n))
        expected = 1.0 + 10.0 * s.min_eig_w0() * 1.0 * column_norms_sq(prob.A[0])
        assert np.allclose(pc.base, expected, rtol=1e-12)
        assert np.linalg.norm(pc.dense_v()) <= 1e-3

    def test_round_off_negative_w_keeps_base_positive(self, tru3):
        """W = Xbar/pi is positive semidefinite; a round-off negative
        smallest eigenvalue next to a spectrum reaching 1e12 must not push
        the base below the linear part (it raised ValueError in the build)."""
        _, _, prob = tru3
        rng = np.random.default_rng(8)
        eigs = np.concatenate([[-1e-2], np.linspace(0.5, 6.0, 11), [2.3e12]])
        s = spectral_split(spd_with_spectrum(rng, eigs), 1)
        assert s.eigs[0] < 0 and s.min_eig_w0() < 0
        h_lin = np.full(prob.n, 1e-3)
        v = np.eye(13)
        base = gamma_base(prob, [s], [v], h_lin)
        assert np.all(base > 0)
        assert np.array_equal(base, h_lin)
        assert np.all(build_h_gamma(prob, [s], [v], h_lin).base > 0)

    def test_inverse_probes(self, tru3):
        _, _, prob = tru3
        ctx, ev = pdal_state(prob, seed=2)
        w_mats = [xb / ctx.pi_lmi for xb in ev.xbar_blocks]
        v_mats = [ctx.pi_lmi * z for z in ev.z_blocks]
        splits = [spectral_split(w, 1) for w in w_mats]
        pc = build_h_gamma(prob, splits, v_mats, np.full(prob.n, 0.01))
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
        assert float(pc.apply_inv(a) @ b) == pytest.approx(float(a @ pc.apply_inv(b)), rel=1e-11)
        assert float(a @ pc.apply_inv(a)) > 0
        rhs = rng.standard_normal(prob.n)
        assert np.allclose(pc.apply_inv(rhs), np.linalg.solve(pc.dense(), rhs), rtol=1e-8)


class TestDelta:
    def test_two_sided_split_identity(self):
        """Dense verification of the symmetric two-factor decomposition on
        random blocks: H_lr reproduces the cross and outlier terms."""
        rng = np.random.default_rng(9)
        prob = random_problem(21, dims=(4,), n=6, nu=3)
        w = rand_spd(rng, 4, shift=1.0)
        v = rand_spd(rng, 4, shift=1.0)
        sw = spectral_split(w, 1)
        sv = spectral_split(v, 1)
        a = prob.A[0].toarray()
        h_full = 2.0 * a.T @ np.kron(w, v) @ a
        h_core = 2.0 * a.T @ np.kron(sw.w0, sv.w0) @ a
        gamma = sw.w0 + 0.5 * sw.u @ sw.u.T
        theta = sv.w0 + 0.5 * sv.u @ sv.u.T
        h_lr = 2.0 * a.T @ (
            np.kron(sw.u @ sw.u.T, theta) + np.kron(sv.u @ sv.u.T, gamma)
        ) @ a
        assert np.linalg.norm(h_full - (h_core + h_lr)) <= 1e-10 * np.linalg.norm(h_full)
        # the built preconditioner's low-rank part matches h_lr
        pc = build_h_delta(prob, [sw], [sv], np.ones(prob.n))
        v = pc.dense_v()
        assert np.linalg.norm(v @ v.T - h_lr) <= 1e-10 * max(1.0, np.linalg.norm(h_lr))

    def test_no_v_outliers_degenerates_to_gamma(self, tru3):
        _, _, prob = tru3
        ctx, ev = pdal_state(prob, seed=3)
        w_mats = [xb / ctx.pi_lmi for xb in ev.xbar_blocks]
        v_mats = [ctx.pi_lmi * z for z in ev.z_blocks]
        w_splits = [spectral_split(w, 1) for w in w_mats]
        v_splits = [spectral_split(v, 0) for v in v_mats]
        h_lin = np.full(prob.n, 0.01)
        pd = build_h_delta(prob, w_splits, v_splits, h_lin)
        pg = build_h_gamma(prob, w_splits, v_mats, h_lin)
        assert np.allclose(pd.dense(), pg.dense(), rtol=1e-9)

    def test_inverse_matches_dense(self):
        prob = random_problem(22, dims=(4,), n=6, nu=3)
        rng = np.random.default_rng(1)
        w = rand_spd(rng, 4, shift=1.0)
        v = rand_spd(rng, 4, shift=1.0)
        pc = build_h_delta(
            prob,
            [spectral_split(w, 1)],
            [spectral_split(v, 1)],
            np.ones(6),
        )
        rhs = rng.standard_normal(6)
        assert np.allclose(pc.apply_inv(rhs), np.linalg.solve(pc.dense(), rhs), rtol=1e-8)


class TestSpectralStructure:
    @pytest.mark.parametrize("k", [1, 2])
    def test_sandwich_outlier_count(self, k):
        """k outliers in W give at most k^2 outliers in A'(W x W)A."""
        rng = np.random.default_rng(30 + k)
        m, n = 6, 14
        prob = random_problem(30 + k, dims=(m,), n=n, nu=0, density=0.7)
        eigs = np.concatenate([np.full(m - k, 1e-4), 1e2 * (1 + np.arange(k))])
        w = spd_with_spectrum(rng, eigs)
        h = dense_sandwich(prob.A[0], w, w)
        lam = np.linalg.eigvalsh(sym(h))[::-1]
        # the cluster collapses with the outlier gap, so outliers are counted
        # within a factor 100 of the top eigenvalue
        outliers = int(np.sum(lam > lam[0] / 100.0))
        assert outliers <= k * k
        assert lam[k * k] <= lam[0] / 100.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_nt_scaling_inherits_outliers(self, k):
        """Strictly complementary pairs with rank-k X give W with exactly k
        outlying eigenvalues as the complementarity product vanishes."""
        rng = np.random.default_rng(50 + k)
        m = 8
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        mu = 1e-10
        x_eigs = np.concatenate([1.0 + np.arange(k), np.full(m - k, mu)])
        s_eigs = np.concatenate([np.full(k, mu), 1.0 + np.arange(m - k)])
        x = (q * x_eigs) @ q.T
        s = (q * s_eigs) @ q.T
        nt = nt_scaling(sym(x), sym(s))
        lam = np.linalg.eigvalsh(nt.w)[::-1]
        outliers = int(np.sum(lam > lam[0] / 100.0))
        assert outliers == k

    def test_companion_eigenvalues_unit_interval(self, tru3):
        """V = pi (pi I - A(y))^{-1} has eigenvalues in (0, 1] at feasible y."""
        _, _, prob = tru3
        ctx, ev = pdal_state(prob, seed=7)
        for z, a in zip(ev.z_blocks, ev.a_blocks):
            assert np.linalg.eigvalsh(a)[-1] < 0  # strictly feasible
            lam = np.linalg.eigvalsh(ctx.pi_lmi * z)
            assert lam[0] > 0.0
            assert lam[-1] <= 1.0 + 1e-12


class TestPreconditionerComparisons:
    def test_tilde_and_alpha_both_converge_on_tru5(self, tru5):
        """Both SMW kinds drive the solver to optimality; the tilde base
        factorization dominates its build time (recorded, not asserted)."""
        import time

        from lorank.ip import IpConfig, ip_solve

        _, _, prob = tru5
        times = {}
        for kind in ("alpha", "tilde"):
            t0 = time.perf_counter()
            _, rep = ip_solve(prob, IpConfig(precond=kind))
            times[kind] = time.perf_counter() - t0
            assert rep.converged
            assert all(t["cg"] < 100000 for t in rep.trace)
        print(f"tru5 wall clock: alpha={times['alpha']:.3f}s tilde={times['tilde']:.3f}s")

    def test_beta_conditioning_degrades_late(self, tru3e):
        """The diagonal kind conditions the early systems well and loses to
        the low-rank kinds near convergence (recorded, not asserted)."""
        from lorank.ip import IpConfig, initial_point, ip_solve, make_scaling

        _, _, prob = tru3e
        records = {}
        for cap in (2, 14):
            pt, _ = ip_solve(prob, IpConfig(max_iter=cap, eps_dimacs=1e-30))
            scal = make_scaling(pt)
            splits = [spectral_split(nt.w, 1) for nt in scal.blocks]
            lin_diag = scal.lin_diag(prob)
            pc_beta = build_h_beta(alpha_base(splits, lin_diag, prob.n))
            h = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
            records[cap] = conditioning(h, pc_beta.dense())["kappa_preconditioned"]
        print(f"beta-preconditioned conditioning: early={records[2]:.2e} late={records[14]:.2e}")
        assert records[2] <= 1e2
