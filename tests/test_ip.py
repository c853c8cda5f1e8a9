import io

import numpy as np
import pytest
from scipy.linalg import eigh, svd

from lorank.ip import (
    IpConfig,
    initial_point,
    ip_solve,
    make_scaling,
    nt_scaling,
    recover_directions,
    schur_matvec,
    second_order_correction,
    step_length,
    step_with_repair,
    _corrector_target,
    _rhs,
)
from lorank import ip as ip_module
from lorank import precond
from lorank.linalg import NotPositiveDefinite, min_eig, sym
from lorank.model import (
    BlockSymMatrix,
    PrimalDualPoint,
    apply_A,
    apply_A_adjoint,
    dimacs,
    load_sdpa,
    residuals,
)
from lorank.pcg import DEFLATE_RANK, pcg_solve

from conftest import (
    dense_schur,
    per_block_adjoint,
    per_block_forward,
    rand_spd,
    rand_sym,
    random_problem,
    spd_with_spectrum,
)

TOY = """\
1
1
1
1.0
0 1 1 1 1.0
1 1 1 1 1.0
"""


class TestNtScaling:
    def test_identity_pair(self):
        nt = nt_scaling(np.eye(3), np.eye(3))
        assert np.allclose(nt.w, np.eye(3), atol=1e-14)

    def test_scalar_multiple(self):
        # W S W = X with X = 4I, S = I forces W = 2I
        nt = nt_scaling(4.0 * np.eye(2), np.eye(2))
        assert np.allclose(nt.w, 2.0 * np.eye(2), atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_identity(self, seed):
        rng = np.random.default_rng(seed)
        x, s = rand_spd(rng, 6), rand_spd(rng, 6)
        nt = nt_scaling(x, s)
        assert np.linalg.norm(nt.w @ s @ nt.w - x) <= 1e-9 * np.linalg.norm(x)
        assert np.allclose(nt.g @ nt.g.T, nt.w, rtol=1e-12)
        assert np.allclose(nt.g_inv @ nt.g, np.eye(6), atol=1e-11)
        assert np.allclose(np.diag(nt.g.T @ s @ nt.g), nt.d, rtol=1e-10)


class TestNtScalingRoute:
    """nt_scaling reads V and D^2 from the Gram matrix L'SL while their
    spread stays within GRAM_SPREAD_MAX, and takes the SVD of R'L past it."""

    @staticmethod
    def centred_pair(rng, m):
        """X with condition 1e2 and S = L^{-T} Y L^{-1} (X = L L'), so that
        XS = L Y L^{-1} has Y's eigenvalues, all in [1, 1.5]."""
        x = spd_with_spectrum(rng, rng.permutation(np.logspace(0.0, 2.0, m)))
        y = spd_with_spectrum(rng, 1.0 + 0.5 * rng.random(m))
        l_inv = np.linalg.inv(np.linalg.cholesky(x))
        return x, sym(l_inv.T @ y @ l_inv)

    @pytest.mark.parametrize("seed", range(3))
    def test_centred_pairs_skip_the_svd(self, seed, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("svd called below the spread bound")

        monkeypatch.setattr(ip_module, "svd", no_svd)
        x, s = self.centred_pair(np.random.default_rng(seed), 10)
        nt = nt_scaling(x, s)
        assert nt.d.max() ** 2 <= ip_module.GRAM_SPREAD_MAX * nt.d.min() ** 2
        assert np.linalg.norm(nt.w @ s @ nt.w - x) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm((nt.g * nt.d) @ nt.g.T - x) <= 1e-12 * np.linalg.norm(x)

    def test_wide_pair_takes_the_svd(self, monkeypatch):
        calls = []

        def counted_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(ip_module, "svd", counted_svd)
        x, s = TestFactoredStepLength.pair(np.random.default_rng(0), 12, 1e8)
        nt_scaling(x, s)
        assert calls == [(12, 12)]


class TestSchurMatvec:
    def test_zero_direction(self, tru3):
        _, _, prob = tru3
        pt = initial_point(prob)
        scal = make_scaling(pt)
        assert np.all(schur_matvec(prob, scal, np.zeros(prob.n)) == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, tru3, seed):
        _, _, prob = tru3
        rng = np.random.default_rng(seed)
        pt = initial_point(prob)
        pt.X.blocks[0] = rand_spd(rng, 13)
        pt.S.blocks[0] = rand_spd(rng, 13)
        pt.X.lin = rng.random(prob.nu) + 0.5
        pt.S.lin = rng.random(prob.nu) + 0.5
        scal = make_scaling(pt)
        h = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
        dy = rng.standard_normal(prob.n)
        assert np.allclose(
            schur_matvec(prob, scal, dy), h @ dy, rtol=1e-10, atol=1e-10 * np.linalg.norm(h @ dy)
        )

    @pytest.mark.parametrize("nu", [0, 6])
    def test_stacked_matches_per_block(self, nu):
        """The stacked constraint map gives the Schur product that the
        per-block maps give, with and without linear rows."""
        prob = random_problem(23, dims=(5, 4), n=12, nu=nu)
        rng = np.random.default_rng(nu)
        pt = initial_point(prob)
        pt.X.blocks = [rand_spd(rng, m) for m in prob.block_dims]
        pt.S.blocks = [rand_spd(rng, m) for m in prob.block_dims]
        pt.X.lin = rng.random(nu) + 0.5
        pt.S.lin = rng.random(nu) + 0.5
        scal = make_scaling(pt)
        for _ in range(5):
            dy = rng.standard_normal(prob.n)
            mats, lin = per_block_adjoint(prob, dy)
            blocks = [nt.w @ mat @ nt.w for nt, mat in zip(scal.blocks, mats)]
            ref = per_block_forward(prob, blocks, scal.lin_w2 * lin)
            got = schur_matvec(prob, scal, dy)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.linalg.norm(ref))

    def test_identity_scaling_gives_gram(self):
        prob = random_problem(31, dims=(4,), n=9, nu=5)
        pt = initial_point(prob)
        pt.X.blocks[0] = np.eye(4)
        pt.S.blocks[0] = np.eye(4)
        pt.X.lin = np.ones(prob.nu)
        pt.S.lin = np.ones(prob.nu)
        scal = make_scaling(pt)
        a = prob.A[0].toarray()
        gram = a.T @ a + prob.D.toarray().T @ prob.D.toarray()
        rng = np.random.default_rng(0)
        dy = rng.standard_normal(prob.n)
        assert np.allclose(schur_matvec(prob, scal, dy), gram @ dy, rtol=1e-11)


class TestRhsAndRecovery:
    def test_feasible_point_rhs_is_b(self, tru3):
        """With zero residuals the predictor right-hand side collapses to
        A applied to X, which equals b."""
        _, _, prob = tru3
        rng = np.random.default_rng(1)
        x = BlockSymMatrix([rand_spd(rng, 13)], rng.random(prob.nu) + 0.5)
        y = rng.standard_normal(prob.n)
        ay = apply_A_adjoint(prob, y)
        s = BlockSymMatrix([rand_spd(rng, 13)], rng.random(prob.nu) + 0.5)
        # make the point exactly feasible: b := A(X), C := S + A0(y), d := D y + s_lin
        prob2_b = apply_A(prob, x)
        import copy

        prob2 = copy.copy(prob)
        prob2.b = prob2_b
        prob2.C = [s.blocks[0] + ay.blocks[0]]
        prob2.d = prob.D @ y + s.lin
        pt = PrimalDualPoint(y, x, s)
        rp, rd = residuals(prob2, pt)
        assert np.linalg.norm(rp) <= 1e-10
        assert np.linalg.norm(rd.blocks[0]) <= 1e-10
        scal = make_scaling(pt)
        r = _rhs(prob2, rp, scal.sandwich(rd), pt.X)
        assert np.allclose(r, prob2.b, rtol=1e-8, atol=1e-8 * np.linalg.norm(prob2.b))

    def test_centered_point_gives_zero_directions(self):
        """At an exactly centered feasible point the corrector system with
        matching sigma*mu has the zero solution."""
        rng = np.random.default_rng(3)
        prob = random_problem(32, dims=(5,), n=11, nu=6)
        s_blk = rand_spd(rng, 5)
        mu = 0.37
        x_blk = mu * np.linalg.inv(s_blk)
        s_lin = rng.random(prob.nu) + 0.5
        x_lin = mu / s_lin
        y = rng.standard_normal(prob.n)
        ay = apply_A_adjoint(prob, y)
        import copy

        prob2 = copy.copy(prob)
        x = BlockSymMatrix([x_blk], x_lin)
        s = BlockSymMatrix([s_blk], s_lin)
        prob2.b = apply_A(prob, x)
        prob2.C = [s.blocks[0] + ay.blocks[0]]
        prob2.d = prob.D @ y + s.lin
        pt = PrimalDualPoint(y, x, s)
        rp, rd = residuals(prob2, pt)
        scal = make_scaling(pt)
        target = BlockSymMatrix([x_blk - mu * np.linalg.inv(s_blk)], x_lin - mu / s_lin)
        r = _rhs(prob2, rp, scal.sandwich(rd), target)
        assert np.linalg.norm(r) <= 1e-8
        dX, dS = recover_directions(prob2, scal, np.zeros(prob.n), rd, target)
        assert np.linalg.norm(dS.blocks[0]) <= 1e-9
        assert np.linalg.norm(dX.blocks[0]) <= 1e-8
        assert np.linalg.norm(dX.lin) <= 1e-9

    def test_one_variable_closed_form(self):
        """Scalar problem: the condensed system reduces to hand algebra."""
        prob = load_sdpa(io.StringIO(TOY))
        x = BlockSymMatrix([np.array([[2.0]])], np.zeros(0))
        s = BlockSymMatrix([np.array([[0.5]])], np.zeros(0))
        y = np.array([0.3])
        pt = PrimalDualPoint(y, x, s)
        rp, rd = residuals(prob, pt)
        scal = make_scaling(pt)
        w = scal.blocks[0].w[0, 0]
        assert w == pytest.approx(2.0, rel=1e-12)  # w^2 s = x
        a = -1.0
        h = a * w * w * a
        r = _rhs(prob, rp, scal.sandwich(rd), pt.X)
        # by hand: r = rp + a*(w*rd*w + x)
        rd0 = -1.0 - 0.5 - a * 0.3
        assert r[0] == pytest.approx(rp[0] + a * (w * rd0 * w + 2.0), rel=1e-12)
        dy = r / h
        dX, dS = recover_directions(prob, scal, dy, rd, pt.X)
        assert dS.blocks[0][0, 0] == pytest.approx(rd0 - a * dy[0], rel=1e-12)
        assert dX.blocks[0][0, 0] == pytest.approx(-2.0 - w * dS.blocks[0][0, 0] * w, rel=1e-12)

    @pytest.mark.parametrize("step", ["predictor", "corrector"])
    def test_newton_residuals_on_truss(self, tru3, step):
        """Directions from an accurate condensed solve satisfy the raw
        Newton equations, for the predictor's target X and for the
        corrector's X - sigma mu S^{-1} - (second-order correction) built
        from a real predictor step."""
        _, _, prob = tru3
        rng = np.random.default_rng(5)
        pt = initial_point(prob)
        pt.X.blocks[0] = rand_spd(rng, 13)
        pt.S.blocks[0] = rand_spd(rng, 13)
        pt.X.lin = rng.random(prob.nu) + 0.5
        pt.S.lin = rng.random(prob.nu) + 0.5
        scal = make_scaling(pt)
        rp, rd = residuals(prob, pt)
        wrdw = scal.sandwich(rd)
        cg_tol = 1e-11

        def solve(target):
            r = _rhs(prob, rp, wrdw, target)
            dy, rep = pcg_solve(lambda v: schur_matvec(prob, scal, v), lambda v: v, r, tol=cg_tol)
            assert rep.converged
            return r, dy, *recover_directions(prob, scal, dy, rd, target)

        target = pt.X
        r, dy, dX, dS = solve(target)
        if step == "corrector":
            sigma_mu = 0.3 * pt.X.dot(pt.S) / (prob.m_total + prob.nu)
            nt = scal.blocks[0]
            rnt = second_order_correction(nt.g, nt.g_inv, dX.blocks[0], dS.blocks[0], nt.d)
            corr = nt.g @ rnt @ nt.g.T
            want = BlockSymMatrix(
                [pt.X.blocks[0] - sigma_mu * np.linalg.inv(pt.S.blocks[0]) - corr],
                pt.X.lin - sigma_mu / pt.S.lin + dX.lin * dS.lin / pt.S.lin,
            )
            # the driver's target folds S^{-1} = G D^{-1} G' into the correction
            target = _corrector_target(pt, scal, dX, dS, sigma_mu)
            assert np.linalg.norm(target.blocks[0] - want.blocks[0]) <= 1e-12 * np.linalg.norm(want.blocks[0])
            assert np.array_equal(target.lin, want.lin)
            r, dy, dX, dS = solve(target)
        # primal equation: A(dX) = r_p, up to the condensed-system residual
        res_a = apply_A(prob, dX) - rp
        assert np.linalg.norm(res_a) <= cg_tol * 10 * max(1.0, np.linalg.norm(r))
        # dual equation: A0(dy) + dS = R_d holds up to the rounding of A0(dy)
        ady = apply_A_adjoint(prob, dy)
        res_d = ady.blocks[0] + dS.blocks[0] - rd.blocks[0]
        assert np.linalg.norm(res_d) <= 1e-14 * np.linalg.norm(ady.blocks[0])
        assert np.linalg.norm(ady.lin + dS.lin - rd.lin) <= 1e-14 * np.linalg.norm(ady.lin)
        # linearized complementarity: dX + W dS W = -T, up to rounding of the terms
        w = scal.blocks[0].w
        res_c = dX.blocks[0] + w @ dS.blocks[0] @ w + target.blocks[0]
        assert np.linalg.norm(res_c) <= 1e-13 * np.linalg.norm(dX.blocks[0])
        res_lin = dX.lin + scal.lin_w2 * dS.lin + target.lin
        assert np.linalg.norm(res_lin) <= 1e-14 * np.linalg.norm(dX.lin)
        if step == "predictor":
            # scaled complementarity: Hp(X dS + dX S) = -Hp(X S) with P = W^{-1/2}
            lam, q = np.linalg.eigh(sym(w))
            wih = (q / np.sqrt(lam)) @ q.T
            wh = (q * np.sqrt(lam)) @ q.T

            def hp(mat):
                return 0.5 * (wih @ mat @ wh + wh @ mat.T @ wih)

            x0, s0 = pt.X.blocks[0], pt.S.blocks[0]
            lhs = hp(x0 @ dS.blocks[0] + dX.blocks[0] @ s0)
            rhs = -hp(x0 @ s0)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


class TestSecondOrderCorrection:
    def test_zero_directions(self):
        rng = np.random.default_rng(0)
        x, s = rand_spd(rng, 4), rand_spd(rng, 4)
        nt = nt_scaling(x, s)
        z = np.zeros((4, 4))
        r = second_order_correction(nt.g, nt.g_inv, z, z, nt.d)
        assert np.all(r == 0.0)

    def test_scalar_reduction(self):
        """1x1 case: G R G' collapses to -dx ds / s."""
        x = np.array([[4.0]])
        s = np.array([[0.25]])
        nt = nt_scaling(x, s)
        dx = np.array([[0.7]])
        ds = np.array([[-0.3]])
        r = second_order_correction(nt.g, nt.g_inv, dx, ds, nt.d)
        grg = nt.g @ r @ nt.g.T
        assert grg[0, 0] == pytest.approx(-(0.7 * -0.3) / 0.25, rel=1e-12)

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        x, s = rand_spd(rng, 4), rand_spd(rng, 4)
        nt = nt_scaling(x, s)
        dx, ds = rand_sym(rng, 4), rand_sym(rng, 4)
        r = second_order_correction(nt.g, nt.g_inv, dx, ds, nt.d)
        assert np.allclose(r, r.T, atol=1e-12)

    def test_zero_divisor_rejected(self):
        g = np.eye(2)
        with pytest.raises(ValueError, match="degenerate"):
            second_order_correction(g, g, np.eye(2), np.eye(2), np.array([1.0, -1.0]))


def inv_factors(mats: BlockSymMatrix) -> list[np.ndarray]:
    """F = L^{-1} per block (X = L L'), so F'F = X^{-1}."""
    return [np.linalg.inv(np.linalg.cholesky(b)) for b in mats.blocks]


class TestStepLength:
    def test_zero_direction_full_step(self):
        mats = BlockSymMatrix([np.eye(3)], np.ones(2))
        dirs = BlockSymMatrix([np.zeros((3, 3))], np.zeros(2))
        assert step_length(inv_factors(mats), mats, dirs, 0.9) == 1.0

    def test_arithmetic(self):
        mats = BlockSymMatrix([np.eye(2)], np.zeros(0))
        dirs = BlockSymMatrix([-2.0 * np.eye(2)], np.zeros(0))
        assert step_length(inv_factors(mats), mats, dirs, 0.9) == pytest.approx(0.45)

    def test_linear_part(self):
        mats = BlockSymMatrix([np.eye(1)], np.array([1.0, 2.0]))
        dirs = BlockSymMatrix([np.zeros((1, 1))], np.array([-4.0, 1.0]))
        assert step_length(inv_factors(mats), mats, dirs, 0.9) == pytest.approx(0.9 / 4.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_result_keeps_interior(self, seed):
        rng = np.random.default_rng(seed)
        mats = BlockSymMatrix([rand_spd(rng, 5)], rng.random(4) + 0.2)
        dirs = BlockSymMatrix([5.0 * rand_sym(rng, 5)], rng.standard_normal(4))
        alpha, halvings = step_with_repair(inv_factors(mats), mats, dirs, 0.9, 10)
        assert 0 <= halvings <= 10
        stepped = mats + alpha * dirs
        assert np.linalg.eigvalsh(stepped.blocks[0])[0] > 0
        assert stepped.lin.min() > 0


class TestFactoredStepLength:
    """lambda_min(M^{-1} dM) read from the NT factors equals the smallest
    eigenvalue of the pencil (dM, M) from LAPACK's generalized solver."""

    @staticmethod
    def pair(rng, m, cond):
        spectrum = np.logspace(0.0, np.log10(cond), m)
        return (
            spd_with_spectrum(rng, rng.permutation(spectrum)),
            spd_with_spectrum(rng, rng.permutation(spectrum)),
        )

    @pytest.mark.parametrize("cond", [10.0, 1e4, 1e8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pencil_oracle(self, seed, cond):
        rng = np.random.default_rng(seed)
        m = 12
        x, s = self.pair(rng, m, cond)
        nt = nt_scaling(x, s)
        for mat, f in ((x, nt.fx), (s, nt.fs)):
            dm = rand_sym(rng, m) * np.linalg.norm(mat, 2)
            expected = eigh(dm, mat, eigvals_only=True)[0]
            got = min_eig(f @ dm @ f.T)
            # the pencil's eigenvalues reach |dm| / lambda_min(mat) ~ cond
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12 * cond)

    @pytest.mark.parametrize("seed", range(3))
    def test_factors_invert_the_blocks(self, seed):
        rng = np.random.default_rng(seed)
        x, s = self.pair(rng, 10, 1e8)
        nt = nt_scaling(x, s)
        assert np.allclose(nt.g_inv @ nt.g, np.eye(10), atol=1e-11)
        for mat, f in ((x, nt.fx), (s, nt.fs)):
            # F M F' = I up to a few eps * cond(M)
            assert np.allclose(f @ mat @ f.T, np.eye(10), atol=1e-7)

    def test_step_length_reads_the_factors(self):
        """step_length and step_with_repair take X's and S's factors from
        the scaling; their result is the oracle's fraction-to-boundary."""
        rng = np.random.default_rng(7)
        x, s = rand_spd(rng, 6), rand_spd(rng, 6)
        nt = nt_scaling(x, s)
        dx = -3.0 * rand_spd(rng, 6)
        ds = rand_sym(rng, 6)
        for mat, dm, f in ((x, dx, nt.fx), (s, ds, nt.fs)):
            mats, dirs = BlockSymMatrix([mat], np.zeros(0)), BlockSymMatrix([dm], np.zeros(0))
            lam = eigh(dm, mat, eigvals_only=True)[0]
            expected = min(1.0, -0.9 / lam) if lam < 0 else 1.0
            assert step_length([f], mats, dirs, 0.9) == pytest.approx(expected, rel=1e-10)
            alpha, halvings = step_with_repair([f], mats, dirs, 0.9, 10)
            assert alpha == pytest.approx(expected, rel=1e-10) and halvings == 0


class TestIpSolve:
    def test_toy_analytic(self):
        prob = load_sdpa(io.StringIO(TOY))
        pt, rep = ip_solve(prob, IpConfig(eps_dimacs=1e-8))
        assert rep.converged
        # file objective min x = 1 corresponds to dual value -1
        assert rep.dual_objective == pytest.approx(-1.0, abs=1e-6)
        assert rep.primal_objective == pytest.approx(-1.0, abs=1e-6)
        assert pt.y[0] == pytest.approx(1.0, abs=1e-6)

    def test_tru3_iteration_envelope(self, tru3_ip):
        _, rep = tru3_ip
        assert rep.converged
        assert 8 <= rep.iterations <= 32

    def test_tru3_dimacs(self, tru3_ip):
        _, rep = tru3_ip
        assert rep.dimacs.max() <= 1e-5

    def test_mu_decreases(self, tru3_ip):
        _, rep = tru3_ip
        mus = [t["mu"] for t in rep.trace]
        for a, b in zip(mus, mus[1:]):
            assert b <= 1.1 * a

    def test_positive_definite_iterates(self, tru3_ip):
        pt, _ = tru3_ip
        assert np.linalg.eigvalsh(pt.X.blocks[0])[0] > 0
        assert np.linalg.eigvalsh(pt.S.blocks[0])[0] > 0
        assert pt.X.lin.min() > 0 and pt.S.lin.min() > 0

    def test_trace_has_cg_counts(self, tru3_ip):
        _, rep = tru3_ip
        assert rep.cg_total == sum(t["cg"] for t in rep.trace)
        assert all(t["cg_pred"] >= 0 and t["cg_corr"] >= 0 for t in rep.trace)

    def test_corrector_is_deflated_with_the_predictors_space(self, tru5_ip):
        """The default cluster build has low-rank columns, so each corrector
        runs deflated with at most min(cg_pred, 16) vectors of its
        predictor's solve, and the run takes no more IP iterations than the
        15 and fewer CG iterations than the 167 of tru5 with undeflated
        correctors."""
        _, rep = tru5_ip
        assert rep.status == "optimal" and rep.iterations <= 15
        assert all(0 < t["defl_rank"] <= min(t["cg_pred"], DEFLATE_RANK) for t in rep.trace[-5:])
        assert rep.cg_total < 167

    @pytest.mark.parametrize("kind", ["beta", "none"])
    def test_diagonal_preconditioners_are_not_deflated(self, tru3, monkeypatch, kind):
        """With a diagonal P no solve records or deflates: every
        ``pcg_solve`` call is the plain one, so these runs are those of
        PCG without the options, and every row has ``defl_rank`` 0."""
        real, calls = ip_module.pcg_solve, []

        def spy(*args, **kwargs):
            calls.append((kwargs["record"], kwargs["deflate"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(ip_module, "pcg_solve", spy)
        _, _, prob = tru3
        _, rep = ip_solve(prob, IpConfig(precond=kind))
        assert rep.converged
        assert calls == [(False, None)] * (2 * rep.iterations)
        assert [t["defl_rank"] for t in rep.trace] == [0] * rep.iterations

    def test_trace_records_beta_fallback(self, tru3, monkeypatch):
        def failing_build(*args):
            raise NotPositiveDefinite(0, "alpha block factor")

        monkeypatch.setattr(precond, "build_h_alpha", failing_build)
        _, _, prob = tru3
        _, rep = ip_solve(prob, IpConfig(precond="alpha", max_iter=2))
        assert [t["precond"] for t in rep.trace] == ["beta", "beta"]

    @pytest.mark.parametrize("kind", ["alpha", "cluster", "tilde", "beta"])
    def test_beta_is_the_cluster_base(self, tru3, monkeypatch, kind):
        """The user's beta, and the beta that stands in for any failed
        low-rank build, is cluster's diagonal without its columns, not
        alpha's tau^2 I."""

        def failing_build(prob, splits, lin_diag, base="tau"):
            raise NotPositiveDefinite(0, f"{kind} block factor")

        _, _, prob = tru3
        pt, _ = ip_solve(prob, IpConfig(max_iter=4))
        scal = make_scaling(pt)
        splits = [precond.spectral_split(nt.w, 1) for nt in scal.blocks]
        lin_diag = scal.lin_diag(prob)
        monkeypatch.setattr(precond, "build_h_alpha", failing_build)
        monkeypatch.setattr(precond, "build_h_tilde", failing_build)
        prec = ip_module._build_preconditioner(kind, prob, splits, lin_diag)
        base = precond.cluster_base(prob, splits, lin_diag)
        assert prec.kind == "beta" and prec.rank == 0
        assert np.array_equal(prec.base, base)
        assert not np.allclose(base, precond.alpha_base(splits, lin_diag, prob.n))

    def test_tilde_falls_back_to_beta_when_p_does_not_factor(self, tru3, monkeypatch):
        """tilde factors its n x n P directly; when that factorization fails
        the iteration runs beta, as for the other kinds."""
        _, _, prob = tru3
        chol = precond.chol

        def failing_chol(a, context=""):
            if a.shape == (prob.n, prob.n):
                raise NotPositiveDefinite(0, context)
            return chol(a, context)

        monkeypatch.setattr(precond, "chol", failing_chol)
        _, rep = ip_solve(prob, IpConfig(precond="tilde", max_iter=2))
        assert [t["precond"] for t in rep.trace] == ["beta", "beta"]

    def test_diagnostics_measure_the_applied_preconditioner(self, tru3, monkeypatch):
        """--diag measures the build each iteration applied, without building
        it again: cluster by default, with its split bound; none has P = I
        and no bound."""
        kinds = []
        build = precond.build_h_alpha

        def recording_build(*args, **kwargs):
            kinds.append(kwargs.get("base", "tau"))
            return build(*args, **kwargs)

        monkeypatch.setattr(precond, "build_h_alpha", recording_build)
        _, _, prob = tru3
        _, rep = ip_solve(prob, IpConfig(diag=True))
        assert rep.converged and kinds == ["cluster"] * rep.iterations
        assert [d["precond"] for d in rep.diagnostics] == ["cluster"] * rep.iterations
        assert all(d["kappa_preconditioned"] <= d["bound"] * (1 + 1e-8) for d in rep.diagnostics)
        assert rep.diagnostics[-1]["kappa_preconditioned"] < rep.diagnostics[-1]["kappa_h"]

        _, rep = ip_solve(prob, IpConfig(precond="none", diag=True, max_iter=2))
        for d in rep.diagnostics:
            assert d["precond"] == "none" and "bound" not in d
            assert d["kappa_preconditioned"] == pytest.approx(d["kappa_h"], rel=1e-8)

    def test_alpha_keeps_its_split_bound(self, tru3):
        """Criterion 5's bound for alpha's tau^2 I base on every state of a
        tru3 run; alpha's late kappa (7,759 at the last state) is what
        cluster's diagonal base brings below 1e3."""
        _, _, prob = tru3
        _, rep = ip_solve(prob, IpConfig(precond="alpha", diag=True))
        assert rep.converged and len(rep.diagnostics) >= 10
        assert all(d["precond"] == "alpha" for d in rep.diagnostics)
        assert all(d["kappa_preconditioned"] <= d["bound"] * (1 + 1e-8) for d in rep.diagnostics)

    def test_rank_zero_is_honoured(self, tru3, monkeypatch):
        ranks = []
        build = precond.build_h_alpha

        def recording_build(prob, splits, lin_diag):
            ranks.append([s.k for s in splits])
            return build(prob, splits, lin_diag)

        monkeypatch.setattr(precond, "build_h_alpha", recording_build)
        _, _, prob = tru3
        ip_solve(prob, IpConfig(precond="alpha", rank=0, max_iter=2))
        assert ranks == [[0], [0]]

    def test_iteration_cap_at_convergence(self, tru3, tru3_ip):
        """A cap equal to the converged run's count still measures the final
        iterate and reports optimal; one less stops at the cap."""
        _, _, prob = tru3
        _, rep = tru3_ip
        k = rep.iterations
        _, capped = ip_solve(prob, IpConfig(max_iter=k))
        assert capped.status == "optimal"
        assert capped.iterations == k and capped.dimacs == rep.dimacs
        _, short = ip_solve(prob, IpConfig(max_iter=k - 1))
        assert short.status == "max_iterations" and short.iterations == k - 1

    def test_stalled_steps_end_the_run(self, tru3, monkeypatch):
        """Five steps in a row with min(alpha, beta) < 1e-3 end the run
        "stalled", with its report at the last iterate."""
        monkeypatch.setattr(ip_module, "step_with_repair", lambda *args: (1e-6, 0))
        _, _, prob = tru3
        pt, rep = ip_solve(prob)
        assert rep.status == "stalled" and not rep.converged
        assert rep.iterations == ip_module.STALL_ITERS == 5
        assert [t["alpha"] for t in rep.trace] == [1e-6] * 5
        assert rep.dimacs == dimacs(prob, pt)

    def test_one_long_step_resets_the_stall_count(self, tru3, monkeypatch):
        """Iteration 4 takes its real steps (alpha and beta are the 9th and
        10th calls); the count starts again after it."""
        real = ip_module.step_with_repair
        calls = []

        def short_but_one(*args):
            calls.append(None)
            return real(*args) if len(calls) in (9, 10) else (1e-6, 0)

        monkeypatch.setattr(ip_module, "step_with_repair", short_but_one)
        _, _, prob = tru3
        _, rep = ip_solve(prob)
        assert min(rep.trace[4]["alpha"], rep.trace[4]["beta"]) >= ip_module.STALL_STEP
        assert rep.status == "stalled" and rep.iterations == 10

    def test_trace_rows_carry_the_step_rule(self, tru3_ip):
        """Each row records the predictor's steps to the boundary, the
        corrector's fraction, in [0.9, 0.99], and the repair halvings."""
        _, rep = tru3_ip
        for row in rep.trace:
            assert 0.0 < row["alpha_p"] <= 1.0 and 0.0 < row["beta_p"] <= 1.0
            assert 0.9 <= row["step_frac"] <= 0.99
            assert row["step_frac"] == 0.9 + 0.09 * min(row["alpha_p"], row["beta_p"])
            assert row["step_repairs"] >= 0

    def test_step_rule(self, tru3, monkeypatch):
        """Per iteration the predictor's two steps take fraction 1 (the
        full step that gives Mehrotra's sigma), and both corrector steps
        take SDPT3's 0.9 + 0.09 min(alpha_p, beta_p), also where they
        reach ``step_length`` through ``step_with_repair``."""
        real_length, real_repair = ip_module.step_length, ip_module.step_with_repair
        lengths, repairs = [], []

        def length(factors, mats, dirs, tau_frac):
            lengths.append((tau_frac, real_length(factors, mats, dirs, tau_frac)))
            return lengths[-1][1]

        def repair(factors, mats, dirs, tau_frac, repair_limit):
            repairs.append(tau_frac)
            return real_repair(factors, mats, dirs, tau_frac, repair_limit)

        monkeypatch.setattr(ip_module, "step_length", length)
        monkeypatch.setattr(ip_module, "step_with_repair", repair)
        _, _, prob = tru3
        _, rep = ip_solve(prob)
        assert rep.converged
        assert len(lengths) == 4 * rep.iterations and len(repairs) == 2 * rep.iterations
        for it, row in enumerate(rep.trace):
            (f_x, alpha_p), (f_s, beta_p), (f_cx, _), (f_cs, _) = lengths[4 * it : 4 * it + 4]
            assert f_x == f_s == 1.0
            frac = 0.9 + 0.09 * min(alpha_p, beta_p)
            assert repairs[2 * it : 2 * it + 2] == [frac, frac] and f_cx == f_cs == frac
            assert (row["alpha_p"], row["beta_p"], row["step_frac"]) == (alpha_p, beta_p, frac)

    @pytest.mark.parametrize("solve, cap", [("tru3_ip", 13), ("tru5_ip", 16), ("vib3_ip", 14)])
    def test_iteration_guard(self, request, solve, cap):
        """The step rule's gain on the fast rows: each takes fewer
        iterations than the 14, 17 and 15 of a fixed 0.9 fraction with
        sigma from the shortened predictor steps."""
        _, rep = request.getfixturevalue(solve)
        assert rep.status == "optimal" and rep.iterations <= cap

    def test_vib3_converges(self, vib3_ip):
        _, rep = vib3_ip
        assert rep.converged
        assert rep.dimacs.max() <= 1e-5

    def test_tru3e_dual_rank_one(self, tru3e_ip_tight):
        pt, rep = tru3e_ip_tight
        lam = np.linalg.eigvalsh(pt.X.blocks[0])[::-1]
        assert lam[0] / abs(lam[1]) >= 1e6

    def test_schur_oracle_along_the_run(self, tru3):
        """Matrix-free operator equals the dense assembly at solver states."""
        _, _, prob = tru3
        pt, rep = ip_solve(prob, IpConfig(max_iter=6, eps_dimacs=1e-30))
        scal = make_scaling(pt)
        h = dense_schur(prob, [nt.w for nt in scal.blocks], scal.lin_w2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(prob.n)
            ref = h @ v
            assert np.allclose(schur_matvec(prob, scal, v), ref, rtol=1e-10, atol=1e-10 * np.linalg.norm(ref))
