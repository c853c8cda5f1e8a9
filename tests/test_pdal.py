import io

import numpy as np
import pytest
import scipy.sparse as sp

from lorank import precond
from lorank.linalg import NotPositiveDefinite, sym
from lorank import pdal
from lorank.model import (
    BlockSymMatrix,
    DimacsErrors,
    PrimalDualPoint,
    SdpProblem,
    apply_A_adjoint,
    dimacs,
    dual_slack,
    load_sdpa,
)
from lorank.report import RunRecord
from lorank.pdal import (
    DomainViolation,
    _pdal_preconditioner,
    OuterCtx,
    PdalConfig,
    evaluate_point,
    hessian_matvec,
    inner_solve,
    merit,
    merit_dderiv,
    multiplier_update_lmi,
    newton_direction,
    pd_error,
    pd_residuals,
    pdal_config_profile,
    pdal_solve,
    penalty_eval,
    penalty_update,
    z_matrix,
)

from conftest import (
    aug_lagrangian_value,
    dense_pdal_hessian,
    make_truss_problem,
    per_block_adjoint,
    per_block_forward,
    rand_spd,
    random_problem,
)

TOY = """\
1
1
1
1.0
0 1 1 1 1.0
1 1 1 1 1.0
"""


class TestPenaltyEval:
    def test_qlog_log_branch(self):
        pi = 2.0
        t = 0.5 * pi  # inside the log branch
        v, d1, d2 = penalty_eval(t, pi, 0.9)
        assert v == pytest.approx(-pi * np.log(1.0 - t / pi))
        assert d1 == pytest.approx(1.0 / (1.0 - t / pi))

    def test_qlog_smooth_junction(self):
        """Value, slope and curvature are continuous across the junction."""
        tau = 0.6
        pi = 1.3
        tj = tau * pi
        h = 1e-7
        below = penalty_eval(tj - h, pi, tau)
        above = penalty_eval(tj + h, pi, tau)
        assert above[0] - below[0] == pytest.approx(2 * h * below[1], rel=1e-5)
        assert above[1] - below[1] == pytest.approx(2 * h * below[2], rel=1e-5)
        assert above[2] == pytest.approx(below[2], rel=1e-5)

    @pytest.mark.parametrize("tau", [0.5, 0.7])
    def test_derivatives_by_finite_differences(self, tau):
        """Both branches, up to t far beyond pi, where a barrier would have
        no value."""
        pi = 1.7
        for t in (-2.0, -0.3, 0.0, 0.4, 0.9, 5.0, 40.0):
            h = 1e-6 * max(1.0, abs(t))
            vm, _, _ = penalty_eval(t - h, pi, tau)
            v0, d1, d2 = penalty_eval(t, pi, tau)
            vp, _, _ = penalty_eval(t + h, pi, tau)
            assert (vp - vm) / (2 * h) == pytest.approx(d1, rel=1e-5, abs=1e-8)
            h = 1e-5 * max(1.0, abs(t))  # second difference needs a larger step against roundoff
            vm, _, _ = penalty_eval(t - h, pi, tau)
            vp, _, _ = penalty_eval(t + h, pi, tau)
            assert (vp - 2 * v0 + vm) / h**2 == pytest.approx(d2, rel=1e-3, abs=1e-6)

    def test_scaled_family(self):
        """phi_pi(t) = pi phi(t/pi) with slope phi'(t/pi), on both branches."""
        for pi in (0.5, 1.0, 4.0):
            for t in (-0.5, 0.2, 3.0):
                v, d1, d2 = penalty_eval(t, pi)
                v1, d1_1, d2_1 = penalty_eval(t / pi, 1.0)
                assert v == pytest.approx(pi * v1, rel=1e-14)
                assert d1 == pytest.approx(d1_1, rel=1e-14)
                assert d2 == pytest.approx(d2_1 / pi, rel=1e-14)


class TestZMatrixAndMultipliers:
    def test_zero_argument(self):
        z = z_matrix(np.zeros((3, 3)), 2.0)
        assert np.allclose(z, np.eye(3) / 2.0)

    def test_scalar(self):
        z = z_matrix(np.array([[0.7]]), 2.0)
        assert z[0, 0] == pytest.approx(1.0 / 1.3)

    def test_resolvent_identity(self, tru3):
        _, _, prob = tru3
        rng = np.random.default_rng(0)
        y = 50.0 + rng.random(prob.n)
        a = apply_A_adjoint(prob, y).blocks[0] - prob.C[0]
        pi = 2.0
        z = z_matrix(a, pi)
        assert np.linalg.norm(z @ (pi * np.eye(13) - a) - np.eye(13)) <= 1e-11

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            z_matrix(np.diag([5.0, 0.0]), 2.0)

    @pytest.mark.parametrize("excess", [0.0, 1e-3, 1.0])
    def test_domain_violation_at_and_beyond_pi(self, excess):
        """A >= pi I (the boundary included) leaves pi I - A singular or
        indefinite, so the resolvent does not exist."""
        rng = np.random.default_rng(3)
        pi = 1.5
        a = pi * np.eye(4) + excess * rand_spd(rng, 4)
        with pytest.raises(DomainViolation):
            z_matrix(a, pi)

    def test_multiplier_fixed_point_at_boundary(self):
        """A(y) = 0 gives Z = I/pi and the update leaves X unchanged."""
        rng = np.random.default_rng(1)
        x = rand_spd(rng, 4)
        pi = 1.7
        z = z_matrix(np.zeros((4, 4)), pi)
        assert np.allclose(multiplier_update_lmi(z, x, pi), x, rtol=1e-12)

    def test_diagonal_update(self):
        pi = 3.0
        z = np.diag([0.2, 0.5])
        out = multiplier_update_lmi(z, np.eye(2), pi)
        assert np.allclose(out, pi**2 * np.diag([0.04, 0.25]))

    @staticmethod
    def box_update(t_lin, x_lin, pi_lin):
        """evaluate_point's box multipliers x_j phi'_pi((D y - d)_j) at y = 0
        on a problem whose box rows read D y - d = t_lin."""
        n = len(t_lin)
        prob = SdpProblem(
            [1],
            [sp.csr_matrix((1, n))],
            [np.zeros((1, 1))],
            np.zeros(n),
            sp.identity(n, format="csr"),
            -np.asarray(t_lin, dtype=float),
        )
        ctx = OuterCtx(prob, np.zeros(n), [np.eye(1)], np.asarray(x_lin, dtype=float), 1.0, pi_lin, 0.01)
        return evaluate_point(ctx, np.zeros(n)).xbar_lin

    def test_lin_update_at_boundary(self):
        x = np.array([2.0, 3.0])
        out = self.box_update(np.zeros(2), x, 1.5)
        assert np.allclose(out, x)  # slope 1 at zero

    def test_lin_update_scalar(self):
        pi, t, x = 2.0, -1.0, 4.0
        out = self.box_update([t], [x], pi)
        assert out[0] == pytest.approx(x / (1.0 - t / pi))

    def test_damped_blend_endpoints(self):
        old = np.array([1.0, 2.0])
        new = np.array([3.0, 5.0])
        for gamma, expected in [(0.0, old), (1.0, new), (0.5, 0.5 * (old + new))]:
            assert np.allclose((1 - gamma) * old + gamma * new, expected)

    def test_converged_multiplier_fixed_point(self, tru3, tru3_pdal):
        """At the solution the closed-form update reproduces the multiplier."""
        _, _, prob = tru3
        pt, rep = tru3_pdal
        assert rep.converged
        ctx = OuterCtx(
            prob=prob,
            y_prox=pt.y.copy(),
            x_blocks=[b.copy() for b in pt.X.blocks],
            x_lin=pt.X.lin.copy(),
            pi_lmi=1e-5,
            pi_lin=1e-9,
            r=0.01,
        )
        ev = evaluate_point(ctx, pt.y)
        rel = np.linalg.norm(ev.xbar_blocks[0] - pt.X.blocks[0]) / np.linalg.norm(pt.X.blocks[0])
        assert rel <= 1e-4


def make_ctx(prob, seed=0, pi_lmi=2.0, r=0.01, feas_shift=50.0):
    rng = np.random.default_rng(seed)
    y = feas_shift + 10.0 * rng.random(prob.n)
    return OuterCtx(
        prob=prob,
        y_prox=y + 0.1 * rng.standard_normal(prob.n),
        x_blocks=[rand_spd(np.random.default_rng(seed + 1), m, shift=2.0) for m in prob.block_dims],
        x_lin=rng.random(prob.nu) + 0.5,
        pi_lmi=pi_lmi,
        pi_lin=1.0,
        r=r,
    ), y


class TestGradientAndHessian:
    def test_gradient_matches_finite_differences(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=3)
        ev = evaluate_point(ctx, y)
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(prob.n)
            d /= np.linalg.norm(d)
            fp = aug_lagrangian_value(ctx, y + h * d)
            fm = aug_lagrangian_value(ctx, y - h * d)
            fd = (fp - fm) / (2 * h)
            an = float(ev.grad @ d)
            assert fd == pytest.approx(an, rel=1e-5, abs=1e-6 * max(1.0, abs(an)))

    def test_hessian_zero_direction(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=4)
        ev = evaluate_point(ctx, y)
        assert np.all(hessian_matvec(ctx, ev, np.zeros(prob.n)) == 0.0)

    def test_hessian_floor_with_zero_data(self):
        """With no constraint data the Hessian is exactly r I."""
        n = 4
        prob = SdpProblem(
            [3],
            [sp.csr_matrix((9, n))],
            [np.zeros((3, 3))],
            np.zeros(n),
            sp.csr_matrix((0, n)),
            np.zeros(0),
        )
        ctx = OuterCtx(
            prob=prob,
            y_prox=np.zeros(n),
            x_blocks=[np.eye(3)],
            x_lin=np.zeros(0),
            pi_lmi=1.0,
            pi_lin=1.0,
            r=0.01,
        )
        ev = evaluate_point(ctx, np.zeros(n))
        rng = np.random.default_rng(0)
        d = rng.standard_normal(n)
        assert np.allclose(hessian_matvec(ctx, ev, d), 0.01 * d, rtol=1e-14)

    def test_hessian_matches_dense_oracle(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=5)
        ev = evaluate_point(ctx, y)
        h = dense_pdal_hessian(prob, ctx.r, ev.xbar_blocks, ev.z_blocks, ev.wbar_lin)
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = rng.standard_normal(prob.n)
            ref = h @ d
            got = hessian_matvec(ctx, ev, d)
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.linalg.norm(ref))

    @pytest.mark.parametrize("nu", [0, 6])
    def test_hessian_stacked_matches_per_block(self, nu):
        """The stacked constraint map gives the Hessian product that the
        per-block maps give, with and without linear rows."""
        prob = random_problem(22, dims=(5, 4), n=12, nu=nu)
        rng = np.random.default_rng(nu)
        y = 0.1 * rng.standard_normal(prob.n)
        lam = max(np.linalg.eigvalsh(a)[-1] for a in apply_A_adjoint(prob, y).blocks)
        ctx = OuterCtx(
            prob=prob,
            y_prox=np.zeros(prob.n),
            x_blocks=[rand_spd(rng, m) for m in prob.block_dims],
            x_lin=rng.random(nu) + 0.5,
            pi_lmi=2.0 * (1.0 + abs(lam) + max(np.linalg.norm(c) for c in prob.C)),
            pi_lin=10.0,
            r=0.01,
        )
        ev = evaluate_point(ctx, y)
        for _ in range(5):
            dy = rng.standard_normal(prob.n)
            mats, lin = per_block_adjoint(prob, dy)
            blocks = []
            for xbar, mat, z in zip(ev.xbar_blocks, mats, ev.z_blocks):
                t = xbar @ mat @ z
                blocks.append(t + t.T)
            ref = ctx.r * dy + per_block_forward(prob, blocks, ev.wbar_lin * lin)
            got = hessian_matvec(ctx, ev, dy)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.linalg.norm(ref))

    def test_hessian_matches_gradient_differences(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=6)
        ev = evaluate_point(ctx, y)
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(prob.n)
            d /= np.linalg.norm(d)
            gp = evaluate_point(ctx, y + h * d).grad
            gm = evaluate_point(ctx, y - h * d).grad
            fd = (gp - gm) / (2 * h)
            an = hessian_matvec(ctx, ev, d)
            assert np.linalg.norm(fd - an) <= 1e-5 * max(1.0, np.linalg.norm(an))

    def test_hessian_floor_eigenvalue(self, tru3):
        """Dense Hessian eigenvalues stay above the proximal weight r."""
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=7)
        ev = evaluate_point(ctx, y)
        h = dense_pdal_hessian(prob, ctx.r, ev.xbar_blocks, ev.z_blocks, ev.wbar_lin)
        assert np.linalg.eigvalsh(sym(h))[0] >= ctx.r * (1 - 1e-10)


class TestResidualsMeritNewton:
    def test_g2_zero_at_closed_form_multiplier(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=8)
        ev = evaluate_point(ctx, y)
        x_hat = BlockSymMatrix([b.copy() for b in ev.xbar_blocks], ev.xbar_lin.copy())
        g1, g2 = pd_residuals(ctx, ev, x_hat)
        assert g2.dot(g2) == 0.0

    def test_stationary_point_zero_residuals(self, tru3):
        """Craft b so that the current point is exactly stationary."""
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=9)
        ev = evaluate_point(ctx, y)
        import copy

        prob2 = copy.copy(prob)
        # G1 = -b + r(y - y_prox) + A*(Xbar) = 0  defines b
        bnew = ctx.r * (y - ctx.y_prox)
        for a_op, xb in zip(prob.A, ev.xbar_blocks):
            bnew = bnew + a_op.T @ xb.reshape(-1)
        bnew = bnew + prob.D.T @ ev.xbar_lin
        prob2.b = bnew
        ctx2 = OuterCtx(prob2, ctx.y_prox, ctx.x_blocks, ctx.x_lin, ctx.pi_lmi, ctx.pi_lin, ctx.r)
        ev2 = evaluate_point(ctx2, y)
        x_hat = BlockSymMatrix([b.copy() for b in ev2.xbar_blocks], ev2.xbar_lin.copy())
        g1, g2 = pd_residuals(ctx2, ev2, x_hat)
        assert merit(g1, g2) <= 1e-20
        assert np.linalg.norm(ev2.grad) <= 1e-9

    def test_merit_zero_and_scaling(self):
        g1 = np.array([1.0, -2.0])
        g2 = BlockSymMatrix([np.array([[0.5, 0.0], [0.0, -1.0]])], np.array([2.0]))
        m1 = merit(g1, g2)
        m2 = merit(2 * g1, 2 * g2)
        assert m2 == pytest.approx(4 * m1)
        zero = BlockSymMatrix([np.zeros((2, 2))], np.zeros(1))
        assert merit(np.zeros(2), zero) == 0.0

    def test_merit_directional_derivative_fd(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=10)
        ev = evaluate_point(ctx, y)
        rng = np.random.default_rng(13)
        x_hat = BlockSymMatrix(
            [b + 0.05 * rand_spd(rng, b.shape[0], shift=0.0) for b in ev.xbar_blocks],
            ev.xbar_lin + 0.05 * rng.random(prob.nu),
        )
        g1, g2 = pd_residuals(ctx, ev, x_hat)
        dy = rng.standard_normal(prob.n) * 0.1
        dx = newton_direction(ctx, ev, g2, dy)
        slope = merit_dderiv(ctx, ev, g1, g2, dy, dx)
        h = 1e-7

        def m_at(t):
            ev_t = evaluate_point(ctx, y + t * dy)
            g1t, g2t = pd_residuals(ctx, ev_t, x_hat + t * dx)
            return merit(g1t, g2t)

        fd = (m_at(h) - m_at(-h)) / (2 * h)
        assert fd == pytest.approx(slope, rel=1e-6, abs=1e-6 * max(1.0, abs(slope)))

    def test_newton_direction_zero_dy(self, tru3):
        """With dy = 0 the multiplier step is exactly -G2."""
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=11)
        ev = evaluate_point(ctx, y)
        rng = np.random.default_rng(14)
        x_hat = BlockSymMatrix(
            [b + 0.1 * np.eye(b.shape[0]) for b in ev.xbar_blocks],
            ev.xbar_lin + 0.1,
        )
        g1, g2 = pd_residuals(ctx, ev, x_hat)
        dx = newton_direction(ctx, ev, g2, np.zeros(prob.n))
        assert np.allclose(dx.blocks[0], -g2.blocks[0], rtol=1e-12)
        assert np.allclose(dx.lin, -g2.lin, rtol=1e-12)

    def test_one_variable_newton_closed_form(self):
        prob = load_sdpa(io.StringIO(TOY))
        ctx = OuterCtx(
            prob=prob,
            y_prox=np.array([2.0]),
            x_blocks=[np.array([[1.5]])],
            x_lin=np.zeros(0),
            pi_lmi=2.0,
            pi_lin=1.0,
            r=0.01,
        )
        y = np.array([2.0])
        ev = evaluate_point(ctx, y)
        # scalar data: A(y) = 1 - y, Z = 1/(pi - 1 + y), grad and Hessian by hand
        a_val = 1.0 - y[0]
        z = 1.0 / (ctx.pi_lmi - a_val)
        xbar = ctx.pi_lmi**2 * z * 1.5 * z
        grad = 1.0 + 0.01 * (y[0] - 2.0) + (-1.0) * xbar
        assert ev.grad[0] == pytest.approx(grad, rel=1e-12)
        hess = 0.01 + 2.0 * xbar * z  # 2 A'(Xbar x Z)A with A = -1
        got = hessian_matvec(ctx, ev, np.array([1.0]))[0]
        assert got == pytest.approx(hess, rel=1e-12)

    def test_linearization_residual(self, tru3):
        """The Newton direction satisfies the linearized primal-dual system
        up to the CG residual."""
        from lorank.pcg import pcg_solve

        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=12)
        ev = evaluate_point(ctx, y)
        rng = np.random.default_rng(15)
        x_hat = BlockSymMatrix(
            [b + 0.1 * np.eye(b.shape[0]) for b in ev.xbar_blocks],
            ev.xbar_lin + 0.05,
        )
        g1, g2 = pd_residuals(ctx, ev, x_hat)
        tol = 1e-12
        dy, rep = pcg_solve(lambda v: hessian_matvec(ctx, ev, v), lambda v: v, -ev.grad, tol=tol)
        assert rep.converged
        dx = newton_direction(ctx, ev, g2, dy)
        # first block equation: r dy + A*(dx) = -G1
        res = ctx.r * dy.copy()
        for a_op, blk in zip(prob.A, dx.blocks):
            res = res + a_op.T @ blk.reshape(-1)
        res = res + prob.D.T @ dx.lin + g1
        assert np.linalg.norm(res) <= tol * 10 * max(1.0, np.linalg.norm(ev.grad))


def inner(ctx, y, x0, eps_inner, cfg, cg_tol, e_outer):
    """``inner_solve`` from the outer point (y, x0) of a fresh run with
    ``cfg``, whose errors have pd error ``e_outer``; their err2 of 1 keeps
    the point above every graceful tolerance."""
    pt = PrimalDualPoint(y, x0, dual_slack(ctx.prob, y))
    errs = DimacsErrors(e_outer, 1.0, 0.0, e_outer, e_outer, 0.0)
    return inner_solve(ctx, RunRecord(ctx.prob, cfg), pt, errs, eps_inner, cg_tol)


class TestInnerSolve:
    def test_zero_iterations_at_optimum(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=13)
        ev = evaluate_point(ctx, y)
        import copy

        prob2 = copy.copy(prob)
        bnew = ctx.r * (y - ctx.y_prox)
        for a_op, xb in zip(prob.A, ev.xbar_blocks):
            bnew = bnew + a_op.T @ xb.reshape(-1)
        bnew = bnew + prob.D.T @ ev.xbar_lin
        prob2.b = bnew
        ctx2 = OuterCtx(prob2, ctx.y_prox, ctx.x_blocks, ctx.x_lin, ctx.pi_lmi, ctx.pi_lin, ctx.r)
        ev2 = evaluate_point(ctx2, y)
        x0 = BlockSymMatrix([b.copy() for b in ev2.xbar_blocks], ev2.xbar_lin.copy())
        res = inner(ctx2, y, x0, 1e-12, PdalConfig(), 1e-8, e_outer=1.0)
        assert res.iterations == 0
        assert res.converged

    def test_merit_decreases(self, tru3):
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=14)
        x0 = BlockSymMatrix([np.eye(m) for m in prob.block_dims], np.ones(prob.nu))
        # e_outer = 0 disables early stopping, forcing merit convergence
        res = inner(ctx, y, x0, 1e-10, PdalConfig(max_inner=30), 1e-8, e_outer=0.0)
        assert res.merit <= 1e-10
        assert res.converged
        assert res.precond_kinds == ["gamma"]

    def test_line_search_failure_returns_the_start_point(self, tru3, monkeypatch):
        """With no trial step allowed the line search fails on the first
        Newton step: the point and its merit are those of the start, and the
        inner solve ends unconverged."""
        monkeypatch.setattr(pdal, "LS_MAX_HALVINGS", 0)
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=14)
        x0 = BlockSymMatrix([np.eye(m) for m in prob.block_dims], np.ones(prob.nu))
        start = merit(*pd_residuals(ctx, evaluate_point(ctx, y), x0))
        res = inner(ctx, y, x0, 1e-10, PdalConfig(max_inner=30), 1e-8, e_outer=0.0)
        assert res.iterations == 1 and res.line_search_failures == 1
        assert res.converged is False and not res.early_stop and not res.cap_hit
        assert res.merit == start
        assert np.array_equal(res.ev.y, y)

    def test_beta_fallback_is_recorded(self, tru3, monkeypatch):
        def failing_build(*args):
            raise NotPositiveDefinite(0, "gamma companion factor")

        monkeypatch.setattr(precond, "build_h_gamma", failing_build)
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=14)
        x0 = BlockSymMatrix([np.eye(m) for m in prob.block_dims], np.ones(prob.nu))
        res = inner(ctx, y, x0, 1e-10, PdalConfig(max_inner=30), 1e-8, e_outer=0.0)
        assert res.converged
        assert res.precond_kinds == ["beta"]

    def test_beta_is_the_gamma_base(self, tru3, monkeypatch):
        """The fallback and the configured beta kind are gamma's base
        diagonal alone, bit for bit."""
        _, _, prob = tru3
        ctx, y = make_ctx(prob, seed=14)
        ev = evaluate_point(ctx, y)
        gamma = _pdal_preconditioner(ctx, ev, PdalConfig())
        beta = _pdal_preconditioner(ctx, ev, PdalConfig(precond="beta"))

        def failing_build(*args):
            raise NotPositiveDefinite(0, "gamma companion factor")

        monkeypatch.setattr(precond, "build_h_gamma", failing_build)
        fallback = _pdal_preconditioner(ctx, ev, PdalConfig())
        assert gamma.kind == "gamma" and gamma.rank > 0
        for pc in (beta, fallback):
            assert pc.kind == "beta" and pc.rank == 0
            assert np.array_equal(pc.base, gamma.base)


class TestPenaltyUpdate:
    def test_floor_unchanged(self):
        lin, lmi = penalty_update(1e-9, 1e-5, lam_max_lmi=0.0)
        assert lin == pytest.approx(1e-9)
        assert lmi == pytest.approx(1e-5)

    def test_lambda_max_floor(self):
        _, lmi = penalty_update(1.0, 0.2, lam_max_lmi=0.5)
        assert lmi == pytest.approx(0.505)

    def test_decay(self):
        lin, lmi = penalty_update(1.0, 1.0, lam_max_lmi=0.0)
        assert lin == pytest.approx(0.5)
        assert lmi == pytest.approx(0.5)

    def test_monotone_on_run(self, tru3_pdal):
        _, rep = tru3_pdal
        pis = [t["pi_lmi"] for t in rep.trace]
        lam_floor_events = 0
        for a, b in zip(pis, pis[1:]):
            if b > a:
                lam_floor_events += 1
        # nonincreasing except at most a few eigenvalue-floor events
        assert lam_floor_events <= 3


class TestPdalSolve:
    def test_toy_analytic(self):
        prob = load_sdpa(io.StringIO(TOY))
        pt, rep = pdal_solve(prob, PdalConfig())
        assert rep.converged
        assert rep.dual_objective == pytest.approx(-1.0, abs=1e-5)
        assert pt.y[0] == pytest.approx(1.0, abs=1e-4)

    def test_tru3_envelope(self, tru3_pdal):
        _, rep = tru3_pdal
        assert rep.converged
        assert 17 <= rep.iterations <= 70

    def test_tru3_matches_ip(self, tru3_ip, tru3_pdal):
        _, rep_ip = tru3_ip
        _, rep_pd = tru3_pdal
        rel = abs(rep_ip.dual_objective - rep_pd.dual_objective) / abs(rep_ip.dual_objective)
        assert rel <= 1e-4

    def test_vib3_converges(self, vib3_pdal):
        _, rep = vib3_pdal
        assert rep.converged
        assert rep.dimacs.max() <= 1e-5

    def test_profiles_proximal_weight(self):
        """One parameter set: the tru profile is the default config (r = 1e-4)
        and no other profile exists."""
        assert pdal_config_profile("tru") == PdalConfig()
        assert PdalConfig().r == 1e-4
        with pytest.raises(ValueError, match="vib"):
            pdal_config_profile("vib")

    def test_tru_profile_ends_the_vib5_tail(self, vib5):
        """While X sits at its fixed point, y creeps along the LMI face by
        ||b - A(X)|| / r per outer iteration: 304 outers at r = 0.01, 46 at
        r = 1e-3 and 34 at r = 1e-4."""
        _, _, prob = vib5
        _, rep = pdal_solve(prob, PdalConfig())
        assert rep.status == "optimal"
        assert rep.iterations <= 40
        assert -rep.dual_objective == pytest.approx(16.0065, abs=1e-4)

    def test_tru_profile_tru7_cg_work(self):
        """The same crawl cost 14,007 CG iterations on tru7 at r = 0.01."""
        _, _, prob = make_truss_problem(7, "tru")
        _, rep = pdal_solve(prob, PdalConfig())
        assert rep.status == "optimal"
        assert rep.cg_total <= 1000

    def test_trace_records_inner_events(self, tru3_pdal):
        _, rep = tru3_pdal
        for row in rep.trace:
            assert row["line_search_failures"] >= 0
            assert row["precond"] == ("gamma" if row["inner_iterations"] else "")
            assert row["inner_cap_hit"] is False

    def test_trace_records_inner_cap_hits(self, tru3):
        """An inner solve that ends at max_inner Newton steps, neither
        converged, stopped early nor ended by a line-search failure, is
        flagged in its trace row."""
        _, _, prob = tru3
        _, rep = pdal_solve(prob, PdalConfig(max_inner=1, max_iter=3))
        hits = [row["inner_cap_hit"] for row in rep.trace]
        assert len(hits) == 3 and any(hits)
        for row in rep.trace:
            ended_otherwise = (
                row["inner_converged"] or row["early_stop"] or row["line_search_failures"]
            )
            assert row["inner_cap_hit"] == (not ended_otherwise)
            if row["inner_cap_hit"]:
                assert row["inner_iterations"] == 1

    def test_late_inner_counts_small(self, tru3_pdal):
        """Near the solution a couple of Newton steps per outer iteration
        suffice."""
        _, rep = tru3_pdal
        late = [t["inner_iterations"] for t in rep.trace[len(rep.trace) // 2 :]]
        assert min(late) <= 2
        assert sum(late) / len(late) <= 4

    def test_multipliers_positive_after_updates(self, tru3_pdal):
        pt, _ = tru3_pdal
        assert np.linalg.eigvalsh(pt.X.blocks[0])[0] > 0
        assert pt.X.lin.min() >= 0

    @pytest.mark.parametrize("name", ["tru3", "vib3"])
    def test_pd_error_is_a_view_of_dimacs(self, name, request, monkeypatch):
        """pd_error equals max(err1, err4, err5) exactly at iterates of a run
        (outer points and the inner points of the early-stopping test)."""
        _, _, prob = request.getfixturevalue(name)
        points = []

        def recording_dimacs(prob, pt, s_eigs=None):
            points.append((pt.y, pt.X))
            return dimacs(prob, pt, s_eigs)

        monkeypatch.setattr(pdal, "dimacs", recording_dimacs)
        pdal_solve(prob, PdalConfig())
        monkeypatch.undo()
        assert len(points) > 20
        for y, x in points[:: len(points) // 10]:
            s = dual_slack(prob, y)
            e = dimacs(prob, PrimalDualPoint(y, x, s))
            assert pd_error(prob, y, x, s) == max(e.err1, e.err4, e.err5)

    def test_iteration_cap_at_convergence(self, tru3, tru3_pdal):
        """A cap equal to the converged run's count still measures the final
        iterate and reports optimal; one less stops at the cap."""
        _, _, prob = tru3
        _, rep = tru3_pdal
        k = rep.iterations
        _, capped = pdal_solve(prob, PdalConfig(max_iter=k))
        assert capped.status == "optimal"
        assert capped.iterations == k and capped.dimacs == rep.dimacs
        _, short = pdal_solve(prob, PdalConfig(max_iter=k - 1))
        assert short.status == "max_iterations" and short.iterations == k - 1

    def test_hessian_floor_diagnostics(self, tru3_pdal_diag):
        _, rep = tru3_pdal_diag
        assert rep.diagnostics
        for d in rep.diagnostics:
            assert d["hessian_min_eig"] >= d["r"] * (1 - 1e-8)

    def test_diagnostics_measure_the_applied_preconditioner(self, tru3, monkeypatch):
        """--diag records each Newton step under the build the step applied,
        without building it again: gamma by default; none has P = I."""
        builds = 0
        build = precond.build_h_gamma

        def recording_build(*args, **kwargs):
            nonlocal builds
            builds += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(precond, "build_h_gamma", recording_build)
        _, _, prob = tru3
        _, rep = pdal_solve(prob, PdalConfig(diag=True))
        steps = sum(t["inner_iterations"] for t in rep.trace)
        assert rep.converged and builds == steps == len(rep.diagnostics)
        assert [d["precond"] for d in rep.diagnostics] == ["gamma"] * steps
        assert min(d["hessian_min_eig"] / d["r"] for d in rep.diagnostics) >= 1 - 1e-8
        assert rep.diagnostics[-1]["kappa_preconditioned"] < rep.diagnostics[-1]["kappa_h"]

        _, rep = pdal_solve(prob, PdalConfig(precond="none", diag=True, max_iter=2))
        assert rep.diagnostics
        for d in rep.diagnostics:
            assert d["precond"] == "none"
            assert d["kappa_preconditioned"] == pytest.approx(d["kappa_h"], rel=1e-8)
