from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from lorank.pcg import DEFLATE_RANK, RECORD_DIRS, Deflation, PcgReport, _LanczosRecord, cg_tolerance, pcg_solve

from conftest import rand_spd, spd_with_spectrum


class TestBasics:
    def test_identity_single_iteration(self):
        rhs = np.array([1.0, -2.0, 3.0])
        x, rep = pcg_solve(lambda v: v, lambda v: v, rhs, tol=1e-12)
        assert rep.converged
        assert rep.iterations <= 1
        assert np.allclose(x, rhs)

    def test_distinct_eigenvalues_finite_termination(self):
        d = np.arange(1.0, 11.0)
        x, rep = pcg_solve(lambda v: d * v, lambda v: v, np.ones(10), tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 10
        assert np.allclose(x, 1.0 / d, rtol=1e-8)

    def test_zero_rhs(self):
        x, rep = pcg_solve(lambda v: 2 * v, lambda v: v, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.all(x == 0.0)

    def test_breakdown_on_indefinite(self):
        x, rep = pcg_solve(lambda v: -v, lambda v: v, np.ones(3), tol=1e-10)
        assert rep.breakdown and not rep.converged

    def test_exact_inverse_preconditioner(self):
        rng = np.random.default_rng(0)
        a = rand_spd(rng, 12)
        ainv = np.linalg.inv(a)
        rhs = rng.standard_normal(12)
        x, rep = pcg_solve(lambda v: a @ v, lambda v: ainv @ v, rhs, tol=1e-10)
        assert rep.converged and rep.iterations <= 1
        assert np.allclose(a @ x, rhs, rtol=1e-8)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(1)
        a = rand_spd(rng, 20)
        rhs = rng.standard_normal(20)
        tol = 1e-10
        x, rep = pcg_solve(lambda v: a @ v, lambda v: v, rhs, tol=tol, maxiter=500)
        assert rep.converged
        expected = np.linalg.solve(a, rhs)
        assert np.linalg.norm(x - expected) <= tol * 10 * np.linalg.norm(expected)

    def test_maxiter_flag(self):
        rng = np.random.default_rng(2)
        a = rand_spd(rng, 30)
        x, rep = pcg_solve(lambda v: a @ v, lambda v: v, rng.standard_normal(30), tol=1e-14, maxiter=2)
        assert not rep.converged and rep.iterations == 2

    def test_usable(self):
        """A converged solve, or a stagnation at relres <= 0.1, is usable."""
        assert PcgReport(3, 1e-8, True).usable
        assert PcgReport(150, 0.1, False, stagnated=True).usable
        assert not PcgReport(150, 0.2, False, stagnated=True).usable
        assert not PcgReport(2, 1e-3, False, breakdown=True).usable
        assert not PcgReport(2, 1e-3, False).usable


def _cg_reorthogonalized(a: np.ndarray, b: np.ndarray, iters: int) -> list[np.ndarray]:
    """Test oracle: CG with full residual reorthogonalization, emulating
    exact arithmetic so the polynomial error bound is observable."""
    x = np.zeros_like(b)
    r = b.copy()
    basis = [r / np.linalg.norm(r)]
    p = r.copy()
    rz = float(r @ r)
    iterates = []
    for _ in range(iters):
        q = a @ p
        alpha = rz / float(p @ q)
        x = x + alpha * p
        r = r - alpha * q
        for _ in range(2):
            for u in basis:
                r -= (r @ u) * u
        nr = np.linalg.norm(r)
        if nr > 0:
            basis.append(r / nr)
        iterates.append(x.copy())
        rz_new = float(r @ r)
        beta = rz_new / rz
        rz = rz_new
        p = r + beta * p
    return iterates


class TestOutlierBound:
    """Error reduction for spectra with k large outlying eigenvalues: after
    the first k iterations the A-norm error contracts at the rate set by the
    cluster condition number alone."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_outlier_error_bound(self, k):
        rng = np.random.default_rng(40 + k)
        n = 50
        cluster = np.linspace(1.0, 2.0, n - k)  # kappa_{n-k} = 2
        outliers = 1e3 * (1.0 + np.arange(k))
        a = spd_with_spectrum(rng, np.concatenate([cluster, outliers]))
        rhs = rng.standard_normal(n)
        x_star = np.linalg.solve(a, rhs)

        def a_norm(v):
            return float(np.sqrt(abs(v @ (a @ v))))

        err0 = a_norm(x_star)
        rho = (np.sqrt(2.0) - 1.0) / (np.sqrt(2.0) + 1.0)
        checked = 0
        for i, x in enumerate(_cg_reorthogonalized(a, rhs, 45), start=1):
            bound = 2.0 * rho ** (i - k)
            if i <= k or bound < 1e-11:
                continue  # below the float64 observation floor
            err = a_norm(x - x_star) / err0
            assert err <= bound * 1.05, f"iteration {i}: {err} > {bound}"
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_production_pcg_converges_fast_on_outlier_spectra(self, k):
        """Plain float64 CG lags the exact-arithmetic bound but must still
        dispatch the outliers within a few extra iterations."""
        rng = np.random.default_rng(60 + k)
        n = 50
        a = spd_with_spectrum(
            rng,
            np.concatenate([np.linspace(1.0, 2.0, n - k), 1e3 * (1.0 + np.arange(k))]),
        )
        rhs = rng.standard_normal(n)
        x, rep = pcg_solve(lambda v: a @ v, lambda v: v, rhs, tol=1e-10, maxiter=60)
        assert rep.converged
        assert rep.iterations <= k + 30


class TestToleranceSchedule:
    def test_halving(self):
        assert cg_tolerance(0, 1e-6) == 0.01
        assert cg_tolerance(1, 1e-6) == 0.005

    def test_clamp(self):
        assert cg_tolerance(13, 1e-6) == 0.01 * 0.5**13
        assert cg_tolerance(14, 1e-6) == 1e-6

    def test_fixed_point(self):
        assert cg_tolerance(15, 1e-6) == cg_tolerance(14, 1e-6) == 1e-6

    def test_schedule_reaches_floor(self):
        assert cg_tolerance(30, 1e-6) == 1e-6
        assert cg_tolerance(30, 1e-8) == 1e-8

    @pytest.mark.parametrize("floor", [1e-6, 1e-8])
    def test_equals_repeated_halving(self, floor):
        """The closed form is the halving schedule bit for bit: 0.01 * 2**-k
        is exact in float64."""
        t = 0.01
        for k in range(60):
            assert cg_tolerance(k, floor) == t
            t = max(floor, t * 0.5)


def _pcg_reference(op, precond_inv, rhs, tol, maxiter):
    """Test oracle: the PCG loop as it was before the recording and
    deflation options, kept to show that a solve without ``deflate``
    still runs the same floating-point operations."""
    x = np.zeros_like(rhs)
    bnorm = float(np.linalg.norm(rhs))
    r = rhs.copy()
    relres = float(np.linalg.norm(r)) / bnorm
    z = precond_inv(r)
    p = z.copy()
    rz = float(r @ z)
    it, refresh_relres, stall_count = 0, relres, 0
    while it < maxiter:
        it += 1
        q = op(p)
        alpha = rz / float(p @ q)
        x += alpha * p
        r = rhs - op(x) if it % 50 == 0 else r - alpha * q
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            return x, it
        if it % 50 == 0:
            stall_count = stall_count + 1 if relres > 0.99 * refresh_relres else 0
            if stall_count >= 3:
                return x, it
            refresh_relres = relres
        z = precond_inv(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, it


def _outlier_system(seed: int, n: int = 80, outliers=(1e-3, 3e-3, 1e-2, 3e-2)):
    """H = D^{1/2} A D^{1/2} with A's spectrum a cluster in [0.9, 1.1] plus
    a few small outliers, and P^{-1} the inverse of P = D, so that P^{-1}H
    has A's spectrum: the setting the IP's corrector is deflated in."""
    rng = np.random.default_rng(seed)
    eigs = np.concatenate([np.linspace(0.9, 1.1, n - len(outliers)), outliers])
    a = spd_with_spectrum(rng, eigs)
    d = np.exp(rng.uniform(-2.0, 2.0, n))
    h = np.sqrt(d)[:, None] * a * np.sqrt(d)[None, :]
    return rng, h, d


def _dense(fn, n: int) -> np.ndarray:
    return np.column_stack([fn(e) for e in np.eye(n)])


class TestDeflation:
    def test_dense_m_is_spd(self):
        """M = (I - Z(HZ)')P^{-1}(I - HZ Z') + ZZ' is symmetric positive
        definite, with Z'HZ = I after the H-orthonormalization, and stays
        so when the stored HZ is inexact."""
        rng, h, d = _outlier_system(0)
        n = len(d)
        y = rng.standard_normal((5, n))
        space = Deflation.of(y, y @ h)
        assert space.rank == 5
        assert np.allclose(space.z @ h @ space.z.T, np.eye(5), atol=1e-10)
        for hz in (space.hz, space.hz + 1e-3 * rng.standard_normal(space.hz.shape)):
            m = _dense(Deflation(space.z, hz).balance(lambda v: v / d), n)
            assert np.allclose(m, m.T, rtol=0, atol=1e-12 * np.abs(m).max())
            assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0

    def test_repeated_directions_are_dropped(self):
        """A row repeated up to round-off (Lanczos' copy of a converged
        Ritz vector) leaves E nearly singular; the space keeps one copy."""
        rng, h, d = _outlier_system(1)
        y = rng.standard_normal((3, len(d)))
        y = np.vstack([y, y[1] * (1 + 1e-13)])
        space = Deflation.of(y, y @ h)
        assert space.rank == 3
        assert np.allclose(space.z @ h @ space.z.T, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_corrector_meets_tolerance_and_matches_plain(self, tol):
        """The second solve with the first one's space meets the tolerance
        on the true residual and agrees with the plain solve to within it,
        both when the predictor's directions are the space (few
        iterations) and when its Ritz vectors are (many iterations)."""
        rng, h, d = _outlier_system(2)
        op, pinv = (lambda v: h @ v), (lambda v: v / d)
        b1, b2 = rng.standard_normal((2, len(d)))
        for pred_tol in (1e-1, tol):
            _, pred = pcg_solve(op, pinv, b1, tol=pred_tol, record=True)
            space = pred.deflation
            assert space.rank == min(pred.iterations, DEFLATE_RANK)
            assert space.exact_hz == (pred.iterations <= DEFLATE_RANK)
            assert np.allclose(space.z @ h @ space.z.T, np.eye(space.rank), atol=1e-6)
            x_d, rep_d = pcg_solve(op, pinv, b2, tol=tol, deflate=space)
            x_p, rep_p = pcg_solve(op, pinv, b2, tol=tol)
            assert rep_d.converged and rep_p.converged
            bn = np.linalg.norm(b2)
            assert np.linalg.norm(b2 - h @ x_d) <= 1.01 * tol * bn
            assert np.linalg.norm(h @ (x_d - x_p)) <= 2.02 * tol * bn

    def test_ritz_space_holds_the_outliers(self):
        """From a long predictor (more than ``DEFLATE_RANK`` directions) the
        Ritz space of the Lanczos tridiagonal captures the small outlying
        eigenvectors of P^{-1}H: their H-projection onto the space leaves
        a small remainder."""
        rng, h, d = _outlier_system(3)
        _, pred = pcg_solve(lambda v: h @ v, lambda v: v / d, rng.standard_normal(len(d)), tol=1e-10, record=True)
        assert pred.iterations > DEFLATE_RANK
        space = pred.deflation
        # generalized eigenvectors H v = lam D v of the four smallest lam
        lam, v = eigh(h, np.diag(d))
        for j in range(4):
            u = v[:, j] / np.sqrt(v[:, j] @ h @ v[:, j])
            rest = u - space.z.T @ (space.hz @ u)
            assert rest @ h @ rest < 1e-6, (j, lam[j])

    @pytest.mark.parametrize("exact_hz", [True, False])
    def test_exact_eigenvectors_take_fewer_iterations(self, exact_hz):
        """Deflating the outlying eigenvectors of P^{-1}H leaves CG the
        cluster alone, so it converges in fewer iterations than plain PCG,
        from x0 = ZZ'b and from x0 = 0."""
        rng, h, d = _outlier_system(4)
        op, pinv = (lambda v: h @ v), (lambda v: v / d)
        _, v = eigh(h, np.diag(d))
        y = v[:, :4].T
        space = replace(Deflation.of(y, y @ h), exact_hz=exact_hz)
        b = rng.standard_normal(len(d))
        _, plain = pcg_solve(op, pinv, b, tol=1e-10)
        x, defl = pcg_solve(op, pinv, b, tol=1e-10, deflate=space)
        assert defl.converged and defl.iterations < plain.iterations
        assert np.linalg.norm(b - h @ x) <= 1.01e-10 * np.linalg.norm(b)

    def test_record_stops_at_its_cap(self, monkeypatch):
        """A solve that runs past ``RECORD_DIRS`` iterations keeps only the
        first ``RECORD_DIRS`` directions."""
        kept = []
        real = _LanczosRecord.ritz_space

        def spy(self):
            kept.append(len(self.ps))
            return real(self)

        monkeypatch.setattr(_LanczosRecord, "ritz_space", spy)
        rng = np.random.default_rng(5)
        a = spd_with_spectrum(rng, np.geomspace(1e-4, 1.0, 200))
        _, rep = pcg_solve(lambda v: a @ v, lambda v: v, rng.standard_normal(200), tol=1e-14, maxiter=120, record=True)
        assert rep.iterations == 120 and kept == [RECORD_DIRS]
        assert rep.deflation.rank <= DEFLATE_RANK

    def test_nonpositive_rz_voids_the_record(self):
        rec = _LanczosRecord()
        for rz in (1.0, -1e-18, 0.5):
            rec.step(np.ones(3), np.ones(3), 1.0, rz)
        assert rec.ritz_space() is None

    @pytest.mark.parametrize("maxiter, tol", [(500, 1e-10), (130, 1e-15)])
    def test_without_deflation_iterates_are_unchanged(self, maxiter, tol):
        """Recording or not, a solve without ``deflate`` returns the same
        bits as the loop before the options, refresh windows included."""
        rng = np.random.default_rng(6)
        a = spd_with_spectrum(rng, np.geomspace(1e-5, 1.0, 120))
        dinv = 1.0 / rng.uniform(0.5, 2.0, 120)
        op, pinv = (lambda v: a @ v), (lambda v: dinv * v)
        b = rng.standard_normal(120)
        x_ref, it_ref = _pcg_reference(op, pinv, b, tol, maxiter)
        for record in (False, True):
            x, rep = pcg_solve(op, pinv, b, tol=tol, maxiter=maxiter, record=record)
            assert rep.iterations == it_ref and x.tobytes() == x_ref.tobytes()
