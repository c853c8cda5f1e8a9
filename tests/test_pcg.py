import numpy as np
import pytest

from lorank.pcg import PcgReport, cg_tolerance, pcg_solve

from conftest import rand_spd, spd_with_spectrum


class TestBasics:
    def test_identity_single_iteration(self):
        rhs = np.array([1.0, -2.0, 3.0])
        x, rep = pcg_solve(lambda v: v, None, rhs, tol=1e-12)
        assert rep.converged
        assert rep.iterations <= 1
        assert np.allclose(x, rhs)

    def test_distinct_eigenvalues_finite_termination(self):
        d = np.arange(1.0, 11.0)
        x, rep = pcg_solve(lambda v: d * v, None, np.ones(10), tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 10
        assert np.allclose(x, 1.0 / d, rtol=1e-8)

    def test_zero_rhs(self):
        x, rep = pcg_solve(lambda v: 2 * v, None, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.all(x == 0.0)

    def test_breakdown_on_indefinite(self):
        x, rep = pcg_solve(lambda v: -v, None, np.ones(3), tol=1e-10)
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
        x, rep = pcg_solve(lambda v: a @ v, None, rhs, tol=tol, maxiter=500)
        assert rep.converged
        expected = np.linalg.solve(a, rhs)
        assert np.linalg.norm(x - expected) <= tol * 10 * np.linalg.norm(expected)

    def test_maxiter_flag(self):
        rng = np.random.default_rng(2)
        a = rand_spd(rng, 30)
        x, rep = pcg_solve(lambda v: a @ v, None, rng.standard_normal(30), tol=1e-14, maxiter=2)
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
        x, rep = pcg_solve(lambda v: a @ v, None, rhs, tol=1e-10, maxiter=60)
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
