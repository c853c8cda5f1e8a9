import numpy as np
import pytest

from lorank.linalg import (
    NotPositiveDefinite,
    chol,
    chol_inv,
    chol_solve,
    min_eig,
    sym,
    top_eig,
)

from conftest import rand_spd, rand_sym, spd_with_spectrum


class TestSymEig:
    """``top_eig`` with k = m: the whole symmetric eigendecomposition, every
    eigenvector by inverse iteration and the reflectors of one reduction."""

    def test_identity(self):
        w, q = top_eig(np.eye(3), 3)
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-14)

    def test_diagonal_permutation(self):
        w, q = top_eig(np.diag([3.0, 1.0, 2.0]), 3)
        assert np.allclose(w, [1, 2, 3])
        # eigenvectors are signed unit vectors picking out the sorted entries
        for col, expected in zip(q.T, [1, 2, 0]):
            assert abs(abs(col[expected]) - 1.0) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_sym(rng, 8)
        w, q = top_eig(a, 8)
        err = np.linalg.norm((q * w) @ q.T - a) / np.linalg.norm(a)
        assert err <= 1e-12
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(q.T @ q, np.eye(8), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            top_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2)


class TestChol:
    def test_identity(self):
        assert np.allclose(chol(np.eye(4)), np.eye(4))

    def test_hand_computed(self):
        l = chol(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(l, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])

    def test_not_pd_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            chol(-np.eye(2))
        assert exc.value.pivot == 0

    def test_later_pivot(self):
        a = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            chol(a)
        assert exc.value.pivot == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_spd_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, 7)
        l = chol(a)
        assert np.linalg.norm(l @ l.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(np.triu(l, 1), 0.0)
        assert np.all(np.diag(l) > 0)


    @pytest.mark.parametrize("seed", range(3))
    def test_upper_triangle_is_exactly_zero(self, seed):
        l = chol(rand_spd(np.random.default_rng(seed), 9))
        assert np.all(np.triu(l, 1) == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_and_inverse(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, 9)
        l = chol(a)
        inv = chol_inv(l)
        assert np.array_equal(inv, inv.T)
        assert np.allclose(inv, np.linalg.inv(a), rtol=1e-12, atol=1e-14)
        b = rng.standard_normal(9)
        assert np.allclose(chol_solve(l, b), np.linalg.solve(a, b), rtol=1e-12)
        rhs = rng.standard_normal((9, 3))
        assert np.allclose(chol_solve(l, rhs), np.linalg.solve(a, rhs), rtol=1e-12)


class TestMinEig:
    """The one-eigenvalue kernel against eigvalsh(sym(a))[0], to about
    1e-12 |a|."""

    @staticmethod
    def check(a):
        expected = np.linalg.eigvalsh(sym(a))[0]
        assert min_eig(a) == pytest.approx(expected, rel=0.0, abs=1e-12 * np.linalg.norm(a, 2))

    @pytest.mark.parametrize("m", [2, 7, 41, 85])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_symmetric(self, seed, m):
        self.check(rand_sym(np.random.default_rng(seed), m))

    @pytest.mark.parametrize("seed", range(3))
    def test_indefinite(self, seed):
        rng = np.random.default_rng(seed)
        a = spd_with_spectrum(rng, np.concatenate([-np.logspace(-3, 2, 5), np.logspace(-1, 3, 8)]))
        assert min_eig(a) < 0
        self.check(a)

    @pytest.mark.parametrize("seed", range(3))
    def test_reads_the_symmetric_part(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((9, 9))
        self.check(a)

    @pytest.mark.parametrize("v", [-3.5, 0.0, 2.0])
    def test_one_by_one(self, v):
        assert min_eig(np.array([[v]])) == v

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        a = spd_with_spectrum(rng, rng.permutation(np.logspace(-10, 6, 30)))
        self.check(a)
        self.check(-a)

    def test_does_not_touch_its_input(self):
        a = rand_sym(np.random.default_rng(0), 5)
        saved = a.copy()
        min_eig(a)
        assert np.array_equal(a, saved)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            min_eig(a)


class TestTopEig:
    """The tridiagonal kernel against np.linalg.eigh: every eigenvalue to
    1e-12 |a|; the top k vectors equal to eigh's up to sign where their
    eigenvalue is simple, and an orthonormal eigenbasis within a repeated
    cluster."""

    @staticmethod
    def planted(seed, m, outliers):
        """A cluster of m - len(outliers) eigenvalues 1 and the outliers
        above it."""
        rng = np.random.default_rng(seed)
        eigs = np.concatenate([np.ones(m - len(outliers)), 1.0 + np.asarray(outliers)])
        return spd_with_spectrum(rng, rng.permutation(eigs))

    @pytest.mark.parametrize("outliers", [(1e4,), (1e4, 1e8), (1e4, 1e8, 1e12), (1e6, 1e6 + 1e3, 1e12)])
    @pytest.mark.parametrize("seed", range(2))
    def test_planted_cluster_and_outliers(self, seed, outliers):
        m = 12
        a = self.planted(seed, m, outliers)
        norm = np.linalg.norm(a, 2)
        ref_w, ref_q = np.linalg.eigh(a)
        gaps = np.diff(ref_w)
        for k in (0, 1, 2, m - 1):
            w, v = top_eig(a, k)
            assert v.shape == (m, k)
            assert np.abs(w - ref_w).max() <= 1e-12 * norm
            assert np.linalg.norm(a @ v - v * w[m - k :]) <= 1e-12 * norm
            assert np.allclose(v.T @ v, np.eye(k), rtol=0.0, atol=1e-12)
            # each simple outlier's vector: eigh's up to sign, to eps |a| / gap
            for j in range(m - min(k, len(outliers)), m):
                gap = min(gaps[j - 1], gaps[j] if j < m - 1 else np.inf)
                col, ref = v[:, j - (m - k)], ref_q[:, j]
                assert np.linalg.norm(col - np.sign(col @ ref) * ref) <= 1e-13 * norm / gap

    @pytest.mark.parametrize("m", [2, 7, 41, 85])
    @pytest.mark.parametrize("seed", range(2))
    def test_reads_the_symmetric_part(self, seed, m):
        a = np.random.default_rng(seed).standard_normal((m, m))
        ref_w, ref_q = np.linalg.eigh(sym(a))
        w, v = top_eig(a, 1)
        assert np.abs(w - ref_w).max() <= 1e-12 * np.abs(ref_w).max()
        assert np.linalg.norm(v[:, 0] - np.sign(v[:, 0] @ ref_q[:, -1]) * ref_q[:, -1]) <= 1e-10

    @pytest.mark.parametrize("k", [0, 1])
    def test_one_by_one(self, k):
        w, v = top_eig(np.array([[-2.5]]), k)
        assert np.array_equal(w, [-2.5])
        assert np.array_equal(v, np.ones((1, k)))

    def test_does_not_touch_its_input(self):
        a = rand_sym(np.random.default_rng(0), 6)
        saved = a.copy()
        top_eig(a, 2)
        assert np.array_equal(a, saved)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            top_eig(a, 1)


class TestKroneckerIdentities:
    @pytest.mark.parametrize("seed", range(3))
    def test_sandwich_swap(self, seed):
        """A'(Phi x Xi)A = A'(Xi x Phi)A for symmetric constraint matrices."""
        rng = np.random.default_rng(seed)
        m, n = 6, 10
        a = np.column_stack([rand_sym(rng, m).reshape(-1) for _ in range(n)])
        phi = rand_sym(rng, m)
        xi = rand_sym(rng, m)
        left = a.T @ np.kron(phi, xi) @ a
        right = a.T @ np.kron(xi, phi) @ a
        v = rng.standard_normal(n)
        assert np.allclose(left @ v, right @ v, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("m,k", [(4, 1), (6, 2), (8, 3)])
    def test_kron_rank_squares(self, m, k):
        """rank(X x X) = k^2 for rank-k symmetric X."""
        rng = np.random.default_rng(m * 10 + k)
        u = rng.standard_normal((m, k))
        x = u @ u.T
        sv = np.linalg.svd(np.kron(x, x), compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert rank == k * k

    @pytest.mark.parametrize("m,k", [(6, 1), (8, 2), (8, 4)])
    def test_congruence_rank_bound(self, m, k):
        """rank(A Y A') <= k for rank-k symmetric Y."""
        rng = np.random.default_rng(m * 10 + k)
        u = rng.standard_normal((m, k))
        y = u @ u.T
        a = rng.standard_normal((m - 2, m))
        sv = np.linalg.svd(a @ y @ a.T, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * max(sv[0], 1e-300)))
        assert rank <= k


def test_spectrum_planting_helper():
    rng = np.random.default_rng(0)
    eigs = np.array([0.5, 1.0, 2.0, 10.0])
    a = spd_with_spectrum(rng, eigs)
    assert np.allclose(np.linalg.eigvalsh(a), eigs, rtol=1e-12, atol=1e-12)
