"""Shared fixtures and independent dense oracles.

The oracle helpers here deliberately avoid the library's operator plumbing:
they assemble dense matrices with explicit Kronecker products and loops so
the matrix-free paths are checked against straight-line formula code.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from lorank.ip import IpConfig, ip_solve
from lorank.model import SdpProblem, apply_A_adjoint, build_problem
from lorank.pdal import OuterCtx, PdalConfig, pdal_solve, penalty_eval, z_matrix
from lorank.truss import TrussSdpSpec, assemble_sdp, gen_ground


def rand_sym(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return 0.5 * (a + a.T)


def rand_spd(rng: np.random.Generator, m: int, shift: float | None = None) -> np.ndarray:
    a = rng.standard_normal((m, m))
    s = a @ a.T
    return s + (m if shift is None else shift) * np.eye(m)


def spd_with_spectrum(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    m = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (q * np.asarray(eigs, dtype=float)) @ q.T


def rand_sparse_sym(rng: np.random.Generator, m: int, density: float = 0.4) -> np.ndarray:
    """Dense symmetric matrix whose lower-triangle entries are each drawn
    with probability ``density``, in row-major order; (0, 0) = 1 when none is."""
    a = np.zeros((m, m))
    for r in range(m):
        for c in range(r + 1):
            if rng.random() < density:
                a[r, c] = a[c, r] = rng.standard_normal()
    if not a.any():
        a[0, 0] = 1.0
    return a


def sym_entries(mats) -> tuple:
    """[(j, A_j)] as the (j, r, c, v) arrays that build_problem takes: the
    nonzeros of each lower triangle in row-major order."""
    parts = []
    for j, a in mats:
        r, c = np.nonzero(np.tril(a))
        parts.append((np.full(r.size, j, dtype=np.int64), r, c, a[r, c]))
    return tuple(np.concatenate(x) for x in zip(*parts))


def random_problem(
    seed: int, dims=(5,), n: int = 12, nu: int = 6, density: float = 0.4
) -> SdpProblem:
    rng = np.random.default_rng(seed)
    block_entries = [sym_entries((j, rand_sparse_sym(rng, m, density)) for j in range(n)) for m in dims]
    c_blocks = [rand_sparse_sym(rng, m, 0.6) for m in dims]
    b = rng.standard_normal(n)
    d_dense = np.zeros((nu, n))
    if nu:
        d_dense = rng.standard_normal((nu, n)) * (rng.random((nu, n)) < 0.5)
        # every column gets an entry so diagonal-term bases stay positive
        for j in range(n):
            if not d_dense[:, j].any():
                d_dense[rng.integers(nu), j] = 1.0
    d_vec = rng.standard_normal(nu) + 2.0
    return build_problem(list(dims), block_entries, c_blocks, b, sp.csr_matrix(d_dense), d_vec)


def dense_operator(prob: SdpProblem, i: int) -> np.ndarray:
    return prob.A[i].toarray()


def per_block_adjoint(prob: SdpProblem, y: np.ndarray):
    """The adjoint map one block at a time: ([A_i y as m_i x m_i], D y)."""
    blocks = [np.asarray(a @ y).reshape(m, m) for a, m in zip(prob.A, prob.block_dims)]
    return blocks, prob.D @ y


def per_block_forward(prob: SdpProblem, blocks, lin) -> np.ndarray:
    """The forward map one block at a time: sum_i A_i' vec(M_i) + D' lin."""
    out = prob.D.T @ lin
    for a, blk in zip(prob.A, blocks):
        out = out + a.T @ blk.ravel()
    return out


def dense_schur(prob: SdpProblem, w_blocks, lin_w2) -> np.ndarray:
    """Oracle for the condensed system matrix: explicit Kronecker assembly."""
    n = prob.n
    h = prob.D.toarray().T @ np.diag(lin_w2) @ prob.D.toarray()
    for i, w in enumerate(w_blocks):
        a = dense_operator(prob, i)
        h = h + a.T @ np.kron(w, w) @ a
    return h


def dense_pdal_hessian(prob: SdpProblem, r, xbars, zs, wbar_lin) -> np.ndarray:
    """Oracle for the augmented-Lagrangian Hessian."""
    n = prob.n
    h = r * np.eye(n) + prob.D.toarray().T @ np.diag(wbar_lin) @ prob.D.toarray()
    for i, (xb, z) in enumerate(zip(xbars, zs)):
        a = dense_operator(prob, i)
        h = h + 2.0 * a.T @ np.kron(xb, z) @ a
    return h


def aug_lagrangian_value(ctx: OuterCtx, y: np.ndarray) -> float:
    """F(y); only needed by derivative checks, the solver works with grad."""
    prob = ctx.prob
    ay = apply_A_adjoint(prob, y)
    val = float(ctx.b_min @ y) + 0.5 * ctx.r * float(np.sum((y - ctx.y_prox) ** 2))
    for i in range(prob.p):
        a = ay.blocks[i] - prob.C[i]
        z = z_matrix(a, ctx.pi_lmi)
        val += ctx.pi_lmi**2 * float(np.tensordot(ctx.x_blocks[i], z))
        val -= ctx.pi_lmi * float(np.trace(ctx.x_blocks[i]))
    v, _, _ = penalty_eval(ay.lin - prob.d, ctx.pi_lin)
    val += float(ctx.x_lin @ v)
    return val


def make_truss_problem(g: int, variant: str = "tru", t_lower: float = 0.0):
    gs = gen_ground(g, variant)
    spec = TrussSdpSpec(t_lower=t_lower, vibration=(variant == "vib"))
    return gs, spec, assemble_sdp(gs, spec)


# ---------------------------------------------------------------------------
# Session-scoped solves shared by solver, truss and acceptance tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tru3():
    return make_truss_problem(3, "tru")


@pytest.fixture(scope="session")
def tru3e():
    return make_truss_problem(3, "tru", t_lower=1e-4)


@pytest.fixture(scope="session")
def tru5():
    return make_truss_problem(5, "tru")


@pytest.fixture(scope="session")
def vib3():
    return make_truss_problem(3, "vib")


@pytest.fixture(scope="session")
def vib5():
    return make_truss_problem(5, "vib")


@pytest.fixture(scope="session")
def tru3_ip(tru3):
    _, _, prob = tru3
    return ip_solve(prob, IpConfig())


@pytest.fixture(scope="session")
def tru3e_ip(tru3e):
    _, _, prob = tru3e
    return ip_solve(prob, IpConfig())


@pytest.fixture(scope="session")
def tru5_ip(tru5):
    _, _, prob = tru5
    return ip_solve(prob, IpConfig())


@pytest.fixture(scope="session")
def tru5_ip_none(tru5):
    _, _, prob = tru5
    return ip_solve(prob, IpConfig(precond="none"))


@pytest.fixture(scope="session")
def vib3_ip(vib3):
    _, _, prob = vib3
    return ip_solve(prob, IpConfig())


@pytest.fixture(scope="session")
def tru3_pdal(tru3):
    _, _, prob = tru3
    return pdal_solve(prob, PdalConfig())


@pytest.fixture(scope="session")
def tru3e_pdal(tru3e):
    _, _, prob = tru3e
    return pdal_solve(prob, PdalConfig())


@pytest.fixture(scope="session")
def tru5_pdal(tru5):
    _, _, prob = tru5
    return pdal_solve(prob, PdalConfig())


@pytest.fixture(scope="session")
def vib3_pdal(vib3):
    _, _, prob = vib3
    return pdal_solve(prob, PdalConfig())


@pytest.fixture(scope="session")
def tru3e_ip_tight(tru3e):
    """High-accuracy run for the rank-structure checks; ends either optimal
    or at the numerical limit of float64."""
    _, _, prob = tru3e
    return ip_solve(prob, IpConfig(eps_dimacs=1e-12, max_iter=60))


@pytest.fixture(scope="session")
def tru3_ip_diag(tru3):
    """Dense-diagnostic run of the default kind (``cluster``, rank 1) for
    the conditioning-bound criterion."""
    _, _, prob = tru3
    return ip_solve(prob, IpConfig(diag=True))


@pytest.fixture(scope="session")
def tru3_pdal_diag(tru3):
    _, _, prob = tru3
    return pdal_solve(prob, PdalConfig(diag=True))
