import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.linalg import eigh

from lorank.truss import (
    GroundStructure,
    TrussSdpSpec,
    assemble_mass,
    assemble_sdp,
    assemble_stiffness,
    default_lambda_bar,
    gen_ground,
    instance_name,
    load_geometry,
    save_geometry,
    vanished_nodes,
    verify_solution,
)

TABLE_DIMS = {
    3: (36, 13, 72),
    5: (300, 41, 600),
    7: (1176, 85, 2352),
    9: (3240, 145, 6480),
}


class TestGroundStructure:
    def test_g2_combinatorics(self):
        gs = gen_ground(2, "tru")
        assert gs.n_bars == 6
        assert gs.ndof == 4

    @pytest.mark.parametrize("g", [3, 5])
    def test_counts(self, g):
        gs = gen_ground(g, "tru")
        n, m, lin = TABLE_DIMS[g]
        assert gs.n_bars == n
        assert gs.ndof == m - 1
        assert 2 * gs.n_bars == lin

    def test_left_column_fixed(self):
        gs = gen_ground(3, "tru")
        for v in range(9):
            assert gs.fixed[v] == (gs.nodes[v][0] == 0.0)

    def test_load_orientation(self):
        tru = gen_ground(3, "tru")
        vib = gen_ground(3, "vib")
        nz_tru = tru.load[tru.load != 0]
        nz_vib = vib.load[vib.load != 0]
        assert np.allclose(nz_tru, [-1.0])  # vertical, downward
        assert np.allclose(nz_vib, [1.0])   # horizontal
        assert np.count_nonzero(tru.load) == 1
        assert np.count_nonzero(vib.load) == 1

    def test_full_stiffness_positive_definite(self):
        gs = gen_ground(4, "tru")
        k1 = assemble_stiffness(gs, np.ones(gs.n_bars))
        assert np.linalg.eigvalsh(k1)[0] > 0

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            gen_ground(1, "tru")


# ---------------------------------------------------------------------------
# Straight-line oracles: one bar at a time, in bar order, with the generator's
# floating-point order, so the array assembly must match them bit for bit.
# ---------------------------------------------------------------------------


def oracle_ground(g):
    """Nodes, fixed flags, free-DOF numbering and bars of the g x g grid."""
    nodes = np.array([(ix, iy) for ix in range(g) for iy in range(g)], dtype=float)
    fixed = np.array([ix == 0 for ix in range(g) for _ in range(g)])
    dof_index = -np.ones((g * g, 2), dtype=int)
    ndof = 0
    for v in range(g * g):
        if not fixed[v]:
            dof_index[v] = [ndof, ndof + 1]
            ndof += 2
    bars = np.array([(a, b) for a in range(g * g) for b in range(a + 1, g * g)], dtype=int)
    return nodes, fixed, dof_index, bars


def oracle_bar(gs, i):
    """Free DOFs touched by bar i and the matching direction cosines."""
    na, nb = gs.bars[i]
    delta = gs.nodes[nb] - gs.nodes[na]
    full = np.array([-delta[0], -delta[1], delta[0], delta[1]]) / gs.lengths[i]
    dofs = np.concatenate([gs.dof_index[na], gs.dof_index[nb]])
    keep = dofs >= 0
    return dofs[keep], full[keep]


def oracle_bar_stiffness(gs, i):
    """Dense (1/l^2) gamma gamma' of bar i, entry (a, b) as (coeff gamma_a) gamma_b."""
    dofs, cos = oracle_bar(gs, i)
    coeff = 1.0 / gs.lengths[i] ** 2
    k = np.zeros((gs.ndof, gs.ndof))
    for a in range(len(dofs)):
        for b in range(a + 1):
            k[dofs[a], dofs[b]] = k[dofs[b], dofs[a]] = coeff * cos[a] * cos[b]
    return k


def oracle_bar_mass(gs, i, rho):
    out = np.zeros(gs.ndof)
    out[oracle_bar(gs, i)[0]] = rho * gs.lengths[i] / 2.0
    return out


def oracle_stiffness(gs, t):
    k = np.zeros((gs.ndof, gs.ndof))
    for i in range(gs.n_bars):
        dofs, cos = oracle_bar(gs, i)
        k[np.ix_(dofs, dofs)] += t[i] / gs.lengths[i] ** 2 * np.outer(cos, cos)
    return k


def oracle_mass(gs, t, rho, m0):
    diag = np.zeros(gs.ndof)
    for i in range(gs.n_bars):
        diag += t[i] * oracle_bar_mass(gs, i, rho)
    diag[gs.dof_index[(gs.g - 1) * gs.g + (gs.g - 1) // 2]] += m0
    return diag


def operator_column(prob, block, j):
    m = prob.block_dims[block]
    return prob.A[block][:, j].toarray().reshape(m, m)


@pytest.mark.parametrize("variant, g", [("tru", 3), ("tru", 4), ("vib", 3), ("vib", 4)])
class TestArrayAssemblyMatchesOracle:
    def test_ground_structure(self, variant, g):
        gs = gen_ground(g, variant)
        for got, want in zip((gs.nodes, gs.fixed, gs.dof_index, gs.bars), oracle_ground(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_stiffness_and_mass(self, variant, g):
        gs = gen_ground(g, variant)
        t = 3.0 * np.random.default_rng(g).random(gs.n_bars)
        assert np.array_equal(assemble_stiffness(gs, t), oracle_stiffness(gs, t))
        assert np.array_equal(assemble_mass(gs, t, 1.3, 0.7), oracle_mass(gs, t, 1.3, 0.7))

    def test_operator_columns(self, variant, g):
        gs = gen_ground(g, variant)
        spec = TrussSdpSpec(vibration=variant == "vib")
        prob = assemble_sdp(gs, spec)
        ones = np.ones(gs.n_bars)
        lam = eigh(oracle_stiffness(gs, ones), np.diag(oracle_mass(gs, ones, spec.rho, spec.m0)),
                   eigvals_only=True)[0]
        lam_bar = 0.01 * float(lam)
        if spec.vibration:
            assert default_lambda_bar(gs, spec) == lam_bar
        for j in range(gs.n_bars):
            kj = oracle_bar_stiffness(gs, j)
            want = np.zeros((gs.ndof + 1, gs.ndof + 1))
            want[1:, 1:] = -kj
            assert np.array_equal(operator_column(prob, 0, j), want)
            if spec.vibration:
                want = -kj + lam_bar * np.diag(oracle_bar_mass(gs, j, spec.rho))
                assert np.array_equal(operator_column(prob, 1, j), want)

    def test_vanished_nodes(self, variant, g):
        gs = gen_ground(g, variant)
        t = np.where(np.random.default_rng(g).random(gs.n_bars) < 0.1, 1.0, 1e-9)
        alive = np.zeros(len(gs.nodes), dtype=bool)
        for i, (a, b) in enumerate(gs.bars):
            alive[[a, b]] |= t[i] > 1e-4
        want = [v for v in range(len(gs.nodes)) if not gs.fixed[v] and not alive[v]]
        assert vanished_nodes(gs, t) == want


class TestBarStiffness:
    """Column j of the compliance operator is -K_j, the bar stiffness
    (1/l^2) gamma gamma' on the free DOFs, behind the leading row and column."""

    def find_bar(self, gs, a_coord, b_coord):
        for i, (a, b) in enumerate(gs.bars):
            pa, pb = tuple(gs.nodes[a]), tuple(gs.nodes[b])
            if {pa, pb} == {a_coord, b_coord}:
                return i
        raise AssertionError("bar not found")

    def stiffness(self, gs, i):
        a = operator_column(assemble_sdp(gs, TrussSdpSpec()), 0, i)
        assert not a[0].any() and not a[:, 0].any()
        return -a[1:, 1:]

    def test_horizontal_free_bar(self):
        gs = gen_ground(3, "tru")
        i = self.find_bar(gs, (1.0, 0.0), (2.0, 0.0))
        dense = self.stiffness(gs, i)
        # unit length, x-direction: entries +-1 on the two x components
        nz = dense[dense != 0.0]
        assert np.allclose(np.sort(np.abs(nz)), 1.0)
        assert len(nz) == 4

    def test_one_fixed_end(self):
        gs = gen_ground(3, "tru")
        i = self.find_bar(gs, (0.0, 0.0), (1.0, 0.0))
        assert np.count_nonzero(self.stiffness(gs, i)) == 1  # only the free x component

    def test_diagonal_bar_formula(self):
        gs = gen_ground(3, "tru")
        i = self.find_bar(gs, (1.0, 0.0), (2.0, 1.0))
        ell = np.sqrt(2.0)
        cos = np.array([-1.0, -1.0, 1.0, 1.0]) / ell
        dofs = np.concatenate([gs.dof_index[3], gs.dof_index[7]])  # nodes (1, 0) and (2, 1)
        expected = np.outer(cos, cos) / ell**2
        dense = self.stiffness(gs, i)
        assert np.allclose(dense[np.ix_(dofs, dofs)], expected, rtol=1e-14)
        assert np.count_nonzero(dense) == 16
        assert np.allclose(np.abs(expected), 0.25)

    def test_both_ends_fixed_is_empty(self):
        gs = gen_ground(3, "tru")
        i = self.find_bar(gs, (0.0, 0.0), (0.0, 1.0))
        assert assemble_sdp(gs, TrussSdpSpec()).A[0][:, i].nnz == 0

    def test_sparsity_bound(self, tru5):
        """Every constraint matrix keeps at most 16 nonzeros."""
        _, _, prob = tru5
        per_column = np.diff(prob.A[0].tocsc().indptr)
        assert per_column.max() <= 16

    def test_zero_length_rejected(self):
        gs = gen_ground(3, "tru")
        gs.lengths[5] = 0.0
        with pytest.raises(ValueError, match="bar 5 has zero length"):
            assemble_sdp(gs, TrussSdpSpec())


class TestAssembly:
    @pytest.mark.parametrize("g", [3, 5])
    def test_tru_dimensions(self, g):
        gs = gen_ground(g, "tru")
        prob = assemble_sdp(gs, TrussSdpSpec())
        n, m, lin = TABLE_DIMS[g]
        assert prob.n == n
        assert prob.block_dims == [m]
        assert prob.nu == lin

    def test_vib_dimensions(self):
        gs = gen_ground(3, "vib")
        prob = assemble_sdp(gs, TrussSdpSpec(vibration=True))
        assert prob.block_dims == [13, 12]

    def test_schur_complement_equivalence(self):
        """The compliance block is positive semidefinite exactly when the
        static compliance respects the bound."""
        gs = gen_ground(3, "tru")
        spec = TrussSdpSpec(gamma_compl=1.0)
        prob = assemble_sdp(gs, spec)
        rng = np.random.default_rng(2)

        def block_at(t):
            from lorank.model import apply_A_adjoint

            ay = apply_A_adjoint(prob, t)
            return prob.C[0] - ay.blocks[0]

        # generous volumes: compliance below the bound, block PSD
        t_good = 40.0 + 10.0 * rng.random(gs.n_bars)
        k = assemble_stiffness(gs, t_good)
        u = np.linalg.solve(k, gs.load)
        assert gs.load @ u <= spec.gamma_compl
        assert np.linalg.eigvalsh(block_at(t_good))[0] >= -1e-9

        # starved volumes: compliance exceeds the bound, block indefinite
        t_bad = 1e-3 * np.ones(gs.n_bars)
        k = assemble_stiffness(gs, t_bad)
        u = np.linalg.solve(k, gs.load)
        assert gs.load @ u > spec.gamma_compl
        assert np.linalg.eigvalsh(block_at(t_bad))[0] < 0

    def test_zero_volume_block_not_psd(self):
        gs = gen_ground(3, "tru")
        prob = assemble_sdp(gs, TrussSdpSpec())
        block = prob.C[0]  # t = 0 leaves only the constant part
        assert np.linalg.eigvalsh(block)[0] < 0

    def test_vib_lambda_zero_reduces_to_stiffness(self):
        gs = gen_ground(3, "vib")
        spec = TrussSdpSpec(vibration=True, lambda_bar=0.0)
        prob = assemble_sdp(gs, spec)
        a0 = operator_column(prob, 1, 0)
        assert np.allclose(a0, operator_column(prob, 0, 0)[1:, 1:])
        assert not prob.C[1].any()

    def test_default_lambda_bar_scale(self):
        gs = gen_ground(3, "vib")
        spec = TrussSdpSpec(vibration=True)
        lam_bar = default_lambda_bar(gs, spec)
        k1 = assemble_stiffness(gs, np.ones(gs.n_bars))
        mdiag = assemble_mass(gs, np.ones(gs.n_bars), spec.rho, spec.m0)
        lam_min = eigh(k1, np.diag(mdiag), eigvals_only=True)[0]
        assert lam_bar == pytest.approx(0.01 * lam_min)

    def test_mass_matrix_lumping(self):
        gs = gen_ground(3, "vib")
        diag = assemble_mass(gs, np.ones(gs.n_bars), rho=1.0, m0=0.0)
        # node (1,1): connected to all 8 other nodes
        node = 1 * 3 + 1
        dofs = gs.dof_index[node]
        total = 0.0
        for i, (a, b) in enumerate(gs.bars):
            if node in (a, b):
                total += gs.lengths[i] / 2.0
        assert diag[dofs[0]] == pytest.approx(total)
        assert diag[dofs[1]] == pytest.approx(total)


class TestVerification:
    def test_solved_tru3e_rank_one(self, tru3e, tru3e_ip_tight):
        gs, spec, _ = tru3e
        pt, rep = tru3e_ip_tight
        report = verify_solution(gs, spec, pt.y, pt.X.blocks[0])
        assert report["compliance_feasible"]
        assert report["dual_outliers"] == 1
        assert report["dual_gap_ratio"] >= 1e6
        assert not report["stiffness_singular"]

    def test_solved_tru3_approximate_rank(self, tru3, tru3_ip):
        gs, spec, _ = tru3
        pt, rep = tru3_ip
        report = verify_solution(gs, spec, pt.y, pt.X.blocks[0])
        vanished = report["vanished_nodes"]
        assert len(vanished) == 5
        # one dominant eigenvalue, trailing cluster at >= 1e-3 of it
        lam = np.array(report["dual_spectrum"])
        assert lam[1] / lam[0] >= 1e-3
        assert report["dual_outliers"] <= 1 + 2 * len(vanished)

    def test_compliance_at_solution(self, tru3, tru3_ip):
        gs, spec, _ = tru3
        pt, _ = tru3_ip
        report = verify_solution(gs, spec, pt.y)
        assert report["compliance"] <= spec.gamma_compl * (1 + 1e-4)

    def test_vib_pencil_at_solution(self, vib3, vib3_ip):
        gs, spec, _ = vib3
        pt, rep = vib3_ip
        report = verify_solution(gs, spec, pt.y, pt.X.blocks[1])
        assert report["vibration_feasible"]
        assert report["pencil_min_eig"] >= report["lambda_bar"] * (1 - 1e-4)

    def test_vanished_nodes_simple(self):
        gs = gen_ground(3, "tru")
        t = np.zeros(gs.n_bars)
        # keep exactly one bar alive
        t[0] = 1.0
        alive = set(gs.bars[0])
        vanished = vanished_nodes(gs, t)
        for v in vanished:
            assert v not in alive
            assert not gs.fixed[v]


class TestGeometrySidecar:
    def test_round_trip(self, tmp_path):
        gs = gen_ground(3, "vib")
        spec = TrussSdpSpec(vibration=True, t_lower=1e-4)
        path = tmp_path / "vib3e.geom.json"
        save_geometry(gs, spec, path)
        gs2, spec2 = load_geometry(path)
        assert gs2.g == gs.g
        assert gs2.variant == gs.variant
        assert np.array_equal(gs2.bars, gs.bars)
        assert np.allclose(gs2.load, gs.load)
        assert spec2 == spec

    def test_stores_only_the_generator_inputs(self, tmp_path):
        path = tmp_path / "tru3.geom.json"
        save_geometry(gen_ground(3, "tru"), TrussSdpSpec(), path)
        assert set(json.loads(path.read_text())) == {"g", "variant", "spec"}

    def test_older_sidecar_with_arrays_loads(self, tmp_path):
        """Sidecars once also held the arrays gen_ground rebuilds."""
        gs = gen_ground(3, "tru")
        spec = TrussSdpSpec(t_lower=1e-4)
        arrays = ("nodes", "fixed", "dof_index", "bars", "lengths", "load")
        payload = {"g": gs.g, "variant": gs.variant, "ndof": gs.ndof, "spec": asdict(spec)}
        payload.update({name: getattr(gs, name).tolist() for name in arrays})
        path = tmp_path / "tru3e.geom.json"
        path.write_text(json.dumps(payload, indent=1))
        gs2, spec2 = load_geometry(path)
        assert spec2 == spec and gs2.ndof == gs.ndof
        for name in arrays:
            assert np.array_equal(getattr(gs2, name), getattr(gs, name))

    def test_instance_names(self):
        assert instance_name("tru", 3, 0.0) == "tru3"
        assert instance_name("tru", 3, 1e-4) == "tru3e"
        assert instance_name("vib", 5, 1e-4) == "vib5e"
