import io
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from lorank.model import (
    BlockSymMatrix,
    PrimalDualPoint,
    SdpaParseError,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    build_problem,
    column_norms_sq,
    data_inf_norms,
    dimacs,
    dual_slack,
    load_sdpa,
    pd_errors,
    residuals,
    write_sdpa,
)

from conftest import (
    make_truss_problem,
    per_block_adjoint,
    per_block_forward,
    rand_spd,
    random_problem,
)

TOY = """\
* min x  subject to  x >= 1
1
1
1
1.0
0 1 1 1 1.0
1 1 1 1 1.0
"""


def toy_problem():
    return load_sdpa(io.StringIO(TOY))


class TestLoadSdpa:
    def test_toy_structure(self):
        prob = toy_problem()
        assert prob.n == 1
        assert prob.p == 1
        assert prob.block_dims == [1]
        assert prob.nu == 0
        # canonical mapping: A = -F, C = -F0, b = -c
        assert prob.b[0] == -1.0
        assert prob.A[0].toarray()[0, 0] == -1.0
        assert np.array_equal(prob.C[0], [[-1.0]])

    def test_toy_exact_solution_errors(self):
        prob = toy_problem()
        pt = PrimalDualPoint(
            np.array([1.0]),
            BlockSymMatrix([np.array([[1.0]])], np.zeros(0)),
            BlockSymMatrix([np.array([[0.0]])], np.zeros(0)),
        )
        errs = dimacs(prob, pt)
        assert errs.max() <= 1e-14

    def test_duplicate_entry_rejected(self):
        bad = TOY + "1 1 1 1 2.0\n"
        with pytest.raises(SdpaParseError, match="duplicate"):
            load_sdpa(io.StringIO(bad))

    def test_bad_index_rejected(self):
        bad = TOY + "1 1 2 2 2.0\n"
        with pytest.raises(SdpaParseError, match="out of range"):
            load_sdpa(io.StringIO(bad))

    def test_line_number_in_error(self):
        bad = TOY.replace("1 1 1 1 1.0", "1 1 1 oops 1.0")
        with pytest.raises(SdpaParseError, match="line 7"):
            load_sdpa(io.StringIO(bad))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2.7\n1\n1\n1.0 1.0\n", 1),                 # variable count
            ("1\n1.5\n1\n1.0\n", 2),                     # block count
            ("1\n2\n{2.5, -1}\n1.0\n", 3),               # block size
        ],
    )
    def test_non_integer_counts_rejected(self, text, line):
        with pytest.raises(SdpaParseError, match=f"line {line}: non-integer") as err:
            load_sdpa(io.StringIO(text))
        assert err.value.lineno == line

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("1.0\n0 1", "nan\n0 1", 5),                    # objective vector
            ("1 1 1 1 1.0", "1 1 1 1 inf", 7),              # entry value
            ("0 1 1 1 1.0", "0 1 1 1 -inf", 6),             # entry of C
        ],
    )
    def test_non_finite_numbers_rejected(self, old, new, line):
        assert TOY.count(old) == 1
        with pytest.raises(SdpaParseError, match=f"line {line}: non-finite") as err:
            load_sdpa(io.StringIO(TOY.replace(old, new)))
        assert err.value.lineno == line

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param("0 1 2 1 1.0\n0 1 2 1 3.0\n", "line 7: duplicate", id="duplicate"),
            pytest.param("0 1 1 2 1.0\n0 1 2 1 2.0\n", "line 7: duplicate", id="mirrored_duplicate"),
            pytest.param("0 1 3 1 1.0\n", r"line 6: index \(3,1\) out of range", id="out_of_range"),
        ],
    )
    def test_bad_objective_entry_rejected(self, entries, message):
        """F0 (the objective C) is symmetric by construction: each of its
        coordinates is given once, in either triangle, and inside the block."""
        text = "1\n1\n2\n1.0\n1 1 1 1 1.0\n" + entries
        with pytest.raises(SdpaParseError, match=message):
            load_sdpa(io.StringIO(text))

    @pytest.mark.parametrize(
        "extra, line, message",
        [
            pytest.param("1 1 1 1\n", 11, "expected 5 fields, got 4", id="four_fields"),
            pytest.param("1 1 1 1 1.0 2.0\n", 11, "expected 5 fields, got 6", id="six_fields"),
            pytest.param("x 1 1 1 1.0\n", 11, "malformed entry", id="bad_token"),
            pytest.param("1.0 1 1 1 1.0\n", 11, "malformed entry", id="float_matrix_number"),
            pytest.param("1 1 1 1 abc\n", 11, "malformed entry", id="bad_value"),
            pytest.param("1 1 1 1 nan\n", 11, "non-finite value 'nan'", id="nan"),
            pytest.param("1 1 1 1 1e400\n", 11, "non-finite value '1e400'", id="overflowing_value"),
            pytest.param("3 1 1 1 1.0\n", 11, "matrix number 3 out of range", id="matrix_number"),
            pytest.param("-1 1 1 1 1.0\n", 11, "matrix number -1 out of range", id="negative_matrix_number"),
            pytest.param("99999999999999999999 1 1 1 1.0\n", 11,
                         "matrix number 99999999999999999999 out of range", id="huge_matrix_number"),
            pytest.param("1 3 1 1 1.0\n", 11, "block number 3 out of range", id="block_number"),
            pytest.param("1 0 1 1 1.0\n", 11, "block number 0 out of range", id="block_zero"),
            pytest.param("1 1 3 1 1.0\n", 11, "index (3,1) out of range for block 1", id="index"),
            pytest.param("1 2 0 0 1.0\n", 11, "index (0,0) out of range for block 2", id="diagonal_index"),
            pytest.param("1 2 1 2 1.0\n", 11, "off-diagonal entry in diagonal block", id="off_diagonal"),
            pytest.param("1 2 1 1 2.0\n", 11, "duplicate entry for block 2 (1,1)", id="diagonal_duplicate"),
            pytest.param("1 1 2 1 2.0\n", 11, "duplicate entry for block 1 (2,1)", id="mirrored_duplicate"),
            # two bad lines of different kinds: the earlier one is reported
            pytest.param("1 1 1 1 nan\nx 1 1 1 1.0\n", 11, "non-finite value 'nan'", id="nan_then_malformed"),
            pytest.param("x 1 1 1 1.0\n1 1 1 1 nan\n", 11, "malformed entry", id="malformed_then_nan"),
            pytest.param("1 1 3 1 1.0\nx 1 1 1 1.0\n", 11, "index (3,1) out of range for block 1",
                         id="index_then_malformed"),
            pytest.param("1 2 1 1 2.0\n1 1 1\n", 11, "duplicate entry for block 2 (1,1)",
                         id="duplicate_then_fields"),
            pytest.param("1 1 1\n1 2 1 2 1.0\n", 11, "expected 5 fields, got 3", id="fields_then_off_diagonal"),
            pytest.param("1 2 1 2 1.0\n1 3 1 1 1.0\n", 11, "off-diagonal entry in diagonal block",
                         id="off_diagonal_then_block"),
            # one line that breaks several checks: the first check in order wins
            pytest.param("3 3 9 9 inf\n", 11, "non-finite value 'inf'", id="non_finite_first"),
            pytest.param("3 3 9 9 1.0\n", 11, "matrix number 3 out of range", id="matrix_before_block"),
            pytest.param("1 3 9 9 1.0\n", 11, "block number 3 out of range", id="block_before_index"),
            pytest.param("1 1 2 1 inf\n", 11, "non-finite value 'inf'", id="non_finite_before_duplicate"),
            # comment, blank and separator lines still count in the line numbers
            pytest.param("* comment\n\n   \n\"quoted\n1 1 1 1 inf\n", 15, "non-finite value 'inf'",
                         id="after_comments"),
            pytest.param("(1, 1, 2, 2, 3.0)\n{2, 1, 1, 1, 1.0}\n1 1 1 2 9\n", 13,
                         "duplicate entry for block 1 (1,2)", id="separators"),
            pytest.param("* x\n{ }\n", 12, "expected 5 fields, got 0", id="separators_only"),
            pytest.param("\n1,1,1,1,1.0,x\n", 12, "expected 5 fields, got 6", id="comma_fields"),
        ],
    )
    def test_entry_errors(self, extra, line, message):
        """Every check of the entry section reports the earliest bad line,
        with the first check it breaks, in the order of the cases above."""
        text = "2\n2\n2 -2\n1.0 -1.0\n0 1 1 1 1.0\n1 1 1 2 0.5\n2 1 2 2 -0.25\n0 2 1 1 -3.0\n1 2 1 1 1.0\n2 2 2 2 -1.0\n"
        with pytest.raises(SdpaParseError) as err:
            load_sdpa(io.StringIO(text + extra))
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.lineno == line

    def test_block_without_constraint_entry_is_a_parse_error(self):
        text = "1\n2\n1 -1\n1.0\n0 1 1 1 1.0\n1 2 1 1 1.0\n"
        with pytest.raises(SdpaParseError, match="block 0: no structurally nonzero"):
            load_sdpa(io.StringIO(text))

    def test_diagonal_block_only_is_a_parse_error(self):
        """An LP: its one block is diagonal, and the solvers need an LMI block."""
        text = "1\n1\n-2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n1 1 2 2 1.0\n"
        with pytest.raises(SdpaParseError, match="^no matrix block") as err:
            load_sdpa(io.StringIO(text))
        assert err.value.lineno is None

    def test_diagonal_block(self):
        text = """\
2
2
2 -2
1.0 -1.0
0 1 1 1 1.0
1 1 1 2 0.5
2 1 2 2 -0.25
0 2 1 1 -3.0
1 2 1 1 1.0
2 2 2 2 -1.0
"""
        prob = load_sdpa(io.StringIO(text))
        assert prob.block_dims == [2]
        assert prob.nu == 2
        assert np.allclose(prob.d, [3.0, 0.0])
        dd = prob.D.toarray()
        assert np.allclose(dd, [[-1.0, 0.0], [0.0, 1.0]])


class TestRoundTrip:
    @pytest.mark.parametrize("variant,g,tl", [("tru", 3, 0.0), ("vib", 3, 1e-4)])
    def test_truss_round_trip(self, variant, g, tl):
        _, _, prob = make_truss_problem(g, variant, t_lower=tl)
        buf = io.StringIO()
        write_sdpa(prob, buf, comment="round trip")
        again = load_sdpa(io.StringIO(buf.getvalue()))
        assert again.block_dims == prob.block_dims
        assert np.array_equal(again.b, prob.b)
        assert np.array_equal(again.d, prob.d)
        assert (again.D != prob.D).nnz == 0
        for i in range(prob.p):
            diff = again.A[i] - prob.A[i]
            assert diff.nnz == 0
            assert np.array_equal(again.C[i], prob.C[i])

    @pytest.mark.parametrize("name", ["tru5", "vib5", "two_blocks_and_diagonal"])
    def test_ladder_round_trip_is_exact(self, name):
        """Write, load and write again: the text repeats byte for byte, and
        the loaded CSR arrays, C, b and d are those of the written problem,
        b to the sign of its zeros (C and d leave their zeros out)."""
        if name == "two_blocks_and_diagonal":
            prob = random_problem(5, dims=(4, 3), n=7, nu=5)
            prob.b[:2] = [0.0, -0.0]
        else:
            prob = make_truss_problem(int(name[3:]), name[:3])[2]
        first = io.StringIO()
        write_sdpa(prob, first, comment=name)
        again = load_sdpa(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_sdpa(again, second, comment=name)
        assert second.getvalue() == first.getvalue()
        assert again.block_dims == prob.block_dims
        for got, want in [*zip(again.A, prob.A), (again.D, prob.D)]:
            for key in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, key), getattr(want, key))
        for got, want in [*zip(again.C, prob.C), (again.d, prob.d)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert again.b.tobytes() == prob.b.tobytes()

    def test_interleaved_blocks_keep_file_order_per_block(self):
        """Entry lines dealt round-robin over the three blocks load into the
        arrays of the file that lists each block's lines together."""
        prob = random_problem(6, dims=(4, 3), n=7, nu=5)
        buf = io.StringIO()
        write_sdpa(prob, buf)
        lines = buf.getvalue().splitlines()
        blocks: dict[str, list[str]] = {}
        for line in lines[4:]:
            blocks.setdefault(line.split()[1], []).append(line)
        dealt = [line for group in itertools.zip_longest(*blocks.values()) for line in group if line]
        assert len(blocks) == 3 and dealt != lines[4:]
        grouped, mixed = load_sdpa(io.StringIO(buf.getvalue())), load_sdpa(io.StringIO("\n".join(lines[:4] + dealt)))
        for got, want in [*zip(mixed.A, grouped.A), (mixed.D, grouped.D)]:
            for key in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, key), getattr(want, key))
        assert all(np.array_equal(got, want) for got, want in zip(mixed.C, grouped.C))
        assert np.array_equal(mixed.d, grouped.d)

    def test_seventeen_digit_values_survive(self):
        rng = np.random.default_rng(7)
        prob = random_problem(3, dims=(4,), n=6, nu=4)
        buf = io.StringIO()
        write_sdpa(prob, buf)
        again = load_sdpa(io.StringIO(buf.getvalue()))
        assert np.array_equal(again.b, prob.b)
        assert np.array_equal(
            np.sort(again.A[0].tocoo().data), np.sort(prob.A[0].tocoo().data)
        )


class TestOperators:
    def test_adjoint_zero(self):
        prob = random_problem(0, dims=(4, 3), n=8, nu=5)
        ay = apply_A_adjoint(prob, np.zeros(8))
        for blk in ay.blocks:
            assert np.all(blk == 0.0)

    def test_adjoint_unit_vector(self):
        prob = random_problem(1, dims=(4,), n=8, nu=5)
        ay = apply_A_adjoint(prob, np.eye(8)[0])
        a0 = prob.A[0].toarray()[:, 0].reshape(4, 4)
        assert np.allclose(ay.blocks[0], a0)

    def test_adjoint_matches_dense_sum(self, tru3):
        _, _, prob = tru3
        rng = np.random.default_rng(5)
        y = rng.standard_normal(prob.n)
        ay = apply_A_adjoint(prob, y)
        dense = np.zeros((13, 13))
        a = prob.A[0].toarray()
        for j in range(prob.n):
            dense += y[j] * a[:, j].reshape(13, 13)
        assert np.linalg.norm(ay.blocks[0] - dense) <= 1e-13 * max(1.0, np.linalg.norm(dense))

    def test_forward_zero(self):
        prob = random_problem(2, dims=(4,), n=8, nu=5)
        m = BlockSymMatrix([np.zeros((4, 4))], np.zeros(5))
        assert np.all(apply_A(prob, m) == 0.0)

    def test_forward_identity_gives_traces(self):
        prob = random_problem(3, dims=(4,), n=8, nu=0)
        m = BlockSymMatrix([np.eye(4)], np.zeros(0))
        out = apply_A(prob, m)
        a = prob.A[0].toarray()
        traces = [a[:, j].reshape(4, 4).trace() for j in range(8)]
        assert np.allclose(out, traces)

    def test_cached_operators_match_fresh(self, vib3):
        """The derived operators follow the data they were built from: on a
        problem with reordered variables and box rows they equal transposes,
        squares and column norms computed afresh."""
        _, _, base = vib3
        rng = np.random.default_rng(7)
        perm = rng.permutation(base.n)
        rows = rng.permutation(base.nu)
        prob = SdpProblem(
            list(base.block_dims),
            [sp.csr_matrix(a[:, perm]) for a in base.A],
            list(base.C),
            base.b[perm],
            sp.csr_matrix(base.D[rows][:, perm]),
            base.d[rows],
        )
        ops = prob.ops
        assert prob.ops is ops
        for i, a in enumerate(prob.A):
            assert np.array_equal(ops.a_norms_sq[i], column_norms_sq(a))
        d = prob.D.toarray()
        stacked = np.vstack([a.toarray() for a in prob.A] + [d])
        assert ops.stacked.format == "csr" and ops.stacked_t.format == "csr"
        assert np.array_equal(ops.stacked.toarray(), stacked)
        assert np.array_equal(ops.stacked_t.toarray(), stacked.T)
        assert ops.d_sq_t.format == "csr"
        assert np.array_equal(ops.d_sq_t.toarray(), (d * d).T)

    @pytest.mark.parametrize("nu", [0, 6])
    def test_stacked_maps_match_per_block(self, nu):
        """One product with [A_1; A_2; D] and its transpose gives the maps
        block by block, with and without linear rows."""
        prob = random_problem(21, dims=(5, 4), n=12, nu=nu)
        rng = np.random.default_rng(nu)
        for _ in range(5):
            y = rng.standard_normal(prob.n)
            blocks, lin = per_block_adjoint(prob, y)
            ay = apply_A_adjoint(prob, y)
            for got, ref in zip(ay.blocks, blocks):
                assert np.allclose(got, ref, rtol=1e-14, atol=1e-14)
            assert ay.lin.shape == (nu,) and np.allclose(ay.lin, lin, rtol=1e-14, atol=1e-14)

            m = BlockSymMatrix(
                [0.5 * (b + b.T) for b in (rng.standard_normal((5, 5)), rng.standard_normal((4, 4)))],
                rng.standard_normal(nu),
            )
            ref = per_block_forward(prob, m.blocks, m.lin)
            assert np.allclose(apply_A(prob, m), ref, rtol=1e-13, atol=1e-13 * np.linalg.norm(ref))

    @pytest.mark.parametrize("seed", range(4))
    def test_adjoint_identity(self, seed):
        """<A(M), y> = <M, A*(y)> including the linear parts."""
        prob = random_problem(seed + 10, dims=(5, 3), n=10, nu=6)
        rng = np.random.default_rng(seed + 100)
        for _ in range(25):
            y = rng.standard_normal(prob.n)
            m = BlockSymMatrix(
                [0.5 * (b + b.T) for b in (rng.standard_normal((5, 5)), rng.standard_normal((3, 3)))],
                rng.standard_normal(prob.nu),
            )
            lhs = float(apply_A(prob, m) @ y)
            rhs = m.dot(apply_A_adjoint(prob, y))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDimacs:
    def test_zero_point_err1(self, tru3):
        _, _, prob = tru3
        pt = PrimalDualPoint(
            np.zeros(prob.n),
            BlockSymMatrix([np.zeros((13, 13))], np.zeros(prob.nu)),
            BlockSymMatrix([np.zeros((13, 13))], np.zeros(prob.nu)),
        )
        errs = dimacs(prob, pt)
        expected = np.linalg.norm(prob.b) / (1.0 + np.abs(prob.b).max())
        assert errs.err1 == pytest.approx(expected, rel=1e-14)

    def test_perturbed_dual_matches_reference(self):
        """Dense reference implementation of all six measures."""
        prob = toy_problem()
        y = np.array([1.0 + 1e-3])
        pt = PrimalDualPoint(
            y,
            BlockSymMatrix([np.array([[1.0]])], np.zeros(0)),
            BlockSymMatrix([np.array([[0.0]])], np.zeros(0)),
        )
        errs = dimacs(prob, pt)
        # reference: data C = -1, A = -1, b = -1
        c, a, b = -1.0, -1.0, -1.0
        ref3 = abs(c - 0.0 - a * y[0]) / (1.0 + abs(c))
        assert errs.err3 == pytest.approx(ref3, rel=1e-14)
        pobj, dobj = c * 1.0, b * y[0]
        ref5 = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        assert errs.err5 == pytest.approx(ref5, rel=1e-14)
        assert errs.err1 == 0.0
        assert errs.err6 == 0.0

    def test_pd_errors_are_dimacs_measures(self, tru3):
        """The helper the PDAL stopping test reads gives err1, err4 and err5
        of the full measurement bit for bit."""
        _, _, prob = tru3
        rng = np.random.default_rng(4)
        for _ in range(3):
            y = rng.standard_normal(prob.n)
            x = BlockSymMatrix([rand_spd(rng, 13)], rng.random(prob.nu))
            pt = PrimalDualPoint(y, x, dual_slack(prob, y))
            e = dimacs(prob, pt)
            assert pd_errors(prob, pt) == (e.err1, e.err4, e.err5)

    def test_residuals_are_the_measured_ones(self, vib3):
        """dimacs keeps the residuals it measures: r_p = b - A(X) and
        R_d = C - A*(y) - S from the per-block oracle maps, with err1 and
        err3 their normalized norms and as_dict the six measures alone."""
        _, _, prob = vib3
        rng = np.random.default_rng(8)
        y = rng.standard_normal(prob.n)
        x = BlockSymMatrix([rand_spd(rng, m) for m in prob.block_dims], rng.random(prob.nu))
        s = BlockSymMatrix([rand_spd(rng, m) for m in prob.block_dims], rng.random(prob.nu))
        pt = PrimalDualPoint(y, x, s)
        errs = dimacs(prob, pt)
        rp, rd = residuals(prob, pt)
        assert np.array_equal(errs.rp, rp)
        assert all(np.array_equal(a, b) for a, b in zip(errs.rd.blocks + [errs.rd.lin], rd.blocks + [rd.lin]))
        want_rp = prob.b - per_block_forward(prob, x.blocks, x.lin)
        ay, ay_lin = per_block_adjoint(prob, y)
        want_rd = [c - sb - a for c, sb, a in zip(prob.C, s.blocks, ay)] + [prob.d - ay_lin - s.lin]
        assert np.allclose(rp, want_rp, rtol=1e-12, atol=1e-12 * np.linalg.norm(want_rp))
        for got, want in zip(rd.blocks + [rd.lin], want_rd):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))
        bnorm, cnorm = data_inf_norms(prob)
        assert errs.err1 == pytest.approx(np.linalg.norm(want_rp) / (1.0 + bnorm), rel=1e-12)
        rd_norm = np.sqrt(sum(np.sum(w**2) for w in want_rd))
        assert errs.err3 == pytest.approx(rd_norm / (1.0 + cnorm), rel=1e-12)
        assert list(errs.as_dict()) == [f"err{i}" for i in range(1, 7)]

    @staticmethod
    def cone_point(prob, x_block, s_block):
        return PrimalDualPoint(
            np.zeros(prob.n),
            BlockSymMatrix([x_block], np.ones(prob.nu)),
            BlockSymMatrix([s_block], np.ones(prob.nu)),
        )

    def test_cone_errors_on_an_indefinite_block(self, tru3):
        """err2 and err4 equal the eigvalsh-based measures when a block
        fails Cholesky."""
        _, _, prob = tru3
        bnorm, cnorm = data_inf_norms(prob)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rand_spd(rng, 13) - 30.0 * np.eye(13)
            s = rand_spd(rng, 13) - 25.0 * np.eye(13)
            errs = dimacs(prob, self.cone_point(prob, x, s))
            lx, ls = np.linalg.eigvalsh(x)[0], np.linalg.eigvalsh(s)[0]
            assert lx < 0 and ls < 0
            assert errs.err2 == pytest.approx(-lx / (1.0 + bnorm), rel=1e-12)
            assert errs.err4 == pytest.approx(-ls / (1.0 + cnorm), rel=1e-12)

    def test_cone_errors_are_zero_on_pd_blocks(self, tru3):
        _, _, prob = tru3
        rng = np.random.default_rng(6)
        tiny = np.diag(np.logspace(-14, 0, 13))
        for x, s in ((rand_spd(rng, 13), rand_spd(rng, 13)), (tiny, tiny)):
            errs = dimacs(prob, self.cone_point(prob, x, s))
            assert errs.err2 == 0.0 and errs.err4 == 0.0

    def test_all_nonnegative(self, tru3):
        _, _, prob = tru3
        rng = np.random.default_rng(3)
        y = rng.standard_normal(prob.n)
        x = BlockSymMatrix([np.eye(13)], np.ones(prob.nu))
        errs = dimacs(prob, PrimalDualPoint(y, x, dual_slack(prob, y)))
        for v in errs.as_dict().values():
            assert v >= 0.0 and np.isfinite(v)


class TestValidation:
    def test_no_matrix_block_rejected(self):
        with pytest.raises(ValueError, match="no matrix block"):
            build_problem([], [], [], np.array([1.0]), sp.csr_matrix(np.ones((2, 1))), np.ones(2))

    def test_zero_block_rejected(self):
        entries = [([], [], [], [])]
        c = [np.diag([1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match="nonzero"):
            build_problem([3], entries, c, np.array([1.0, 2.0]), sp.csr_matrix((0, 2)), np.zeros(0))

    @pytest.mark.parametrize(
        "c, message",
        [
            (np.array([[1.0, 2.0], [2.5, 1.0]]), "not symmetric"),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
            (np.eye(3), r"objective shape \(3, 3\) != \(2, 2\)"),
        ],
    )
    def test_bad_objective_rejected(self, c, message):
        entries = [([0], [0], [0], [1.0])]
        with pytest.raises(ValueError, match=f"block 0: .*{message}"):
            build_problem([2], entries, [c], np.array([1.0]), sp.csr_matrix((0, 1)), np.zeros(0))
        prob = build_problem([2], entries, [np.eye(2)], np.array([1.0]), sp.csr_matrix((0, 1)), np.zeros(0))
        prob.C[0] = c
        with pytest.raises(ValueError, match=message):
            prob.validate()
