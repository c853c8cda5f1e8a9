"""SDP problem representation, SDPA file ingestion and DIMACS error measures.

One canonical in-memory form serves both solvers:

    dual view   : max  b'y   s.t.  sum_j y_j A_j^(i) + S_i = C_i  (S_i psd),
                                   D y + s_lin = d                (s_lin >= 0)
    primal view : min  sum_i C_i . X_i + d'x_lin
                  s.t. sum_i A_j^(i) . X_i + (D' x_lin)_j = b_j,  X psd, x_lin >= 0

The augmented Lagrangian solver works on the dual view through the residual
map A0(y) - C <= 0; the interior-point solver works on the primal/dual pair.
Linear constraints are always kept explicit in (D, d), never folded into an
LMI block.

Per-block constraint data is stored as the stacked operator ``A[i]``, a
scipy CSR matrix of shape (m_i^2, n) whose column j is vec(A_j^(i)).  This
gives O(nnz) operator applications without any n x m^2 dense intermediate.
The operators the solvers apply on every iteration are derived from it once
per problem (:class:`ConstraintOps`, ``SdpProblem.ops``); among them the map
[A_1; ...; A_p; D] over all blocks and the linear rows, so the adjoint and
the forward map each cost one sparse product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .linalg import is_pd, min_eig


@dataclass
class BlockSymMatrix:
    """Block-diagonal symmetric matrix: dense LMI blocks plus a diagonal
    linear block stored as a vector (empty when there is no linear part)."""

    blocks: list[np.ndarray]
    lin: np.ndarray

    def __add__(self, other: "BlockSymMatrix") -> "BlockSymMatrix":
        return BlockSymMatrix([a + b for a, b in zip(self.blocks, other.blocks)], self.lin + other.lin)

    def __sub__(self, other: "BlockSymMatrix") -> "BlockSymMatrix":
        return BlockSymMatrix([a - b for a, b in zip(self.blocks, other.blocks)], self.lin - other.lin)

    def __mul__(self, alpha: float) -> "BlockSymMatrix":
        return BlockSymMatrix([alpha * b for b in self.blocks], alpha * self.lin)

    __rmul__ = __mul__

    def dot(self, other: "BlockSymMatrix") -> float:
        """Frobenius inner product across all blocks including the linear one."""
        s = sum(float(np.vdot(a, b)) for a, b in zip(self.blocks, other.blocks))
        return s + float(self.lin @ other.lin)


@dataclass
class PrimalDualPoint:
    """Iterate (y, X, S): y the dual vector, X the primal block matrix with
    x_lin in ``X.lin``, S the dual slack with s_lin in ``S.lin``."""

    y: np.ndarray
    X: BlockSymMatrix
    S: BlockSymMatrix


@dataclass
class DimacsErrors:
    """The six standard normalized error measures; stopping means
    max(err1..err6) <= eps.  ``rp`` and ``rd`` keep the residuals of
    :func:`residuals` that err1 and err3 measure, for the IP's Newton
    system."""

    err1: float
    err2: float
    err3: float
    err4: float
    err5: float
    err6: float
    rp: np.ndarray | None = field(default=None, repr=False, compare=False)
    rd: BlockSymMatrix | None = field(default=None, repr=False, compare=False)

    def max(self) -> float:
        return max(self.err1, self.err2, self.err3, self.err4, self.err5, self.err6)

    def as_dict(self) -> dict:
        return {f"err{i}": getattr(self, f"err{i}") for i in range(1, 7)}


def column_norms_sq(a_op: sp.csr_matrix) -> np.ndarray:
    """diag(A'A): squared Frobenius norms of the per-variable matrices."""
    return np.asarray(a_op.multiply(a_op).sum(axis=0)).ravel()


class Support(NamedTuple):
    """The one index of a block's sparsity: each A_j restricted to the rows
    it touches, padded to the block's largest row count s (4 on truss data).
    The position (j, rows[j, l]) of a real entry l is where the low-rank
    factor G_u[j, c] = (A_j u)_c can be nonzero.

    rows : (n, s) the support rows of each A_j, ascending; padding repeats row 0
    sub  : (n, s, s) A_j on rows x rows, zero on the padding
    real : (n, s) true at the real, unpadded positions
    """

    rows: np.ndarray
    sub: np.ndarray
    real: np.ndarray


def block_supports(a_ops: Sequence[sp.csr_matrix], dims: Sequence[int]) -> list[Support]:
    """The :class:`Support` of every block, read from A_i' as CSR: the
    support rows of A_j are the columns c of its stored values (A_j)_{rc},
    and every row r is such a column too, since A_j is symmetric."""
    n = a_ops[0].shape[1] if a_ops else 0
    supports = []
    for a_op, m in zip(a_ops, dims):
        a = a_op.T.tocsr()
        j = np.repeat(np.arange(n), np.diff(a.indptr))
        r, c = np.divmod(a.indices, m)
        keys, slot = np.unique(j * m + c, return_inverse=True)  # the positions (j, c), sorted
        pos_j, pos_c = np.divmod(keys, m)
        counts = np.bincount(pos_j, minlength=n)
        local = np.arange(keys.size) - (np.cumsum(counts) - counts)[pos_j]
        rows = np.zeros((n, int(counts.max(initial=0))), dtype=np.intp)
        rows[pos_j, local] = pos_c
        sub = np.zeros(rows.shape + rows.shape[1:])
        np.add.at(sub, (j, local[np.searchsorted(keys, j * m + r)], local[slot.ravel()]), a.data)
        supports.append(Support(rows, sub, np.arange(rows.shape[1]) < counts[:, None]))
    return supports


@dataclass(frozen=True)
class ConstraintOps:
    """Fixed operators derived from the constraint data, built once per
    problem so the solve path never re-creates a transpose or a square.

    stacked    : [A_1; ...; A_p; D] as CSR of shape (sum m_i^2 + nu, n),
                 the adjoint map of all blocks and the linear rows
    stacked_t  : its transpose as CSR, the forward map
    a_norms_sq : per block, diag(A_i'A_i)
    d_sq_t     : (D o D)' as CSR, so d_sq_t @ w = diag(D' diag(w) D)
    supports   : per block, the :class:`Support` of its A_j (n s^2 floats),
                 the one sparsity index of the preconditioners' bases and
                 of the slot grid of their low-rank blocks
    slot_plans : the slot grids' layouts, one per recipe shape, filled by
                 the preconditioner builds (``precond._slot_plan``)
    """

    stacked: sp.csr_matrix
    stacked_t: sp.csr_matrix
    a_norms_sq: list[np.ndarray]
    d_sq_t: sp.csr_matrix
    supports: list[Support]
    slot_plans: dict = field(default_factory=dict)


class SdpaParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass
class SdpProblem:
    """Multi-block SDP data in the canonical form described in the module
    docstring.

    block_dims : LMI block sizes m_i
    A          : per block, CSR of shape (m_i^2, n); column j is vec(A_j^(i))
    C          : per block, the objective/offset matrix C_i as a dense
                 symmetric float64 array of shape (m_i, m_i)
    b          : length-n right-hand side of the primal / dual objective
    D, d       : explicit linear constraints D y + s_lin = d, s_lin >= 0
    """

    block_dims: list[int]
    A: list[sp.csr_matrix]
    C: list[np.ndarray]
    b: np.ndarray
    D: sp.csr_matrix
    d: np.ndarray
    _ops: ConstraintOps | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return int(self.b.size)

    @property
    def p(self) -> int:
        return len(self.block_dims)

    @property
    def nu(self) -> int:
        return int(self.d.size)

    @property
    def m_total(self) -> int:
        return int(sum(self.block_dims))

    @property
    def ops(self) -> ConstraintOps:
        """Derived constraint operators, built on first use; the problem
        data must not be modified afterwards."""
        if self._ops is None:
            stacked = sp.vstack(self.A + [self.D], format="csr")
            self._ops = ConstraintOps(
                stacked,
                stacked.T.tocsr(),
                [column_norms_sq(a) for a in self.A],
                self.D.multiply(self.D).T.tocsr(),
                block_supports(self.A, self.block_dims),
            )
        return self._ops

    def validate(self) -> None:
        """Consistency checks; raises ValueError on the first one that fails."""
        if not self.block_dims:
            raise ValueError("no matrix block: the problem needs at least one LMI block")
        if not len(self.block_dims) == len(self.A) == len(self.C):
            raise ValueError(f"block_dims, A and C have {len(self.block_dims)}, {len(self.A)} and {len(self.C)} entries")
        for i, (m, a) in enumerate(zip(self.block_dims, self.A)):
            if a.shape != (m * m, n := self.n):
                raise ValueError(f"block {i}: operator shape {a.shape} != ({m * m}, {n})")
            if a.nnz == 0:
                raise ValueError(f"block {i}: no structurally nonzero constraint matrix")
            c = self.C[i]
            if c.shape != (m, m):
                raise ValueError(f"block {i}: objective shape {c.shape} != ({m}, {m})")
            if not np.isfinite(c).all():
                raise ValueError(f"block {i}: objective has a non-finite entry")
            if not np.array_equal(c, c.T):
                raise ValueError(f"block {i}: objective is not symmetric")
        if self.D.shape != (self.nu, self.n):
            raise ValueError(f"linear block shape {self.D.shape} != ({self.nu}, {self.n})")


def apply_A_adjoint(prob: SdpProblem, y: np.ndarray) -> BlockSymMatrix:
    """Adjoint map: block i is sum_j y_j A_j^(i); linear part is D y.

    One sparse product; the blocks and the linear part are views into its
    result."""
    v = prob.ops.stacked @ y
    blocks = []
    start = 0
    for m in prob.block_dims:
        blocks.append(v[start : start + m * m].reshape(m, m))
        start += m * m
    return BlockSymMatrix(blocks, v[start:])


def apply_A(prob: SdpProblem, m: BlockSymMatrix) -> np.ndarray:
    """Forward map: component j is sum_i A_j^(i) . M_i (+ (D' m.lin)_j).

    One sparse product.  Each A_j is symmetric, so a block enters through
    its symmetric part."""
    return prob.ops.stacked_t @ np.concatenate([b.ravel() for b in m.blocks] + [m.lin])


def residuals(prob: SdpProblem, pt: PrimalDualPoint) -> tuple[np.ndarray, BlockSymMatrix]:
    """Primal residual r_p = b - A(X) and dual residual R_d = C - A*(y) - S."""
    rp = prob.b - apply_A(prob, pt.X)
    ay = apply_A_adjoint(prob, pt.y)
    rd = BlockSymMatrix(
        [c - s - a for c, s, a in zip(prob.C, pt.S.blocks, ay.blocks)],
        prob.d - ay.lin - pt.S.lin,
    )
    return rp, rd


def dual_slack(prob: SdpProblem, y: np.ndarray) -> BlockSymMatrix:
    """S(y) = C - A0(y) blockwise, with linear slack d - D y."""
    ay = apply_A_adjoint(prob, y)
    blocks = [c - a for c, a in zip(prob.C, ay.blocks)]
    return BlockSymMatrix(blocks, prob.d - ay.lin)


def data_inf_norms(prob: SdpProblem) -> tuple[float, float]:
    """(max |b|, max |entry of C and d|) used in the DIMACS normalizations."""
    bnorm = float(np.abs(prob.b).max()) if prob.b.size else 0.0
    cnorm = max(
        [float(np.abs(c).max()) for c in prob.C]
        + [float(np.abs(prob.d).max()) if prob.d.size else 0.0]
    )
    return bnorm, cnorm


def objective_values(prob: SdpProblem, pt: PrimalDualPoint) -> tuple[float, float]:
    """(primal C.X + d'x_lin, dual b'y)."""
    pobj = sum(float(np.vdot(c, x)) for c, x in zip(prob.C, pt.X.blocks)) + float(prob.d @ pt.X.lin)
    return float(pobj), float(prob.b @ pt.y)


def block_min_eigs(m: BlockSymMatrix) -> list[float]:
    """Smallest eigenvalue of each LMI block."""
    return [min_eig(b) for b in m.blocks]


def _cone_violation(m: BlockSymMatrix, block_min: list[float] | None = None) -> float:
    """max(0, -lambda_min) over the blocks and the linear part.  ``block_min``
    holds the blocks' smallest eigenvalues when they are already known;
    without it a block that passes Cholesky counts no violation, and only
    the blocks that fail are eigen-solved."""
    if block_min is None:
        block_min = [0.0 if is_pd(b) else min_eig(b) for b in m.blocks]
    lam = min(block_min + ([float(m.lin.min())] if m.lin.size else []))
    return max(0.0, -lam)


def pd_errors(
    prob: SdpProblem, pt: PrimalDualPoint, s_eigs: list[float] | None = None
) -> tuple[float, float, float]:
    """DIMACS err1, err4 and err5 of :func:`dimacs` alone: primal
    infeasibility, dual cone violation and the normalized duality gap.
    ``s_eigs`` are the smallest eigenvalues of the LMI blocks of pt.S when
    the caller has them."""
    rp = prob.b - apply_A(prob, pt.X)
    return _pd_errors(pt, rp, *data_inf_norms(prob), *objective_values(prob, pt), s_eigs)


def _pd_errors(
    pt: PrimalDualPoint,
    rp: np.ndarray,
    bnorm: float,
    cnorm: float,
    pobj: float,
    dobj: float,
    s_eigs: list[float] | None,
) -> tuple[float, float, float]:
    err1 = float(np.linalg.norm(rp)) / (1.0 + bnorm)
    err4 = _cone_violation(pt.S, s_eigs) / (1.0 + cnorm)
    err5 = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return err1, err4, err5


def dimacs(prob: SdpProblem, pt: PrimalDualPoint, s_eigs: list[float] | None = None) -> DimacsErrors:
    """Six standard DIMACS measures for the point (X, y, S).

    err1/err2 are primal feasibility and cone violation, err3/err4 the dual
    counterparts, err5 the (absolute) normalized duality gap and err6 the
    normalized complementarity X.S.  ``s_eigs`` are the smallest eigenvalues
    of the LMI blocks of pt.S when the caller has them.  The result keeps
    the point's :func:`residuals`.
    """
    bnorm, cnorm = data_inf_norms(prob)
    pobj, dobj = objective_values(prob, pt)
    rp, rd = residuals(prob, pt)
    err1, err4, err5 = _pd_errors(pt, rp, bnorm, cnorm, pobj, dobj, s_eigs)

    err2 = _cone_violation(pt.X) / (1.0 + bnorm)

    rd2 = sum(float(np.sum(r**2)) for r in rd.blocks) + float(np.sum(rd.lin**2))
    err3 = float(np.sqrt(rd2)) / (1.0 + cnorm)

    err6 = abs(pt.X.dot(pt.S)) / (1.0 + abs(pobj) + abs(dobj))
    return DimacsErrors(err1, err2, err3, err4, err5, err6, rp, rd)


# ---------------------------------------------------------------------------
# SDPA sparse format (.dat-s)
# ---------------------------------------------------------------------------
#
# File semantics:  min c'x  s.t.  sum_j x_j F_j - F0 >= 0 (blockwise),
# negative block sizes denoting diagonal blocks.  The canonical in-memory
# problem is the dual view  max b'y, C - A0(y) >= 0, D y <= d  obtained by
#
#     A_j = -F_j,  C = -F0,  b = -c,
#     D[k, j] = -(F_j)_kk,  d[k] = -(F0)_kk   for diagonal-block rows k,
#
# so that y equals the file's variable x and the file's optimal value equals
# -b'y.


_SEPARATORS = str.maketrans(",(){}", "     ")
# entry lines split at once: longer chunks save little time and grow the resident memory
_ENTRY_CHUNK = 256


def _sdpa_tokens(lines: list[str]) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in '*"':
            continue
        # most lines have no separator, and five membership tests are faster
        # than one translate
        if "," in line or "(" in line or ")" in line or "{" in line or "}" in line:
            line = line.translate(_SEPARATORS)
        yield lineno, line.split()


def load_sdpa(path_or_text) -> SdpProblem:
    """Read an SDPA sparse file into the canonical problem form.

    Accepts a filesystem path or a file-like object.  Raises
    :class:`SdpaParseError` on malformed input, with a line number where
    one line is at fault: a bad token, a non-integer count or block size,
    a non-finite number, a duplicate entry within one matrix.  Data that
    parses but fails :meth:`SdpProblem.validate` raises it without one.

    The entry lines are read a column at a time: one split, one ``int``
    conversion of the four index fields and one ``float`` conversion of the
    values, and every check as a mask over the lines; only a section that
    does not convert so is read again a line at a time.  The
    error names the earliest bad line, and of its faults the first in the
    order field count, token, finiteness, matrix, block and index ranges,
    diagonal-block shape, duplicate (the second occurrence is the bad line).
    """
    if hasattr(path_or_text, "read"):
        text = path_or_text.read()
    else:
        with open(path_or_text, "r") as fh:
            text = fh.read()

    lines = text.splitlines()
    del text  # the text, its lines and the entry rows are freed once read
    stream = _sdpa_tokens(lines)
    end = 0  # the number of the last line read

    def take(count: int, what: str, integer: bool = False) -> list[float]:
        nonlocal end
        vals: list[float] = []
        while len(vals) < count:
            try:
                end, toks = next(stream)
            except StopIteration:
                raise SdpaParseError(f"unexpected end of file while reading {what}")
            try:  # the line at once; a line that fails is read a token at a time
                line = np.array(toks, dtype=float)
                if np.isfinite(line).all() and not (integer and (line % 1).any()):
                    vals += line.tolist()
                    continue
            except ValueError:
                pass
            for t in toks:
                try:
                    v = float(t)
                except ValueError:
                    raise SdpaParseError(f"bad token {t!r} in {what}", end)
                if integer and not v.is_integer():
                    raise SdpaParseError(f"non-integer {t!r} in {what}", end)
                if not math.isfinite(v):
                    raise SdpaParseError(f"non-finite {t!r} in {what}", end)
                vals.append(v)
        if len(vals) > count:
            raise SdpaParseError(f"too many values for {what}", end)
        return vals

    nvar = int(take(1, "variable count", integer=True)[0])
    if nvar < 1:
        raise SdpaParseError("variable count must be >= 1")
    nblocks = int(take(1, "block count", integer=True)[0])
    if nblocks < 1:
        raise SdpaParseError("block count must be >= 1")
    sizes = [int(v) for v in take(nblocks, "block structure", integer=True)]
    cvec = np.array(take(nvar, "objective vector"))

    mat_blocks = [(k, s) for k, s in enumerate(sizes) if s > 0]
    if any(s == 0 for s in sizes):
        raise SdpaParseError("zero block size in block structure")
    dims = [s for _, s in mat_blocks]

    # the entry lines after the header, without blank and comment lines
    rows = list(map(str.strip, lines[end:]))
    body = " ".join(rows)
    kept = range(len(rows))  # entry line i is file line end + 1 + kept[i]
    if not all(rows) or "*" in body or '"' in body:
        kept = [i for i, s in enumerate(rows) if s[:1] not in '*"']
        rows = [rows[i] for i in kept]
    if any(sep in body for sep in ",(){}"):
        rows = [s.translate(_SEPARATORS) for s in rows]
    del body, lines, stream
    # _ENTRY_CHUNK lines at a time, each chunk split once with a ";" between
    # lines: every sixth token is one exactly when each line has five fields
    # (a ";" inside a line fails to convert)
    n = len(rows)
    idx, val = np.zeros((4, n), dtype=np.int64), np.zeros(n)
    fields, malformed = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    try:
        for a in range(0, n, _ENTRY_CHUNK):
            toks, k = " ; ".join(rows[a : a + _ENTRY_CHUNK]).split(), min(_ENTRY_CHUNK, n - a)
            if len(toks) != 6 * k - 1 or toks[5::6].count(";") != k - 1:
                raise ValueError("a line without five fields")
            idx[:, a : a + k] = np.array([toks[f::6] for f in range(4)], dtype=np.int64)
            val[a : a + k] = np.array(toks[4::6], dtype=float)
    except (ValueError, OverflowError):
        # read the lines one at a time; a bad one keeps zeros, an index
        # beyond int64 is clamped
        for i, t in enumerate(map(str.split, rows)):
            fields[i] = len(t) != 5
            try:
                idx[:, i], val[i] = [min(max(int(x), -(2**62)), 2**62) for x in t[:4]], float(t[4])
            except (ValueError, IndexError):
                malformed[i] = True
    matno, blkno, ii, jj = idx
    size = np.array(sizes)[np.clip(blkno - 1, 0, nblocks - 1)]
    hi, lo = np.maximum(ii, jj), np.minimum(ii, jj)
    order = np.lexsort((lo, hi, blkno, matno))  # stable: a key's first line comes first
    duplicate = np.zeros(n, dtype=bool)
    duplicate[order[1:]] = np.logical_and.reduce([np.diff(key[order]) == 0 for key in (matno, blkno, hi, lo)])
    # the checks in the order of their messages below
    checks = np.array([fields, malformed, ~np.isfinite(val), (matno < 0) | (matno > nvar),
                       (blkno < 1) | (blkno > nblocks), (lo < 1) | (hi > np.abs(size)),
                       (size < 0) & (ii != jj), duplicate]).reshape(8, n)
    bad = checks.any(axis=0)
    if bad.any():
        first = int(bad.argmax())
        check = int(checks[:, first].argmax())
        t = rows[first].split()
        if check < 2:
            message = "malformed entry" if check else f"expected 5 fields, got {len(t)}"
        else:
            m, b, i, j = map(int, t[:4])
            message = (f"non-finite value {t[4]!r}", f"matrix number {m} out of range",
                       f"block number {b} out of range", f"index ({i},{j}) out of range for block {b}",
                       "off-diagonal entry in diagonal block", f"duplicate entry for block {b} ({i},{j})")[check - 2]
        raise SdpaParseError(message, end + 1 + kept[first])
    del rows

    # entries in file order, each at its lower-triangle (hi, lo); A_j = -F_j, C = -F0
    k, hi, lo, v = blkno - 1, hi - 1, lo - 1, -val
    a_entries, c_mats = [], []
    by_block = np.argsort(k, kind="stable")  # file order within each block
    cut = np.searchsorted(k[by_block], np.arange(nblocks + 1))
    for kb, m in mat_blocks:
        sel = by_block[cut[kb] : cut[kb + 1]]
        j, r, c, vb = matno[sel] - 1, hi[sel], lo[sel], v[sel]
        obj = j < 0
        a_entries.append((j[~obj], r[~obj], c[~obj], vb[~obj]))
        cm = np.zeros((m, m))
        cm[r[obj], c[obj]] = cm[c[obj], r[obj]] = vb[obj]
        c_mats.append(cm)

    # diagonal blocks: row offset[k] + i - 1 of the linear part
    offset = np.cumsum([0] + [max(-s, 0) for s in sizes])
    pos = offset[k] + hi
    obj, lin = (size < 0) & (matno == 0), (size < 0) & (matno > 0)
    d_vec = np.zeros(offset[-1])
    d_vec[pos[obj]] = v[obj]
    d_mat = sp.csr_matrix((v[lin], (pos[lin], matno[lin] - 1)), shape=(offset[-1], nvar))
    try:
        return build_problem(dims, a_entries, c_mats, -cvec, d_mat, d_vec)
    except ValueError as exc:
        raise SdpaParseError(str(exc)) from exc


def write_sdpa(prob: SdpProblem, path_or_buf, comment: str | None = None) -> None:
    """Write the problem in SDPA sparse format; inverse of :func:`load_sdpa`.

    Values are printed with 17 significant digits so a round-trip reproduces
    the coordinate data bit-exactly.  Each block lists F0 = -C and then the
    F_j = -A_j in the order of j, each matrix's upper triangle row by row
    without its zeros.  A block's lines are one ``%`` format over its
    columns.
    """
    lines = [f"* {line}" for line in comment.splitlines()] if comment else []
    sizes = list(prob.block_dims) + ([-prob.nu] if prob.nu else [])
    lines += [str(prob.n), str(len(sizes)), " ".join(map(str, sizes)), " ".join(map("%.17g".__mod__, (-prob.b).tolist()))]
    entries = []
    for blkno, (m, cm, a) in enumerate(zip(prob.block_dims, prob.C, prob.A), start=1):
        r, c = np.nonzero(np.tril(cm))
        coo = a.tocoo()  # row r m + c of column j holds (A_j)_rc
        ar, ac = np.divmod(coo.row, m)
        low = np.flatnonzero(ar >= ac)
        low = low[np.lexsort((ac[low], ar[low], coo.col[low]))]
        matno = np.r_[np.zeros(r.size, dtype=np.int64), coo.col[low] + 1]
        entries.append(_entry_text(blkno, matno, np.r_[r, ar[low]], np.r_[c, ac[low]], np.r_[cm[r, c], coo.data[low]]))
    if prob.nu:
        coo = prob.D.tocoo()
        order = np.lexsort((coo.row, coo.col))
        k = np.r_[np.arange(prob.nu), coo.row[order]]
        matno = np.r_[np.zeros(prob.nu, dtype=np.int64), coo.col[order] + 1]
        entries.append(_entry_text(prob.p + 1, matno, k, k, np.r_[prob.d, coo.data[order]]))
    text = "\n".join(lines) + "\n" + "".join(entries)
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def _entry_text(blkno: int, matno, r, c, v) -> str:
    """SDPA lines of one block, each ending in a newline: the entry -v of
    matrix ``matno`` at the lower-triangle (r, c), written as its
    upper-triangle mirror; zeros are left out."""
    keep = v != 0.0
    args = [None] * (4 * int(keep.sum()))
    for f, col in enumerate((matno[keep], c[keep] + 1, r[keep] + 1, -v[keep])):
        args[f::4] = col.tolist()
    return f"%d {blkno} %d %d %.17g\n" * (len(args) // 4) % tuple(args)


def block_operator(n: int, m: int, j, r, c, v) -> sp.csr_matrix:
    """The stacked (m^2, n) operator of one block from the lower triangles of
    its matrices: entry v of A_j at (r, c), r >= c, with no coordinate given
    twice.  Each off-diagonal entry is mirrored to (c, r); column j is
    vec(A_j), and a variable without entries gets a zero column."""
    j, r, c = (np.asarray(x, dtype=np.int64) for x in (j, r, c))
    v = np.asarray(v, dtype=float)
    off = r != c
    rows = np.concatenate([r * m + c, c[off] * m + r[off]])
    return sp.csr_matrix(
        (np.concatenate([v, v[off]]), (rows, np.concatenate([j, j[off]]))), shape=(m * m, n)
    )


def build_problem(
    block_dims: Sequence[int],
    block_entries: Sequence[tuple],
    c_blocks: Sequence[np.ndarray],
    b: np.ndarray,
    D: sp.spmatrix,
    d: np.ndarray,
) -> SdpProblem:
    """The validated problem; ``block_entries`` holds per block the arrays
    (j, r, c, v) of :func:`block_operator`."""
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    a_ops = [block_operator(b.size, m, *ent) for m, ent in zip(block_dims, block_entries)]
    c_blocks = [np.asarray(c, dtype=float) for c in c_blocks]
    prob = SdpProblem(list(block_dims), a_ops, c_blocks, b, sp.csr_matrix(D), d)
    prob.validate()
    return prob
