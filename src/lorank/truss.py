"""Ground-structure truss topology SDP generator and solution verifier.

A g x g grid of nodes with unit spacing, the left column fixed, and every
node pair connected by a candidate bar of unit Young's modulus.  Bar volumes
t minimize total volume subject to a compliance bound, expressed through the
Schur-complement block

    [[gamma, -f'], [-f, K(t)]] >= 0,

with box constraints on t, and optionally a vibration constraint
K(t) - lambda_bar (M(t) + M0) >= 0.  The 'tru' family carries a unit
vertical point load at the middle node of the right column; the 'vib'
family differs only in the horizontal orientation of that load.

The assembled problems use the package's canonical dual view with y = t, so
the reported dual objective b'y equals minus the truss volume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .model import SdpProblem, build_problem


@dataclass
class GroundStructure:
    g: int
    variant: str
    nodes: np.ndarray        # (N, 2) coordinates
    fixed: np.ndarray        # (N,) bool, true for supported nodes
    dof_index: np.ndarray    # (N, 2) free-DOF numbering, -1 on fixed nodes
    ndof: int
    bars: np.ndarray         # (n_bars, 2) node pairs, first < second
    lengths: np.ndarray
    load: np.ndarray         # (ndof,)

    @property
    def n_bars(self) -> int:
        return len(self.bars)

    @cached_property
    def bar_dofs(self) -> np.ndarray:
        """(n_bars, 4) DOFs at each bar's ends, x and y of its first node
        then of its second; -1 on fixed nodes."""
        return self.dof_index[self.bars].reshape(-1, 4)

    @cached_property
    def bar_cosines(self) -> np.ndarray:
        """(n_bars, 4) direction cosines gamma matching :attr:`bar_dofs`."""
        delta = self.nodes[self.bars[:, 1]] - self.nodes[self.bars[:, 0]]
        return np.hstack([-delta, delta]) / self.lengths[:, None]


@dataclass
class TrussSdpSpec:
    gamma_compl: float = 1.0
    t_lower: float = 0.0
    t_upper: float = 1e4
    vibration: bool = False
    lambda_bar: float | None = None
    rho: float = 1.0
    m0: float = 1.0

    def validate(self):
        """Raise ValueError naming the first parameter out of its range."""
        for name in ("gamma_compl", "t_lower", "t_upper", "lambda_bar", "rho", "m0"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma_compl <= 0:
            raise ValueError("compliance bound gamma_compl must be positive")
        if not (0 <= self.t_lower < self.t_upper):
            raise ValueError("volume bounds must satisfy 0 <= t_lower < t_upper")
        if self.lambda_bar is not None and self.lambda_bar < 0:
            raise ValueError("vibration threshold lambda_bar must be nonnegative")
        if self.rho <= 0:
            raise ValueError("mass density rho must be positive")
        if self.m0 < 0:
            raise ValueError("nonstructural mass m0 must be nonnegative")


def gen_ground(g: int, variant: str = "tru") -> GroundStructure:
    """All-pairs ground structure on a g x g grid, left column fixed, unit
    point load at the middle node of the right column (vertical for tru,
    horizontal for vib)."""
    if g < 2:
        raise ValueError("grid size must be at least 2")
    if variant not in ("tru", "vib"):
        raise ValueError(f"unknown variant {variant!r}")
    nn = g * g
    ix, iy = np.divmod(np.arange(nn), g)
    nodes = np.column_stack([ix, iy]).astype(float)
    fixed = ix == 0
    ndof = 2 * int(np.count_nonzero(~fixed))
    dof_index = -np.ones((nn, 2), dtype=int)
    dof_index[~fixed] = np.arange(ndof).reshape(-1, 2)
    bars = np.column_stack(np.triu_indices(nn, 1))
    lengths = np.linalg.norm(nodes[bars[:, 1]] - nodes[bars[:, 0]], axis=1)
    load = np.zeros(ndof)
    direction = np.array([0.0, -1.0]) if variant == "tru" else np.array([1.0, 0.0])
    load[dof_index[(g - 1) * g + (g - 1) // 2]] = direction
    gs = GroundStructure(g, variant, nodes, fixed, dof_index, ndof, bars, lengths, load)
    k1 = assemble_stiffness(gs, np.ones(gs.n_bars))
    if np.linalg.eigvalsh(k1)[0] <= 0:
        raise ValueError("fully populated stiffness matrix is singular")
    return gs


def _stiffness_entries(gs: GroundStructure):
    """Lower triangles of the rank-one bar stiffnesses (1/l^2) gamma gamma'
    on the free DOFs, as arrays (bar, row, col, value); zeros included."""
    short = np.flatnonzero(gs.lengths <= 0)
    if short.size:
        raise ValueError(f"bar {short[0]} has zero length")
    a, b = np.tril_indices(4)
    coeff = 1.0 / gs.lengths**2
    val = coeff[:, None] * gs.bar_cosines[:, a] * gs.bar_cosines[:, b]
    row, col = gs.bar_dofs[:, a], gs.bar_dofs[:, b]
    free = (row >= 0) & (col >= 0)
    bar = np.broadcast_to(np.arange(gs.n_bars)[:, None], val.shape)
    return bar[free], row[free], col[free], val[free]


def assemble_stiffness(gs: GroundStructure, t: np.ndarray) -> np.ndarray:
    """K(t) = sum_i (t_i/l_i^2) gamma_i gamma_i', summed in bar order."""
    a, b = np.divmod(np.arange(16), 4)
    coeff = t / gs.lengths**2
    val = coeff[:, None] * (gs.bar_cosines[:, a] * gs.bar_cosines[:, b])
    row, col = gs.bar_dofs[:, a], gs.bar_dofs[:, b]
    free = (row >= 0) & (col >= 0)
    k = np.zeros((gs.ndof, gs.ndof))
    np.add.at(k, (row[free], col[free]), val[free])
    return k


def load_node_index(gs: GroundStructure) -> int:
    return (gs.g - 1) * gs.g + (gs.g - 1) // 2


def assemble_mass(gs: GroundStructure, t: np.ndarray, rho: float, m0: float) -> np.ndarray:
    """Diagonal of M(t) + M0: each bar lumps t rho l/2 on each free end DOF,
    summed in bar order; the nonstructural mass m0 sits on both components
    of the load node."""
    free = gs.bar_dofs >= 0
    per_bar = np.broadcast_to((t * (rho * gs.lengths / 2.0))[:, None], free.shape)
    diag = np.zeros(gs.ndof)
    np.add.at(diag, gs.bar_dofs[free], per_bar[free])
    diag[gs.dof_index[load_node_index(gs)]] += m0
    return diag


def default_lambda_bar(gs: GroundStructure, spec: TrussSdpSpec) -> float:
    """Scale-aware vibration threshold: 1% of the fundamental pencil
    eigenvalue of the fully populated structure t = 1."""
    ones = np.ones(gs.n_bars)
    k1 = assemble_stiffness(gs, ones)
    mdiag = assemble_mass(gs, ones, spec.rho, spec.m0)
    lam = eigh(k1, np.diag(mdiag), eigvals_only=True)
    return 0.01 * float(lam[0])


def assemble_sdp(gs: GroundStructure, spec: TrussSdpSpec) -> SdpProblem:
    """Volume minimization under the compliance bound, y = t, in dual-view
    data C - sum t_j A_j >= 0.

    Block 1 is [[gamma, -f'], [-f, K(t)]].  With ``spec.vibration`` block 2
    is K(t) - lambda_bar (M(t) + M0), so C2 = -lambda_bar M0 (the
    nonstructural mass on the load node)."""
    spec.validate()
    bar, row, col, val = _stiffness_entries(gs)
    nz = val != 0.0
    dims = [gs.ndof + 1]
    entries = [(bar[nz], row[nz] + 1, col[nz] + 1, -val[nz])]
    load = np.flatnonzero(gs.load)
    c1 = np.zeros((dims[0], dims[0]))
    c1[0, 0] = spec.gamma_compl
    c1[load + 1, 0] = c1[0, load + 1] = -gs.load[load]
    c_blocks = [c1]
    if spec.vibration:
        lam_bar = spec.lambda_bar if spec.lambda_bar is not None else default_lambda_bar(gs, spec)
        mass = spec.rho * gs.lengths[bar] / 2.0
        diag = row == col
        keep = nz | (diag & (mass != 0.0))
        dims.append(gs.ndof)
        vib = np.where(diag, lam_bar * mass, 0.0) - val
        entries.append((bar[keep], row[keep], col[keep], vib[keep]))
        c2 = np.zeros((gs.ndof, gs.ndof))
        load_dofs = gs.dof_index[load_node_index(gs)]
        c2[load_dofs, load_dofs] = -lam_bar * spec.m0
        c_blocks.append(c2)
    n = gs.n_bars
    eye = sp.identity(n, format="csr")
    d_mat = sp.vstack([eye, -eye], format="csr")
    d_vec = np.concatenate([np.full(n, spec.t_upper), np.full(n, -spec.t_lower)])
    return build_problem(dims, entries, c_blocks, -np.ones(n), d_mat, d_vec)


def vanished_nodes(gs: GroundStructure, t: np.ndarray, rel_tol: float = 1e-4) -> list[int]:
    """Free nodes all of whose incident bars vanished at the optimum.

    Interior solutions keep vanishing volumes slightly positive, so a bar
    counts as gone below rel_tol times the largest volume."""
    tmax = float(np.max(t)) if t.size else 0.0
    thresh = rel_tol * max(tmax, 1.0)
    alive = np.zeros(len(gs.nodes), dtype=bool)
    alive[gs.bars[t > thresh]] = True
    return np.flatnonzero(~gs.fixed & ~alive).tolist()


def verify_solution(
    gs: GroundStructure,
    spec: TrussSdpSpec,
    t: np.ndarray,
    dual_block: np.ndarray | None = None,
) -> dict:
    """Mechanical check of a volume vector: equilibrium compliance against
    the bound, pencil eigenvalue when the vibration constraint is active,
    and the spectrum of the supplied dual block."""
    t = np.asarray(t, dtype=float)
    k = assemble_stiffness(gs, t)
    report: dict = {"volume": float(t.sum())}
    try:
        lam_k = np.linalg.eigvalsh(k)
        singular = lam_k[0] <= 1e-12 * max(lam_k[-1], 1.0)
    except np.linalg.LinAlgError:
        singular = True
    report["stiffness_singular"] = bool(singular)
    if singular:
        u, *_ = np.linalg.lstsq(k, gs.load, rcond=None)
    else:
        u = np.linalg.solve(k, gs.load)
    compliance = float(gs.load @ u)
    report["compliance"] = compliance
    report["compliance_bound"] = spec.gamma_compl
    report["compliance_feasible"] = bool(compliance <= spec.gamma_compl * (1 + 1e-6) or singular)
    gone = vanished_nodes(gs, t)
    if spec.vibration:
        lam_bar = spec.lambda_bar if spec.lambda_bar is not None else default_lambda_bar(gs, spec)
        mdiag = assemble_mass(gs, t, spec.rho, spec.m0)
        # restrict the pencil to the surviving structure: on vanished nodes
        # both K and M are near-zero and the generalized eigenvalue is noise,
        # while a principal submatrix of K - lambda_bar (M + M0) >= 0 keeps
        # the guarantee intact
        alive = np.ones(gs.ndof, dtype=bool)
        alive[gs.dof_index[gone]] = False
        ka = k[np.ix_(alive, alive)]
        ma = mdiag[alive]
        pencil = eigh(ka, np.diag(ma), eigvals_only=True)
        slack_min = float(np.linalg.eigvalsh(k - lam_bar * np.diag(mdiag)).min())
        report["pencil_min_eig"] = float(pencil[0])
        report["lambda_bar"] = lam_bar
        report["vibration_slack_min_eig"] = slack_min
        report["vibration_feasible"] = bool(pencil[0] >= lam_bar * (1 - 1e-6))
    report["vanished_nodes"] = gone
    if dual_block is not None:
        lam = np.linalg.eigvalsh(0.5 * (dual_block + dual_block.T))[::-1]
        lam_max = max(abs(lam[0]), 1e-300)
        report["dual_spectrum"] = [float(v) for v in lam]
        report["dual_outliers"] = int(np.sum(lam > 1e-4 * lam_max))
        report["dual_rank_1e8"] = int(np.sum(lam > 1e-8 * lam_max))
        second = abs(lam[1]) if lam.size > 1 else 0.0
        report["dual_gap_ratio"] = float(lam[0] / second) if second > 0 else float("inf")
    return report


# ---------------------------------------------------------------------------
# Geometry sidecar so the verifier can run on a written instance
# ---------------------------------------------------------------------------


def save_geometry(gs: GroundStructure, spec: TrussSdpSpec, path) -> None:
    """Write the generator's inputs: ``g``, ``variant`` and the spec."""
    with open(path, "w") as fh:
        json.dump({"g": gs.g, "variant": gs.variant, "spec": asdict(spec)}, fh, indent=1)


def load_geometry(path) -> tuple[GroundStructure, TrussSdpSpec]:
    """Rebuild the ground structure with ``gen_ground``.  Older sidecars
    also hold its arrays, which are ignored: they came from ``gen_ground``."""
    with open(path) as fh:
        payload = json.load(fh)
    return gen_ground(payload["g"], payload["variant"]), TrussSdpSpec(**payload["spec"])


def instance_name(variant: str, g: int, t_lower: float) -> str:
    return f"{variant}{g}" + ("e" if t_lower > 0 else "")
