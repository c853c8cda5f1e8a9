"""The scaffold both drivers share: the settings they both read and the error
for a rejected one, the run record each solve keeps (CG gate, dense
diagnostics) and its report (per-iteration trace, spectra, JSON/CSV)."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np
import scipy

from . import _threads
from . import precond as pc
from .model import DimacsErrors, PrimalDualPoint, SdpProblem, objective_values
from .pcg import PcgReport

# Largest n for which a solve with ``diag`` forms the dense n x n Newton
# matrix of each iteration for its diagnostics.
DIAG_LIMIT = 400

CSV_COLUMNS = [
    "instance",
    "solver",
    "precond",
    "status",
    "iterations",
    "cg_iterations",
    "cpu_seconds",
    "cpu_per_iter",
    "primal_objective",
    "dual_objective",
    "dimacs_max",
    "spectrum_gap",
]


def spectrum_summary(blocks: Sequence[np.ndarray]) -> list[dict]:
    """Per-block eigenvalue summary: top three, median, top/second ratio."""
    out = []
    for i, b in enumerate(blocks):
        lam = np.linalg.eigvalsh(0.5 * (b + b.T))[::-1]  # descending
        top = [float(v) for v in lam[:3]]
        second = abs(lam[1]) if lam.size > 1 else 0.0
        gap = float(lam[0] / second) if second > 0 else float("inf")
        out.append(
            {
                "block": i,
                "top": top,
                "median": float(np.median(lam)),
                "gap_ratio": gap,
            }
        )
    return out


@dataclass
class SolverConfig:
    """The settings both drivers read.  ``IpConfig`` and ``PdalConfig`` set
    their solver name, preconditioner kinds and CG tolerance floor, and
    the defaults that differ: the iteration cap and the preconditioner."""

    SOLVER: ClassVar[str]
    KINDS: ClassVar[tuple[str, ...]]
    CG_FLOOR: ClassVar[float]        # floor of pcg.cg_tolerance's schedule

    max_iter: int                    # outer-iteration cap
    precond: str                     # one of KINDS
    eps_dimacs: float = 1e-5         # stop when every DIMACS measure is at or below it
    rank: int = 1                    # outlier count of every block
    cg_maxiter: int = 100000
    diag: bool = False               # dense diagnostics for n <= DIAG_LIMIT

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not (math.isfinite(self.eps_dimacs) and self.eps_dimacs > 0):
            raise ValueError(f"eps_dimacs must be finite and positive, got {self.eps_dimacs!r}")
        if self.cg_maxiter < 1:
            raise ValueError(f"cg_maxiter must be >= 1, got {self.cg_maxiter!r}")
        if type(self.rank) is not int:
            raise ValueError(f"rank must be an int, got {self.rank!r}")
        if self.precond not in self.KINDS:
            raise ValueError(
                f"{self.SOLVER} preconditioner must be one of {'|'.join(self.KINDS)}, got {self.precond!r}"
            )

    @property
    def graceful_tol(self) -> float:
        """The standard DIMACS level 1e-5, or eps_dimacs when looser: a run
        that cannot go on ends ``numerical_limit`` at a point that meets it."""
        return max(1e-5, self.eps_dimacs)


@dataclass
class SolveReport:
    solver: str
    status: str
    iterations: int
    cg_total: int
    wall_time: float
    primal_objective: float
    dual_objective: float
    dimacs: DimacsErrors | None
    precond: str
    trace: list[dict] = field(default_factory=list)
    spectra: list[dict] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    instance: str = ""
    schema: int = 2

    @property
    def converged(self) -> bool:
        return self.status == "optimal"

    def dimacs_max(self) -> float:
        return self.dimacs.max() if self.dimacs is not None else float("inf")

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "instance": self.instance,
            "solver": self.solver,
            "precond": self.precond,
            "status": self.status,
            "iterations": self.iterations,
            "cg_iterations": self.cg_total,
            "wall_time": self.wall_time,
            "primal_objective": self.primal_objective,
            "dual_objective": self.dual_objective,
            # SDPA files are minimization problems; the canonical dual is the
            # maximization side, so the file-sense optimum is the negation
            "sdpa_objective": -self.dual_objective,
            "dimacs": self.dimacs.as_dict() if self.dimacs else None,
            "dimacs_max": self.dimacs_max() if self.dimacs else None,
            "spectra": self.spectra,
            "trace": self.trace,
            "diagnostics": self.diagnostics,
            # the thread settings the run read, and the library versions
            "env": {var: os.environ.get(var) for var in ("LORANK_THREADS",) + _threads._BLAS_VARS}
            | {"numpy": np.__version__, "scipy": scipy.__version__},
        }

    def csv_row(self) -> list[str]:
        gap = self.spectra[0]["gap_ratio"] if self.spectra else ""
        per_iter = self.wall_time / self.iterations if self.iterations else 0.0
        vals = [
            self.instance,
            self.solver,
            self.precond,
            self.status,
            self.iterations,
            self.cg_total,
            f"{self.wall_time:.6f}",
            f"{per_iter:.6f}",
            f"{self.primal_objective:.12g}",
            f"{self.dual_objective:.12g}",
            f"{self.dimacs_max():.6g}" if self.dimacs else "",
            f"{gap:.6g}" if gap != "" else "",
        ]
        return [str(v) for v in vals]


class ConfigError(ValueError):
    """A solver configuration that was rejected: a setting out of range on
    the command line, or a pair of setting and problem a driver refuses."""


class SolverFailure(RuntimeError):
    """A solve that ended in an exception; ``report`` is its partial report.
    ``layer`` and ``iteration`` name where it failed, and ``relres`` and
    ``breakdown`` the CG solve that failed (None when no CG solve did)."""

    def __init__(self, report: SolveReport, layer: str, iteration: int, relres: float | None = None,
                 breakdown: bool | None = None):
        what = layer if relres is None else f"{layer} CG"
        detail = "" if relres is None else f" (breakdown={breakdown}, relres={relres:.2e})"
        super().__init__(f"{what} failed at iteration {iteration}{detail}")
        self.report, self.layer, self.iteration, self.relres, self.breakdown = report, layer, iteration, relres, breakdown


class RunRecord:
    """The bookkeeping of one solve (start time, trace rows, dense
    diagnostics, CG total), the gate of its CG solves, and from them the
    report of the point where it ended, final or partial."""

    def __init__(self, prob: SdpProblem, config: SolverConfig):
        self.prob, self.config = prob, config
        self.t0 = time.perf_counter()
        self.trace: list[dict] = []
        self.diagnostics: list[dict] = []
        self.cg_total = 0

    @property
    def diagnosing(self) -> bool:
        """Dense diagnostics are on: ``diag`` is set and n <= ``DIAG_LIMIT``."""
        return self.config.diag and self.prob.n <= DIAG_LIMIT

    def diagnose(self, matvec, prec: pc.SmwPreconditioner, terms=(), approx=(), **keys):
        """Append one dense record: the driver's ``keys``, the kind of ``prec``
        and ``pc.conditioning`` of the Newton matrix of ``matvec`` under the
        dense ``prec``, with the split bound of ``terms`` against ``approx``."""
        h = pc.dense_of(matvec, self.prob.n)
        self.diagnostics.append({**keys, "precond": prec.kind, **pc.conditioning(h, prec.dense(), terms, approx)})

    def take(self, rep: PcgReport, layer: str, iteration: int, pt: PrimalDualPoint, errs: DimacsErrors) -> bool:
        """Count the CG of ``rep``, the solve of ``layer`` at ``iteration``,
        and tell whether its direction is used.  A converged one is.  At a
        point that meets ``graceful_tol`` no other is, since a stagnated
        step there can undo the accuracy reached: the run ends
        ``numerical_limit`` (False).  Elsewhere a ``usable`` stagnation is
        used, and anything worse raises SolverFailure (``cg_failure``)."""
        self.cg_total += rep.iterations
        used = rep.converged or errs.max() > self.config.graceful_tol
        if used and not rep.usable:
            raise SolverFailure(self.report("cg_failure", pt, errs), layer, iteration, rep.relres, rep.breakdown)
        return used

    def record(self, iteration: int, *, precond: str, cg_tol: float, dimacs_max: float, **fields):
        """One trace row: the keys every driver writes, the driver's own
        ``fields``, ``cg``, the CG iterations taken since the previous row,
        and ``time``, the seconds since the start."""
        self.trace.append({
            "iteration": iteration, "cg": self.cg_total - sum(row["cg"] for row in self.trace),
            "precond": precond, "cg_tol": cg_tol, "dimacs_max": dimacs_max, **fields,
            "time": time.perf_counter() - self.t0,
        })

    def report(self, status: str, pt: PrimalDualPoint, errs: DimacsErrors) -> SolveReport:
        """The report of the solve at ``pt``; ``errs`` are the DIMACS errors
        the driver measured there."""
        pobj, dobj = objective_values(self.prob, pt)
        return SolveReport(
            solver=self.config.SOLVER,
            status=status,
            iterations=len(self.trace),
            cg_total=self.cg_total,
            wall_time=time.perf_counter() - self.t0,
            primal_objective=pobj,
            dual_objective=dobj,
            dimacs=errs,
            precond=self.config.precond,
            trace=self.trace,
            spectra=spectrum_summary(pt.X.blocks),
            diagnostics=self.diagnostics,
        )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
