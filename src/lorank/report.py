"""Solve reports: per-iteration traces, spectra summaries, JSON/CSV output."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import DimacsErrors, PrimalDualPoint, SdpProblem, objective_values

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
    seed: int | None = None
    schema: int = 1

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
            "seed": self.seed,
            "spectra": self.spectra,
            "trace": self.trace,
            "diagnostics": self.diagnostics,
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


class SolverFailure(RuntimeError):
    """A solve that ended in an exception; ``report`` is its partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def make_report(
    solver: str,
    prob: SdpProblem,
    pt: PrimalDualPoint,
    status: str,
    errs: DimacsErrors,
    trace: list[dict],
    cg_total: int,
    t0: float,
    precond: str,
    diagnostics: list[dict] | None,
) -> SolveReport:
    """The report of a finished solve at ``pt``; ``errs`` are its final
    DIMACS errors and ``t0`` the ``perf_counter`` value at its start."""
    pobj, dobj = objective_values(prob, pt)
    return SolveReport(
        solver=solver,
        status=status,
        iterations=len(trace),
        cg_total=cg_total,
        wall_time=time.perf_counter() - t0,
        primal_objective=pobj,
        dual_objective=dobj,
        dimacs=errs,
        precond=precond,
        trace=trace,
        spectra=spectrum_summary(pt.X.blocks),
        diagnostics=diagnostics or [],
    )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
