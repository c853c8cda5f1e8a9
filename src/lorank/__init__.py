"""Matrix-free solvers for large sparse SDPs with low-rank dual solutions.

Two second-order drivers share one preconditioned-CG core: an NT-scaled
predictor-corrector interior-point method and a primal-dual augmented
Lagrangian method.  A truss topology generator provides scalable test
instances in SDPA sparse format.

The package exports the solve pipeline: generate or load a problem, solve
it with either driver, verify the truss design.  The kernels stay in their
modules: ``linalg`` (dense factorizations), ``model`` (problem data,
operators, DIMACS errors), ``pcg``, ``precond`` (spectral split and the
SMW preconditioners), ``ip``, ``pdal`` and ``truss``.
"""

from . import _threads  # noqa: F401  (must run before numpy loads BLAS)

from .ip import IpConfig, ip_solve
from .model import SdpProblem, load_sdpa, write_sdpa
from .pdal import PdalConfig, pdal_solve
from .report import SolveReport, SolverFailure
from .truss import GroundStructure, TrussSdpSpec, assemble_sdp, gen_ground, verify_solution

__version__ = "0.1.0"

__all__ = [
    "GroundStructure",
    "IpConfig",
    "PdalConfig",
    "SdpProblem",
    "SolveReport",
    "SolverFailure",
    "TrussSdpSpec",
    "assemble_sdp",
    "gen_ground",
    "ip_solve",
    "load_sdpa",
    "pdal_solve",
    "verify_solution",
    "write_sdpa",
]
