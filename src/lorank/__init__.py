"""Matrix-free solvers for large sparse SDPs with low-rank dual solutions.

Two second-order drivers share one preconditioned-CG core: an NT-scaled
predictor-corrector interior-point method and a primal-dual augmented
Lagrangian method.  A truss topology generator provides scalable test
instances in SDPA sparse format.
"""

from . import _threads  # noqa: F401  (must run before numpy loads BLAS)

from .ip import IpConfig, ip_solve
from .linalg import NotPositiveDefinite, chol, sym_eig
from .model import (
    BlockSymMatrix,
    DimacsErrors,
    PrimalDualPoint,
    SdpProblem,
    apply_A,
    apply_A_adjoint,
    dimacs,
    load_sdpa,
    write_sdpa,
)
from .pcg import PcgReport, cg_tolerance, pcg_solve
from .pdal import PdalConfig, pdal_config_profile, pdal_solve
from .precond import (
    SmwPreconditioner,
    SplitBlock,
    build_h_alpha,
    build_h_beta,
    build_h_delta,
    build_h_gamma,
    build_h_tilde,
    spectral_split,
    tau_cluster_mean,
)
from .report import SolveReport, SolverFailure
from .truss import GroundStructure, TrussSdpSpec, assemble_sdp, gen_ground, verify_solution

__version__ = "0.1.0"

__all__ = [
    "BlockSymMatrix",
    "DimacsErrors",
    "GroundStructure",
    "IpConfig",
    "NotPositiveDefinite",
    "PcgReport",
    "PdalConfig",
    "PrimalDualPoint",
    "SdpProblem",
    "SmwPreconditioner",
    "SolveReport",
    "SolverFailure",
    "SplitBlock",
    "TrussSdpSpec",
    "apply_A",
    "apply_A_adjoint",
    "assemble_sdp",
    "build_h_alpha",
    "build_h_beta",
    "build_h_delta",
    "build_h_gamma",
    "build_h_tilde",
    "cg_tolerance",
    "chol",
    "dimacs",
    "gen_ground",
    "ip_solve",
    "load_sdpa",
    "pcg_solve",
    "pdal_config_profile",
    "pdal_solve",
    "spectral_split",
    "sym_eig",
    "tau_cluster_mean",
    "verify_solution",
    "write_sdpa",
]
