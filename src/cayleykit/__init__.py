"""cayleykit: verification toolkit for calibrated four-plane geometry
on flat eight-dimensional models.

Submodules:
    exterior   -- exterior algebra on R^n (n <= 8), exact and float backends
    kahler     -- flat Kahler/Calabi-Yau model data (omega, Omega, J)
    spin7      -- the calibration four-form, two-form splitting, defect tensor
    graphs     -- plane classification, canonical angles, graph deformations
    torus_ops  -- spectral model of the deformation operator on a flat torus
    cli        -- JSON-report verification suites and classification tools
"""

import importlib

from .exterior import (
    EXACT,
    FLOAT,
    ExactComplex,
    Multivector,
    Vector,
    hodge_star,
    hook,
    hook_many,
    inner,
    musical_flat,
    musical_sharp,
    volume_form,
    wedge,
    wedge_many,
)
from .kahler import build_model, to_complex_frame
from .spin7 import (
    CayleyForm,
    is_cayley,
    phi0,
    phi_from_kahler,
    tau_eval,
    tau_norm,
)
from .graphs import (
    GraphCoefficients,
    OrientedPlane,
    canonical_angles,
    graph_frame,
    is_complex_plane,
    j_invariance_residual,
    residual_quadratics,
    solve_tau_system,
    tau_system,
)
from .torus_ops import (
    TopologicalInvariants,
    TorusModel,
    fd_linearization_check,
    index_from_chern,
    index_from_topology,
    kernel_dim,
    kernel_summary,
    nonlinear_F,
)

__version__ = "0.1.0"


# The CLI is loaded on first use (PEP 562): importing it here would put
# cayleykit.cli in sys.modules before `python -m cayleykit.cli` runs it
# as __main__, so the module would execute twice.
def __getattr__(name):
    if name in ("SuiteConfig", "run_suite", "cli"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "EXACT",
    "FLOAT",
    "CayleyForm",
    "ExactComplex",
    "GraphCoefficients",
    "Multivector",
    "OrientedPlane",
    "SuiteConfig",
    "TopologicalInvariants",
    "TorusModel",
    "Vector",
    "build_model",
    "canonical_angles",
    "fd_linearization_check",
    "graph_frame",
    "hodge_star",
    "hook",
    "hook_many",
    "index_from_chern",
    "index_from_topology",
    "inner",
    "is_cayley",
    "is_complex_plane",
    "j_invariance_residual",
    "kernel_dim",
    "kernel_summary",
    "musical_flat",
    "musical_sharp",
    "nonlinear_F",
    "phi0",
    "phi_from_kahler",
    "residual_quadratics",
    "run_suite",
    "solve_tau_system",
    "tau_eval",
    "tau_norm",
    "tau_system",
    "to_complex_frame",
    "volume_form",
    "wedge",
    "wedge_many",
]
