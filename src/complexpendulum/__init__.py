"""Complex classical trajectories of pendulum-family Hamiltonians.

Numerical engine and CLI for integrating Hamilton's equations with
complex position and momentum, locating complex turning points,
classifying orbit topology (closed / open / escaped), and evaluating
escape-time and period integrals by contour quadrature.
"""
from .analysis import (
    ClosureReport,
    DegenerateConic,
    EllipseFit,
    SymmetryReport,
    cell_escape_summary,
    detect_closure,
    fit_ellipse,
    verify_pt_symmetry,
)
from .integrator import (
    BLOWUP,
    CLOSED,
    ESCAPED,
    OPEN,
    TRUNCATED,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    integrate,
)
from .models import (
    DrivenPendulum,
    HamiltonianModel,
    Harmonic,
    ImaginaryCubic,
    Pendulum,
    PhaseState,
    cell_index,
)
from .quadrature import (
    BranchInconsistency,
    DomainError,
    PathThroughSingularity,
    Segment,
    ToleranceNotMet,
    TurningPointContour,
    VerticalRay,
    adaptive_quad,
    agm,
    contour_integral,
    elliptic_K,
    escape_time,
    escape_time_real_form,
    path_integral,
    period_contour,
)
from .turning import NonConvergence, TurningPoint, refine_root, turning_points

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "PhaseState",
    "HamiltonianModel",
    "Pendulum",
    "Harmonic",
    "ImaginaryCubic",
    "DrivenPendulum",
    "cell_index",
    # integrator
    "IntegratorConfig",
    "EventSpec",
    "Trajectory",
    "integrate",
    "CLOSED",
    "OPEN",
    "ESCAPED",
    "TRUNCATED",
    "BLOWUP",
    # turning points
    "TurningPoint",
    "NonConvergence",
    "turning_points",
    "refine_root",
    # quadrature
    "Segment",
    "VerticalRay",
    "TurningPointContour",
    "adaptive_quad",
    "path_integral",
    "escape_time",
    "escape_time_real_form",
    "contour_integral",
    "period_contour",
    "agm",
    "elliptic_K",
    "DomainError",
    "PathThroughSingularity",
    "BranchInconsistency",
    "ToleranceNotMet",
    # analysis
    "ClosureReport",
    "SymmetryReport",
    "EllipseFit",
    "DegenerateConic",
    "detect_closure",
    "verify_pt_symmetry",
    "fit_ellipse",
    "cell_escape_summary",
]
