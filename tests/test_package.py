"""The package root's public names: each module's ``__all__``, once."""
import complexpendulum

PUBLIC = {
    "__version__",
    # models
    "PhaseState", "HamiltonianModel", "Pendulum", "Harmonic", "ImaginaryCubic", "DrivenPendulum", "cell_index",
    # integrator
    "IntegratorConfig", "EventSpec", "Trajectory", "integrate", "CLOSED", "OPEN", "ESCAPED", "TRUNCATED", "BLOWUP",
    # turning points
    "TurningPoint", "NonConvergence", "turning_points", "refine_root",
    # quadrature
    "Segment", "VerticalRay", "TurningPointContour", "adaptive_quad", "path_integral", "escape_time",
    "escape_time_real_form", "contour_integral", "period_contour", "agm", "elliptic_K", "DomainError",
    "PathThroughSingularity", "BranchInconsistency", "ToleranceNotMet",
    # analysis
    "ClosureReport", "SymmetryReport", "EllipseFit", "DegenerateConic", "detect_closure", "verify_pt_symmetry",
    "fit_ellipse", "cell_escape_summary",
}


def test_the_root_exports_exactly_the_public_names():
    names = complexpendulum.__all__
    assert len(names) == len(set(names)) == 44
    assert set(names) == PUBLIC
    assert all(hasattr(complexpendulum, name) for name in names)
