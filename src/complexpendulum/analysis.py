"""Trajectory diagnostics: closure, PT symmetry, ellipse fits, cell moves.

These run on ``Trajectory`` objects after the fact and do not change how
the integration itself was performed.  ``detect_closure`` takes the
period of a run that ended at the integrator's closure event from its
termination; it refines returns itself only for other runs.  Each report
is a frozen dataclass, which the CLI writes as its fields in order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import EventSpec, IntegratorConfig, Trajectory, _dist2, _is_dip, integrate, locate_return
from .models import PhaseState, Pendulum, cell_indices

__all__ = [
    "DegenerateConic",
    "ClosureReport",
    "SymmetryReport",
    "EllipseFit",
    "detect_closure",
    "verify_pt_symmetry",
    "fit_ellipse",
    "cell_escape_summary",
]


class DegenerateConic(ValueError):
    """The sampled positions do not determine an ellipse."""


@dataclass(frozen=True)
class ClosureReport:
    """closed/period from the first return; return_distance is the miss
    distance at closest approach divided by the orbit extent; windings
    counts signed turns of x(t) around the orbit centroid (None when the
    orbit did not close)."""

    closed: bool
    period: float | None
    return_distance: float
    windings: int | None


@dataclass(frozen=True)
class SymmetryReport:
    """max_deviation is the largest pointwise mismatch between the
    backward run from the PT-mapped start and the mapped original, over
    the compared sample times."""

    map_kind: str
    max_deviation: float
    compared_points: int


@dataclass(frozen=True)
class EllipseFit:
    """Direct least-squares ellipse through the sampled positions.

    orientation is the major-axis angle in (-pi/2, pi/2]; residual is the
    RMS of ((u/a)^2 + (v/b)^2 - 1) / 2 over the samples in the axis
    frame, a scale-free measure of how far the points sit from the fitted
    ellipse relative to its size.
    """

    center: complex
    semi_major: float
    semi_minor: float
    orientation: float
    residual: float


# (rel_tol, abs_tol, max_step, min_step) of the re-integrations that
# refine a return, tighter than the integrator's defaults
_CLOSURE_POLISH = (1e-12, 1e-14, 0.25, 1e-13)
_PT_POINTS = 800  # most sample times verify_pt_symmetry compares


def _windings(xs: np.ndarray) -> int:
    """Signed turns of the position samples of one closed cycle around
    their centroid, from accumulated wrapped angle increments."""
    w = xs - xs.mean()
    w = w[w != 0.0]
    d = np.diff(np.arctan2(w.imag, w.real))
    d[d > math.pi] -= 2.0 * math.pi
    d[d < -math.pi] += 2.0 * math.pi
    return round(d.sum() / (2.0 * math.pi))


def detect_closure(traj: Trajectory, tol: float = 1e-7) -> ClosureReport:
    """Decide whether a trajectory is a closed orbit and measure its period.

    The first local minimum of the phase-space distance to the start
    that lies within half the orbit extent (the integrator's closure
    rule) is refined to the exact closest approach; the orbit is closed when
    the refined miss distance is below ``tol`` times the orbit extent and
    the flow at the return runs the same way as at the start.  For
    trajectories already terminated by the integrator's closure event the
    period read from that termination is reported directly.
    """
    if len(traj) < 4:
        return ClosureReport(False, None, math.inf, None)
    t, x, p = traj.t, traj.x, traj.p
    t0, x0, p0 = t[0].item(), x[0].item(), p[0].item()
    d2 = _dist2(x, p, x0, p0)
    # d2[0] == 0.0, so skipping NaN is what max() over the list does
    dmax_sq = float(np.fmax.reduce(d2))
    if dmax_sq <= 0.0:
        return ClosureReport(False, None, math.inf, None)
    scale = math.sqrt(dmax_sq)

    if traj.termination == "closure":
        rd = math.sqrt(d2[-1]) / scale
        return ClosureReport(rd <= tol, traj.period, rd, _windings(x))

    model = traj.model
    direction = 1.0 if t[-1] >= t0 else -1.0
    best = math.inf
    for i in (np.flatnonzero(_is_dip(d2[:-2], d2[1:-1], d2[2:], dmax_sq)) + 1).tolist():
        best = min(best, math.sqrt(d2[i]) / scale)
        if model is None:
            continue
        a, b, c = ((t[j].item(), x[j].item(), p[j].item(), d2[j].item()) for j in (i - 1, i, i + 1))
        t_star, _, _, dist_scaled, aligned = locate_return(model, (t0, x0, p0), a, b, c, scale, _CLOSURE_POLISH)
        best = min(best, dist_scaled)
        if dist_scaled <= tol and aligned:
            period = abs(t_star - t0)
            return ClosureReport(True, period, dist_scaled, _windings(x[(t - t_star) * direction <= 0.0]))
    return ClosureReport(False, None, best, None)


def verify_pt_symmetry(traj: Trajectory, *, config: IntegratorConfig | None = None) -> SymmetryReport:
    """Check the trajectory against its PT image by backward integration.

    The PT operation maps a solution x(t) to M(x(-t)) with M the spatial
    reflection of the trajectory's model and momenta conjugated.  Starting
    a fresh run at (M(x0), conj(p0)) and integrating backward while
    landing exactly on the mirrored sample times makes the comparison
    pointwise:

        deviation(t) = max(|X(-t) - M(x(t))|, |P(-t) - conj(p(t))|)

    The report carries the maximum over up to ``_PT_POINTS`` sample
    times; judging it against a tolerance is left to the caller.
    """
    model = traj.model
    if model is None:
        raise ValueError("trajectory carries no model")
    if not model.autonomous:
        raise ValueError("PT verification applies to autonomous models")
    n = len(traj)
    if n < 2:
        raise ValueError("trajectory has too few samples")
    cfg = config if config is not None else IntegratorConfig()

    map_kind = "real-g"
    if isinstance(model, Pendulum) and model.g.real == 0.0 and model.g.imag != 0.0:
        map_kind = "imag-g"

    t0 = traj.t[0].item()
    x0 = model.pt_reflection(traj.x[0].item())
    p0 = traj.p[0].item().conjugate()

    idx = np.linspace(1, n - 1, min(_PT_POINTS, n - 1)).astype(int)
    tau = traj.t[idx] - t0
    back = integrate(
        model,
        PhaseState(x0, p0, 0.0),
        cfg,
        EventSpec(closure=False, escape=False),
        t_final=-tau[-1].item(),
        t_checkpoints=-tau,
    )
    # the sample times both runs reach, each once
    _, mine, back_rows = np.intersect1d(-tau, back.t, return_indices=True)
    if not len(mine):
        raise ValueError("backward run produced no comparable sample times")
    rows = idx[mine]
    d = np.concatenate((back.x[back_rows] - model.pt_reflection(traj.x[rows]), back.p[back_rows] - traj.p[rows].conjugate()))
    # np.hypot is the libm hypot of abs(complex); np.abs may differ by an ulp
    dev = np.fmax.reduce(np.hypot(d.real, d.imag), initial=0.0)
    return SymmetryReport(map_kind, float(dev), len(rows))


def fit_ellipse(traj: Trajectory) -> EllipseFit:
    """Fit an ellipse to the sampled positions (Re x, Im x) by the direct
    least-squares conic fit with the ellipse constraint 4AC - B^2 = 1,
    then convert to geometric parameters.

    Raises DegenerateConic for too few, coincident, collinear, or too
    large samples and whenever the best conic is not an ellipse.
    """
    pts = np.column_stack([traj.x.real, traj.x.imag])
    if len(pts) < 6:
        raise DegenerateConic("need at least 6 samples to fit an ellipse")
    centroid = pts.mean(axis=0)
    q = pts - centroid
    with np.errstate(over="ignore"):
        rms = math.sqrt(float((q**2).sum(axis=1).mean()))
    if not math.isfinite(rms):
        raise DegenerateConic("samples too large to fit")
    if rms < 1e-12:
        raise DegenerateConic("samples coincide")
    q /= rms
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[1] <= 1e-8 * sv[0]:
        raise DegenerateConic("samples are collinear")

    u, v = q[:, 0], q[:, 1]
    d1 = np.column_stack([u * u, u * v, v * v])
    d2 = np.column_stack([u, v, np.ones_like(u)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t_mat = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConic("normal equations are singular") from exc
    m = s1 + s2 @ t_mat
    m = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m)
    abc = None
    for k in range(3):
        if abs(evals[k].imag) > 1e-8:
            continue
        cand = evecs[:, k].real
        if 4.0 * cand[0] * cand[2] - cand[1] ** 2 > 0.0:
            abc = cand
            break
    if abc is None:
        raise DegenerateConic("no elliptical solution")
    a_, b_, c_ = abc
    d_, e_, f_ = t_mat @ abc

    den = 4.0 * a_ * c_ - b_ * b_
    cx = (b_ * e_ - 2.0 * c_ * d_) / den
    cy = (b_ * d_ - 2.0 * a_ * e_) / den
    a33 = np.array([[a_, b_ / 2.0], [b_ / 2.0, c_]])
    qmat = np.array([[a_, b_ / 2.0, d_ / 2.0], [b_ / 2.0, c_, e_ / 2.0], [d_ / 2.0, e_ / 2.0, f_]])
    kposs = -np.linalg.det(qmat) / np.linalg.det(a33)
    lam, vec = np.linalg.eigh(a33)
    if not (kposs / lam[0] > 0.0 and kposs / lam[1] > 0.0):
        raise DegenerateConic("fitted conic is not an ellipse")
    semi = np.sqrt(kposs / lam)
    # the conic vector's overall sign is arbitrary, so the eigenvalue
    # order says nothing about which axis is longer: sort explicitly
    axes = sorted(
        ((float(semi[k]), float(vec[0, k]), float(vec[1, k])) for k in range(2)),
        key=lambda axis: -axis[0],
    )
    (major, vx, vy), (minor, _, _) = axes
    orientation = math.atan2(vy, vx)
    if orientation <= -0.5 * math.pi:
        orientation += math.pi
    elif orientation > 0.5 * math.pi:
        orientation -= math.pi

    center = centroid + rms * np.array([cx, cy])
    major *= rms
    minor *= rms

    ca, sa = math.cos(orientation), math.sin(orientation)
    rel = pts - center
    up = rel[:, 0] * ca + rel[:, 1] * sa
    vp = -rel[:, 0] * sa + rel[:, 1] * ca
    fvals = 0.5 * ((up / major) ** 2 + (vp / minor) ** 2 - 1.0)
    residual = float(np.sqrt((fvals**2).mean()))

    return EllipseFit(
        center=complex(center[0], center[1]),
        semi_major=major,
        semi_minor=minor,
        orientation=orientation,
        residual=residual,
    )


def cell_escape_summary(traj: Trajectory) -> list[tuple[float, int, int]]:
    """The moves of x between 2*pi cells, computing each sample's cell
    once.

    Each entry is (t, from_cell, to_cell) with t the first sample time
    in the new cell; an empty list means the trajectory never left its
    starting 2*pi strip.
    """
    k = cell_indices(traj.x)
    moves = np.flatnonzero(k[1:] != k[:-1]) + 1
    return list(zip(traj.t[moves].tolist(), map(int, k[moves - 1].tolist()), map(int, k[moves].tolist())))
