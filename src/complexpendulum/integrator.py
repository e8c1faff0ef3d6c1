"""Adaptive integration of the complexified Hamilton equations.

The stepper is an embedded Dormand-Prince 5(4) pair with first-same-as-last
stage reuse and a PI step-size controller.  The complex pair (x, p) is
treated as four real components for error control; tolerances follow the
usual mixed absolute/relative scaling.

Terminal events:

* escape   - |Im x| reaches the configured escape radius; the crossing
             time is refined by bisection with short re-integrations, so
             ``escape_time`` is accurate to the integration tolerance.
* closure  - the trajectory returns to its starting phase-space point
             (autonomous models only).  A local minimum of the squared
             phase-space distance to the start triggers a refinement of
             the closest-approach time; the orbit is declared closed when
             the refined miss distance, scaled by the orbit extent, falls
             below ``EventSpec.closure_tol`` and the flow direction at the
             return matches the initial one.
* blow-up  - a state component exceeds the overflow guard, or the stages
             stop being finite.
* horizon  - the time span is exhausted (classification ``open``).
* underflow- the controller wants a step below ``min_step`` (classification
             ``truncated``).

Integration may run backward in time by passing ``t_final`` smaller than
the start time; samples are then ordered by decreasing t.  Optional
``t_checkpoints`` are landed on exactly, which makes runs comparable
point-by-point across step-size choices.

One stepper, ``_dopri``, owns the accept/reject/PI loop and the exact
landing on checkpoints.  It is one fused sweep: the stage evaluations,
the finiteness screen and the error norm are written out in its loop
body, which saves CPython's per-call overhead on every step.
The order of its complex expressions is frozen, since the bundled
scenario outputs are reproduced byte for byte (see ``_dopri``).
``integrate`` watches the events above on its accepted steps; event
polishing re-integrates short spans with the same stepper.

Compiled kernel: for exact instances of the four built-in models (with
plain int, float or complex parameters, on CPython before 3.14) ``_dopri``
runs the same loop in C (``_dopri5.c``, loaded by ``_dopri5``), which
mirrors CPython's complex arithmetic operation for operation and so gives
the same steps bit for bit.  It hands over accepted steps in blocks
through the same generator protocol, so every caller, event polishing
included, gets it through the one stepper, and the events stay here.
A step the kernel cannot mirror (a non-finite stage or result, a stage
with |Im x| past 708.396..., where ``cmath.sinh`` switches formula, or an
overflowing sine) is handed back: the Python loop below resumes from the
state at the start of that step and redoes it.  Subclasses, models of
the Python API, later interpreters and a failed build (logged once) use
the Python loop throughout; it stays the reference.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from . import _dopri5
from .models import HamiltonianModel, PhaseState, cell_index

__all__ = [
    "CLOSED",
    "OPEN",
    "ESCAPED",
    "TRUNCATED",
    "BLOWUP",
    "IntegratorConfig",
    "EventSpec",
    "Trajectory",
    "integrate",
    "locate_return",
]

CLOSED = "closed"
OPEN = "open"
ESCAPED = "escaped"
TRUNCATED = "truncated"
BLOWUP = "blowup"

# classification of a run that ends with the stepper's own stop reason
_STOP_CLASSIFICATION = {
    "horizon": OPEN,
    "max_steps": TRUNCATED,
    "step_underflow": TRUNCATED,
    "non_finite": BLOWUP,
}

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# PI controller constants
_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_SHRINK = 5.0  # largest shrink per step: h / 5
_FAC_GROW = 10.0  # largest growth per step: h * 10


def _reject_nan(settings) -> None:
    # NaN slips through every ordered-comparison check below: as a
    # tolerance it stalls the step-size controller, as a bound it
    # switches its check off
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"{f.name} must not be NaN")


@dataclass
class IntegratorConfig:
    """Tolerances and guards for the adaptive stepper.

    rel_tol, abs_tol   mixed error control per real component
    max_step, min_step step-size bounds (magnitudes)
    escape_radius      |Im x| at which a trajectory counts as escaped
    max_time           default integration horizon from the start time
    max_steps          hard cap on accepted steps
    overflow_guard     |component| bound beyond which the run is a blow-up
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.25
    min_step: float = 1e-12
    escape_radius: float = 30.0
    max_time: float = 200.0
    max_steps: int = 1_000_000
    overflow_guard: float = 1e12

    def __post_init__(self) -> None:
        _reject_nan(self)
        for name in ("rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.min_step <= 0.0 or self.max_step < self.min_step:
            raise ValueError("need 0 < min_step <= max_step")
        if self.escape_radius <= 0.0:
            raise ValueError("escape_radius must be positive")
        if self.max_time <= 0.0:
            raise ValueError("max_time must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.overflow_guard <= 1.0:
            raise ValueError("overflow_guard must exceed 1")


@dataclass
class EventSpec:
    """Which terminal events to watch.

    closure_tol is relative to the orbit extent (the largest phase-space
    distance from the start seen so far); min_period ignores returns
    earlier than the given time, guarding against the trivial t = t0 one.
    """

    closure: bool = True
    closure_tol: float = 1e-7
    escape: bool = True
    min_period: float = 0.1

    def __post_init__(self) -> None:
        _reject_nan(self)
        if self.closure_tol <= 0.0:
            raise ValueError("closure_tol must be positive")
        if self.min_period < 0.0:
            raise ValueError("min_period must be >= 0")


@dataclass
class Trajectory:
    """Result of one integration run.

    samples are ordered along the direction of integration and start at
    the initial state.  period is set exactly when classification == "closed",
    escape_time exactly when classification == "escaped"; termination
    names the event that stopped the run ("closure", "escape", "horizon",
    "max_steps", "step_underflow", "overflow", "non_finite").
    """

    samples: list[PhaseState]
    classification: str
    period: float | None = None
    escape_time: float | None = None
    termination: str = ""
    model: HamiltonianModel | None = None

    @property
    def cell_history(self) -> list[tuple[float, int]]:
        """(t, cell_index(x)) for every sample."""
        return [(s.t, cell_index(s.x)) for s in self.samples]

    def energy_drift(self) -> float:
        """Worst relative energy error over the samples.

        Each sample's deviation |H(t) - H(0)| is measured against the
        local scale max(1, |H(0)|, |p|^2/2 + |V(x)|): on an escape run
        the kinetic and potential terms grow huge while their sum stays
        fixed, and only deviation relative to those terms reflects
        integration error rather than float cancellation.  Meaningful
        for autonomous models, where H is conserved exactly.
        """
        if self.model is None:
            raise ValueError("trajectory carries no model")
        potential = self.model.potential
        e0 = self.model.energy(self.samples[0])
        worst = 0.0
        for s in self.samples:
            # one potential evaluation for H = p^2/2 + V and the local scale
            v = potential(s.x, s.t)
            local = 0.5 * abs(s.p) ** 2 + abs(v)
            dev = abs(0.5 * s.p * s.p + v - e0) / max(1.0, abs(e0), local)
            worst = max(worst, dev)
        return worst


def _finite(x: complex, p: complex) -> bool:
    return (
        math.isfinite(x.real)
        and math.isfinite(x.imag)
        and math.isfinite(p.real)
        and math.isfinite(p.imag)
    )


def _scaled_norm(x, p, xref, pref, abs_tol, rel_tol):
    s = 0.0
    for v, w in ((x.real, xref.real), (x.imag, xref.imag), (p.real, pref.real), (p.imag, pref.imag)):
        sc = abs_tol + rel_tol * abs(w)
        s += (v / sc) ** 2
    return math.sqrt(0.25 * s)


def _initial_step(field, t, x, p, k1x, k1p, direction, abs_tol, rel_tol, max_step):
    """Automatic first step: trial value from state/slope norms, bounded by
    a one-Euler-step probe of the local derivative change."""
    d0 = _scaled_norm(x, p, x, p, abs_tol, rel_tol)
    d1 = _scaled_norm(k1x, k1p, x, p, abs_tol, rel_tol)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, max_step)
    xe = x + h0 * direction * k1x
    pe = p + h0 * direction * k1p
    k2x, k2p = field(t + h0 * direction, xe, pe)
    d2 = _scaled_norm(k2x - k1x, k2p - k1p, x, p, abs_tol, rel_tol) / h0
    dm = max(d1, d2)
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, max_step)


def _next_h(h, err, facold):
    """PI controller value for the step after an accepted one."""
    if err > 0.0:
        fac = err**_EXPO1 / facold**_BETA
    else:
        fac = 0.0
    fac = max(1.0 / _FAC_GROW, min(_FAC_SHRINK, fac / _SAFE))
    return h / fac


def _reject_h(h, err):
    return h / min(_FAC_SHRINK, err**_EXPO1 / _SAFE)


def _dopri(field, t, x, p, k1x, k1p, stops, rel_tol, abs_tol, max_step, min_step, max_steps=math.inf):
    """The adaptive stepping loop shared by every integration run.

    Steps from (t, x, p), with field value (k1x, k1p) there, landing
    exactly on each time of ``stops`` in turn; the last one ends the run.
    Yields (t, x, p, kx, kp) after every accepted step, (kx, kp) being the
    field at the new state, and returns why it stopped: "horizon",
    "max_steps", "step_underflow" (the controller wants steps below
    min_step) or "non_finite" (halving a step with non-finite stages went
    below min_step).  Callers watch for events and may stop early.

    One fused sweep: the seven stages, the finiteness screen and the
    mixed-tolerance RMS error norm over the four real components are
    written out in the loop body rather than called as helpers, which
    saves CPython's call and tuple overhead.  The complex expressions are
    frozen in their order: a float times a complex is a full complex
    product, so folding ``h`` into the tableau weights or splitting into
    real arithmetic would change rounding and signed zeros, and with them
    the bundled outputs.  The field is called through ``field`` and step-size
    updates through the module functions ``_next_h`` (once per accepted
    step) and ``_reject_h`` (once per rejected step), the names the
    benchmark's counters wrap; steps taken by the compiled kernel make
    none of these calls.
    """
    isfinite = math.isfinite
    sqrt = math.sqrt
    t_end = stops[-1]
    direction = 1.0 if t_end > t else -1.0
    h_mag = _initial_step(field, t, x, p, k1x, k1p, direction, abs_tol, rel_tol, max_step)
    facold = 1e-4
    accepted = 0
    i = 0
    params = _dopri5.model_params(field)
    if params is not None:
        stop = yield from _dopri5.steps(
            params, t, x, p, k1x, k1p, h_mag, facold, stops, direction,
            rel_tol, abs_tol, max_step, min_step, max_steps,
        )
        if isinstance(stop, str):
            return stop
        # the kernel handed back: the loop below redoes the next step
        t, x, p, k1x, k1p, h_mag, facold, accepted, i = stop
    while (t_end - t) * direction > 0.0:
        if accepted >= max_steps:
            return "max_steps"
        while (stops[i] - t) * direction <= 0.0:
            i += 1
        h = direction * h_mag
        remaining = stops[i] - t
        landed = False
        if abs(remaining) <= h_mag:
            h = remaining
            landed = True
        elif abs(remaining) < 2.0 * h_mag:
            h = 0.5 * remaining

        k2x, k2p = field(t + _C2 * h, x + h * (_A21 * k1x), p + h * (_A21 * k1p))
        k3x, k3p = field(
            t + _C3 * h,
            x + h * (_A31 * k1x + _A32 * k2x),
            p + h * (_A31 * k1p + _A32 * k2p),
        )
        k4x, k4p = field(
            t + _C4 * h,
            x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
            p + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p),
        )
        k5x, k5p = field(
            t + _C5 * h,
            x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
            p + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p),
        )
        k6x, k6p = field(
            t + h,
            x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
            p + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p),
        )
        x1 = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        p1 = p + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        k7x, k7p = field(t + h, x1, p1)
        ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ep = h * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)

        x1r, x1i, p1r, p1i = x1.real, x1.imag, p1.real, p1.imag
        exr, exi, epr, epi = ex.real, ex.imag, ep.real, ep.imag
        if not (
            isfinite(x1r) and isfinite(x1i) and isfinite(p1r) and isfinite(p1i)
            and isfinite(exr) and isfinite(exi) and isfinite(epr) and isfinite(epi)
        ):
            h_mag = 0.5 * abs(h)
            if h_mag < min_step:
                return "non_finite"
            continue
        # RMS of error / (abs_tol + rel_tol * max(|old|, |new|)); every
        # value is finite here, so the conditionals equal max()
        a, b = abs(x.real), abs(x1r)
        rxr = exr / (abs_tol + rel_tol * (b if b > a else a))
        a, b = abs(x.imag), abs(x1i)
        rxi = exi / (abs_tol + rel_tol * (b if b > a else a))
        a, b = abs(p.real), abs(p1r)
        rpr = epr / (abs_tol + rel_tol * (b if b > a else a))
        a, b = abs(p.imag), abs(p1i)
        rpi = epi / (abs_tol + rel_tol * (b if b > a else a))
        err = sqrt(0.25 * (rxr * rxr + rxi * rxi + rpr * rpr + rpi * rpi))
        if err > 1.0:
            h_mag = abs(_reject_h(h, err))
            if h_mag < min_step:
                return "step_underflow"
            continue

        t = stops[i] if landed else t + h
        x, p, k1x, k1p = x1, p1, k7x, k7p
        yield t, x, p, k1x, k1p
        accepted += 1

        hnew = abs(_next_h(h, err, facold))
        facold = max(err, 1e-4)
        if not (landed or abs(h) < h_mag):
            # clipped steps say nothing about the error-optimal size
            h_mag = min(hnew, max_step)
            if h_mag < min_step:
                # the controller itself wants sub-floor steps: the local
                # timescale has collapsed (approaching a singularity)
                return "step_underflow"
    return "horizon"


def _advance(field, t0, x0, p0, t_target, rel_tol, abs_tol, max_step, min_step):
    """Event-free re-integration from (t0, x0, p0) landing exactly on
    t_target; used to polish event times.  Returns (x, p)."""
    t, x, p = t0, x0, p0
    if t_target != t0:
        k1x, k1p = field(t0, x0, p0)
        for t, x, p, _, _ in _dopri(field, t0, x0, p0, k1x, k1p, [t_target], rel_tol, abs_tol, max_step, min_step):
            pass
    if t != t_target:
        raise ArithmeticError(f"event polishing stopped at t={t!r} short of {t_target!r}")
    return x, p


def _dist2(x, p, x0, p0) -> float:
    """Squared phase-space distance from (x0, p0) to (x, p)."""
    dx = x - x0
    dp = p - p0
    return dx.real * dx.real + dx.imag * dx.imag + dp.real * dp.real + dp.imag * dp.imag


def _is_dip(d_before: float, d: float, d_after: float, dmax_sq: float) -> bool:
    """Whether the sampled squared distance d to the start is a candidate
    return: a local minimum within half the orbit extent sqrt(dmax_sq)."""
    return d < d_before and d <= d_after and d < 0.25 * dmax_sq


def locate_return(
    field,
    t0,
    x0,
    p0,
    k0x,
    k0p,
    a,
    b,
    c,
    scale,
    rel_tol,
    abs_tol,
    max_step,
    min_step,
):
    """Refine a sampled local minimum of the distance to the start point.

    a, b, c are consecutive (t, x, p, d2, kx, kp) records with the sampled
    squared distance d2 minimal at b.  The closest approach solves
    g(t) = <s(t) - s0, v(t)> = 0 (the time derivative of the half squared
    distance).  g changes sign across the minimum and is nearly linear
    at a transversal return, so a bracketed false-position iteration
    (Illinois variant) converges in a handful of short re-integrations.

    Returns (t_min, x, p, distance/scale, flow_aligned).  flow_aligned
    reports whether the velocity at the minimum points along the initial
    velocity, separating true returns from near misses on the opposite
    branch.
    """
    ta, xa, pa, da, kax, kap = a
    tb, xb, pb, db, kbx, kbp = b
    tc, xc, pc, dc, kcx, kcp = c

    def g_of(x, p, kx, kp):
        dx = x - x0
        dp = p - p0
        return dx.real * kx.real + dx.imag * kx.imag + dp.real * kp.real + dp.imag * kp.imag

    def state_at(tau):
        # advance from the nearest bracketing sample for accuracy
        base = a if abs(tau - ta) <= abs(tau - tc) else c
        x, p = _advance(field, base[0], base[1], base[2], tau, rel_tol, abs_tol, max_step, min_step)
        kx, kp = field(tau, x, p)
        return x, p, kx, kp

    g_lo = g_of(xa, pa, kax, kap)
    g_hi = g_of(xc, pc, kcx, kcp)
    if g_lo == 0.0:
        t_star = ta
    elif g_hi == 0.0:
        t_star = tc
    elif (g_lo < 0.0) == (g_hi < 0.0):
        # no sign change (flat or asymmetric sampling): settle for the
        # parabolic vertex through the three squared distances
        num = (tb - ta) ** 2 * (db - dc) - (tb - tc) ** 2 * (db - da)
        den = (tb - ta) * (db - dc) - (tb - tc) * (db - da)
        t_hat = tb if den == 0.0 else tb - 0.5 * num / den
        lo_t, hi_t = (ta, tc) if ta < tc else (tc, ta)
        t_star = min(max(t_hat, lo_t), hi_t)
    else:
        lo, g_a = ta, g_lo
        hi, g_b = tc, g_hi
        side = 0
        t_res = 4.0 * sys.float_info.epsilon * max(1.0, abs(ta), abs(tc))
        for _ in range(60):
            if abs(hi - lo) <= t_res:
                break
            den = g_b - g_a
            mid = 0.5 * (lo + hi) if den == 0.0 else (lo * g_b - hi * g_a) / den
            if not (min(lo, hi) < mid < max(lo, hi)):
                mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            xm, pm, kmx, kmp = state_at(mid)
            gm = g_of(xm, pm, kmx, kmp)
            if gm == 0.0:
                lo = hi = mid
                break
            if (gm < 0.0) == (g_a < 0.0):
                lo, g_a = mid, gm
                if side == -1:
                    g_b *= 0.5
                side = -1
            else:
                hi, g_b = mid, gm
                if side == 1:
                    g_a *= 0.5
                side = 1
        t_star = 0.5 * (lo + hi)

    x_star, p_star, kx, kp = state_at(t_star)
    aligned = (
        kx.real * k0x.real + kx.imag * k0x.imag + kp.real * k0p.real + kp.imag * k0p.imag
    ) > 0.0
    return t_star, x_star, p_star, math.sqrt(_dist2(x_star, p_star, x0, p0)) / scale, aligned


def _locate_escape(field, ta, xa, pa, tb, radius, rel_tol, abs_tol, max_step, min_step):
    """Bisect the |Im x| = radius crossing inside (ta, tb]; the left end
    is strictly inside.  Returns (t, x, p) at the crossing."""
    lo, hi = ta, tb
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        xm, pm = _advance(field, ta, xa, pa, mid, rel_tol, abs_tol, max_step, min_step)
        if abs(xm.imag) >= radius:
            hi = mid
        else:
            lo = mid
    x, p = _advance(field, ta, xa, pa, hi, rel_tol, abs_tol, max_step, min_step)
    return hi, x, p


def integrate(
    model: HamiltonianModel,
    start: PhaseState,
    config: IntegratorConfig | None = None,
    events: EventSpec | None = None,
    *,
    t_final: float | None = None,
    t_checkpoints=None,
) -> Trajectory:
    """Integrate Hamilton's equations from ``start``.

    The run ends at the first terminal event (see the module docstring)
    or at ``t_final`` (default: start time plus ``config.max_time``;
    values before the start time integrate backward).  ``t_checkpoints``
    lists times the stepper must land on exactly; they appear among the
    samples, making runs comparable across step-size settings.
    """
    cfg = config if config is not None else IntegratorConfig()
    ev = events if events is not None else EventSpec()
    field = model.field

    t0 = float(start.t)
    x0 = complex(start.x)
    p0 = complex(start.p)
    if not _finite(x0, p0):
        raise ValueError("start state must be finite")
    if not math.isfinite(t0):
        raise ValueError("start time must be finite")
    t_end = t0 + cfg.max_time if t_final is None else float(t_final)
    if t_final is not None and not math.isfinite(t_end):
        raise ValueError("t_final must be finite")
    if t_end == t0:
        raise ValueError("empty time span")
    direction = 1.0 if t_end > t0 else -1.0

    watch_escape = ev.escape
    if watch_escape and abs(x0.imag) >= cfg.escape_radius:
        raise ValueError("start lies at or beyond the escape radius")
    watch_closure = ev.closure and model.autonomous

    if t_checkpoints:
        cps = sorted((float(c) for c in t_checkpoints), reverse=direction < 0)
        if not all(math.isfinite(c) for c in cps):
            raise ValueError("t_checkpoints must be finite")
        cps = [c for c in cps if (c - t0) * direction > 0.0 and (t_end - c) * direction > 0.0]
    else:
        cps = []

    samples = [PhaseState(x0, p0, t0)]

    k0x, k0p = field(t0, x0, p0)
    if not _finite(complex(k0x), complex(k0p)):
        raise ValueError("vector field is not finite at the start state")

    # polish runs use a slightly tighter tolerance so event times are not
    # limited by the refinement itself
    pol_rel = max(cfg.rel_tol * 0.1, 1e-14)
    pol_abs = max(cfg.abs_tol * 0.1, 1e-16)

    dmax_sq = 0.0
    prev2 = None
    prev1 = (t0, x0, p0, 0.0, k0x, k0p)
    period = None
    escape_time = None

    steps = _dopri(
        field, t0, x0, p0, k0x, k0p, cps + [t_end],
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.min_step, cfg.max_steps,
    )
    guard = cfg.overflow_guard
    radius = cfg.escape_radius
    append = samples.append
    while True:
        try:
            t1, x1, p1, k1x, k1p = next(steps)
        except StopIteration as stop:
            termination = stop.value
            classification = _STOP_CLASSIFICATION[termination]
            break

        if abs(x1.real) > guard or abs(x1.imag) > guard or abs(p1.real) > guard or abs(p1.imag) > guard:
            append(PhaseState(x1, p1, t1))
            classification, termination = BLOWUP, "overflow"
            break

        if watch_escape and abs(x1.imag) >= radius:
            last = samples[-1]
            te, xe, pe = _locate_escape(
                field, last.t, last.x, last.p, t1, radius, pol_rel, pol_abs, cfg.max_step, cfg.min_step
            )
            append(PhaseState(xe, pe, te))
            classification, termination = ESCAPED, "escape"
            escape_time = abs(te - t0)
            break

        if watch_closure:
            d2 = _dist2(x1, p1, x0, p0)
            if d2 > dmax_sq:
                dmax_sq = d2
            current = (t1, x1, p1, d2, k1x, k1p)
            if (
                prev2 is not None
                and _is_dip(prev2[3], prev1[3], d2, dmax_sq)
                and (prev1[0] - t0) * direction >= ev.min_period
            ):
                t_star, x_star, p_star, dist_scaled, aligned = locate_return(
                    field,
                    t0,
                    x0,
                    p0,
                    k0x,
                    k0p,
                    prev2,
                    prev1,
                    current,
                    math.sqrt(dmax_sq),
                    pol_rel,
                    pol_abs,
                    cfg.max_step,
                    cfg.min_step,
                )
                if dist_scaled <= ev.closure_tol and aligned:
                    while samples and (samples[-1].t - t_star) * direction >= 0.0:
                        samples.pop()
                    append(PhaseState(x_star, p_star, t_star))
                    classification, termination = CLOSED, "closure"
                    period = abs(t_star - t0)
                    break
            prev2, prev1 = prev1, current

        append(PhaseState(x1, p1, t1))

    return Trajectory(
        samples=samples,
        classification=classification,
        period=period,
        escape_time=escape_time,
        termination=termination,
        model=model,
    )
