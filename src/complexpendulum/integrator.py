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
* underflow- the controller wants a step below ``min_step``, or the first
             step underflows to 0 (classification ``truncated``).

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
It hands over the states (t, x, p) of its accepted steps in blocks of
arrays.  ``integrate`` scans each block for the events above with
elementwise array tests (the overflow guard, the escape radius and the
closure rule's dips), with the last two rows carried across blocks: they
head the next block, so the rows an event is refined from and its cut
sit in one array, and rows are settled only up to the last two.  It
takes the rows before the first event as they are, and visits Python
only at the rows the tests flag.  Event polishing (``locate_return``,
``_locate_escape``) re-integrates short spans with the same stepper from
state rows, under one polish record (rel_tol, abs_tol, max_step,
min_step), and evaluates the field itself where it needs it.

Trajectories store their samples as columns (float64 t, complex128 x
and p), which the analyses and the CSV writer read directly; the
``PhaseState`` list ``Trajectory.samples`` is built only when asked
for.  Each sample's potential is evaluated once, for the energy column
that ``energy_drift`` and the CSV writer share, together with the local
scale |p|^2/2 + |V| of ``energy_drift``.

Compiled kernel: for exact instances of the four built-in models (with
plain int, float or complex parameters, on CPython before 3.14) ``_dopri``
runs the same loop in C (``_dopri5.c``, loaded by ``_dopri5``), which
mirrors CPython's complex arithmetic operation for operation and so gives
the same steps bit for bit.  It hands over accepted states in blocks of
512 through the same generator protocol, so every caller, event
polishing included, gets it through the one stepper, and the events
stay here.  A polishing run needs only its landed state, so ``_advance``
takes it from one library call (``_dopri5.advance``) that also computes
``_initial_step`` and returns the field at the landed state; a run the
library cannot finish as Python would is redone whole on this path.
A step the kernel cannot mirror (a non-finite stage or result, a stage
with |Im x| past 708.396..., where ``cmath.sinh`` switches formula, or an
overflowing sine) is handed back: the Python loop below resumes from the
state at the start of that step and redoes it.  Subclasses, models of
the Python API, later interpreters and a failed build (logged once) use
the Python loop throughout; it stays the reference.
The same library computes the energy column of those models
(``_dopri5.energy_columns``), mirroring ``cmath.cos``, the complex
products and the ``pow`` of ``|p| ** 2``; the rows it cannot mirror (a
non-finite x, |Im x| past 708.396..., where ``cmath.cosh`` switches
formula, or an overflowing cosine) and every row of the other models
are computed by the Python expressions of ``Trajectory``, the
reference.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _dopri5
from .models import HamiltonianModel, PhaseState, cell_indices

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

_BLOCK = 64  # accepted steps per block of the Python stepping loop


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


class Trajectory:
    """Result of one integration run.

    The samples are stored as columns: ``t`` (float64), ``x`` and ``p``
    (complex128), ordered along the direction of integration and starting
    at the initial state; ``len(traj)`` counts them.  ``samples`` is the
    same data as a list of ``PhaseState``, built at first use and cached.
    A trajectory can also be made from such a list,
    ``Trajectory(samples=[...], classification=...)``.

    period is set exactly when classification == "closed", escape_time
    exactly when classification == "escaped"; termination names the event
    that stopped the run ("closure", "escape", "horizon", "max_steps",
    "step_underflow", "overflow", "non_finite").
    """

    def __init__(
        self,
        samples=None,
        classification: str = "",
        period: float | None = None,
        escape_time: float | None = None,
        termination: str = "",
        model: HamiltonianModel | None = None,
        *,
        t=None,
        x=None,
        p=None,
    ) -> None:
        if samples is not None:
            samples = list(samples)
            t = [s.t for s in samples]
            x = [s.x for s in samples]
            p = [s.p for s in samples]
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=complex)
        self.p = np.asarray(p, dtype=complex)
        self.classification = classification
        self.period = period
        self.escape_time = escape_time
        self.termination = termination
        self.model = model

    def __len__(self) -> int:
        return len(self.t)

    @functools.cached_property
    def samples(self) -> list[PhaseState]:
        """The samples as ``PhaseState``s of Python floats and complexes."""
        return list(map(PhaseState, self.x.tolist(), self.p.tolist(), self.t.tolist()))

    @property
    def cell_history(self) -> list[tuple[float, int]]:
        """(t, cell_index(x)) for every sample."""
        return list(zip(self.t.tolist(), map(int, cell_indices(self.x).tolist())))

    @functools.cached_property
    def _energy_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """V(x), H = p^2/2 + V(x) and ``energy_drift``'s local scale
        |p|^2/2 + |V| at every sample.  The compiled library fills the
        rows it can (see ``_dopri5.energy_columns``); the Python
        expressions below, the reference, fill the rest."""
        if self.model is None:
            raise ValueError("trajectory carries no model")
        v, h, scale, k = _dopri5.energy_columns(self.model, self.x, self.p)
        potential = self.model.potential
        rest = [potential(x, t) for t, x in zip(self.t[k:].tolist(), self.x[k:].tolist())]
        v[k:] = rest
        # complex products stay in Python: numpy's may round differently
        h[k:] = [0.5 * p * p + vk for p, vk in zip(self.p[k:].tolist(), rest)]
        # per sample, the bits of 0.5 * abs(p) ** 2 + abs(v): np.hypot is
        # the libm hypot of abs(complex), and abs(p) ** 2 is libm's pow,
        # which numpy's square is not
        with np.errstate(all="ignore"):
            abs_p = np.hypot(self.p.real[k:], self.p.imag[k:])
            scale[k:] = 0.5 * np.array([_square(a) for a in abs_p.tolist()]) + np.hypot(v.real[k:], v.imag[k:])
        return v, h, scale

    @property
    def energy(self) -> np.ndarray:
        """H = p^2/2 + V(x) at every sample (complex128), evaluated once
        per sample and shared by ``energy_drift`` and the CSV writer."""
        return self._energy_columns[1]

    def energy_drift(self) -> float:
        """Worst relative energy error over the samples.

        Each sample's deviation |H(t) - H(0)| is measured against the
        local scale max(1, |H(0)|, |p|^2/2 + |V(x)|): on an escape run
        the kinetic and potential terms grow huge while their sum stays
        fixed, and only deviation relative to those terms reflects
        integration error rather than float cancellation.  Meaningful
        for autonomous models, where H is conserved exactly.
        """
        _, h, scale = self._energy_columns
        e0 = self.model.energy(PhaseState(self.x[0].item(), self.p[0].item(), self.t[0].item()))
        # per sample, the bits of the scalar expression
        #   abs(h - e0) / max(1.0, abs(e0), scale):
        # fmax skips a NaN as max() does when 1.0 comes first
        with np.errstate(all="ignore"):
            dev = h - e0
            dev = np.hypot(dev.real, dev.imag) / np.fmax(max(1.0, np.hypot(e0.real, e0.imag)), scale)
            return float(np.fmax.reduce(dev, initial=0.0))


def _square(a: float) -> float:
    """a ** 2 as libm's pow; inf where the square is past the float range
    (a float power raises there)."""
    try:
        return a**2
    except OverflowError:
        return math.inf


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
    a one-Euler-step probe of the local derivative change; 0.0 when the
    slope is so large that the trial value underflows."""
    d0 = _scaled_norm(x, p, x, p, abs_tol, rel_tol)
    d1 = _scaled_norm(k1x, k1p, x, p, abs_tol, rel_tol)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, max_step)
    if h0 == 0.0:
        return 0.0
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
    Yields the accepted steps in blocks (t, z): t the float64 array of
    their times and z the complex128 array of two rows, x and p.  The
    field at each new state feeds the next step and is not handed over.
    Returns why it stopped:
    "horizon", "max_steps", "step_underflow" (the controller wants steps
    below min_step, or the first step underflows to 0) or "non_finite"
    (halving a step with non-finite stages went below min_step).  Callers
    watch for events and may stop early; the steps of a block past an
    event are then wasted, so the Python loop hands over ``_BLOCK`` steps
    at a time, the compiled kernel 512.

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
    if h_mag == 0.0:
        return "step_underflow"
    facold = 1e-4
    accepted = 0
    i = 0
    times, rows = [], []
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
            stop = "max_steps"
            break
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
                stop = "non_finite"
                break
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
                stop = "step_underflow"
                break
            continue

        t = stops[i] if landed else t + h
        x, p, k1x, k1p = x1, p1, k7x, k7p
        times.append(t)
        rows.append((x, p))
        if len(times) == _BLOCK:
            yield np.array(times), np.array(rows).T
            times, rows = [], []
        accepted += 1

        hnew = abs(_next_h(h, err, facold))
        facold = max(err, 1e-4)
        if not (landed or abs(h) < h_mag):
            # clipped steps say nothing about the error-optimal size
            h_mag = min(hnew, max_step)
            if h_mag < min_step:
                # the controller itself wants sub-floor steps: the local
                # timescale has collapsed (approaching a singularity)
                stop = "step_underflow"
                break
    else:
        stop = "horizon"
    if times:
        yield np.array(times), np.array(rows).T
    return stop


def _advance(field, row, t_target, polish):
    """Event-free re-integration from the state row (t, x, p, ...) landing
    exactly on t_target; used to polish event times.  ``polish`` is the
    record (rel_tol, abs_tol, max_step, min_step) of the re-integration.
    Returns (x, p, k), k the field (kx, kp) at t_target when the compiled
    library ran the whole re-integration (``_dopri5.advance``), None
    otherwise."""
    t, x, p = row[:3]
    if t_target != t:
        params = _dopri5.model_params(field)
        landed = None if params is None else _dopri5.advance(params, t, x, p, t_target, polish)
        if landed is not None:
            return landed
        k1x, k1p = field(t, x, p)
        for ts, z in _dopri(field, t, x, p, k1x, k1p, [t_target], *polish):
            t, x, p = ts[-1].item(), z[0, -1].item(), z[1, -1].item()
    if t != t_target:
        raise ArithmeticError(f"event polishing stopped at t={t!r} short of {t_target!r}")
    return x, p, None


def _dist2(x, p, x0, p0):
    """Squared phase-space distance from (x0, p0) to (x, p); elementwise
    when x and p are arrays, with the same operations in the same order.
    Past the float range it is inf, as in float arithmetic, with no numpy
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x0
        dp = p - p0
        return dx.real * dx.real + dx.imag * dx.imag + dp.real * dp.real + dp.imag * dp.imag


def _is_dip(d_before, d, d_after, dmax_sq):
    """Whether the sampled squared distance d to the start is a candidate
    return: a local minimum within half the orbit extent sqrt(dmax_sq).
    Elementwise on arrays, like ``_dist2``."""
    return (d < d_before) & (d <= d_after) & (d < 0.25 * dmax_sq)


def locate_return(field, start, a, b, c, scale, polish):
    """Refine a sampled local minimum of the distance to the start point.

    start is the state row (t0, x0, p0); a, b, c are consecutive
    (t, x, p, d2) rows with the sampled squared distance d2 minimal at b;
    polish is the re-integration record of ``_advance``.  The field is
    evaluated here, at the start and at a and c, and at each refined time
    unless ``_advance`` brought it: closure is watched only on autonomous
    models, whose field ignores t, so these are the bits the stepper
    computed there.  The closest approach solves
    g(t) = <s(t) - s0, v(t)> = 0 (the time derivative of the half squared
    distance).  g changes sign across the minimum and is nearly linear
    at a transversal return, so a bracketed false-position iteration
    (Illinois variant) converges in a handful of short re-integrations.

    Returns (t_min, x, p, distance/scale, flow_aligned).  flow_aligned
    reports whether the velocity at the minimum points along the initial
    velocity, separating true returns from near misses on the opposite
    branch.
    """
    t0, x0, p0 = start
    ta, xa, pa, da = a
    tb, _, _, db = b
    tc, xc, pc, dc = c

    def g_of(x, p, kx, kp):
        dx = x - x0
        dp = p - p0
        return dx.real * kx.real + dx.imag * kx.imag + dp.real * kp.real + dp.imag * kp.imag

    def state_at(tau):
        # advance from the nearest bracketing sample for accuracy
        base = a if abs(tau - ta) <= abs(tau - tc) else c
        x, p, k = _advance(field, base, tau, polish)
        kx, kp = field(tau, x, p) if k is None else k
        return x, p, kx, kp

    g_lo = g_of(xa, pa, *field(ta, xa, pa))
    g_hi = g_of(xc, pc, *field(tc, xc, pc))
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
    k0x, k0p = field(t0, x0, p0)
    aligned = (
        kx.real * k0x.real + kx.imag * k0x.imag + kp.real * k0p.real + kp.imag * k0p.imag
    ) > 0.0
    return t_star, x_star, p_star, math.sqrt(_dist2(x_star, p_star, x0, p0)) / scale, aligned


def _locate_escape(field, a, tb, radius, polish):
    """Bisect the |Im x| = radius crossing inside (ta, tb], ta the time of
    the state row a, which is strictly inside; polish as for ``_advance``.
    Returns (t, x, p) at the crossing."""
    lo, hi = a[0], tb
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        xm, _, _ = _advance(field, a, mid, polish)
        if abs(xm.imag) >= radius:
            hi = mid
        else:
            lo = mid
    x, p, _ = _advance(field, a, hi, polish)
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

    k0x, k0p = field(t0, x0, p0)
    if not _finite(complex(k0x), complex(k0p)):
        raise ValueError("vector field is not finite at the start state")

    # polish runs use a slightly tighter tolerance so event times are not
    # limited by the refinement itself
    polish = max(cfg.rel_tol * 0.1, 1e-14), max(cfg.abs_tol * 0.1, 1e-16), cfg.max_step, cfg.min_step

    steps = _dopri(
        field, t0, x0, p0, k0x, k0p, cps + [t_end],
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.min_step, cfg.max_steps,
    )
    guard = cfg.overflow_guard
    radius = cfg.escape_radius
    origin = t0, x0, p0
    # settled samples as (t, x, p) column pieces, and the rows that can
    # still take part in an event: the start at first, then the last two
    # rows of each block, joined to the head of the next block
    pieces = []
    carry = np.array([t0]), np.array([x0]), np.array([p0])
    dmax_sq = 0.0
    period = escape_time = None
    classification = None
    while classification is None:
        try:
            t, z = next(steps)
        except StopIteration as stop:
            termination = stop.value
            classification = _STOP_CLASSIFICATION[termination]
            pieces.append(carry)
            break
        c = len(carry[0])
        t, x, p = (np.concatenate((a, b)) for a, b in zip(carry, (t, z[0], z[1])))

        # every row that may end the run, tested elementwise; the loop
        # below visits them in order, each row's tests in the order
        # overflow, escape, closure.  The carried rows were tested in
        # their own block, and the start is not tested against the guard.
        over = (np.abs(x.real) > guard) | (np.abs(x.imag) > guard) | (np.abs(p.real) > guard) | (np.abs(p.imag) > guard)
        out = np.abs(x.imag) >= radius if watch_escape else np.zeros(len(t), bool)
        over[:c] = out[:c] = False
        events = over | out
        d2 = _dist2(x, p, x0, p0) if watch_closure else np.zeros(len(t))
        if watch_closure:
            dmax = np.fmax.accumulate(np.concatenate(([dmax_sq], d2)))[1:]
            # row j >= 2 is a candidate when row j - 1 is a dip between
            # its neighbours, late enough after the start
            events[2:] |= _is_dip(d2[:-2], d2[1:-1], d2[2:], dmax[2:]) & ((t[1:-1] - t0) * direction >= ev.min_period)

        def row(j):
            return t[j].item(), x[j].item(), p[j].item(), d2[j].item()

        kept = len(t) - 2
        for r in np.flatnonzero(events).tolist():
            if over[r]:
                kept = r + 1
                classification, termination = BLOWUP, "overflow"
                break
            if out[r]:
                te, xe, pe = _locate_escape(field, row(r - 1), t[r].item(), radius, polish)
                kept = r
                end = te, xe, pe
                classification, termination = ESCAPED, "escape"
                escape_time = abs(te - t0)
                break
            t_star, x_star, p_star, dist_scaled, aligned = locate_return(
                field, origin, row(r - 2), row(r - 1), row(r), math.sqrt(dmax[r]), polish
            )
            if dist_scaled <= ev.closure_tol and aligned:
                # the refined return lies in [t[r - 2], t[r]]
                kept = r - 2 + np.count_nonzero((t[r - 2 : r] - t_star) * direction < 0.0)
                end = t_star, x_star, p_star
                classification, termination = CLOSED, "closure"
                period = abs(t_star - t0)
                break
        pieces.append((t[:kept], x[:kept], p[:kept]))
        carry = t[kept:], x[kept:], p[kept:]
        if watch_closure:
            dmax_sq = dmax[-1].item()

    ts, xs, ps = (np.concatenate(column) for column in zip(*pieces))
    if classification in (CLOSED, ESCAPED):
        ts, xs, ps = np.append(ts, end[0]), np.append(xs, end[1]), np.append(ps, end[2])
    return Trajectory(
        t=ts,
        x=xs,
        p=ps,
        classification=classification,
        period=period,
        escape_time=escape_time,
        termination=termination,
        model=model,
    )
