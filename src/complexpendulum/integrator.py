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
It watches the events above by one rule for each accepted row, the
kernel's (see ``_dopri``), and hands over in blocks of arrays only the
states (t, x, p) the run keeps, its refined end last.  Event polishing
(``locate_return``, ``_locate_escape``) re-integrates short spans with
the same stepper from state rows, under one polish record (rel_tol,
abs_tol, max_step, min_step); a landing run returns only its landed x
and p, and ``locate_return`` evaluates the field itself where it needs
it.

Trajectories store their samples as columns (float64 t, complex128 x
and p), which the analyses and the CSV writer read directly; the
``PhaseState`` list ``Trajectory.samples`` is built only when asked
for.  ``integrate`` copies the kept block pieces into the columns
one column at a time, so a run never holds all its rows twice.  How a
run ended is stored once, as its ``termination``; the classification
comes from one table, and ``period`` or ``escape_time`` is the time to
the last sample, the refined return or crossing.  Each sample's
potential is evaluated once, for the energy column H that
``energy_drift`` (its reference H(0) included) and the CSV writer
share, and, for an autonomous model, the column of ``energy_drift``'s
local scale |p|^2/2 + |V|; no column of V is kept.

Compiled kernel: for exact instances of the four built-in models (with
plain int, float or complex parameters, on CPython before 3.14) ``_dopri``
runs the same loop in C (``_dopri5.c``, loaded by ``_dopri5``), which
mirrors CPython's complex arithmetic operation for operation and so gives
the same steps bit for bit.  The kernel has one stepping entry point,
and it starts each run itself: the field and ``_initial_step`` at the
start are computed there.  It watches a main run's events by the same
rule and polishes them as ``_locate_escape`` and ``locate_return`` do,
each landing run a direct call, so the run takes no step past its
event.  A polishing run needs only its landed state, so ``_advance``
takes it from one kernel call that keeps no rows (``_dopri5.land``); a
run the library cannot finish as Python would is redone whole on this
path.  The kernel returns to Python one way, a hand-back: at a step it
cannot mirror (a non-finite stage or result, a stage with |Im x| past
708.396..., where ``cmath.sinh`` switches formula, or an overflowing
sine), and at an escape or a candidate return it does not polish (one
whose polish it cannot mirror, or whose polishing is rebound here, see
``_MIRRORED``), the Python loop below resumes from the state at the
start of that step, redoes it and finishes the run; a run handed back at
its start gets its field and ``_initial_step`` there from Python.
Subclasses, models of the Python API, later interpreters and a failed
build (logged once) use the Python loop throughout; it stays the
reference.
The same library computes the energy columns, H and the local scale,
of those models (``_dopri5.energy_columns``), mirroring ``cmath.cos``,
the complex products and the ``pow`` of ``|p| ** 2``; the rows it
cannot mirror (a non-finite x, |Im x| past 708.396..., where
``cmath.cosh`` switches formula, or an overflowing cosine) and every
row of the other models are computed by the Python expressions of
``Trajectory``, the reference.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _dopri5
from .models import HamiltonianModel, PhaseState

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
]

CLOSED = "closed"
OPEN = "open"
ESCAPED = "escaped"
TRUNCATED = "truncated"
BLOWUP = "blowup"

# the classification of each termination, the event that stopped a run
_CLASSIFICATION = {
    "closure": CLOSED,
    "escape": ESCAPED,
    "horizon": OPEN,
    "max_steps": TRUNCATED,
    "step_underflow": TRUNCATED,
    "overflow": BLOWUP,
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
        for name in ("rel_tol", "abs_tol", "max_time"):
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
    ``energy`` is the column of H, computed at first use together with
    ``energy_drift``'s local scale |p|^2/2 + |V| (for an autonomous model
    only) and cached; V is not kept.

    termination names the event that stopped the run ("closure",
    "escape", "horizon", "max_steps", "step_underflow", "overflow",
    "non_finite"; "" for samples that no run produced, the only ending
    a trajectory without samples may have), and everything
    else about the ending is read from it: ``classification``, and
    ``period`` or ``escape_time``, the time from the first sample to the
    last (the refined return or crossing), set exactly when the run
    closed or escaped.
    """

    def __init__(self, t, x, p, termination: str = "", model: HamiltonianModel | None = None) -> None:
        if termination and termination not in _CLASSIFICATION:
            raise ValueError(f"unknown termination {termination!r}")
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=complex)
        self.p = np.asarray(p, dtype=complex)
        if termination and not len(self.t):
            raise ValueError(f"termination {termination!r} needs samples")
        self.termination = termination
        self.model = model

    def __len__(self) -> int:
        return len(self.t)

    @property
    def classification(self) -> str:
        return _CLASSIFICATION.get(self.termination, "")

    @property
    def period(self) -> float | None:
        return self._duration() if self.termination == "closure" else None

    @property
    def escape_time(self) -> float | None:
        return self._duration() if self.termination == "escape" else None

    def _duration(self) -> float:
        return abs(self.t[-1].item() - self.t[0].item())

    @functools.cached_property
    def samples(self) -> list[PhaseState]:
        """The samples as ``PhaseState``s of Python floats and complexes."""
        return list(map(PhaseState, self.x.tolist(), self.p.tolist(), self.t.tolist()))

    @functools.cached_property
    def _energy_columns(self) -> tuple[np.ndarray, np.ndarray | None]:
        """H = p^2/2 + V(x) and, for an autonomous model (else None),
        ``energy_drift``'s local scale |p|^2/2 + |V| at every sample; V
        itself is not kept.  ``energy_drift`` alone reads the scale, and
        the CLI calls it for autonomous models only; for a driven model
        it builds the scale for that call."""
        if self.model is None:
            raise ValueError("trajectory carries no model")
        return self._columns(self.model.autonomous)

    def _columns(self, with_scale: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """H and, if ``with_scale`` (else None), the local scale.  The
        compiled library fills the rows it can (see
        ``_dopri5.energy_columns``); the Python expressions below, the
        reference, fill the rest block by block, evaluating V for those
        rows only."""
        h, scale, k = _dopri5.energy_columns(self.model, self.x, self.p, with_scale)
        for i in range(k, len(h), _dopri5._ROWS):
            rows = slice(i, i + _dopri5._ROWS)
            v = list(map(self.model.potential, self.x[rows].tolist()))
            # complex products stay in Python: numpy's may round differently
            h[rows] = [0.5 * p * p + vk for p, vk in zip(self.p[rows].tolist(), v)]
            if scale is None:
                continue
            v = np.array(v, dtype=complex)
            # per sample, the bits of 0.5 * abs(p) ** 2 + abs(v): np.hypot
            # is the libm hypot of abs(complex), and abs(p) ** 2 is libm's
            # pow, which numpy's square is not
            with np.errstate(all="ignore"):
                abs_p = np.hypot(self.p.real[rows], self.p.imag[rows])
                scale[rows] = 0.5 * np.array([_square(a) for a in abs_p.tolist()]) + np.hypot(v.real, v.imag)
        return h, scale

    @property
    def energy(self) -> np.ndarray:
        """H = p^2/2 + V(x) at every sample (complex128), evaluated once
        per sample and shared by ``energy_drift`` and the CSV writer."""
        return self._energy_columns[0]

    def energy_drift(self) -> float:
        """Worst relative energy error over the samples.

        Each sample's deviation |H(t) - H(0)| is measured against the
        local scale max(1, |H(0)|, |p|^2/2 + |V(x)|): on an escape run
        the kinetic and potential terms grow huge while their sum stays
        fixed, and only deviation relative to those terms reflects
        integration error rather than float cancellation.  Meaningful
        for autonomous models, where H is conserved exactly.
        """
        if not len(self.t):
            raise ValueError("trajectory has no samples")
        h, scale = self._energy_columns
        if scale is None:
            # a driven model's: built for this call, not kept
            scale = self._columns(True)[1]
        e0 = h[0].item()
        # per sample, the bits of the scalar expression
        #   abs(h - e0) / max(1.0, abs(e0), scale):
        # fmax skips a NaN as max() does when 1.0 comes first.  The ratio
        # is formed in place, so at most 24 bytes a row are alive at once.
        with np.errstate(all="ignore"):
            dev = h - e0
            dev = np.hypot(dev.real, dev.imag)
            np.divide(dev, np.fmax(max(1.0, np.hypot(e0.real, e0.imag)), scale), out=dev)
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
    slope is so large that the trial value underflows, or the step is not
    finite (norms past the float range)."""
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
    h = min(100.0 * h0, h1, max_step)
    return h if math.isfinite(h) else 0.0


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


def _columns(rows):
    """The (t, x, p) columns of the rows (t, x, p, ...)."""
    t, x, p = list(zip(*rows))[:3]
    return np.array(t), np.array(x, dtype=complex), np.array(p, dtype=complex)


def _dopri(model, t, x, p, stops, rel_tol, abs_tol, max_step, min_step, max_steps=math.inf, watch=_dopri5._NO_WATCH):
    """The adaptive stepping loop shared by every integration run.

    Steps the flow of ``model`` from (t, x, p), landing exactly on each
    time of ``stops`` in turn; the last one ends the run.  The compiled
    kernel starts its runs itself: the field and ``_initial_step`` at the
    start are computed here only where it does not run or hands back there.
    Yields the rows the run keeps in blocks of columns (t, x, p), float64
    and complex128.  Returns why it stopped: "horizon", "max_steps",
    "step_underflow" (the controller wants steps below min_step, or the
    first step underflows to 0), "non_finite" (halving a step with
    non-finite stages went below min_step), or the event that ended it.

    ``watch`` is the tail of the kernel's run record that ``integrate``
    packs (see ``_dopri5.steps``), no events by default.  Each accepted
    row goes through one rule, ``watch_row``, the kernel's line for line:
    the overflow guard, the escape radius (polished by ``_locate_escape``),
    then a dip of d2, the squared distance to the start, at the row before
    (polished by ``locate_return``).  A closure drops the rows from its
    refined return on, at most the last two, so those stay pending: every
    row handed over is kept.  Where the kernel hands the run back, the
    rule goes on from the kernel's last two rows, the newest ``pending``
    of them not yet handed over.

    One fused sweep: the seven stages, the finiteness screen and the
    mixed-tolerance RMS error norm over the four real components are
    written out in the loop body rather than called as helpers, which
    saves CPython's call and tuple overhead.  The complex expressions are
    frozen in their order: a float times a complex is a full complex
    product, so folding ``h`` into the tableau weights or splitting into
    real arithmetic would change rounding and signed zeros, and with them
    the bundled outputs.  The field is called through ``model.field`` and
    step-size updates through the module functions ``_next_h`` (once per
    accepted step) and ``_reject_h`` (once per rejected step), the names
    the benchmark's counters wrap; runs the compiled kernel starts and
    steps make none of these calls, nor one of ``_initial_step``.
    """
    field = model.field
    isfinite = math.isfinite
    sqrt = math.sqrt
    t_end = float(stops[-1])
    direction = 1.0 if t_end > t else -1.0
    bits, guard, radius, closure_tol, min_period, t0, x0r, x0i, p0r, p0i, *polish = watch
    origin = t0, x0, p0 = t0, complex(x0r, x0i), complex(p0r, p0i)
    over, escape, closure = (bits & flag for flag in (_dopri5.WATCH_OVERFLOW, _dopri5.WATCH_ESCAPE, _dopri5.WATCH_CLOSURE))
    seed = [(t, x, p, 0.0)] * 2  # the rows before ``out``: the start as a row (t, x, p, d2)
    dmax = 0.0  # the running maximum of d2
    out = []  # the rows not yet handed over, the last two pending

    def watch_row(t, x, p):
        """The run's end at the row (t, x, p), or None, the row kept."""
        nonlocal dmax
        a, b = out[-2:] if len(out) > 1 else (*seed, *out)[-2:]
        if closure:
            dx = x - x0
            dp = p - p0
            d2 = dx.real * dx.real + dx.imag * dx.imag + dp.real * dp.real + dp.imag * dp.imag
        else:
            d2 = 0.0
        dmax = d2 if d2 > dmax else dmax
        row = t, x, p, d2
        if over and (abs(x.real) > guard or abs(x.imag) > guard or abs(p.real) > guard or abs(p.imag) > guard):
            out.append(row)
            return "overflow"
        if escape and abs(x.imag) >= radius:
            out.append(_locate_escape(model, b, t, radius, polish))
            return "escape"
        if closure and b[3] < a[3] and b[3] <= d2 and b[3] < 0.25 * dmax and (b[0] - t0) * direction >= min_period:
            t_star, x_star, p_star, dist_scaled, aligned = locate_return(model, origin, a, b, row, sqrt(dmax), polish)
            if dist_scaled <= closure_tol and aligned:
                # the rows a and b stay where they come before the return
                del out[len(out) - 2 + ((a[0] - t_star) * direction < 0.0) + ((b[0] - t_star) * direction < 0.0) :]
                out.append((t_star, x_star, p_star))
                return "closure"
        out.append(row)

    h_mag = 0.0  # 0 until the run has started
    accepted = 0
    i = 0
    record = _dopri5.model_params(model)
    if record is not None:
        stop = yield from _dopri5.steps(record, t, x, p, stops, direction, rel_tol, abs_tol, max_step, min_step, max_steps, watch)
        if isinstance(stop, str):
            return stop
        # the kernel handed back: the loop below redoes the next step; a
        # built-in model's field returns p itself as dx/dt
        t, x, p, k1p, h_mag, facold, accepted, i, pending, dmax, rows = stop
        seed, out[:] = rows[: 2 - pending], rows[2 - pending :]
        k1x = p
    stops = np.asarray(stops, dtype=float).tolist()  # Python floats, as the loop's arithmetic needs
    if h_mag == 0.0:
        k1x, k1p = field(t, x, p)
        h_mag = _initial_step(field, t, x, p, k1x, k1p, direction, abs_tol, rel_tol, max_step)
        if h_mag == 0.0:
            return "step_underflow"
        facold = 1e-4
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
        accepted += 1

        hnew = abs(_next_h(h, err, facold))
        facold = max(err, 1e-4)
        underflow = False
        if not (landed or abs(h) < h_mag):
            # clipped steps say nothing about the error-optimal size
            h_mag = min(hnew, max_step)
            # the controller itself wants sub-floor steps: the local
            # timescale has collapsed (approaching a singularity)
            underflow = h_mag < min_step
        stop = watch_row(t, x, p)
        if stop:
            break
        if underflow:
            stop = "step_underflow"
            break
        if len(out) >= _BLOCK + 2:
            yield _columns(out[:-2])
            del out[:-2]
    else:
        stop = "horizon"
    if out:
        yield _columns(out)
    return stop


def _advance(model, row, t_target, polish):
    """Event-free re-integration from the state row (t, x, p, ...) landing
    exactly on t_target; used to polish event times.  ``polish`` is the
    record (rel_tol, abs_tol, max_step, min_step) of the re-integration.
    Returns (x, p) at t_target, from one kernel call that keeps no rows
    (``_dopri5.land``) where the library runs the whole re-integration,
    else from ``_dopri``."""
    t, x, p = row[:3]
    if t_target != t:
        record = _dopri5.model_params(model)
        landed = None if record is None else _dopri5.land(record, t, x, p, t_target, polish)
        if landed is not None:
            return landed
        for ts, xs, ps in _dopri(model, t, x, p, [t_target], *polish):
            t, x, p = ts[-1].item(), xs[-1].item(), ps[-1].item()
    if t != t_target:
        raise ArithmeticError(f"event polishing stopped at t={t!r} short of {t_target!r}")
    return x, p


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


def locate_return(model, start, a, b, c, scale, polish):
    """Refine a sampled local minimum of the distance to the start point.

    start is the state row (t0, x0, p0); a, b, c are consecutive
    (t, x, p, d2) rows with the sampled squared distance d2 minimal at b;
    polish is the re-integration record of ``_advance``.  The field is
    evaluated here, at the start, at a and c, and at each refined state,
    which ``_advance`` returns without it.  The closest approach solves
    g(t) = <s(t) - s0, v(t)> = 0 (the time derivative of the half squared
    distance).  g changes sign across the minimum and is nearly linear
    at a transversal return, so a bracketed false-position iteration
    (Illinois variant) converges in a handful of short re-integrations.

    Returns (t_min, x, p, distance/scale, flow_aligned).  flow_aligned
    reports whether the velocity at the minimum points along the initial
    velocity, separating true returns from near misses on the opposite
    branch.
    """
    field = model.field
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
        x, p = _advance(model, base, tau, polish)
        return x, p, *field(tau, x, p)

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


def _locate_escape(model, a, tb, radius, polish):
    """Bisect the |Im x| = radius crossing inside (ta, tb], ta the time of
    the state row a, which is strictly inside; polish as for ``_advance``.
    Returns (t, x, p) at the crossing."""
    lo, hi = a[0], tb
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        xm, _ = _advance(model, a, mid, polish)
        if abs(xm.imag) >= radius:
            hi = mid
        else:
            lo = mid
    x, p = _advance(model, a, hi, polish)
    return hi, x, p


# the event polishing the kernel mirrors; with any of them rebound (a spy,
# a tracer's wrapper) the kernel hands back each escape and candidate
_MIRRORED = (locate_return, _locate_escape, _advance)


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
    is any one-dimensional iterable of finite times (a list, a numpy
    array), read as one float64 array, that the stepper must land on
    exactly; they appear among the samples, making runs comparable
    across step-size settings.

    The events are watched and polished inside the run (see ``_dopri``),
    which hands over only the rows it keeps.
    """
    cfg = config if config is not None else IntegratorConfig()
    ev = events if events is not None else EventSpec()

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

    stops = [t_end]
    if t_checkpoints is not None:
        cps = t_checkpoints if isinstance(t_checkpoints, (np.ndarray, list, tuple)) else list(t_checkpoints)
        cps = np.asarray(cps, dtype=float)
        if cps.ndim != 1:
            raise ValueError("t_checkpoints must be a one-dimensional sequence of times")
        # in the run's direction, equal times in their given order, as sorted() leaves them
        cps = cps[np.argsort(cps if direction > 0 else -cps, kind="stable")]
        if not np.isfinite(cps).all():
            raise ValueError("t_checkpoints must be finite")
        stops = np.append(cps[((cps - t0) * direction > 0.0) & ((t_end - cps) * direction > 0.0)], t_end)

    if not _finite(*map(complex, model.field(t0, x0, p0))):
        raise ValueError("vector field is not finite at the start state")

    # polish runs use a slightly tighter tolerance so event times are not
    # limited by the refinement itself, and a step floor as much lower
    polish = max(cfg.rel_tol * 0.1, 1e-14), max(cfg.abs_tol * 0.1, 1e-16), cfg.max_step, cfg.min_step * 0.1
    # the events the kernel watches, in the tail of its run record; it
    # polishes them only while the polishing here is the code it mirrors
    watch = (
        _dopri5.WATCH_OVERFLOW
        | _dopri5.WATCH_ESCAPE * watch_escape
        | _dopri5.WATCH_CLOSURE * watch_closure
        | _dopri5.WATCH_POLISH * ((locate_return, _locate_escape, _advance) == _MIRRORED),
        cfg.overflow_guard, cfg.escape_radius, ev.closure_tol, ev.min_period,
        t0, x0.real, x0.imag, p0.real, p0.imag, *polish,
    )

    steps = _dopri(model, t0, x0, p0, stops, cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.min_step, cfg.max_steps, watch)
    # the run's rows as (t, x, p) column pieces, the start first
    pieces = [(np.array([t0]), np.array([x0]), np.array([p0]))]
    while True:
        try:
            pieces.append(next(steps))
        except StopIteration as stop:
            termination = stop.value
            break

    # one column at a time, each column's pieces dropped once copied, so
    # that the run never holds its rows twice
    t, x, p = zip(*pieces)
    del pieces
    t = np.concatenate(t)
    x = np.concatenate(x)
    p = np.concatenate(p)
    return Trajectory(t, x, p, termination, model)
