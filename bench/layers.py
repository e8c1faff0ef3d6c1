"""Per-layer metrics, derived from the spans and counters of traced passes.

Layers are the package's modules.  ``derive`` turns the spans of one
traced pass into metric values; a value given as a string is the reason
the metric is unmeasured (a target is missing, or the workload makes no
such call).  ``combine`` merges passes: ``count`` metrics must repeat
exactly from pass to pass, ``time`` metrics are reported as the median.
Two probes stand outside the passes: a micro-timing of ``model.field``
and a ``tracemalloc`` measurement of a driven (fig12) trajectory.
"""
from __future__ import annotations

import math
import statistics
import time
import tracemalloc

from tracing import Span, self_times
from workloads import CATALOG

COUNT, TIME, PROBE = "count", "time", "probe"

MODEL_KINDS = ("pendulum", "harmonic", "cubic-i", "driven-pendulum")

# name -> (unit, better, kind, targets the value depends on)
_I = "integrator."
_SPAN_INTEGRATE = "integrator.integrate"
_FIELD = "models.HamiltonianModel.field"
_ACCEPTED = "integrator._next_h"
_POLISH = ("integrator.locate_return", "integrator._locate_escape")
_QUAD = (
    "quadrature.escape_time",
    "quadrature.escape_time_real_form",
    "quadrature.period_contour",
    "quadrature.contour_integral",
    "quadrature.adaptive_quad",
)
METRICS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "models.field_calls": ("count", "lower", COUNT, (_FIELD,)),
    "models.potential_calls": ("count", "lower", COUNT, ("models.*.potential",)),
    **{f"models.field_ns.{k}": ("ns", "lower", PROBE, ()) for k in MODEL_KINDS},
    _I + "steps": ("count", "lower", COUNT, (_SPAN_INTEGRATE, _ACCEPTED, *_POLISH)),
    _I + "field_evals.main": ("count", "lower", COUNT, (_SPAN_INTEGRATE, _FIELD, *_POLISH)),
    _I + "field_evals.polish": ("count", "lower", COUNT, (_FIELD, *_POLISH)),
    _I + "accept_ratio": ("ratio", "higher", COUNT, (_SPAN_INTEGRATE, _FIELD, _ACCEPTED, *_POLISH)),
    _I + "self_s": ("s", "lower", TIME, (_SPAN_INTEGRATE, *_POLISH)),
    _I + "step_us": ("us", "lower", TIME, (_SPAN_INTEGRATE, _ACCEPTED, *_POLISH)),
    _I + "polish_calls": ("count", "lower", COUNT, _POLISH),
    _I + "polish_s": ("s", "lower", TIME, _POLISH),
    _I + "closure_hit_ratio": ("ratio", "higher", COUNT, (_SPAN_INTEGRATE, "integrator.locate_return")),
    _I + "bytes_per_sample": ("B", "lower", PROBE, ()),
    _I + "energy_drift_us_per_sample": ("us", "lower", TIME, ("integrator.Trajectory.energy_drift",)),
    "analysis.pt_s": ("s", "lower", TIME, ("analysis.verify_pt_symmetry",)),
    "analysis.pt_steps": ("count", "lower", COUNT, ("analysis.verify_pt_symmetry", _SPAN_INTEGRATE, _ACCEPTED)),
    "analysis.closure_ms": ("ms", "lower", TIME, ("analysis.detect_closure",)),
    "analysis.ellipse_ms": ("ms", "lower", TIME, ("analysis.fit_ellipse",)),
    "analysis.cells_ms": ("ms", "lower", TIME, ("analysis.cell_escape_summary",)),
    "turning.calls": ("count", "lower", COUNT, ("turning.turning_points",)),
    "turning.ms_per_call": ("ms", "lower", TIME, ("turning.turning_points",)),
    "turning.roots": ("count", "lower", COUNT, ("turning.turning_points",)),
    "quadrature.period_ms": ("ms", "lower", TIME, ("quadrature.period_contour",)),
    "quadrature.escape_time_ms": ("ms", "lower", TIME, ("quadrature.escape_time",)),
    "quadrature.real_form_ms": ("ms", "lower", TIME, ("quadrature.escape_time_real_form",)),
    "quadrature.panels": ("count", "lower", COUNT, ("quadrature._panel",)),
    "quadrature.potential_evals_per_call": ("count", "lower", COUNT, (*_QUAD, "models.*.potential")),
    "quadrature.us_per_eval": ("us", "lower", TIME, (*_QUAD, "models.*.potential")),
    "cli.load_scenario_ms": ("ms", "lower", TIME, ("cli.load_scenario",)),
    "cli.csv_us_per_sample": ("us", "lower", TIME, ("cli._write_trajectory_csv",)),
    "cli.csv_bytes": ("B", "lower", COUNT, ("cli._write_trajectory_csv",)),
    "cli.self_s": ("s", "lower", TIME, ("cli.run_scenario",)),
    **{f"cli.scenario_s.{n}": ("s", "lower", TIME, ("cli.run_scenario",)) for n in CATALOG},
    "trace.spans": ("count", "lower", COUNT, ()),
    "trace.overhead": ("frac", "lower", PROBE, ()),
}

_QUAD_ENTRIES = ("escape_time", "escape_time_real_form", "period_contour", "contour_integral")
_QUAD_NAMES = set(_QUAD_ENTRIES) | {"adaptive_quad"}


def _mean_ms(spans: list[Span], name: str):
    durs = [s.end - s.start for s in spans if s.name == name]
    return 1e3 * sum(durs) / len(durs) if durs else f"no {name} calls on this workload"


def _ratio(num, den, what: str):
    return num / den if den else f"no {what} on this workload"


def derive(spans: list[Span], lo: int, hi: int, op_names: dict) -> dict:
    """Metric values of one traced pass, ``spans[lo:hi]``.  ``op_names``
    maps op ids to op names."""
    view = spans[lo:hi]
    selfs = self_times(spans, lo, hi)

    def parent_name(s: Span):
        return spans[s.parent].name if s.parent >= 0 else None

    def counts(names, key):
        return sum(s.counts.get(key, 0) for s in view if s.name in names)

    def total(key):
        return sum(s.counts.get(key, 0) for s in view)

    integ = [s for s in view if s.name == "integrate"]
    polish = [s for s in view if s.name in ("locate_return", "_locate_escape")]
    steps = counts({"integrate"}, "accepted")
    fe_main = counts({"integrate"}, "field")
    # each integrate call evaluates the field twice before stepping
    # (first stage, initial-step probe); each attempted step six times
    attempted = (fe_main - 2 * len(integ)) / 6 if integ else 0
    integ_self = sum(t for s, t in zip(view, selfs) if s.name == "integrate")
    returns = [s for s in view if s.name == "locate_return" and parent_name(s) == "integrate"]
    closures = sum(1 for s in integ if s.note and s.note.get("classification") == "closed")
    drift = [s for s in view if s.name == "energy_drift"]
    drift_samples = sum(s.note["samples"] for s in drift if s.note)
    csv = [s for s in view if s.name == "_write_trajectory_csv"]
    csv_samples = sum(s.note["samples"] for s in csv if s.note)
    quad_evals = counts(_QUAD_NAMES, "potential")
    quad_calls = [s for s in view if s.name in _QUAD_ENTRIES and parent_name(s) not in _QUAD_NAMES]
    quad_self = sum(t for s, t in zip(view, selfs) if s.name in _QUAD_NAMES)
    turning = [s for s in view if s.name == "turning_points"]
    scenario_s = {}
    for s in view:
        if s.name == "run_scenario" and parent_name(s) == "op":
            scenario_s[op_names[s.op]] = s.end - s.start

    out = {
        "models.field_calls": total("field"),
        "models.potential_calls": total("potential"),
        _I + "steps": steps,
        _I + "field_evals.main": fe_main,
        _I + "field_evals.polish": counts({"locate_return", "_locate_escape"}, "field"),
        _I + "accept_ratio": _ratio(steps, attempted, "integrate calls"),
        _I + "self_s": integ_self if integ else "no integrate calls on this workload",
        _I + "step_us": _ratio(1e6 * integ_self, steps, "accepted steps"),
        _I + "polish_calls": len(polish),
        _I + "polish_s": sum(s.end - s.start for s in polish) if polish else "no event polishing on this workload",
        _I + "closure_hit_ratio": _ratio(closures, len(returns), "locate_return calls from integrate"),
        _I + "energy_drift_us_per_sample": _ratio(
            1e6 * sum(s.end - s.start for s in drift), drift_samples, "energy_drift samples"
        ),
        "analysis.pt_s": sum(s.end - s.start for s in view if s.name == "verify_pt_symmetry")
        if any(s.name == "verify_pt_symmetry" for s in view)
        else "no verify_pt_symmetry calls on this workload",
        "analysis.pt_steps": sum(
            s.counts.get("accepted", 0) for s in integ if parent_name(s) == "verify_pt_symmetry"
        ),
        "analysis.closure_ms": _mean_ms(view, "detect_closure"),
        "analysis.ellipse_ms": _mean_ms(view, "fit_ellipse"),
        "analysis.cells_ms": _mean_ms(view, "cell_escape_summary"),
        "turning.calls": len(turning),
        "turning.ms_per_call": _mean_ms(view, "turning_points"),
        "turning.roots": sum(s.note["roots"] for s in turning if s.note),
        "quadrature.period_ms": _mean_ms(view, "period_contour"),
        "quadrature.escape_time_ms": _mean_ms(view, "escape_time"),
        "quadrature.real_form_ms": _mean_ms(view, "escape_time_real_form"),
        "quadrature.panels": total("panel"),
        "quadrature.potential_evals_per_call": _ratio(quad_evals, len(quad_calls), "quadrature calls"),
        "quadrature.us_per_eval": _ratio(1e6 * quad_self, quad_evals, "quadrature potential evaluations"),
        "cli.load_scenario_ms": _mean_ms(view, "load_scenario"),
        "cli.csv_us_per_sample": _ratio(1e6 * sum(s.end - s.start for s in csv), csv_samples, "CSV samples"),
        "cli.csv_bytes": sum(s.note["bytes"] for s in csv if s.note),
        "cli.self_s": sum(t for s, t in zip(view, selfs) if s.name == "run_scenario")
        if any(s.name == "run_scenario" for s in view)
        else "no run_scenario calls on this workload",
        "trace.spans": len(view),
    }
    for name in CATALOG:
        out[f"cli.scenario_s.{name}"] = scenario_s.get(name, f"bundled scenario {name} not run on this workload")
    return out


# notes that metrics read; a failed note makes these unmeasured
_NOTE_USERS = {
    "cli._write_trajectory_csv": ("cli.csv_us_per_sample", "cli.csv_bytes"),
    "integrator.integrate": (_I + "closure_hit_ratio",),
    "integrator.Trajectory.energy_drift": (_I + "energy_drift_us_per_sample",),
    "turning.turning_points": ("turning.roots",),
}


def combine(per_pass: list[dict], missing: dict, note_failures: dict) -> tuple[dict, dict, list[str]]:
    """Merge the passes of a traced run.

    Returns (values, unmeasured reasons, count mismatches).  A count that
    differs between passes is reported as a mismatch: the counters are
    meant to repeat exactly.
    """
    values, unmeasured, mismatches = {}, {}, []
    for name, (_, _, kind, deps) in METRICS.items():
        if kind == PROBE:
            continue
        gone = [f"{d}: {missing[d]}" for d in deps if d in missing]
        gone += [f"{t}: {note_failures[t]}" for t, users in _NOTE_USERS.items() if name in users and t in note_failures]
        if gone:
            unmeasured[name] = "; ".join(gone)
            continue
        vals = [p[name] for p in per_pass]
        reasons = [v for v in vals if isinstance(v, str)]
        if reasons:
            unmeasured[name] = reasons[0]
        elif kind == COUNT:
            if any(v != vals[0] for v in vals):
                mismatches.append(f"{name} differs between passes: {vals}")
            values[name] = vals[0]
        else:
            values[name] = statistics.median(vals)
    return values, unmeasured, mismatches


def field_ns(cp, repeats: int = 5, rounds: int = 200) -> dict:
    """Nanoseconds per ``model.field`` call on 64 fixed points, per model
    kind (median of ``repeats``)."""
    models = {
        "pendulum": cp.Pendulum(g=1.0),
        "harmonic": cp.Harmonic(),
        "cubic-i": cp.ImaginaryCubic(),
        "driven-pendulum": cp.DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1),
    }
    points = [(0.1 * k, complex(0.3 + 0.05 * k, 0.2 - 0.01 * k), complex(0.5 - 0.02 * k, 0.1 + 0.03 * k)) for k in range(64)]
    out = {}
    for kind, model in models.items():
        f = model.field
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(rounds):
                for t, x, p in points:
                    f(t, x, p)
            times.append(time.perf_counter() - t0)
        out[f"models.field_ns.{kind}"] = 1e9 * statistics.median(times) / (rounds * len(points))
    return out


def bytes_per_sample(cp, horizon: float = 100.0):
    """Memory held per sample by a driven trajectory, measured with
    tracemalloc: the fig12 model and start (eps = 0.2, omega = 0.1,
    x0 = pi/2 + 0.1) over its first ``horizon`` time units.  The full
    fig12 horizon of 1000 would take about 40 s under tracemalloc."""
    model = cp.DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)
    x0 = complex(0.5 * math.pi + 0.1)
    p0 = model.momentum_from_energy(x0, 0.0, branch=1)
    tracemalloc.start()
    try:
        traj = cp.integrate(
            model, cp.PhaseState(x0, p0), cp.IntegratorConfig(max_time=horizon), cp.EventSpec(escape=False)
        )
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / len(traj.samples)
