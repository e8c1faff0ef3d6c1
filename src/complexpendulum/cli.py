"""Declarative scenario runner and command-line front end.

A scenario is a YAML document naming a model, an energy, a list of
starting states, and the analyses to run.  ``run`` integrates every
start, writes one CSV per trajectory plus a JSON summary, and exits 0
unless the config is invalid (exit 2) or a file cannot be written
(exit 3); engine failures on individual trajectories are recorded in
the summary instead of aborting the run.

Output is deterministic: rows carry full round-trip precision and no
timestamps, so re-running a scenario reproduces files byte for byte.
Each value is written as its Python ``repr``; the compiled library
(``_dopri5``, ``_csv.cpp``) formats the rows in blocks and gives the
same bytes as the Python writer, which runs when the library is
unavailable.

Subcommands::

    run <config|name>      execute a scenario file or a bundled scenario
    list                   print the bundled scenario catalog
    turning-points <model> <E> <window>
    escape-time <model> <E> <tp>
    period <model> <E>
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from . import _dopri5
from .analysis import cell_escape_summary, detect_closure, fit_ellipse, verify_pt_symmetry
from .integrator import EventSpec, IntegratorConfig, Trajectory, integrate
from .models import DrivenPendulum, HamiltonianModel, Harmonic, ImaginaryCubic, PhaseState, Pendulum, cell_index
from .quadrature import _real_period, contour_integral, elliptic_K, escape_time, escape_time_real_form, period_contour
from .turning import refine_root, turning_points

__all__ = [
    "ConfigError",
    "Scenario",
    "parse_complex",
    "load_scenario",
    "run_scenario",
    "list_scenarios",
    "main",
]

_ANALYSES = ("closure", "pt", "ellipse", "cells", "escape_time", "period")


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the bad key."""


# ---------------------------------------------------------------------------
# complex-number parsing ("3pi/2+1i", "0.2i", "-i", "1e-3", "1+2j", ...)

_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])?"
    r"(?P<pi>pi)?"
    r"(?:/(?P<den>\d+\.?\d*|\.\d+))?"
    r"(?P<imag>[ij])?$"
)


def parse_complex(text: str) -> complex:
    """Parse a complex scalar from a human-friendly string.

    Accepts plain Python literals ("1.5", "2j", "1+2j") plus terms with
    an ``i`` suffix and ``pi`` shorthand: "0.2i", "pi/2+0.6i", "3pi/2+1i",
    "-i".  Whitespace is ignored.
    """
    s = str(text).strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ConfigError("empty complex literal")
    try:
        z = complex(s)
    except ValueError:
        z = None
    if z is None:
        pieces = re.split(r"(?<![eE])([+-])", s)
        z = 0j
        sign = 1.0
        # pieces alternate term, separator, term, ...; a leading separator
        # produces an empty first piece
        for i, piece in enumerate(pieces):
            if i % 2 == 1:
                sign = 1.0 if piece == "+" else -1.0
                continue
            if piece == "":
                if i > 0:
                    raise ConfigError(f"malformed complex literal: {text!r}")
                continue
            m = _TERM_RE.match(piece)
            if not m or (m.group("coef") is None and m.group("pi") is None and m.group("imag") is None):
                raise ConfigError(f"malformed complex literal: {text!r}")
            coef = m.group("coef")
            if coef is None or coef in "+-":
                v = 1.0 if coef != "-" else -1.0
            else:
                v = float(coef)
            if m.group("pi"):
                v *= math.pi
            if m.group("den"):
                v /= float(m.group("den"))
            z += sign * (complex(0.0, v) if m.group("imag") else complex(v, 0.0))
            sign = 1.0
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"non-finite complex literal: {text!r}")
    return z


def _as_complex(value, key: str) -> complex:
    if isinstance(value, str):
        try:
            return parse_complex(value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}': expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_real(value[0], key), _as_real(value[1], key))
    raise ConfigError(f"key '{key}': cannot read {value!r} as a complex scalar")


def _as_real(value, key: str) -> float:
    z = _as_complex(value, key)
    if z.imag != 0.0:
        raise ConfigError(f"key '{key}': expected a real number, got {value!r}")
    return z.real


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}")
    return value


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key '{key}': expected true/false, got {value!r}")
    return value


def _as_branch(value, key: str) -> int:
    if value in (1, "+", "+1"):
        return 1
    if value in (-1, "-", "-1"):
        return -1
    raise ConfigError(f"key '{key}': branch must be '+' or '-', got {value!r}")


def _check_keys(mapping, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"key '{where}': expected a mapping")
    for k in mapping:
        if k not in allowed:
            raise ConfigError(f"unknown key '{k}' in {where}")


# ---------------------------------------------------------------------------
# model specification (shared by config files and CLI arguments)


def _build_model(kind: str, params: dict, where: str) -> HamiltonianModel:
    if kind == "pendulum":
        _check_keys(params, {"g"}, where)
        return Pendulum(g=_as_complex(params.get("g", 1.0), "g"))
    if kind == "harmonic":
        _check_keys(params, set(), where)
        return Harmonic()
    if kind == "cubic-i":
        _check_keys(params, set(), where)
        return ImaginaryCubic()
    if kind == "driven-pendulum":
        _check_keys(params, {"g", "epsilon", "omega"}, where)
        try:
            return DrivenPendulum(
                g=_as_complex(params.get("g", 1.0), "g"),
                epsilon=_as_real(params.get("epsilon", 0.2), "epsilon"),
                omega=_as_real(params.get("omega", 0.1), "omega"),
            )
        except ValueError as exc:
            raise ConfigError(f"key 'model': {exc}") from None
    raise ConfigError(f"key 'kind': unknown model kind {kind!r}")


def _model_from_config(section, where: str = "model") -> HamiltonianModel:
    if not isinstance(section, dict):
        raise ConfigError(f"key '{where}': expected a mapping with a 'kind'")
    if "kind" not in section:
        raise ConfigError(f"missing key 'kind' in {where}")
    params = {k: v for k, v in section.items() if k != "kind"}
    return _build_model(str(section["kind"]), params, where)


def _model_from_arg(text: str) -> HamiltonianModel:
    """Parse "pendulum", "pendulum:g=i", "driven-pendulum:g=1,epsilon=0.2,omega=0.1"."""
    kind, _, rest = text.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep or not k:
                raise ConfigError(f"key 'model': malformed parameter {item!r}")
            params[k] = v
    return _build_model(kind, params, "model argument")


# ---------------------------------------------------------------------------
# scenario loading


@dataclass
class Scenario:
    """A validated scenario: model, energy, starts, and requested outputs."""

    name: str
    description: str
    model: HamiltonianModel
    energy: complex | None
    window: tuple[float, float, float, float] | None
    starts: list[dict]
    config: IntegratorConfig
    events: EventSpec
    analyses: list[str]
    escape_block: dict | None
    period_block: dict | None
    out_dir: Path


_TOP_KEYS = {
    "name",
    "description",
    "model",
    "energy",
    "window",
    "starts",
    "integrator",
    "events",
    "analyses",
    "escape_time",
    "period",
    "output",
}

_INTEGRATOR_KEYS = {
    "rel_tol",
    "abs_tol",
    "max_step",
    "min_step",
    "escape_radius",
    "horizon",
    "max_steps",
    "overflow_guard",
}


def _bundled_scenarios() -> dict:
    """The bundled scenario files, by name in name order."""
    files = (resources.files(__package__) / "scenarios").iterdir()
    return {f.name.removesuffix(".yaml"): f for f in sorted(files, key=lambda f: f.name) if f.name.endswith(".yaml")}


def _config_text(source) -> tuple[str, str]:
    """Return (yaml text, display name) for a path or bundled scenario name."""
    p = Path(source)
    if p.is_file():
        return p.read_text(), str(source)
    bundled = _bundled_scenarios().get(str(source))
    if bundled is not None:
        return bundled.read_text(), str(source)
    raise ConfigError(f"key 'config': no such file or bundled scenario: {source!r}")


def _integrator_from(section, overrides: dict) -> IntegratorConfig:
    _check_keys(section, _INTEGRATOR_KEYS, "integrator")
    kw: dict = {}
    for key in _INTEGRATOR_KEYS:
        if key not in section:
            continue
        if key == "max_steps":
            kw[key] = _as_int(section[key], key)
        elif key == "horizon":
            kw["max_time"] = _as_real(section[key], key)
        else:
            kw[key] = _as_real(section[key], key)
    if overrides.get("tol") is not None:
        kw["rel_tol"] = overrides["tol"]
        kw["abs_tol"] = overrides["tol"] * 1e-2
    horizon_override = overrides.get("horizon")
    if horizon_override is not None:
        kw["max_time"] = horizon_override
    try:
        return IntegratorConfig(**kw)
    except ValueError as exc:
        message = str(exc)
        # max_time is the field behind the scenario's `horizon` and `--horizon`
        if message.startswith("max_time "):
            if horizon_override is not None:
                raise ConfigError(f"key '--horizon': {message.removeprefix('max_time ')}") from None
            message = "horizon" + message.removeprefix("max_time")
        raise ConfigError(f"key 'integrator': {message}") from None


def _events_from(section) -> EventSpec:
    _check_keys(section, {"closure", "escape", "closure_tol", "min_period"}, "events")
    kw: dict = {}
    if "closure" in section:
        kw["closure"] = _as_bool(section["closure"], "closure")
    if "escape" in section:
        kw["escape"] = _as_bool(section["escape"], "escape")
    if "closure_tol" in section:
        kw["closure_tol"] = _as_real(section["closure_tol"], "closure_tol")
    if "min_period" in section:
        kw["min_period"] = _as_real(section["min_period"], "min_period")
    try:
        return EventSpec(**kw)
    except ValueError as exc:
        raise ConfigError(f"key 'events': {exc}") from None


def _validate_start(item, index: int) -> dict:
    where = f"starts[{index}]"
    _check_keys(item, {"x", "p", "branch", "turning_point"}, where)
    has_x = "x" in item
    has_p = "p" in item
    has_branch = "branch" in item
    has_tp = "turning_point" in item
    if has_tp:
        if has_x or has_p or has_branch:
            raise ConfigError(f"key '{where}': 'turning_point' excludes 'x'/'p'/'branch'")
        return {"turning_point": _as_int(item["turning_point"], f"{where}.turning_point")}
    if not has_x:
        raise ConfigError(f"missing key 'x' in {where}")
    if has_p == has_branch:
        raise ConfigError(f"key '{where}': give exactly one of 'p' or 'branch'")
    out = {"x": _as_complex(item["x"], f"{where}.x")}
    if has_p:
        out["p"] = _as_complex(item["p"], f"{where}.p")
    else:
        out["branch"] = _as_branch(item["branch"], f"{where}.branch")
    return out


def _validate_escape_block(section) -> dict:
    _check_keys(
        section,
        {"turning_point", "cutoff", "direction", "tol", "real_form", "elliptic"},
        "escape_time",
    )
    if "turning_point" not in section:
        raise ConfigError("missing key 'turning_point' in escape_time")
    block: dict = {}
    tp = section["turning_point"]
    block["turning_point"] = tp if isinstance(tp, int) and not isinstance(tp, bool) else _as_complex(tp, "escape_time.turning_point")
    block["cutoff"] = _as_real(section.get("cutoff", 60.0), "escape_time.cutoff")
    block["tol"] = _as_real(section.get("tol", 1e-10), "escape_time.tol")
    block["direction"] = _as_branch(section["direction"], "escape_time.direction") if "direction" in section else None
    block["real_form"] = _as_bool(section.get("real_form", False), "escape_time.real_form")
    if "elliptic" in section:
        ell = section["elliptic"]
        _check_keys(ell, {"prefactor", "m"}, "escape_time.elliptic")
        if "prefactor" not in ell or "m" not in ell:
            raise ConfigError("escape_time.elliptic needs keys 'prefactor' and 'm'")
        block["elliptic"] = (
            _as_real(ell["prefactor"], "escape_time.elliptic.prefactor"),
            _as_real(ell["m"], "escape_time.elliptic.m"),
        )
    else:
        block["elliptic"] = None
    return block


def _validate_period_block(section) -> dict:
    _check_keys(section, {"pair", "offset", "tol"}, "period")
    if "pair" not in section:
        raise ConfigError("missing key 'pair' in period")
    pair = section["pair"]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError("key 'period.pair': expected a list of two turning points")
    resolved = []
    for v in pair:
        resolved.append(v if isinstance(v, int) and not isinstance(v, bool) else _as_complex(v, "period.pair"))
    return {
        "pair": resolved,
        "offset": _as_real(section.get("offset", 0.5), "period.offset"),
        "tol": _as_real(section.get("tol", 1e-10), "period.tol"),
    }


def _indexes_roots(starts, escape_block, period_block) -> bool:
    """Whether a start or quadrature block names a turning point by its
    index in the window's sorted roots."""
    return (
        any("turning_point" in s for s in starts)
        or (escape_block is not None and isinstance(escape_block["turning_point"], int))
        or (period_block is not None and any(isinstance(v, int) for v in period_block["pair"]))
    )


def load_scenario(source, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario from a file path or bundled name.

    ``overrides`` may carry values from command-line flags: out (directory),
    tol (integrator rel_tol; abs_tol follows at tol/100), horizon.
    """
    ov = overrides or {}
    text, display = _config_text(source)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"key 'config': cannot parse {display}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("key 'config': the document must be a mapping")
    _check_keys(raw, _TOP_KEYS, "the scenario")

    for key in ("name", "model", "starts"):
        if key not in raw:
            raise ConfigError(f"missing key '{key}' in the scenario")
    name = str(raw["name"])
    description = str(raw.get("description", ""))
    model = _model_from_config(raw["model"])

    energy = None
    if raw.get("energy") is not None:
        energy = _as_complex(raw["energy"], "energy")

    window = None
    if raw.get("window") is not None:
        w = raw["window"]
        if not isinstance(w, list) or len(w) != 4:
            raise ConfigError("key 'window': expected [re_min, re_max, im_min, im_max]")
        window = tuple(_as_real(v, "window") for v in w)

    if not isinstance(raw["starts"], list) or not raw["starts"]:
        raise ConfigError("key 'starts': expected a non-empty list")
    starts = [_validate_start(item, i) for i, item in enumerate(raw["starts"])]

    config = _integrator_from(raw.get("integrator", {}), ov)
    events = _events_from(raw.get("events", {}))

    analyses_raw = raw.get("analyses", [])
    if not isinstance(analyses_raw, list):
        raise ConfigError("key 'analyses': expected a list")
    analyses: list[str] = []
    for entry in analyses_raw:
        if entry not in _ANALYSES:
            raise ConfigError(f"key 'analyses': unknown analysis {entry!r}")
        if entry not in analyses:
            analyses.append(entry)
    if "closure" in analyses and not model.autonomous:
        raise ConfigError("key 'analyses': 'closure' needs an autonomous model")
    if "pt" in analyses and not model.autonomous:
        raise ConfigError("key 'analyses': 'pt' needs an autonomous model")

    escape_block = _validate_escape_block(raw["escape_time"]) if "escape_time" in raw else None
    period_block = _validate_period_block(raw["period"]) if "period" in raw else None
    if "escape_time" in analyses and escape_block is None:
        raise ConfigError("missing key 'escape_time': requested by analyses")
    if "period" in analyses and period_block is None:
        raise ConfigError("missing key 'period': requested by analyses")

    needs_energy = (
        escape_block is not None
        or period_block is not None
        or any("turning_point" in s or "branch" in s for s in starts)
    )
    if needs_energy and energy is None:
        raise ConfigError("missing key 'energy': required by the starts or analyses")

    if window is None and _indexes_roots(starts, escape_block, period_block):
        raise ConfigError("missing key 'window': required to index turning points")

    output = raw.get("output", {})
    _check_keys(output, {"directory", "format"}, "output")
    fmt = output.get("format", "csv")
    if fmt != "csv":
        raise ConfigError(f"key 'output.format': only 'csv' is supported, got {fmt!r}")
    out_dir = Path(ov["out"]) if ov.get("out") else Path(output.get("directory", Path("out") / name))

    return Scenario(
        name=name,
        description=description,
        model=model,
        energy=energy,
        window=window,
        starts=starts,
        config=config,
        events=events,
        analyses=analyses,
        escape_block=escape_block,
        period_block=period_block,
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# scenario execution


def _c2(z: complex) -> list[float]:
    return [z.real, z.imag]


def _find_roots(model, energy, window, **kw):
    """Window-sorted turning points; an argument turning_points rejects
    becomes a ConfigError naming it (the message starts with its name)."""
    try:
        return turning_points(model, energy, window, **kw)
    except ValueError as exc:
        arg = str(exc).split()[0]
        raise ConfigError(f"key '{'model' if arg == 'g' else arg}': {exc}") from None


def _resolve_starts(scn: Scenario, roots) -> list[PhaseState]:
    states = []
    for i, item in enumerate(scn.starts):
        where = f"starts[{i}]"
        if "turning_point" in item:
            idx = item["turning_point"]
            if roots is None or not (0 <= idx < len(roots)):
                count = 0 if roots is None else len(roots)
                raise ConfigError(
                    f"key '{where}.turning_point': index {idx} out of range ({count} roots in the window)"
                )
            states.append(PhaseState(roots[idx].x0, 0.0 + 0.0j, 0.0))
        elif "p" in item:
            states.append(PhaseState(item["x"], item["p"], 0.0))
        else:
            p = scn.model.momentum_from_energy(item["x"], scn.energy, branch=item["branch"])
            states.append(PhaseState(item["x"], p, 0.0))
    return states


def _resolve_tp(scn: Scenario, spec, roots) -> complex:
    if isinstance(spec, int):
        if roots is None or not (0 <= spec < len(roots)):
            count = 0 if roots is None else len(roots)
            raise ConfigError(f"key 'turning_point': index {spec} out of range ({count} roots in the window)")
        return roots[spec].x0
    return refine_root(scn.model, scn.energy, spec).x0


def _write_trajectory_csv(path: Path, traj: Trajectory, model: HamiltonianModel) -> None:
    """Write one row per sample: t, x, p and H = p^2/2 + V(x) as the
    repr of each real part (round-trip exact; never needs CSV quoting),
    plus the 2*pi cell index of x for driven runs.

    ``model`` is the trajectory's; the energy column is the trajectory's
    ``energy``, shared with ``energy_drift``.  The compiled library
    formats the rows from the columns, ``_dopri5._ROWS`` samples per call
    into one fixed buffer.  Without the library, or where floats do not
    print in the 'short' repr style, ``_write_rows_in_python`` writes the
    same bytes."""
    driven = not model.autonomous
    header = "t,re_x,im_x,re_p,im_p,re_E,im_E,cell\n" if driven else "t,re_x,im_x,re_p,im_p,re_E,im_E\n"
    columns = traj.t, traj.x, traj.p, traj.energy
    rows = _dopri5.csv_formatter() if sys.float_repr_style == "short" else None
    if rows is None:
        with open(path, "w", newline="") as fh:
            fh.write(header)
            _write_rows_in_python(fh, *columns, driven)
        return
    block = _dopri5._ROWS
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, len(traj), block):
            fh.write(rows(*(column[i : i + block] for column in columns), driven))


def _write_rows_in_python(fh, t, x, p, e, driven: bool) -> None:
    """The CSV rows as f-strings of ``repr``s: the reference the compiled
    formatter must match byte for byte."""
    write = fh.write
    for t, x, p, e in zip(t.tolist(), x.tolist(), p.tolist(), e.tolist()):
        row = f"{t!r},{x.real!r},{x.imag!r},{p.real!r},{p.imag!r},{e.real!r},{e.imag!r}"
        write(f"{row},{cell_index(x)}\n" if driven else row + "\n")


def _trajectory_record(scn: Scenario, index: int, state: PhaseState, traj: Trajectory | None, error: str | None, fname: str | None) -> dict:
    rec: dict = {
        "index": index,
        "file": fname,
        "start": {"x": _c2(complex(state.x)), "p": _c2(complex(state.p))},
    }
    if error is not None:
        rec["error"] = error
        return rec
    rec["classification"] = traj.classification
    rec["termination"] = traj.termination
    rec["samples"] = len(traj)
    rec["period"] = traj.period
    rec["escape_time"] = traj.escape_time
    rec["energy_drift"] = traj.energy_drift() if scn.model.autonomous else None

    for analysis in scn.analyses:
        if analysis in ("escape_time", "period"):
            continue
        try:
            if analysis == "closure":
                rep = detect_closure(traj, tol=scn.events.closure_tol)
                rec["closure"] = {
                    "closed": rep.closed,
                    "period": rep.period,
                    "return_distance": rep.return_distance,
                    "windings": rep.windings,
                }
            elif analysis == "pt":
                rep = verify_pt_symmetry(scn.model, traj, config=scn.config)
                rec["pt"] = {
                    "map_kind": rep.map_kind,
                    "max_deviation": rep.max_deviation,
                    "compared_points": rep.compared_points,
                }
            elif analysis == "ellipse":
                fit = fit_ellipse(traj)
                rec["ellipse"] = {
                    "center": _c2(fit.center),
                    "semi_major": fit.semi_major,
                    "semi_minor": fit.semi_minor,
                    "orientation": fit.orientation,
                    "residual": fit.residual,
                }
            elif analysis == "cells":
                transitions = cell_escape_summary(traj)
                # every cell a sample lies in is the start cell or entered by a transition
                visited = {cell_index(traj.x[0].item())}
                visited.update(b for _, _, b in transitions)
                rec["cells"] = {
                    "visited": sorted(visited),
                    "transitions": [[t, a, b] for t, a, b in transitions],
                }
        except Exception as exc:  # recorded, not fatal: one bad analysis
            rec[analysis] = {"error": f"{type(exc).__name__}: {exc}"}
    return rec


def _quadrature_summary(scn: Scenario, roots) -> dict:
    out: dict = {}
    if "escape_time" in scn.analyses:
        block = scn.escape_block
        entry: dict = {}
        try:
            x0 = _resolve_tp(scn, block["turning_point"], roots)
            entry["turning_point"] = _c2(x0)
            entry["cutoff"] = block["cutoff"]
            entry["value"] = escape_time(
                scn.model,
                scn.energy,
                x0,
                cutoff=block["cutoff"],
                tol=block["tol"],
                direction=block["direction"],
            )
            if block["real_form"]:
                entry["real_form"] = escape_time_real_form(
                    scn.model, scn.energy, x0, cutoff=block["cutoff"], tol=block["tol"]
                )
            if block["elliptic"] is not None:
                prefactor, m = block["elliptic"]
                entry["elliptic_reference"] = prefactor * elliptic_K(m)
        except ConfigError:
            raise
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out["escape_time"] = entry
    if "period" in scn.analyses:
        block = scn.period_block
        entry = {}
        try:
            pair = tuple(_resolve_tp(scn, v, roots) for v in block["pair"])
            entry["pair"] = [_c2(pair[0]), _c2(pair[1])]
            entry["offset"] = block["offset"]
            raw = contour_integral(scn.model, scn.energy, pair, offset=block["offset"], tol=block["tol"])
            entry["imag_residual"] = abs(raw.imag)
            entry["value"] = _real_period(raw)
        except ConfigError:
            raise
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out["period"] = entry
    return out


def run_scenario(source, *, out=None, tol=None, horizon=None, quiet=False) -> int:
    """Execute a scenario config (path or bundled name); return the exit code.

    0 on success, 2 on configuration errors, 3 on I/O failures.  Engine
    errors on individual trajectories are recorded in the summary and do
    not change the exit code.
    """
    try:
        scn = load_scenario(source, {"out": out, "tol": tol, "horizon": horizon})

        roots = None
        if _indexes_roots(scn.starts, scn.escape_block, scn.period_block):
            roots = _find_roots(scn.model, scn.energy, scn.window)
        states = _resolve_starts(scn, roots)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        scn.out_dir.mkdir(parents=True, exist_ok=True)

        records = []
        for i, state in enumerate(states):
            fname = f"traj_{i:02d}.csv"
            try:
                traj = integrate(scn.model, state, scn.config, scn.events)
            except OSError:
                raise
            except Exception as exc:
                records.append(_trajectory_record(scn, i, state, None, f"{type(exc).__name__}: {exc}", None))
                continue
            _write_trajectory_csv(scn.out_dir / fname, traj, scn.model)
            records.append(_trajectory_record(scn, i, state, traj, None, fname))
            if not quiet:
                bits = [f"{fname}: {traj.classification}"]
                if traj.period is not None:
                    bits.append(f"period={traj.period!r}")
                if traj.escape_time is not None:
                    bits.append(f"escape_time={traj.escape_time!r}")
                print("  ".join(bits))

        try:
            quad = _quadrature_summary(scn, roots)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

        summary = {
            "scenario": scn.name,
            "description": scn.description,
            "model": {
                "kind": scn.model.kind,
                **({"g": _c2(scn.model.g)} if isinstance(scn.model, Pendulum) else {}),
                **(
                    {"epsilon": scn.model.epsilon, "omega": scn.model.omega}
                    if isinstance(scn.model, DrivenPendulum)
                    else {}
                ),
            },
            "energy": _c2(scn.energy) if scn.energy is not None else None,
            "trajectories": records,
            "quadrature": quad,
        }
        summary_path = scn.out_dir / "summary.json"
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        if not quiet:
            print(f"summary: {summary_path}")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# catalog


def list_scenarios() -> list[tuple[str, str]]:
    """Print the bundled scenario catalog; return (name, description) pairs."""
    entries = []
    for name, res in _bundled_scenarios().items():
        doc = yaml.safe_load(res.read_text())
        entries.append((name, str(doc.get("description", ""))))
    width = max(len(n) for n, _ in entries)
    for name, desc in entries:
        print(f"{name:<{width}}  {desc}")
    return entries


# ---------------------------------------------------------------------------
# ad-hoc subcommands


def _parse_window_arg(text: str):
    parts = str(text).split(",")
    if len(parts) != 4:
        raise ConfigError("key 'window': expected re_min,re_max,im_min,im_max")
    return tuple(_as_real(p, "window") for p in parts)


def _cmd_turning_points(args) -> int:
    model = _model_from_arg(args.model)
    energy = _as_complex(args.energy, "energy")
    window = _parse_window_arg(args.window)
    tol = args.tol if args.tol is not None else 1e-12
    roots = _find_roots(model, energy, window, residual_tol=tol)
    for tp in roots:
        print(f"{tp.x0.real!r} {tp.x0.imag!r} cell={tp.lattice_index} branch={tp.branch_sign:+d}")
    return 0


def _cmd_escape_time(args) -> int:
    model = _model_from_arg(args.model)
    energy = _as_complex(args.energy, "energy")
    seed = _as_complex(args.tp, "tp")
    try:
        x0 = refine_root(model, energy, seed).x0
        value = escape_time(
            model,
            energy,
            x0,
            cutoff=args.cutoff,
            tol=args.tol if args.tol is not None else 1e-10,
            direction=args.direction,
        )
    except Exception as exc:
        raise ConfigError(f"key 'tp': {exc}") from None
    print(repr(value))
    return 0


def _cmd_period(args) -> int:
    model = _model_from_arg(args.model)
    energy = _as_complex(args.energy, "energy")
    tol = args.tol if args.tol is not None else 1e-10
    if args.pair:
        seeds = args.pair.split(";")
        if len(seeds) != 2:
            raise ConfigError("key 'pair': expected 'z1;z2'")
        pair = tuple(refine_root(model, energy, _as_complex(s, "pair")).x0 for s in seeds)
    else:
        # the adjacent pair nearest the origin
        span = 1.5 * math.pi
        roots = _find_roots(model, energy, (-span, span, -3.0, 3.0))
        if len(roots) < 2:
            raise ConfigError("key 'pair': fewer than two turning points near the origin; pass --pair")
        ordered = sorted(roots, key=lambda tp: (abs(tp.x0), tp.x0.real, tp.x0.imag))
        pair = (ordered[0].x0, ordered[1].x0)
    try:
        value = period_contour(model, energy, pair, offset=args.offset, tol=tol)
    except Exception as exc:
        raise ConfigError(f"key 'pair': {exc}") from None
    print(repr(value))
    return 0


def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    """Let positionals like '-3pi,3pi,-2,2' or '-i' parse as values."""
    try:
        parser._negative_number_matcher = re.compile(r"^-(\d|\.\d|i$|pi)")
    except AttributeError:  # private API; lose only this convenience
        pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complex-pendulum",
        description="Complex classical trajectories of pendulum-family Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file or bundled scenario")
    p_run.add_argument("config", help="path to a YAML scenario, or a bundled scenario name")
    p_run.add_argument("--out", help="output directory (overrides output.directory)")
    p_run.add_argument("--tol", type=float, help="integrator rel_tol (abs_tol follows at tol/100)")
    p_run.add_argument("--horizon", type=float, help="integration horizon override")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    sub.add_parser("list", help="list the bundled scenarios")

    p_tp = sub.add_parser("turning-points", help="roots of V(x) = E in a window")
    p_tp.add_argument("model", help="pendulum | pendulum:g=i | harmonic | cubic-i | driven-pendulum:...")
    p_tp.add_argument("energy", help="complex energy, e.g. '1.5430806348152437' or 'i'")
    p_tp.add_argument("window", help="re_min,re_max,im_min,im_max (pi notation allowed)")
    p_tp.add_argument("--tol", type=float, default=None, help="residual tolerance (default 1e-12)")
    _allow_negative_values(p_tp)

    p_esc = sub.add_parser("escape-time", help="escape time from a turning point")
    p_esc.add_argument("model")
    p_esc.add_argument("energy")
    p_esc.add_argument("tp", help="turning point, e.g. 'pi+1i' or '3pi/2+1i'")
    p_esc.add_argument("--cutoff", type=float, default=60.0, help="|Im x| treated as infinity")
    p_esc.add_argument("--direction", type=int, choices=(-1, 1), default=None)
    p_esc.add_argument("--tol", type=float, default=None, help="quadrature tolerance (default 1e-10)")
    _allow_negative_values(p_esc)

    p_per = sub.add_parser("period", help="period from a contour around a turning-point pair")
    p_per.add_argument("model")
    p_per.add_argument("energy")
    p_per.add_argument("--pair", help="explicit pair 'z1;z2' (default: the pair nearest the origin)")
    p_per.add_argument("--offset", type=float, default=0.5, help="contour offset from the cut")
    p_per.add_argument("--tol", type=float, default=None, help="quadrature tolerance (default 1e-10)")
    _allow_negative_values(p_per)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(
                args.config,
                out=args.out,
                tol=args.tol,
                horizon=args.horizon,
                quiet=args.quiet,
            )
        if args.command == "list":
            list_scenarios()
            return 0
        if args.command == "turning-points":
            return _cmd_turning_points(args)
        if args.command == "escape-time":
            return _cmd_escape_time(args)
        if args.command == "period":
            return _cmd_period(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
