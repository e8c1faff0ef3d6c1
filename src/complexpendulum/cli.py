"""Declarative scenario runner and command-line front end.

A scenario is a YAML document naming a model, an energy, a list of
starting states, and the analyses to run.  ``run`` integrates every
start, writes one CSV per trajectory plus a JSON summary, and exits 0
unless the config is invalid (exit 2) or a file cannot be written
(exit 3); engine failures on individual trajectories are recorded in
the summary instead of aborting the run.

Two tables describe a scenario: ``_KEY_TABLE`` has one row per config
key (and per ``run`` flag that overrides one), ``_ANALYSIS_TABLE`` one
row per analysis.  Loading reads the document through the key table
only, so every key is validated, defaulted and named in errors the
same way.

Output is deterministic: rows carry full round-trip precision and no
timestamps, so re-running a scenario reproduces files byte for byte.  A
run into a directory of an earlier one removes the ``traj_NN.csv`` files
its summary does not name, and no other file.
Each value is written as its Python ``repr``; the compiled library
(``_dopri5``, ``_csv.c``) formats the rows in blocks and gives the
same bytes as the Python formatter, which runs without the library;
``_write_output`` writes every file.

Subcommands::

    run <config|name>      execute a scenario file or a bundled scenario
    list                   print the bundled scenario catalog
    turning-points <model> <E> <window>
    escape-time <model> <E> <tp>
    period <model> <E>
"""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import yaml

from . import _dopri5
from .analysis import cell_escape_summary, detect_closure, fit_ellipse, verify_pt_symmetry
from .integrator import EventSpec, IntegratorConfig, Trajectory, integrate
from .models import DrivenPendulum, HamiltonianModel, Harmonic, ImaginaryCubic, PhaseState, Pendulum, cell_index
from .quadrature import _real_part, contour_integral, elliptic_K, escape_time, escape_time_real_form, period_contour
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
                den = float(m.group("den"))
                if den == 0.0:
                    raise ConfigError(f"division by zero in complex literal: {text!r}")
                v /= den
            z += sign * (complex(0.0, v) if m.group("imag") else complex(v, 0.0))
            sign = 1.0
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"non-finite complex literal: {text!r}")
    return z


# ---------------------------------------------------------------------------
# value readers: each turns one YAML value into a setting or raises a
# ValueError saying what is wrong; the caller names the key


def _as_complex(value) -> complex:
    if isinstance(value, str):
        try:
            return parse_complex(value)
        except ConfigError as exc:
            raise ValueError(str(exc)) from None
    if isinstance(value, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_real(value[0]), _as_real(value[1]))
    raise ValueError(f"cannot read {value!r} as a complex scalar")


def _as_real(value) -> float:
    z = _as_complex(value)
    if z.imag != 0.0:
        raise ValueError(f"expected a real number, got {value!r}")
    return z.real


def _finite_complex(value) -> complex:
    z = _as_complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"must be finite, got {value!r}")
    return z


def _finite_real(value) -> float:
    return _finite_complex(_as_real(value)).real


def _positive(value) -> float:
    """``_positive_finite``, with NaN named as such."""
    if math.isnan(_as_real(value)):
        raise ValueError("must not be NaN")
    return _positive_finite(value)


def _positive_finite(value) -> float:
    x = _finite_real(value)
    if x <= 0.0:
        raise ValueError("must be positive")
    return x


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true/false, got {value!r}")
    return value


def _as_branch(value) -> int:
    if value in (1, "+", "+1"):
        return 1
    if value in (-1, "-", "-1"):
        return -1
    raise ValueError(f"branch must be '+' or '-', got {value!r}")


def _as_path(value) -> Path:
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"expected a path, got {value!r}")
    return Path(value)


def _tp_spec(value) -> int | complex:
    """A turning point: its index in the window's sorted roots, or a
    complex seed that is polished onto a root."""
    return value if isinstance(value, int) and not isinstance(value, bool) else _finite_complex(value)


def _tp_pair(value) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("expected a list of two turning points")
    return [_tp_spec(v) for v in value]


def _window(value) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ValueError("expected [re_min, re_max, im_min, im_max]")
    return tuple(_finite_real(v) for v in value)


_MODELS = {cls.kind: cls for cls in (Pendulum, Harmonic, ImaginaryCubic, DrivenPendulum)}


def _model(section) -> HamiltonianModel:
    """The model of a mapping with a ``kind``; the kind's parameters are
    the rows of the key-table section named after it."""
    if not isinstance(section, dict):
        raise ValueError("expected a mapping with a 'kind'")
    if "kind" not in section:
        raise ConfigError("missing key 'kind' in model")
    params = dict(section)
    kind = str(params.pop("kind"))
    if kind not in _MODELS:
        raise ConfigError(f"key 'kind': unknown model kind {kind!r}")
    return _MODELS[kind](**_read(kind, params, "model", {}))


def _starts(items) -> list[dict]:
    if not isinstance(items, list) or not items:
        raise ValueError("expected a non-empty list")
    starts = []
    for i, item in enumerate(items):
        where = f"starts[{i}]"
        start = _read("starts[i]", item, where, {})
        if "turning_point" in start:
            if len(start) > 1:
                raise ConfigError(f"key '{where}': 'turning_point' excludes 'x'/'p'/'branch'")
        elif "x" not in start:
            raise ConfigError(f"missing key 'x' in {where}")
        elif ("p" in start) == ("branch" in start):
            raise ConfigError(f"key '{where}': give exactly one of 'p' or 'branch'")
        starts.append(start)
    return starts


def _analyses(names) -> list[str]:
    if not isinstance(names, list):
        raise ValueError("expected a list")
    for name in names:
        if not isinstance(name, str) or name not in _ANALYSIS_TABLE:
            raise ValueError(f"unknown analysis {name!r}")
    return list(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# the key table

_REQUIRED = object()  # default of a key that must be given
_UNSET = object()  # default of a key whose target keeps its own default


@dataclass(frozen=True)
class _Key:
    """One config key: its section ("" at the top level), how its value is
    read, its default and the field it sets (the key itself unless named).

    A key whose path (``section.key``) has rows of its own is a section:
    ``read`` builds its value from the fields of those rows.  A ``--flag``
    row takes its value from the ``run`` overrides, which replace the
    file's.  An absent or null key takes its default, read like a given
    value; a default of None stays None."""

    section: str
    key: str
    read: Callable
    default: object = _UNSET
    field: str | None = None


_KEY_TABLE = (
    _Key("", "name", str, _REQUIRED),
    _Key("", "description", str, ""),
    _Key("", "model", _model, _REQUIRED),
    _Key("", "energy", _finite_complex, None),
    _Key("", "window", _window, None),
    _Key("", "starts", _starts, _REQUIRED),
    _Key("", "integrator", IntegratorConfig, {}, "config"),
    _Key("", "events", EventSpec, {}),
    _Key("", "analyses", _analyses, []),
    _Key("", "escape_time", dict, None),
    _Key("", "period", dict, None),
    _Key("", "output", dict, {}),
    _Key("pendulum", "g", _finite_complex, 1.0),
    _Key("driven-pendulum", "g", _finite_complex, 1.0),
    _Key("driven-pendulum", "epsilon", _finite_real),
    _Key("driven-pendulum", "omega", _finite_real),
    _Key("starts[i]", "x", _finite_complex),
    _Key("starts[i]", "p", _finite_complex),
    _Key("starts[i]", "branch", _as_branch),
    _Key("starts[i]", "turning_point", _as_int),
    _Key("integrator", "rel_tol", _as_real),
    _Key("integrator", "abs_tol", _as_real),
    _Key("integrator", "max_step", _as_real),
    _Key("integrator", "min_step", _as_real),
    _Key("integrator", "escape_radius", _as_real),
    _Key("integrator", "horizon", _as_real, field="max_time"),
    _Key("integrator", "max_steps", _as_int),
    _Key("integrator", "overflow_guard", _as_real),
    _Key("integrator", "--tol", _as_real, field="rel_tol"),
    _Key("integrator", "--tol", lambda tol: _as_real(tol) * 1e-2, field="abs_tol"),
    _Key("integrator", "--horizon", _positive, field="max_time"),
    _Key("events", "closure", _as_bool),
    _Key("events", "escape", _as_bool),
    _Key("events", "closure_tol", _as_real),
    _Key("events", "min_period", _as_real),
    _Key("escape_time", "turning_point", _tp_spec, _REQUIRED),
    _Key("escape_time", "cutoff", _positive_finite, 60.0),
    _Key("escape_time", "direction", _as_branch),
    _Key("escape_time", "tol", _positive_finite),
    _Key("escape_time", "real_form", _as_bool, False),
    _Key("escape_time", "elliptic", dict),
    _Key("escape_time.elliptic", "prefactor", _finite_real, _REQUIRED),
    _Key("escape_time.elliptic", "m", _finite_real, _REQUIRED),
    _Key("period", "pair", _tp_pair, _REQUIRED),
    _Key("period", "offset", _positive_finite, 0.5),
    _Key("period", "tol", _positive_finite),
    _Key("output", "directory", _as_path),
    _Key("output", "--out", _as_path, field="directory"),
)

_ROWS = {s: [r for r in _KEY_TABLE if r.section == s] for s in dict.fromkeys(r.section for r in _KEY_TABLE)}


def _read(section: str, mapping, where: str, flags: dict) -> dict:
    """The settings of ``section``'s rows, by field: from ``mapping`` (a
    flag row's from ``flags``) or the defaults.  ``where`` is the
    mapping's path in messages ("" at the top level)."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"key '{where}': expected a mapping")
    rows = _ROWS.get(section, [])
    known = {r.key for r in rows if not r.key.startswith("--")}
    for k in mapping:
        if k not in known:
            raise ConfigError(f"unknown key '{k}' in {where or 'the scenario'}")
    fields: dict = {}
    for r in rows:
        flag = r.key.startswith("--")
        value = flags.get(r.key[2:]) if flag else mapping.get(r.key)
        if value is None:
            if r.default is _REQUIRED:
                raise ConfigError(f"missing key '{r.key}' in {where or 'the scenario'}")
            if r.default is _UNSET:
                continue
            value = r.default
        name = r.key if flag or not where else f"{where}.{r.key}"
        path = f"{section}.{r.key}" if section else r.key
        fields[r.field or r.key] = None if value is None else _coerce(r.read, value, name, path, flags)
    return fields


def _coerce(read: Callable, value, name: str, path: str | None = None, flags: dict | None = None):
    """``read(value)``, or for a section ``read(**fields)``; a bad value
    becomes a ConfigError naming ``name``."""
    try:
        if path in _ROWS:
            return read(**_read(path, value, name, flags))
        return read(value)
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:
        problem = str(exc)
        # a section's constructor names its field; say the key that sets it
        for sub in _ROWS.get(path, ()):
            if sub.field and not sub.key.startswith("--") and problem.startswith(sub.field + " "):
                problem = sub.key + problem.removeprefix(sub.field)
        raise ConfigError(f"key '{name}': {problem}") from None


# ---------------------------------------------------------------------------
# scenario loading


@dataclass
class Scenario:
    """A validated scenario: model, energy, starts, and requested outputs.

    ``blocks`` holds the config block of each analysis that has one
    (``escape_time``, ``period``), None where the block is absent."""

    name: str
    description: str
    model: HamiltonianModel
    energy: complex | None
    window: tuple[float, float, float, float] | None
    starts: list[dict]
    config: IntegratorConfig
    events: EventSpec
    analyses: list[str]
    blocks: dict
    out_dir: Path


@functools.cache
def _bundled_scenarios() -> Mapping:
    """The bundled scenario files, by name in name order, read-only; listed
    once per process, since the package's files do not change while it
    runs."""
    files = (resources.files(__package__) / "scenarios").iterdir()
    return MappingProxyType(
        {f.name.removesuffix(".yaml"): f for f in sorted(files, key=lambda f: f.name) if f.name.endswith(".yaml")}
    )


def _config_text(source) -> tuple[str, str]:
    """Return (yaml text, display name) for a path or bundled scenario name."""
    p = Path(source)
    if p.is_file():
        return p.read_text(), str(source)
    bundled = _bundled_scenarios().get(str(source))
    if bundled is not None:
        return bundled.read_text(), str(source)
    raise ConfigError(f"key 'config': no such file or bundled scenario: {source!r}")


def _root_indices(scn: Scenario) -> list[tuple[str, int]]:
    """(key, index) of each turning point a start or block names by its
    index in the window's sorted roots."""
    escape, period = scn.blocks["escape_time"], scn.blocks["period"]
    specs = [(f"starts[{i}].turning_point", s.get("turning_point")) for i, s in enumerate(scn.starts)]
    specs += [("escape_time.turning_point", escape["turning_point"])] if escape else []
    specs += [("period.pair", v) for v in period["pair"]] if period else []
    return [(name, v) for name, v in specs if isinstance(v, int)]


def _parse_yaml(text: str):
    """The document in ``text`` as ``yaml.safe_load`` gives it, parsed by
    libyaml's ``CSafeLoader`` where PyYAML has it (several times faster).
    A document that loader rejects is parsed again by the pure-Python
    ``SafeLoader``, whose value or error is the outcome, so every error
    message is the pure loader's."""
    fast = getattr(yaml, "CSafeLoader", None)
    if fast is not None:
        try:
            return yaml.load(text, Loader=fast)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def load_scenario(source, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario from a file path or bundled name.

    ``overrides`` may carry values from command-line flags: out (directory),
    tol (integrator rel_tol; abs_tol follows at tol/100), horizon.
    """
    text, display = _config_text(source)
    try:
        raw = _parse_yaml(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date such as 2001-02-30
        raise ConfigError(f"key 'config': cannot parse {display}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("key 'config': the document must be a mapping")
    fields = _read("", raw, "", overrides or {})
    blocks = {name: fields.pop(name) for name, a in _ANALYSIS_TABLE.items() if a.per_scenario}
    output = fields.pop("output")
    scn = Scenario(**fields, blocks=blocks, out_dir=output.get("directory", Path("out") / fields["name"]))

    for name in scn.analyses:
        analysis = _ANALYSIS_TABLE[name]
        if analysis.autonomous and not scn.model.autonomous:
            raise ConfigError(f"key 'analyses': '{name}' needs an autonomous model")
        if analysis.per_scenario and scn.blocks[name] is None:
            raise ConfigError(f"missing key '{name}': requested by analyses")
    # a block, a branch start and a turning-point start all solve V(x) = E
    needs_energy = any(b is not None for b in scn.blocks.values()) or any("p" not in s for s in scn.starts)
    if needs_energy and scn.energy is None:
        raise ConfigError("missing key 'energy': required by the starts or analyses")
    if scn.window is None and _root_indices(scn):
        raise ConfigError("missing key 'window': required to index turning points")
    return scn


# ---------------------------------------------------------------------------
# scenario execution


def _json_form(value) -> list[float]:
    """The summary's form of the one value type ``json`` cannot write
    itself: a complex z becomes [z.real, z.imag].  Tuples are written as
    lists already."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _find_roots(model, energy, window, **kw):
    """Window-sorted turning points; an argument turning_points rejects
    becomes a ConfigError naming it (the message starts with its name)."""
    try:
        return turning_points(model, energy, window, **kw)
    except ValueError as exc:
        arg = str(exc).split()[0]
        raise ConfigError(f"key '{'model' if arg == 'g' else arg}': {exc}") from None


def _turning_point(scn: Scenario, spec, roots) -> complex:
    """The root a spec names: by index into the window's sorted roots, or
    polished from a complex seed."""
    return roots[spec].x0 if isinstance(spec, int) else refine_root(scn.model, scn.energy, spec).x0


def _starting_states(scn: Scenario) -> tuple[list | None, list[PhaseState]]:
    """The window's sorted roots (None when nothing indexes them), every
    index checked, and the start state of each of the scenario's starts."""
    indices = _root_indices(scn)
    roots = _find_roots(scn.model, scn.energy, scn.window) if indices else None
    for name, index in indices:
        if not 0 <= index < len(roots):
            raise ConfigError(f"key '{name}': index {index} out of range ({len(roots)} roots in the window)")
    states = []
    for i, item in enumerate(scn.starts):
        if "turning_point" in item:
            states.append(PhaseState(_turning_point(scn, item["turning_point"], roots), 0.0 + 0.0j, 0.0))
        elif "p" in item:
            states.append(PhaseState(item["x"], item["p"], 0.0))
        else:
            try:
                p = scn.model.momentum_from_energy(item["x"], scn.energy, branch=item["branch"])
            except (ArithmeticError, ValueError) as exc:
                raise ConfigError(f"key 'starts[{i}]': no momentum from the energy: {type(exc).__name__}: {exc}") from None
            states.append(PhaseState(item["x"], p, 0.0))
    return roots, states


def _write_output(path: Path, *parts) -> None:
    """Replace ``path`` with the chunks of bytes of ``parts``.  The file is
    truncated first, so a chunk that raises leaves exactly the bytes before
    it, and a process killed mid-write leaves a short file, never an old
    run's tail."""
    with open(path, "wb") as fh:
        fh.writelines(chunk for chunks in parts for chunk in chunks)


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Write one row per sample: t, x, p and H = p^2/2 + V(x) as the
    repr of each real part (round-trip exact; never needs CSV quoting),
    plus the 2*pi cell index of x for runs of a driven model.

    The energy column is the trajectory's ``energy``, shared with
    ``energy_drift``.  The compiled library formats the rows from the
    columns (``_dopri5.csv_formatter``); where it cannot, ``_rows_in_python``
    gives the same bytes.  Either raises at a row with no cell."""
    driven = not traj.model.autonomous
    header = b"t,re_x,im_x,re_p,im_p,re_E,im_E,cell\n" if driven else b"t,re_x,im_x,re_p,im_p,re_E,im_E\n"
    rows = _dopri5.csv_formatter() or _rows_in_python
    _write_output(path, [header], rows(traj.t, traj.x, traj.p, traj.energy, driven))


def _rows_in_python(t, x, p, e, driven: bool):
    """The CSV rows as bytes, one at a time, from ``repr``s of the columns
    read ``_dopri5._ROWS`` rows at a time: the compiled formatter's reference."""
    for i in range(0, len(t), _dopri5._ROWS):
        block = (column[i : i + _dopri5._ROWS].tolist() for column in (t, x, p, e))
        for tk, xk, pk, ek in zip(*block):
            row = f"{tk!r},{xk.real!r},{xk.imag!r},{pk.real!r},{pk.imag!r},{ek.real!r},{ek.imag!r}"
            yield (f"{row},{cell_index(xk)}\n" if driven else row + "\n").encode()


# ---------------------------------------------------------------------------
# the analysis registry: each shaper fills the analysis's summary entry
# from a trajectory (per-trajectory analyses) or from the window's roots
# (per-scenario ones, which read their config block)


def _closure(entry: dict, scn: Scenario, traj: Trajectory) -> None:
    entry.update(vars(detect_closure(traj, tol=scn.events.closure_tol)))
    if not math.isfinite(entry["return_distance"]):
        # no return refined: the distance is inf, which strict JSON cannot hold
        entry["return_distance"] = None


def _pt(entry: dict, scn: Scenario, traj: Trajectory) -> None:
    entry.update(vars(verify_pt_symmetry(traj, config=scn.config)))


def _ellipse(entry: dict, scn: Scenario, traj: Trajectory) -> None:
    entry.update(vars(fit_ellipse(traj)))


def _cells(entry: dict, scn: Scenario, traj: Trajectory) -> None:
    transitions = cell_escape_summary(traj)
    # every cell a sample lies in is the start cell or entered by a transition
    visited = {cell_index(traj.x[0].item())}
    visited.update(b for _, _, b in transitions)
    entry.update(visited=sorted(visited), transitions=transitions)


def _escape_time(entry: dict, scn: Scenario, roots) -> None:
    block = scn.blocks["escape_time"]
    x0 = _turning_point(scn, block["turning_point"], roots)
    entry["turning_point"] = x0
    entry["cutoff"] = block["cutoff"]
    ray = {k: block[k] for k in ("cutoff", "tol", "direction") if k in block}
    entry["value"] = escape_time(scn.model, scn.energy, x0, **ray)
    if block["real_form"]:
        entry["real_form"] = escape_time_real_form(scn.model, scn.energy, x0, **ray)
    if "elliptic" in block:
        entry["elliptic_reference"] = block["elliptic"]["prefactor"] * elliptic_K(block["elliptic"]["m"])


def _period(entry: dict, scn: Scenario, roots) -> None:
    block = scn.blocks["period"]
    pair = tuple(_turning_point(scn, v, roots) for v in block["pair"])
    entry["pair"] = pair
    entry["offset"] = block["offset"]
    raw = contour_integral(scn.model, scn.energy, pair, **{k: block[k] for k in ("offset", "tol") if k in block})
    entry["imag_residual"] = abs(raw.imag)
    entry["value"] = _real_part(raw, "period")


@dataclass(frozen=True)
class _Analysis:
    """One analysis: its shaper, whether it needs an autonomous model, and
    whether it runs once per scenario (into ``quadrature``), reading the
    config block of its name, rather than per trajectory."""

    shape: Callable[[dict, Scenario, object], None]
    autonomous: bool = False
    per_scenario: bool = False


_ANALYSIS_TABLE = {
    "closure": _Analysis(_closure, autonomous=True),
    "pt": _Analysis(_pt, autonomous=True),
    "ellipse": _Analysis(_ellipse),
    "cells": _Analysis(_cells),
    "escape_time": _Analysis(_escape_time, per_scenario=True),
    "period": _Analysis(_period, per_scenario=True),
}


def _analysis_entry(name: str, scn: Scenario, source) -> dict:
    """The summary entry of one analysis; an engine failure is recorded in
    it, not fatal."""
    entry: dict = {}
    try:
        _ANALYSIS_TABLE[name].shape(entry, scn, source)
    except Exception as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def _trajectory_record(scn: Scenario, index: int, state: PhaseState, traj: Trajectory | None, error: str | None, fname: str | None) -> dict:
    rec: dict = {
        "index": index,
        "file": fname,
        "start": {"x": state.x, "p": state.p},
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
    for name in scn.analyses:
        if not _ANALYSIS_TABLE[name].per_scenario:
            rec[name] = _analysis_entry(name, scn, traj)
    return rec


def run_scenario(source, *, out=None, tol=None, horizon=None, quiet=False) -> int:
    """Execute a scenario config (path or bundled name); return the exit code.

    0 on success, 2 on configuration errors, 3 on I/O failures.  Engine
    errors on individual trajectories are recorded in the summary and do
    not change the exit code.
    """
    try:
        scn = load_scenario(source, {"out": out, "tol": tol, "horizon": horizon})
        roots, states = _starting_states(scn)
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
            _write_trajectory_csv(scn.out_dir / fname, traj)
            records.append(_trajectory_record(scn, i, state, traj, None, fname))
            if not quiet:
                bits = [f"{fname}: {traj.classification}"]
                if traj.period is not None:
                    bits.append(f"period={traj.period!r}")
                if traj.escape_time is not None:
                    bits.append(f"escape_time={traj.escape_time!r}")
                print("  ".join(bits))

        quad = {
            name: _analysis_entry(name, scn, roots)
            for name, analysis in _ANALYSIS_TABLE.items()
            if analysis.per_scenario and name in scn.analyses
        }
        summary = {
            "scenario": scn.name,
            "description": scn.description,
            "model": {"kind": scn.model.kind, **vars(scn.model)},
            "energy": scn.energy,
            "trajectories": records,
            "quadrature": quad,
        }
        summary_path = scn.out_dir / "summary.json"
        # strict JSON: a non-finite value raises here, before the file is written
        _write_output(summary_path, [json.dumps(summary, indent=2, allow_nan=False, default=_json_form).encode(), b"\n"])
        # the trajectory files of an earlier run that this summary does not name go
        named = {record["file"] for record in records}
        for name in os.listdir(scn.out_dir):
            if name not in named and re.fullmatch(r"traj_\d{2,}\.csv", name):
                os.unlink(scn.out_dir / name)
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
        doc = _parse_yaml(res.read_text())
        entries.append((name, str(doc.get("description", ""))))
    width = max(len(n) for n, _ in entries)
    for name, desc in entries:
        print(f"{name:<{width}}  {desc}")
    return entries


# ---------------------------------------------------------------------------
# ad-hoc subcommands


def _given(**kw) -> dict:
    """The options given on the command line; the others keep the
    library's defaults."""
    return {k: v for k, v in kw.items() if v is not None}


def _positive_flag(value, flag: str) -> float | None:
    """A numeric flag's value, read as positive and finite; None when the
    flag is not given."""
    return None if value is None else _coerce(_positive_finite, value, flag)


def _model_from_arg(text: str) -> HamiltonianModel:
    """Parse "pendulum", "pendulum:g=i", "driven-pendulum:g=1,epsilon=0.2,omega=0.1"."""
    kind, _, rest = text.partition(":")
    section = {"kind": kind}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep or not k:
                raise ConfigError(f"key 'model': malformed parameter {item!r}")
            section[k] = v
    return _coerce(_model, section, "model")


def _cmd_turning_points(args) -> int:
    model = _model_from_arg(args.model)
    energy = _coerce(_finite_complex, args.energy, "energy")
    window = _coerce(_window, args.window.split(","), "window")
    for tp in _find_roots(model, energy, window, **_given(residual_tol=_positive_flag(args.tol, "--tol"))):
        print(f"{tp.x0.real!r} {tp.x0.imag!r} cell={tp.lattice_index} branch={tp.branch_sign:+d}")
    return 0


def _cmd_escape_time(args) -> int:
    model = _model_from_arg(args.model)
    energy = _coerce(_finite_complex, args.energy, "energy")
    seed = _coerce(_finite_complex, args.tp, "tp")
    cutoff, tol = _positive_flag(args.cutoff, "--cutoff"), _positive_flag(args.tol, "--tol")
    try:
        x0 = refine_root(model, energy, seed).x0
        value = escape_time(model, energy, x0, **_given(cutoff=cutoff, tol=tol, direction=args.direction))
    except Exception as exc:
        raise ConfigError(f"key 'tp': {exc}") from None
    print(repr(value))
    return 0


def _cmd_period(args) -> int:
    model = _model_from_arg(args.model)
    energy = _coerce(_finite_complex, args.energy, "energy")
    options = _given(offset=_positive_flag(args.offset, "--offset"), tol=_positive_flag(args.tol, "--tol"))
    if args.pair:
        seeds = args.pair.split(";")
        if len(seeds) != 2:
            raise ConfigError("key 'pair': expected 'z1;z2'")
        pair = tuple(refine_root(model, energy, _coerce(_finite_complex, s, "pair")).x0 for s in seeds)
    else:
        # the adjacent pair nearest the origin
        span = 1.5 * math.pi
        roots = _find_roots(model, energy, (-span, span, -3.0, 3.0))
        if len(roots) < 2:
            raise ConfigError("key 'pair': fewer than two turning points near the origin; pass --pair")
        ordered = sorted(roots, key=lambda tp: (abs(tp.x0), tp.x0.real, tp.x0.imag))
        pair = (ordered[0].x0, ordered[1].x0)
    try:
        value = period_contour(model, energy, pair, **options)
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
    p_tp.add_argument("--tol", type=float, help="residual tolerance")
    _allow_negative_values(p_tp)

    p_esc = sub.add_parser("escape-time", help="escape time from a turning point")
    p_esc.add_argument("model")
    p_esc.add_argument("energy")
    p_esc.add_argument("tp", help="turning point, e.g. 'pi+1i' or '3pi/2+1i'")
    p_esc.add_argument("--cutoff", type=float, help="|Im x| treated as infinity")
    p_esc.add_argument("--direction", type=int, choices=(-1, 1))
    p_esc.add_argument("--tol", type=float, help="quadrature tolerance")
    _allow_negative_values(p_esc)

    p_per = sub.add_parser("period", help="period from a contour around a turning-point pair")
    p_per.add_argument("model")
    p_per.add_argument("energy")
    p_per.add_argument("--pair", help="explicit pair 'z1;z2' (default: the pair nearest the origin)")
    p_per.add_argument("--offset", type=float, help="contour offset from the cut")
    p_per.add_argument("--tol", type=float, help="quadrature tolerance")
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
