"""Loader of the compiled library: the Dormand-Prince loop and its
landing runs, the energy column and the quadrature integrals in
``_dopri5.c`` and the CSV row formatter in ``_csv.cpp``.

``integrator._dopri`` runs its accept/reject/PI/landing loop in the C
kernel when the field is the ``field`` method of an exact ``Pendulum``,
``Harmonic``, ``ImaginaryCubic`` or ``DrivenPendulum`` with plain int,
float or complex parameters, on CPython before 3.14 (whose mixed
float/complex arithmetic the kernel does not mirror).  Every other run
uses the Python loop, which stays the reference.  For the same models,
under the same gate, each landing run of event polishing
(``integrator._advance``) is one call of ``advance``, its initial step
and the field at the landed state included; a run the library cannot
finish as Python would is redone whole by the Python path.

``Trajectory``'s energy column (V, H and ``energy_drift``'s local scale)
comes from ``energy_columns`` for the same models, under the same gate,
bit for bit as its Python expressions, the reference, compute it; those
compute every other model's column and the rows the library stops at.

For the same models, under the same gate, each quadrature integral of
``_branch_integral`` and of ``escape_time_real_form`` is one call of
``integral``: ``quadrature.adaptive_quad``'s whole refinement of every
piece, each panel as ``quadrature._panel`` computes it.  An integral
with a panel the library cannot mirror is redone whole by the Python
integrands and ``adaptive_quad``, the reference.

``cli._write_trajectory_csv`` formats its rows with ``csv_rows`` when the
interpreter's floats print in the 'short' repr style: each value is the
shortest round-trip digits from ``std::to_chars`` laid out as ``repr``
lays them out, so the file is the one the Python writer makes, byte for
byte, for every model.

The library is compiled once, at the first run or CSV that can use it,
with the system C compiler ``cc`` (which needs a C++17 libstdc++ with
floating-point ``std::to_chars``, GCC 11 or later).  It is cached in this
package's ``__pycache__`` under a name keyed by a hash of both sources,
the flags and the interpreter version, and written by atomic rename, so
that two processes building at once never load a half-written file.
When the compiler is missing, or the build or the load fails, one
warning per process names the reason and the Python loop, energy column
and writer run instead.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import platform
import struct
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .models import DrivenPendulum, Harmonic, ImaginaryCubic, Pendulum

logger = logging.getLogger(__name__)

_SOURCES = (Path(__file__).with_name("_dopri5.c"), Path(__file__).with_name("_csv.cpp"))
_CACHE = Path(__file__).with_name("__pycache__")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_ROWS = 512  # accepted steps handed over, or CSV rows formatted, per call
_CSV_ROW_BYTES = 512  # bound on one CSV row's length (see _csv.cpp)

_KINDS = {Pendulum: 0, Harmonic: 1, ImaginaryCubic: 2, DrivenPendulum: 3}
# status codes of dopri5_steps (see _dopri5.c)
_FULL, _HAND_BACK = 0, 4
_STOP_REASONS = {1: "horizon", 2: "max_steps", 3: "step_underflow"}
# integrands, path pieces and status codes of quad_integral
_BRANCH, _REAL_FORM = 0, 1
_PIECES = {"ray": 0, "edge": 1, "cap": 2}
_QUAD_HAND_BACK, _QUAD_BUDGET, _QUAD_RESOLUTION = 1, 2, 3

_c_double = ctypes.c_double


class _Run(ctypes.Structure):
    _fields_ = [
        ("kind", ctypes.c_int),
        ("gr", _c_double),
        ("gi", _c_double),
        ("epsilon", _c_double),
        ("omega", _c_double),
        ("stops", ctypes.POINTER(_c_double)),
        ("t_end", _c_double),
        ("direction", _c_double),
        ("rel_tol", _c_double),
        ("abs_tol", _c_double),
        ("max_step", _c_double),
        ("min_step", _c_double),
        ("max_steps", _c_double),
    ]


class _State(ctypes.Structure):
    _fields_ = [
        ("t", _c_double),
        ("xr", _c_double),
        ("xi", _c_double),
        ("pr", _c_double),
        ("pi", _c_double),
        ("kxr", _c_double),
        ("kxi", _c_double),
        ("kpr", _c_double),
        ("kpi", _c_double),
        ("h_mag", _c_double),
        ("facold", _c_double),
        ("accepted", _c_double),
        ("i", ctypes.c_long),
        ("status", ctypes.c_int),
    ]


def _build(path: Path) -> None:
    import subprocess  # imported here: only a build needs it

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        cmd = [_COMPILER, *_FLAGS, "-o", tmp, *map(str, _SOURCES), "-lstdc++", "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{_COMPILER} failed: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


@functools.cache
def _library():
    """The library with its entry points declared, building it first if
    needed; None when it cannot be built or loaded (logged once)."""
    try:
        # crc32, not hashlib: hashlib loads libcrypto, a few MB of memory
        key = zlib.crc32(
            b"\0".join(
                [
                    *(source.read_bytes() for source in _SOURCES),
                    " ".join(_FLAGS).encode(),
                    sys.version.encode(),
                    platform.machine().encode(),
                ]
            )
        )
        path = _CACHE / f"_dopri5-{key:08x}.so"
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        logger.warning("compiled library unavailable, using the Python stepping loop and CSV writer: %s", exc)
        return None
    lib.dopri5_steps.argtypes = [ctypes.POINTER(_Run), ctypes.POINTER(_State), ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    lib.dopri5_steps.restype = ctypes.c_int
    lib.dopri5_advance.argtypes = [ctypes.c_int, *[_c_double] * 10, ctypes.c_void_p]
    lib.dopri5_advance.restype = ctypes.c_int
    lib.csv_rows.argtypes = [ctypes.c_long, *[ctypes.c_void_p] * 4, ctypes.c_int, ctypes.c_void_p]
    lib.csv_rows.restype = ctypes.c_long
    lib.energy_rows.argtypes = [ctypes.c_int, _c_double, _c_double, ctypes.c_long, *[ctypes.c_void_p] * 5]
    lib.energy_rows.restype = ctypes.c_long
    lib.quad_integral.argtypes = [
        ctypes.c_int, ctypes.c_int, *[_c_double] * 4, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_long, ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p,
    ]
    lib.quad_integral.restype = ctypes.c_int
    return lib


def model_params(field):
    """(kind, g.real, g.imag, epsilon, omega) of the model whose ``field``
    method this is, when the kernel can run it; None otherwise."""
    model = getattr(field, "__self__", None)
    kind = _KINDS.get(type(model))
    if kind is None or sys.version_info >= (3, 14):
        return None
    g = getattr(model, "g", 0.0)
    epsilon = getattr(model, "epsilon", 0.0)
    omega = getattr(model, "omega", 0.0)
    if type(g) not in (int, float, complex) or type(epsilon) not in (int, float) or type(omega) not in (int, float):
        return None
    if _library() is None:
        return None
    return kind, float(g.real), float(g.imag), float(epsilon), float(omega)


def steps(params, t, x, p, kx, kp, h_mag, facold, stops, direction, rel_tol, abs_tol, max_step, min_step, max_steps):
    """The compiled loop as a generator: yields the accepted steps in
    blocks of up to ``_ROWS`` like ``integrator._dopri``, (t, z) with z's
    rows x and p, each block in buffers of its own, and returns its stop
    reason, or, when a step has to be redone in Python, the state
    (t, x, p, kx, kp, h_mag, facold, accepted, i) at the start of that
    step, (kx, kp) being the field there."""
    kernel = _library().dopri5_steps
    c_stops = (_c_double * len(stops))(*stops)
    run = _Run(*params, c_stops, stops[-1], direction, rel_tol, abs_tol, max_step, min_step, max_steps)
    state = _State(t, x.real, x.imag, p.real, p.imag, kx.real, kx.imag, kp.real, kp.imag, h_mag, facold, 0.0, 0, 0)
    run_ref, state_ref = ctypes.byref(run), ctypes.byref(state)
    while True:
        ts = np.empty(_ROWS)
        zs = np.empty((2, _ROWS), dtype=complex)
        n = kernel(run_ref, state_ref, ts.ctypes.data, zs.ctypes.data, _ROWS)
        if n:
            yield ts[:n], zs[:, :n]
        if state.status != _FULL:
            break
    if state.status == _HAND_BACK:
        return (
            state.t,
            complex(state.xr, state.xi),
            complex(state.pr, state.pi),
            complex(state.kxr, state.kxi),
            complex(state.kpr, state.kpi),
            state.h_mag,
            state.facold,
            int(state.accepted),
            state.i,
        )
    return _STOP_REASONS[state.status]


def advance(params, t, x, p, t_target, polish):
    """``integrator._advance``'s run from (t, x, p) to t_target under the
    polish record (rel_tol, abs_tol, max_step, min_step), in one call:
    (x, p, (kx, kp)) at t_target, the field there included, bit for bit
    as the Python path computes them; None when the library cannot
    mirror the run, which Python then redoes whole."""
    state = (_c_double * 8)(x.real, x.imag, p.real, p.imag)
    if not _library().dopri5_advance(*params, t, t_target, *polish, state):
        return None
    return complex(state[0], state[1]), complex(state[2], state[3]), (complex(state[4], state[5]), complex(state[6], state[7]))


def energy_columns(model, x, p):
    """(v, h, scale, n): V(x), H = p*p/2 + V and ``energy_drift``'s local
    scale |p|**2/2 + |V| (complex128, complex128, float64) for the samples
    x, p of a run of ``model``, the first n rows filled by the library as
    ``Trajectory``'s Python expressions compute them; the other rows are
    left to those.  n is 0 for a model the kernel does not run, and stops
    short of a row that cmath would compute otherwise or raise on."""
    x = np.ascontiguousarray(x, dtype=complex)
    p = np.ascontiguousarray(p, dtype=complex)
    if len(x) != len(p):
        raise ValueError("columns of unequal length")
    v, h, scale = np.empty_like(x), np.empty_like(x), np.empty(len(x))
    params = model_params(model.field)
    if params is None:
        return v, h, scale, 0
    neg_g = complex(-getattr(model, "g", 0.0))
    addresses = (column.ctypes.data for column in (x, p, v, h, scale))
    n = _library().energy_rows(params[0], neg_g.real, neg_g.imag, len(x), *addresses)
    return v, h, scale, n


def integral(model, energy, rows, nodes, max_panels, guide=None):
    """One quadrature integral in one call: ``quadrature.adaptive_quad``
    over each piece with at most ``max_panels`` panels, each panel as
    ``quadrature._panel`` computes it, the pieces' values added to a total
    from 0j in order, bit for bit as Python computes them.

    With ``guide`` (a sequence of complexes), the integrand is
    ``_branch_integral``'s, which reads it; without, it is
    ``escape_time_real_form``'s.  ``rows`` gives each piece as (piece, s0,
    s1, tol, first, h): the descriptor of ``quadrature._pieces``, (kind,
    c0, c1, c2, phi0), the parameter interval, its error target, and its
    first guide entry and cell width.  ``nodes`` holds the 46 (xi, wi)
    pairs, 15 nodes then 31, as float64 bytes.

    Returns (total, None), or (total, stop) where ``adaptive_quad`` raises
    ``ToleranceNotMet``: stop is ("budget", toterr, tol, panels) or
    ("resolution", lo, hi, err).  None when the model is not one the
    kernel runs, a piece has no descriptor, or the library cannot mirror
    a panel; Python then computes the whole integral."""
    params = model_params(model.field)
    if params is None or any(row[0] is None for row in rows):
        return None
    if len(nodes) != 46 * 2 * 8:
        raise ValueError(f"expected 46 (xi, wi) float64 pairs, got {len(nodes)} bytes")
    flat = []
    for (kind, c0, c1, c2, phi0), s0, s1, tol, first, h in rows:
        flat += (_PIECES[kind], c0.real, c0.imag, c1.real, c1.imag, c2.real, c2.imag, phi0, s0, s1, tol, first, h)
    neg_g = complex(-getattr(model, "g", 0.0))
    energy = complex(energy)
    out = (_c_double * 5)()
    # bytes are the cheapest read-only buffers to build for ctypes
    status = _library().quad_integral(
        _REAL_FORM if guide is None else _BRANCH,
        params[0],
        neg_g.real,
        neg_g.imag,
        energy.real,
        energy.imag,
        nodes,
        None if guide is None else np.array(guide, dtype=complex).tobytes(),
        0 if guide is None else len(guide),
        len(rows),
        struct.pack(f"{len(flat)}d", *flat),
        max_panels,
        out,
    )
    if status == _QUAD_HAND_BACK:
        return None
    stop = None
    if status == _QUAD_BUDGET:
        stop = ("budget", out[2], out[3], int(out[4]))
    elif status == _QUAD_RESOLUTION:
        stop = ("resolution", out[2], out[3], out[4])
    return complex(out[0], out[1]), stop


def csv_formatter():
    """A function ``rows(t, x, p, e, driven)`` that formats up to ``_ROWS``
    CSV rows from columns of floats (t) and complexes (x, p, e) and
    returns them as a view of one fixed buffer, valid until its next
    call; None when the library cannot be built or loaded.  Contiguous
    float64 and complex128 columns are read in place."""
    lib = _library()
    if lib is None:
        return None
    csv_rows = lib.csv_rows
    out = ctypes.create_string_buffer(_ROWS * _CSV_ROW_BYTES)
    view = memoryview(out)

    def rows(t, x, p, e, driven):
        n = len(t)
        if n > _ROWS:
            raise ValueError(f"at most {_ROWS} rows per call, got {n}")
        columns = [np.ascontiguousarray(t, dtype=float)]
        columns += (np.ascontiguousarray(z, dtype=complex) for z in (x, p, e))
        if any(len(column) != n for column in columns):
            raise ValueError("columns of unequal length")
        return view[: csv_rows(n, *(column.ctypes.data for column in columns), driven, ctypes.addressof(out))]

    return rows
