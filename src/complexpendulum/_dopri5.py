"""Loader of the compiled Dormand-Prince loop in ``_dopri5.c``.

``integrator._dopri`` runs its accept/reject/PI/landing loop in the C
kernel when the field is the ``field`` method of an exact ``Pendulum``,
``Harmonic``, ``ImaginaryCubic`` or ``DrivenPendulum`` with plain int,
float or complex parameters, on CPython before 3.14 (whose mixed
float/complex arithmetic the kernel does not mirror).  Every other run
uses the Python loop, which stays the reference.

The kernel is compiled once, at the first run that can use it, with the
system C compiler ``cc``.  The library is cached in this package's
``__pycache__`` under a name keyed by a hash of the source, the flags
and the interpreter version, and written by atomic rename, so that two
processes building at once never load a half-written file.  When the
compiler is missing, or the build or the load fails, one warning per
process names the reason and the Python loop runs instead.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import platform
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .models import DrivenPendulum, Harmonic, ImaginaryCubic, Pendulum

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_dopri5.c")
_CACHE = Path(__file__).with_name("__pycache__")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_ROWS = 512  # accepted steps handed over per call

_KINDS = {Pendulum: 0, Harmonic: 1, ImaginaryCubic: 2, DrivenPendulum: 3}
# status codes of dopri5_steps (see _dopri5.c)
_FULL, _HAND_BACK = 0, 4
_STOP_REASONS = {1: "horizon", 2: "max_steps", 3: "step_underflow"}

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
        cmd = [_COMPILER, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{_COMPILER} failed: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


@functools.cache
def _library():
    """The kernel's entry point, building the library first if needed;
    None when it cannot be built or loaded (logged once)."""
    try:
        # crc32, not hashlib: hashlib loads libcrypto, a few MB of memory
        key = zlib.crc32(
            b"\0".join([_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), sys.version.encode(), platform.machine().encode()])
        )
        path = _CACHE / f"_dopri5-{key:08x}.so"
        if not path.is_file():
            _build(path)
        fn = ctypes.CDLL(str(path)).dopri5_steps
    except OSError as exc:
        logger.warning("compiled DOPRI5 stepper unavailable, using the Python loop: %s", exc)
        return None
    fn.argtypes = [ctypes.POINTER(_Run), ctypes.POINTER(_State), ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


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
    """The compiled loop as a generator: yields (t, x, p, kx, kp) after
    every accepted step like ``integrator._dopri`` and returns its stop
    reason, or, when a step has to be redone in Python, the state
    (t, x, p, kx, kp, h_mag, facold, accepted, i) at the start of that
    step."""
    kernel = _library()
    c_stops = (_c_double * len(stops))(*stops)
    run = _Run(*params, c_stops, stops[-1], direction, rel_tol, abs_tol, max_step, min_step, max_steps)
    state = _State(t, x.real, x.imag, p.real, p.imag, kx.real, kx.imag, kp.real, kp.imag, h_mag, facold, 0.0, 0, 0)
    ts = np.empty(_ROWS)
    zs = np.empty((4, _ROWS), dtype=complex)  # rows of x, p, kx, kp
    args = (ctypes.byref(run), ctypes.byref(state), ts.ctypes.data, zs.ctypes.data, _ROWS)
    while True:
        n = kernel(*args)
        if n:
            yield from zip(ts[:n].tolist(), *zs[:, :n].tolist())
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
