"""Loader of the compiled library, ``_dopri5.c`` and ``_csv.c``.

For the four built-in models the library runs, bit for bit as the Python
code it mirrors, which stays the reference:

- ``steps``: ``integrator._dopri``'s accept/reject/PI/landing loop, the
  field and ``_initial_step`` at the run's start included, and for a
  main run of ``integrator.integrate`` its events: each row's tests, the
  polish of an escape or a return (``_locate_escape``, ``locate_return``)
  and the rows the trajectory keeps, so that the run stops at its event;
- ``land``: one landing run of event polishing (``integrator._advance``),
  one call of the same entry point, ``dopri5_steps``, that keeps no rows;
- ``energy_columns``: ``Trajectory``'s energy columns, H and
  ``energy_drift``'s local scale, with V(x) a per-row local, not a
  column;
- ``operation``: one public entry point of ``turning`` or
  ``quadrature`` whole, for the built-in models: ``turning_points``'
  search, ``refine_root``'s polish, and the escape and period integrals
  from their root checks to the integral (the branch guide as
  ``quadrature._guide`` builds it, then ``adaptive_quad``'s whole
  refinement of every piece, each panel as ``quadrature._panel``
  computes it), as Python runs their success path; anything else is
  handed back whole.

Each reads the model from one record, ``model_params``'s (kind, g,
complex(-g), epsilon, omega), built from the model itself, and only for
an exact ``Pendulum``, ``Harmonic``, ``ImaginaryCubic`` or
``DrivenPendulum`` with plain int, float or complex parameters, on
CPython before 3.14 (whose mixed float/complex arithmetic the kernel
does not mirror); other models run on the Python path.  The library
builds each path piece of an ``operation`` as its one description in
``quadrature._pieces``, (kind, c0, c1, c2, phi0).  What the library
cannot mirror goes back to Python: a run from its start or from the
step it cannot take or whose event it does not polish, a landing run or
an operation whole, and the energy rows from the first it cannot
compute.  Two paths are Python-only: ``locate_return``'s ends and
parabolic vertex (a return whose g is 0 at a sampled row or has no sign
change is handed back) and ``adaptive_quad`` over an empty interval.
The kernel keeps only dp/dt of the field: for these models dx/dt is p
itself, so ``steps`` hands the field back as (p, kp).

Every call crosses into the library one way: each record it reads (the
model, a run's settings, an operation's call record) goes in as
``struct``-packed bytes laid out as its C struct, and each buffer it
reads or writes (stops, run state, rows, columns, results) is a numpy
array passed by address.  An operation sends its model record and its
call record as one, and reads its result from a reused buffer whose
address is taken once.  No ctypes type is used, so no call builds one.

``cli._write_trajectory_csv`` formats its rows with ``csv_formatter``
where floats print in the 'short' repr style: each value is the shortest
round-trip digits, found by ``_csv.c``'s own Schubfach conversion and
laid out as ``repr`` lays them out, so the file is the Python formatter's,
byte for byte, for every model.

The library is compiled once, at the first run or CSV that can use it,
from C sources alone, with the system C compiler ``cc``, which must
provide ``unsigned __int128`` (GCC or Clang on a 64-bit target).  It is
cached in this package's ``__pycache__`` under a name keyed by a hash of
both sources, the flags and the interpreter version, and written by
atomic rename, so that two processes building at once never load a
half-written file.
When the compiler is missing, or the build or the load fails, one
warning per process names the reason and the Python paths run instead.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import os
import platform
import struct
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .models import DrivenPendulum, Harmonic, ImaginaryCubic, Pendulum, cell_index

logger = logging.getLogger(__name__)

_SOURCES = (Path(__file__).with_name("_dopri5.c"), Path(__file__).with_name("_csv.c"))
_CACHE = Path(__file__).with_name("__pycache__")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_ROWS = 512  # accepted steps handed over, or CSV rows formatted, per call
_CSV_ROW_BYTES = 512  # bound on one CSV row's length (see _csv.c)

# the models the kernel runs, by exact type: none on CPython 3.14 or
# later, whose mixed float/complex arithmetic the kernel does not mirror
_KINDS = {Pendulum: 0, Harmonic: 1, ImaginaryCubic: 2, DrivenPendulum: 3} if sys.version_info < (3, 14) else {}
# status codes of dopri5_steps (see _dopri5.c)
_FULL, _HORIZON, _HAND_BACK = 0, 1, 4
_STOP_REASONS = {_HORIZON: "horizon", 2: "max_steps", 3: "step_underflow", 5: "overflow", 6: "escape", 7: "closure"}
# the bits of Run.watch: the events a main run watches, and whether the
# kernel polishes escapes and closures itself
WATCH_OVERFLOW, WATCH_ESCAPE, WATCH_CLOSURE, WATCH_POLISH = 1, 2, 4, 8
# operations of quad_op
OP_TURNING, OP_REFINE, OP_REAL_FORM, OP_ESCAPE, OP_CONTOUR = range(5)
_OP_RESULTS = 128  # doubles of a reused quad_op result buffer: 64 roots
# reused quad_op result buffers, each (array, address, view), State
# records of landing runs, each (array, address), and the State record and
# row buffer of main runs, with their addresses: taking an array's address
# costs more than the compiled work of a short operation or run
_op_buffers, _land_states, _runs = [], [], []

# the C structs: Model (kind, g, complex(-g), epsilon, omega); Run (t_end,
# direction, rel_tol, abs_tol, max_step, min_step, max_steps, then the
# watch: its bits, guard, radius, closure_tol, min_period, the start (t0,
# x0, p0) and the polish record (rel_tol, abs_tol, max_step, min_step));
# and State, whose h_mag of 0 starts a run, with the watch's memory: the
# number of rows pending, the running maximum of d2 and the last two rows
_MODEL, _RUN = struct.Struct("i6d"), struct.Struct("7di13d")
_NO_WATCH = (0, *[0.0] * 13)
_ROW = np.dtype([("t", "f8"), ("x", "c16"), ("p", "c16"), ("d2", "f8")])
_STATE = np.dtype(
    [("t", "f8"), ("x", "c16"), ("p", "c16"), ("kp", "c16"), ("h_mag", "f8"), ("facold", "f8"),
     ("accepted", "f8"), ("i", "l"), ("status", "i"), ("pending", "i"), ("dmax", "f8"), ("rows", _ROW, (2,))],
    align=True,
)
_NO_ROWS = [(0.0, 0j, 0j, 0.0)] * 2  # a list: numpy reads a tuple as one record


def _build(path: Path) -> None:
    import subprocess  # imported here: only a build needs it

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        cmd = [_COMPILER, *_FLAGS, "-o", tmp, *map(str, _SOURCES), "-lm"]
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
    # every pointer is a bytes record or a numpy array's address
    ptr, c_int, c_long = ctypes.c_void_p, ctypes.c_int, ctypes.c_long
    lib.dopri5_steps.argtypes = [*[ptr] * 6, c_int]
    lib.dopri5_steps.restype = c_int
    lib.csv_rows.argtypes = [c_long, *[ptr] * 4, c_int, ptr]
    lib.csv_rows.restype = c_long
    lib.energy_rows.argtypes = [ptr, c_long, *[ptr] * 4]
    lib.energy_rows.restype = c_long
    lib.quad_op.argtypes = [ptr, ptr, c_long, ptr]
    lib.quad_op.restype = c_long
    return lib


def model_params(model):
    """The C ``Model`` record, (kind, g, complex(-g), epsilon, omega) as
    bytes, that every entry point reads ``model`` from, when the kernel
    can run it; None otherwise."""
    kind = _KINDS.get(type(model))
    if kind is None:
        return None
    fields = vars(model)  # the dataclass fields of an exact built-in model
    g = fields.get("g", 0.0)
    epsilon = fields.get("epsilon", 0.0)
    omega = fields.get("omega", 0.0)
    if type(g) not in (int, float, complex) or type(epsilon) not in (int, float) or type(omega) not in (int, float):
        return None
    if _library() is None:
        return None
    neg_g = complex(-g)
    return _MODEL.pack(kind, g.real, g.imag, neg_g.real, neg_g.imag, epsilon, omega)


def _start(t, x, p):
    """The fields of the ``State`` of a run that starts at (t, x, p)."""
    return t, x, p, 0j, 0.0, 0.0, 0.0, 0, _FULL, 0, 0.0, _NO_ROWS


def steps(record, t, x, p, stops, direction, rel_tol, abs_tol, max_step, min_step, max_steps, watch=_NO_WATCH):
    """The compiled loop as a generator, from the start (t, x, p): yields
    its rows in blocks like ``integrator._dopri``, (t, x, p), each column
    an array of its own, and returns its stop reason, or, when a step has
    to be redone in Python, the state (t, x, p, kp, h_mag, facold,
    accepted, i, pending, dmax, rows) at the start of that step, (p, kp)
    being the field there: dx/dt is p itself; h_mag is 0 at a run handed
    back at its start.

    ``watch`` is the tail of the ``Run`` record, ``integrate``'s events
    (see ``_dopri5.c``), none by default.  A watched run's rows are the
    rows it keeps, its refined end last, and its stop reason names its
    event.  An escape or a candidate return the kernel does not polish is
    handed back at the step that found it.  A hand-back carries the watch's
    memory: the last two rows (t, x, p, d2), the newest last, of which the
    newest ``pending`` were not yielded, and dmax, the running maximum of
    the squared distance to the start."""
    kernel = _library().dopri5_steps
    stops = np.asarray(stops, dtype=float)
    run = _RUN.pack(stops[-1], direction, rel_tol, abs_tol, max_step, min_step, max_steps, *watch)
    stops = stops.tobytes()  # read as a record
    try:
        state, columns, addresses = _runs.pop()
    except IndexError:
        state, rows = np.empty(1, dtype=_STATE), np.empty(5 * _ROWS)
        # the float64 t, then the complex128 x and p, _ROWS rows each
        columns = rows[:_ROWS], *rows[_ROWS:].view(complex).reshape(2, _ROWS)
        addresses = state.ctypes.data, rows.ctypes.data, rows.ctypes.data + 8 * _ROWS
    try:
        state[0] = _start(t, x, p)
        while True:
            n = kernel(record, run, stops, *addresses, _ROWS)
            if n:
                # each block in arrays of its own, one a column, so that a
                # column's blocks are freed once it is assembled
                yield tuple(column[:n].copy() for column in columns)
            t, x, p, kp, h_mag, facold, accepted, i, stop, pending, dmax, rows = state.item()
            if stop != _FULL:
                break
        rows = rows.tolist()  # read before the next run reuses the record it views
    finally:
        _runs.append((state, columns, addresses))
    if stop == _HAND_BACK:
        return t, x, p, kp, h_mag, facold, int(accepted), i, pending, dmax, rows
    return _STOP_REASONS[stop]


def land(record, t, x, p, t_target, polish):
    """``integrator._advance``'s run from (t, x, p) to t_target under the
    polish record (rel_tol, abs_tol, max_step, min_step), in one
    ``dopri5_steps`` call that keeps no rows: (x, p) at t_target, bit for
    bit as the Python path computes them; None when the library cannot
    mirror the run, which Python then redoes whole."""
    run = _RUN.pack(t_target, 1.0 if t_target > t else -1.0, *polish, math.inf, *_NO_WATCH)
    try:
        state, address = _land_states.pop()
    except IndexError:
        state = np.empty(1, dtype=_STATE)
        address = state.ctypes.data
    state[0] = _start(t, x, p)
    _library().dopri5_steps(record, run, None, address, None, None, 0)
    fields = state.item()
    _land_states.append((state, address))
    return fields[1:3] if fields[8] == _HORIZON else None


def energy_columns(model, x, p, with_scale=True):
    """(h, scale, n): H = p*p/2 + V(x) and, if ``with_scale`` (else None),
    ``energy_drift``'s local scale |p|**2/2 + |V| (complex128, float64)
    for the samples x, p of a run of ``model``, the first n rows filled by
    the library as ``Trajectory``'s Python expressions compute them; the
    other rows are left to those.  n is 0 for a model the kernel does not
    run, and stops short of a row that cmath would compute otherwise or
    raise on."""
    x = np.ascontiguousarray(x, dtype=complex)
    p = np.ascontiguousarray(p, dtype=complex)
    if len(x) != len(p):
        raise ValueError("columns of unequal length")
    h, scale = np.empty_like(x), np.empty(len(x)) if with_scale else None
    record = model_params(model)
    if record is None:
        return h, scale, 0
    addresses = (None if column is None else column.ctypes.data for column in (x, p, h, scale))
    return h, scale, _library().energy_rows(record, len(x), *addresses)


@functools.cache
def _call_record(n):
    """The ``struct`` format of a call record of n doubles.  Held here: after
    a ``gc.collect()`` an operation packing with ``struct.pack(f"{n}d")``
    took 4-5 us longer (median over the benchmark's four operation kinds,
    same interpreter, alternating)."""
    return struct.Struct(f"{n}d")


def operation(model, call, nodes=None):
    """One operation of ``turning`` or ``quadrature`` in one call of
    ``quad_op``: ``call`` is its call record after the model's (the
    operation, the energy, the root search's rules, then its own numbers;
    see ``_dopri5.c``), packed with the model record into one, and
    ``nodes`` the quadrature's (xi, wi) bytes for an integral.  Returns
    the doubles of its result as a list: roots as (re, im) pairs, or an
    integral's (re, im) and each piece's guide cells.  None where the
    model is not one the kernel runs, or the library hands the operation
    back, which Python then runs whole."""
    record = model_params(model)
    if record is None:
        return None
    record += _call_record(len(call)).pack(*call)
    kernel = _library().quad_op
    try:
        buffer = _op_buffers.pop()
    except IndexError:
        out = np.empty(_OP_RESULTS)
        buffer = out, out.ctypes.data, memoryview(out)
    try:
        n = kernel(record, nodes, _OP_RESULTS, buffer[1])
        if n <= _OP_RESULTS:
            return None if n < 0 else buffer[2][:n].tolist()
    finally:
        _op_buffers.append(buffer)
    # more roots than a reused buffer holds
    out = np.empty(n)
    kernel(record, nodes, n, out.ctypes.data)
    return out.tolist()


def csv_formatter():
    """A generator ``rows(t, x, p, e, driven)`` of the CSV rows of whole
    columns of floats (t) and complexes (x, p, e), in blocks of up to
    ``_ROWS`` rows, each a view of one buffer that the next overwrites;
    None without the library, or where floats do not print in the
    'short' repr style the formatter mirrors.  Contiguous float64 and
    complex128 columns are read in place.  A driven row whose Re x is not
    finite is handed back after the rows before it: ``cell_index`` raises
    on it, as in the Python formatter."""
    lib = _library() if sys.float_repr_style == "short" else None
    if lib is None:
        return None
    csv_rows = lib.csv_rows
    # not zero-filled: csv_rows writes each block before it is read
    out = np.empty(_ROWS * _CSV_ROW_BYTES, dtype=np.uint8)
    view, address = memoryview(out), out.ctypes.data

    def rows(t, x, p, e, driven):
        columns = [np.ascontiguousarray(t, dtype=float)]
        columns += (np.ascontiguousarray(z, dtype=complex) for z in (x, p, e))
        if any(len(column) != len(t) for column in columns):
            raise ValueError("columns of unequal length")
        # each column's address is taken once, not once a block
        starts = [(column.ctypes.data, column.itemsize) for column in columns]
        for i in range(0, len(t), _ROWS):
            n = min(_ROWS, len(t) - i)
            written = csv_rows(n, *(start + i * size for start, size in starts), driven, address)
            if written < 0:  # the next row has no cell: cell_index raises on it
                yield view[:~written]
                cell_index(complex(columns[1][i + bytes(view[:~written]).count(b"\n")]))
            yield view[:written]

    return rows
