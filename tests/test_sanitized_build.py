"""The compiled library under AddressSanitizer and UBSan.

This test builds the library with ``-fsanitize=address,undefined`` into a
temporary directory and replays, in a fresh interpreter with the ASan
runtime preloaded:

- the 14 bundled scenarios through ``run_scenario``, each output file
  checked against ``test_golden_outputs.GOLDEN``, which runs every entry
  point: ``dopri5_steps`` (main runs, which it starts itself and whose
  events it polishes, and landing runs that keep no rows),
  ``energy_rows`` (with and without the
  scale column), ``csv_rows`` and ``quad_op``, each reading the model
  record;
- ``csv_rows`` writing each of ``test_csv_writer.longest_rows()`` into
  an allocation of exactly one row's 512 bytes, so that a fixed-width
  copy of the digits reaching past the row fails;
- the quadrature corpus and the turning-point corpus, each on the
  library's path and on the Python path;
- one operation of ``quad_op`` handed back per kind, each past the
  allocations its success path makes, and a pendulum window at the
  seed budget ``_MAX_SEEDS``, whose roots outgrow the reused result
  buffer, with the window just past it;
- operations that integrate before they hand back: an escape time that
  spends its whole panel budget and one that stops at the resolution
  limit, both on the operation's heap of panels, and a loop whose guide
  does not close; and a period whose branch guide the library refines
  to its ceiling, growing the guide's buffers cell count by cell count;
- the imaginary cubic's ``turning_points``, ``escape_time`` and
  ``contour_integral``, each one ``quad_op`` call the library runs;
- runs of ``test_dopri5`` at the edges of the kernel's plain path: the
  run the kernel hands back at cmath.sinh's switch, whose ``State``
  record Python reads back from its numpy buffer, a run handed back
  before its first step, whose trial step underflows, a landing run the
  rowless call lands, one it hands back, and one whose start field
  overflows, each compared with the Python loop, and each hand-back
  checked;
- main runs whose events the kernel watches and polishes: a closure,
  rejected candidates before one, a cut that drops a row the kernel kept
  pending across its calls, an escape, an overflow and a run to
  ``max_steps``; and, with ``locate_return`` and ``_locate_escape``
  rebound, runs whose kernel leaves each candidate to Python and goes on
  from it, each compared with the Python loop.

A bad memory access, a record laid out otherwise in Python and in C, or
undefined behaviour fails the replay.  The interpreter allocates with
the system ``malloc``, so ASan also catches a read past a packed
record.  The test is skipped where the compiler or the ASan runtime is
missing.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from complexpendulum import _dopri5

TESTS = Path(__file__).resolve().parent

REPLAY = """
import cmath, hashlib, math, sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])
from complexpendulum import Harmonic, ImaginaryCubic, IntegratorConfig, Pendulum, PhaseState, _dopri5, integrate
from complexpendulum import contour_integral, escape_time, integrator, quadrature
from complexpendulum import escape_time_real_form, period_contour, refine_root, turning, turning_points
from complexpendulum.cli import run_scenario

_dopri5._CACHE = Path(sys.argv[1])
_dopri5._FLAGS = (*_dopri5._FLAGS, "-fsanitize=address,undefined", "-fno-omit-frame-pointer")
assert _dopri5._library() is not None, "the sanitized library did not build"

import test_golden_outputs
import test_quadrature_corpus

out = Path(sys.argv[1]) / "out"
for scenario in test_golden_outputs.SCENARIOS:
    assert run_scenario(scenario, out=out / scenario, quiet=True) == 0, scenario
got = {f"{f.parent.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*/*")}
assert got == test_golden_outputs.GOLDEN, sorted(k for k in got if got[k] != test_golden_outputs.GOLDEN.get(k))

import numpy as np
import test_csv_writer

csv_rows = _dopri5._library().csv_rows
for row in test_csv_writer.longest_rows():
    t, z = np.ascontiguousarray(row[:1]), np.ascontiguousarray(row[1:]).view(complex)
    for driven in (0, 1):
        # an allocation of exactly one row's bytes
        out = np.empty(_dopri5._CSV_ROW_BYTES, dtype=np.uint8)
        assert csv_rows(1, t.ctypes.data, *(z[i:].ctypes.data for i in range(3)), driven, out.ctypes.data) > 0

import test_turning_corpus

for corpus in (test_quadrature_corpus, test_turning_corpus):
    assert corpus._mismatches() == []
    params, _dopri5.model_params = _dopri5.model_params, lambda model: None
    try:
        assert corpus._mismatches() == []
    finally:
        _dopri5.model_params = params

made, cells = [], []
operation = _dopri5.operation


def operation_spy(model, call, nodes=None):
    result = operation(model, call, nodes)
    made.append((call[0], result is not None))
    if result is not None and call[0] == _dopri5.OP_CONTOUR:
        cells.append(result[2:])
    return result


_dopri5.operation = operation_spy
handed_back = [
    (lambda: turning_points(Pendulum(g=1.0), 0.3, (-31402.0, 31402.0, -2.0, 2.0)), ValueError),
    (lambda: refine_root(Harmonic(), 1.0, 0j), turning.NonConvergence),
    (lambda: escape_time_real_form(Harmonic(), 0.5, 1.0), quadrature.DomainError),
    (lambda: escape_time(Pendulum(g=1.0), math.cosh(1.0), math.pi + 1j, tol=1e-300), quadrature.ToleranceNotMet),
    (lambda: period_contour(Pendulum(g=1.0), math.cosh(1.0), (math.pi - 1j, math.pi + 1j), 6.5),
     quadrature.PathThroughSingularity),
    # the root 1 on the ray, 2^-32 above its start
    (lambda: escape_time(Harmonic(), 0.5, 1.0 - 2.0**-32 * 1j, direction=1), quadrature.ToleranceNotMet),
    # a loop around one root
    (lambda: contour_integral(Harmonic(), 1e-9, (0j, math.sqrt(2e-9)), 1e-5), quadrature.BranchInconsistency),
]
for call, error in handed_back:
    try:
        call()
    except error:
        pass
    else:
        raise AssertionError(f"no {error.__name__}")
assert {op for op, ok in made if not ok} == set(range(5)), made
made.clear()
assert len(turning_points(Pendulum(g=1.0), 0.3, (-31401.0, 31401.0, -2.0, 2.0))) == 19990
assert made == [(_dopri5.OP_TURNING, True)], made

made.clear()
pair = (cmath.exp(-5j * math.pi / 6.0), cmath.exp(-1j * math.pi / 6.0))
assert len(turning_points(ImaginaryCubic(), 1.0, (-2.0, 2.0, -2.0, 2.0))) == 3
escape_time(ImaginaryCubic(), 1.0, 1j)
contour_integral(ImaginaryCubic(), 1.0, pair)
# the stadium's upper edge 1e-4 below the third root
contour_integral(ImaginaryCubic(), 1.0, pair, 1.5 - 1e-4)
ops = (_dopri5.OP_TURNING, _dopri5.OP_ESCAPE, _dopri5.OP_CONTOUR, _dopri5.OP_CONTOUR)
assert made == [(op, True) for op in ops], made
assert cells[-1] == [8, 8, quadrature._GUIDE_MAX_CELLS, 8], cells
_dopri5.operation = operation

import test_dopri5

returns = []
steps = _dopri5.steps


def steps_spy(*args):
    stop = yield from steps(*args)
    returns.append(stop)
    return stop


def on_both_paths(run):
    fast = run()
    params, _dopri5.model_params = _dopri5.model_params, lambda model: None
    try:
        assert run() == fast
    finally:
        _dopri5.model_params = params
    return fast


_dopri5.steps = steps_spy
on_both_paths(lambda: test_dopri5.fingerprint(test_dopri5.past_cmath_sinh_switch()))
assert len(returns) == 1 and len(returns[0]) == 8, returns
returns.clear()
truncated = (Pendulum(g=1.0), PhaseState(0.3 + 709.0j, 1j), IntegratorConfig(escape_radius=800.0))
on_both_paths(lambda: test_dopri5.fingerprint(integrate(*truncated)))
assert len(returns) == 1 and returns[0][4] == 0.0, returns  # h_mag: handed back at its start
landing = (Pendulum(g=0.6 + 0.8j), (0.5, 0.3 + 0.2j, 0.4 - 0.1j), 2.0)
landed, in_library = test_dopri5.advance_outcome(*landing)
assert in_library and on_both_paths(lambda: test_dopri5.advance_outcome(*landing)[0]) == landed
landing = (Pendulum(g=1e-307), (0.0, 0.3 + 708.0j, 2j), 0.3)
assert on_both_paths(lambda: test_dopri5.advance_outcome(*landing))[1] is False
overflow = (Pendulum(g=1.0), (0.0, 0.3 + 711.0j, 1j), 0.2)
assert on_both_paths(lambda: test_dopri5.advance_outcome(*overflow)) == ("OverflowError: math range error", False)

# events on the kernel: each kind, rejected candidates before a closure,
# a cut that drops a row pending across the kernel's calls, and, with
# the polishing rebound, each candidate left to Python and run on from
events = (
    test_dopri5.pendulum_closure,
    test_dopri5.cubic_closes_after_two_near_misses,
    test_dopri5.dip_rows_511_512_513_cut_at_512,
    test_dopri5.pendulum_escape,
    test_dopri5.overflow_on_row_0,
    test_dopri5.pendulum_max_steps,
)
for run in events:
    returns.clear()
    on_both_paths(lambda: test_dopri5.fingerprint(run()))
    assert len(returns) == 1 and returns[0] == run().termination, returns
mirrored = integrator.locate_return, integrator._locate_escape
integrator.locate_return, integrator._locate_escape = (lambda *args, f=f: f(*args) for f in mirrored)
for run in (test_dopri5.cubic_closes_after_two_near_misses, test_dopri5.pendulum_escape):
    on_both_paths(lambda: test_dopri5.fingerprint(run()))
integrator.locate_return, integrator._locate_escape = mirrored
print("replayed")
"""


def test_quadrature_runs_clean_under_asan(tmp_path):
    compiler = shutil.which(_dopri5._COMPILER)
    if compiler is None:
        pytest.skip(f"no {_dopri5._COMPILER} here")
    asan = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.isfile(asan):
        pytest.skip("no ASan runtime here")
    env = {
        **os.environ,
        "LD_PRELOAD": asan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        "PYTHONPATH": str(TESTS),
        # the system allocator, not pymalloc's arenas, so that ASan sees
        # each packed record and numpy buffer as an allocation of its own
        "PYTHONMALLOC": "malloc",
    }
    src = str(Path(_dopri5.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, str(tmp_path), src], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "replayed"
    assert "runtime error" not in proc.stderr
    assert list(tmp_path.glob("_dopri5-*.so")), "the replay did not use a library built here"
