"""The compiled stepper and energy column reproduce Python bit for bit.

Every case runs twice: once as the package runs it, with the built-in
models stepped by the C kernel, and once with the loader patched so that
``integrator._dopri`` falls back to its Python loop, the reference.  The
samples are compared as ``float.hex`` strings, which tell -0.0 from 0.0,
together with the classification, termination, period and escape time.
The energy columns (H and ``energy_drift``'s local scale) are compared
the same way against the Python expressions of ``Trajectory``; rows with
p = 0, where H is V(x), compare the library's potential itself.
"""
import contextlib
import ctypes
import gc
import hashlib
import logging
import math
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_outputs import GOLDEN

from complexpendulum import (
    DrivenPendulum,
    EventSpec,
    Harmonic,
    ImaginaryCubic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    Trajectory,
    escape_time,
    escape_time_real_form,
    integrate,
    integrator,
    period_contour,
    verify_pt_symmetry,
)
from complexpendulum import _dopri5, cli, quadrature
from complexpendulum.cli import run_scenario

COSH1 = math.cosh(1.0)


def start_at(model, x, energy, t=0.0):
    return PhaseState(complex(x), model.momentum_from_energy(complex(x), energy), t)


def fingerprint(traj):
    rows = [tuple(v.hex() for v in (s.t, s.x.real, s.x.imag, s.p.real, s.p.imag)) for s in traj.samples]
    return rows, traj.classification, traj.termination, repr(traj.period), repr(traj.escape_time)


def pendulum_escape():
    model = Pendulum(g=1.0)
    return integrate(model, start_at(model, math.pi + 1j, COSH1), IntegratorConfig(max_time=10.0))


def pendulum_closure():
    return integrate(Pendulum(g=1.0), PhaseState(0j, 1 + 0j))


def pendulum_i_backward():
    model = Pendulum(g=1j)
    return integrate(
        model,
        start_at(model, 0.5 + 0.2j, math.sinh(1.0)),
        t_final=-20.0,
        t_checkpoints=[-1.0, -2.5, -7.0],
    )


def pendulum_max_steps():
    model = Pendulum(g=0.6 + 0.8j)
    return integrate(model, start_at(model, 0.4 + 0.1j, 0.3), IntegratorConfig(max_steps=700))


def harmonic_checkpoints():
    return integrate(Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j), t_checkpoints=[0.5, 1.0, 2.5])


def harmonic_dips_that_do_not_close():
    # a closure tolerance below rounding: every return is a dip that
    # polishing refines and rejects, in the middle of a row buffer
    return integrate(
        Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j), IntegratorConfig(max_time=20.0), EventSpec(closure_tol=1e-300)
    )


def cubic_closure():
    model = ImaginaryCubic()
    return integrate(model, start_at(model, 0.5 - 0.2j, 1.0))


def cubic_backward():
    model = ImaginaryCubic()
    return integrate(model, start_at(model, 0.5 - 0.2j, 1.0), events=EventSpec(closure=False), t_final=-2.0)


def driven_checkpoints():
    model = DrivenPendulum(g=1, epsilon=0.2, omega=0.1)
    return integrate(
        model,
        start_at(model, math.pi / 2 + 0.1, 0.0),
        IntegratorConfig(max_time=100.0),
        EventSpec(escape=False),
        t_checkpoints=[10.0, 50.0, 75.5],
    )


def driven_max_steps():
    model = DrivenPendulum(g=1.0, epsilon=0.5, omega=1.0)
    return integrate(
        model, start_at(model, math.pi / 2 + 0.1, 0.0), IntegratorConfig(max_steps=300), EventSpec(escape=False)
    )


def driven_escape():
    model = DrivenPendulum(g=1.0, epsilon=1e-9, omega=0.1)
    return integrate(model, start_at(model, math.pi + 1j, COSH1), IntegratorConfig(max_time=10.0))


def past_cmath_sinh_switch():
    # escape and closure off: Im x grows until a stage argument passes
    # |Im x| = 708.396..., where cmath.sinh changes formula; the kernel
    # hands that step back and the Python loop ends the run
    return integrate(
        Pendulum(g=1.0),
        PhaseState(math.pi + 1j, 0j),
        IntegratorConfig(max_time=10.0, min_step=1e-200, overflow_guard=1e300),
        EventSpec(closure=False, escape=False),
    )


CASES = [
    pendulum_escape,
    pendulum_closure,
    pendulum_i_backward,
    pendulum_max_steps,
    harmonic_checkpoints,
    harmonic_dips_that_do_not_close,
    cubic_closure,
    cubic_backward,
    driven_checkpoints,
    driven_max_steps,
    driven_escape,
    past_cmath_sinh_switch,
]


@contextlib.contextmanager
def kernel_returns():
    """One entry per compiled run begun: what it returned, a stop reason
    or the state handed back to the Python loop, or None while it has not
    returned."""
    returns = []
    steps = _dopri5.steps

    def spy(*args):
        k = len(returns)
        returns.append(None)
        returns[k] = yield from steps(*args)
        return returns[k]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "steps", spy)
        yield returns


@pytest.fixture
def kernel_spy():
    if _dopri5._library() is None:
        pytest.skip("the compiled stepper could not be built here")
    with kernel_returns() as returns:
        yield returns


def python_loop(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        return run()


@pytest.mark.parametrize("run", CASES, ids=lambda f: f.__name__)
def test_kernel_matches_the_python_loop(monkeypatch, kernel_spy, run):
    fast = run()
    assert kernel_spy, "the compiled stepper did not run"
    kernel_runs = len(kernel_spy)
    slow = python_loop(monkeypatch, run)
    assert len(kernel_spy) == kernel_runs
    assert fingerprint(fast) == fingerprint(slow)


def test_cases_cover_every_outcome(kernel_spy):
    outcomes = {f.__name__: f() for f in CASES}
    got = {name: (t.classification, t.termination) for name, t in outcomes.items()}
    assert got == {
        "pendulum_escape": ("escaped", "escape"),
        "pendulum_closure": ("closed", "closure"),
        "pendulum_i_backward": ("open", "horizon"),
        "pendulum_max_steps": ("truncated", "max_steps"),
        "harmonic_checkpoints": ("closed", "closure"),
        "harmonic_dips_that_do_not_close": ("open", "horizon"),
        "cubic_closure": ("closed", "closure"),
        "cubic_backward": ("open", "horizon"),
        "driven_checkpoints": ("open", "horizon"),
        "driven_max_steps": ("truncated", "max_steps"),
        "driven_escape": ("escaped", "escape"),
        "past_cmath_sinh_switch": ("blowup", "non_finite"),
    }
    assert outcomes["pendulum_i_backward"].samples[-1].t == -20.0


def test_dips_are_polished_inside_a_suspended_run(monkeypatch, kernel_spy):
    """With ``locate_return`` rebound, the kernel hands the run back at
    its first candidate, at the sampled minimum, and the Python loop
    polishes that one and every later one."""
    polished = []
    locate_return = integrator.locate_return

    def spy(*args):
        polished.append(args[3][0])  # time of the sampled minimum
        return locate_return(*args)

    monkeypatch.setattr(integrator, "locate_return", spy)
    traj = harmonic_dips_that_do_not_close()
    assert [round(t / math.pi) for t in polished] == [2, 4, 6]
    assert len(traj.samples) > 512  # the Python loop went on past a block
    (state,) = kernel_spy
    assert state[0] == polished[0]


def test_hand_back_at_the_cmath_sinh_switch(kernel_spy):
    traj = past_cmath_sinh_switch()
    handed_back = [r for r in kernel_spy if isinstance(r, tuple)]
    assert len(handed_back) == 1
    t, x, p, kp, h_mag, facold, accepted, i, pending, dmax, rows = handed_back[0]
    assert accepted == 11687
    assert len(traj.samples) == accepted + 1
    assert 708.0 < x.imag < 708.3964185322641
    assert (t, x, p) == (traj.samples[-1].t, traj.samples[-1].x, traj.samples[-1].p)


def test_a_hand_back_carries_its_pending_rows_unwritten(kernel_spy):
    """The kernel hands the run back mid-run with its last two rows
    pending: it yielded every row but those and the start, and the newer
    is the state it hands back, which the Python loop goes on from."""
    fast, yielded, handed_back = kernel_run(past_cmath_sinh_switch)
    (state,) = kernel_spy
    t, x, p, *_, pending, dmax, rows = state
    assert handed_back and pending == 2
    assert rows[1][:3] == (t, x, p)
    assert yielded == len(fast[0]) - 3


# Events at the edges of the stepper's blocks.  The kernel hands over
# rows 1-512 of a run (row 0 is the start) in its first block and rows
# 513-1024 in its second; the Python loop's blocks divide 512, so these
# edges are its edges too.


def dip_across_blocks(max_step, events):
    # a harmonic orbit returns at t = 2 pi after about 512 steps of max_step
    return integrate(Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j), IntegratorConfig(max_step=max_step, max_time=10.0), events)


def dip_rows_511_512_513(events=None):
    return dip_across_blocks(0.01228, events)


def dip_rows_512_513_514(events=None):
    return dip_across_blocks(0.01226, events)


def escape_on_row_0():
    # |Im x| passes 26.22 between rows 512 and 513
    model = Pendulum(g=1.0)
    return integrate(model, start_at(model, math.pi + 1j, COSH1), IntegratorConfig(max_time=10.0, escape_radius=26.22))


def overflow_on_row_0():
    # the largest |component| passes 4.95e5 between rows 512 and 513
    model = Pendulum(g=1.0)
    return integrate(
        model,
        start_at(model, math.pi + 1j, COSH1),
        IntegratorConfig(max_time=10.0, overflow_guard=4.95e5),
        EventSpec(escape=False),
    )


@pytest.mark.parametrize(
    "run", [dip_rows_511_512_513, dip_rows_512_513_514, escape_on_row_0, overflow_on_row_0], ids=lambda f: f.__name__
)
def test_events_at_block_edges_match_the_python_loop(monkeypatch, kernel_spy, run):
    fast = run()
    assert kernel_spy, "the compiled stepper did not run"
    slow = python_loop(monkeypatch, run)
    assert fingerprint(fast) == fingerprint(slow)
    # and with Python blocks whose edges fall elsewhere
    monkeypatch.setattr(integrator, "_BLOCK", 7)
    assert fingerprint(python_loop(monkeypatch, run)) == fingerprint(slow)


def test_edge_cases_sit_on_the_block_edge(monkeypatch):
    assert _dopri5._ROWS == 512 and _dopri5._ROWS % integrator._BLOCK == 0
    dips = []
    locate_return = integrator.locate_return

    def spy(*args):
        dips.append([record[0] for record in args[2:5]])  # times of the rows around the sampled minimum
        return locate_return(*args)

    monkeypatch.setattr(integrator, "locate_return", spy)
    for run, rows in ((dip_rows_511_512_513, [511, 512, 513]), (dip_rows_512_513_514, [512, 513, 514])):
        dips.clear()
        assert run().classification == "closed"
        (times,) = dips
        # the same steps, run on without the closure event
        ts = run(EventSpec(closure=False)).t.tolist()
        assert [ts.index(t) for t in times] == rows
    escaped = escape_on_row_0()
    assert (escaped.classification, len(escaped)) == ("escaped", 514)  # rows 0-512 and the crossing
    assert abs(escaped.x[-1].imag - 26.22) < 1e-9
    blown = overflow_on_row_0()
    assert (blown.classification, blown.termination, len(blown)) == ("blowup", "overflow", 514)


def test_pt_backward_run_matches(monkeypatch, kernel_spy):
    model = Pendulum(g=1j)

    def run():
        traj = integrate(model, start_at(model, 0.3 + 0.2j, 0.4), IntegratorConfig(max_time=15.0))
        return verify_pt_symmetry(traj)

    fast = run()
    slow = python_loop(monkeypatch, run)
    assert (fast.map_kind, fast.max_deviation.hex(), fast.compared_points) == (
        slow.map_kind,
        slow.max_deviation.hex(),
        slow.compared_points,
    )


def test_subclasses_use_the_python_loop(kernel_spy):
    class Stiffer(Harmonic):
        def gradient(self, x):
            return 4.0 * x

    traj = integrate(Stiffer(), PhaseState(1 + 0j, 0j))
    assert kernel_spy == []
    assert traj.period == pytest.approx(math.pi, rel=1e-8)


@pytest.mark.parametrize(
    "compiler,flag,reason",
    [("no-such-cc", None, "no-such-cc"), (_dopri5._COMPILER, "-fno-such-flag", "cc failed")],
    ids=["missing-compiler", "failed-build"],
)
def test_failed_build_falls_back_to_the_python_loop(monkeypatch, tmp_path, caplog, compiler, flag, reason):
    """Without a working build the run logs one record naming why and
    still reproduces the bundled outputs, on the Python loop, with every
    CSV formatted by the Python formatter."""
    python_csvs = []
    rows_in_python, write_trajectory_csv = cli._rows_in_python, cli._write_trajectory_csv

    def spy(path, traj):
        calls = len(python_rows)
        write_trajectory_csv(path, traj)
        if len(python_rows) == calls + 1:
            python_csvs.append(path.name)

    python_rows = []
    monkeypatch.setattr(cli, "_rows_in_python", lambda *args: python_rows.append(args) or rows_in_python(*args))
    monkeypatch.setattr(cli, "_write_trajectory_csv", spy)
    if flag is None:
        compiler = str(tmp_path / compiler)
    else:
        monkeypatch.setattr(_dopri5, "_FLAGS", (*_dopri5._FLAGS, flag))
    monkeypatch.setattr(_dopri5, "_COMPILER", compiler)
    monkeypatch.setattr(_dopri5, "_CACHE", tmp_path / "cache")
    _dopri5._library.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="complexpendulum._dopri5"):
            for scenario in ("fig2", "fig10"):
                out = tmp_path / scenario
                assert run_scenario(scenario, out=out, quiet=True) == 0
                for f in out.iterdir():
                    assert hashlib.sha256(f.read_bytes()).hexdigest() == GOLDEN[f"{scenario}/{f.name}"]
    finally:
        _dopri5._library.cache_clear()
    assert python_csvs == [f"traj_0{i}.csv" for i in range(5)] + ["traj_00.csv"]
    records = [r for r in caplog.records if r.name == "complexpendulum._dopri5"]
    assert len(records) == 1
    assert reason in records[0].getMessage()
    assert list((tmp_path / "cache").iterdir()) == []


def test_package_data_lists_every_source():
    """An installed package missing a source would fall back to the
    Python loop and writer with only a warning."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]["complexpendulum"]
    assert [source.name for source in _dopri5._SOURCES if source.name not in package_data] == []


def test_sources_compile_without_warnings(monkeypatch, tmp_path):
    if shutil.which(_dopri5._COMPILER) is None:
        pytest.skip(f"no {_dopri5._COMPILER} here")
    monkeypatch.setattr(_dopri5, "_FLAGS", (*_dopri5._FLAGS, "-Wall", "-Wextra", "-Wcast-qual", "-Werror"))
    _dopri5._build(tmp_path / "lib.so")  # an OSError carries the compiler's messages


def test_the_library_is_built_from_c_alone(monkeypatch, tmp_path):
    """C sources and a C compiler alone: no C++ runtime is linked."""
    if shutil.which(_dopri5._COMPILER) is None:
        pytest.skip(f"no {_dopri5._COMPILER} here")
    assert {source.suffix for source in _dopri5._SOURCES} == {".c"}
    commands = []
    run = subprocess.run

    def spy(cmd, **kwargs):
        commands.append(cmd)
        return run(cmd, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    _dopri5._build(tmp_path / "lib.so")
    (cmd,) = commands
    assert [arg for arg in cmd if "stdc++" in arg] == []
    assert b"libstdc++" not in (tmp_path / "lib.so").read_bytes()  # no such DT_NEEDED entry


# The energy columns.  ``_dopri5.energy_columns`` fills the rows it can
# mirror; the Python expressions of ``Trajectory._energy_columns`` fill
# the rest, and fill all of them when ``model_params`` is patched out.


def energy_outcome(model, x, p):
    """H, local scale and energy_drift as hex strings, or the error
    raised.  The scale is the one ``energy_drift`` reads: kept with H for
    an autonomous model, built for the call for a driven one."""
    traj = Trajectory(t=np.zeros(len(x)), x=x, p=p, model=model)
    try:
        h, scale = traj._energy_columns
        assert (scale is None) == (not model.autonomous)
        drift = traj.energy_drift()
        if scale is None:
            scale = traj._columns(True)[1]
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    parts = [h.real, h.imag, scale]
    return [[value.hex() for value in part.tolist()] for part in parts], drift.hex()


def assert_column_matches_python(model, x, p):
    fast = energy_outcome(model, x, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        slow = energy_outcome(model, x, p)
    assert fast == slow


@pytest.fixture(scope="module")
def library():
    if _dopri5._library() is None:
        pytest.skip("the compiled library could not be built here")


# The library's entry points: what ``_dopri5._library()`` declares is
# what the sources define without ``static`` and what the built library
# exports, so that an entry point left behind by a change fails here.
ENTRY_POINTS = {"csv_rows", "dopri5_steps", "energy_rows", "quad_op"}
DEFINITION = re.compile(r"^(?!static\b)[A-Za-z_][\w\s*]*?\b([A-Za-z_]\w*)\(", re.M)


def test_the_library_exports_only_its_declared_entry_points(library):
    lib = _dopri5._library()
    declared = {name for name, value in vars(lib).items() if isinstance(value, ctypes._CFuncPtr)}
    assert declared == ENTRY_POINTS
    defined = {name for source in _dopri5._SOURCES for name in DEFINITION.findall(source.read_text())}
    assert defined == ENTRY_POINTS
    nm = shutil.which("nm")
    if nm is None:
        return  # the sources' definitions stand for the exports
    listing = subprocess.run([nm, "-D", "--defined-only", lib._name], capture_output=True, text=True)
    if listing.returncode != 0:
        return
    # "address type name", less the toolchain's own underscored symbols
    exported = {line.split()[-1] for line in listing.stdout.splitlines() if not line.split()[-1].startswith("_")}
    assert exported == ENTRY_POINTS


signed = st.floats(-1e5, 1e5) | st.sampled_from([0.0, -0.0])
g_values = (
    st.integers(-3, 3)
    | st.floats(-3.0, 3.0)
    | st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0]))
)
built_in_models = (
    st.builds(Pendulum, g=g_values)
    | st.builds(DrivenPendulum, g=g_values, epsilon=st.floats(0.0, 1.0), omega=st.floats(0.01, 1.0))
    | st.just(Harmonic())
    | st.just(ImaginaryCubic())
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    built_in_models,
    st.lists(
        st.tuples(
            st.builds(complex, signed, st.floats(-30.0, 30.0) | st.sampled_from([0.0, -0.0])),
            # p = 0 makes H the potential itself, compared bit for bit
            st.builds(complex, signed | st.floats(-1e160, 1e160), signed) | st.just(0j),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_energy_column_matches_python(library, model, rows):
    x, p = (np.array(column, dtype=complex) for column in zip(*rows))
    assert_column_matches_python(model, x, p)
    h, _, n = _dopri5.energy_columns(model, x, p)
    assert n == len(x)
    at_rest = p == 0
    assert h[at_rest].tolist() == [model.potential(z) for z in x[at_rest].tolist()]


@pytest.mark.parametrize(
    "x_last",
    [0.3 + 708.5j, 2.0 - 709.0j, 0.3 + 711.0j, complex(math.inf, 0.0), complex(0.0, math.nan)],
    ids=["cosh-switch", "cosh-switch-negative", "overflow", "inf", "nan"],
)
def test_rows_past_the_cmath_cosh_switch_go_to_python(library, x_last):
    """|Im x| past 708.396... (log(DBL_MAX / 4)) takes another formula in
    cmath.cosh, past about 710.5 cos x overflows, and a non-finite x
    takes cmath's special values: the library stops at such a row, and
    Python gives the same values or raises the same error."""
    model = Pendulum(g=0.6 + 0.8j)
    x = np.array([0.3 + 708.3j, -1.0 - 708.39j, x_last, 1.0 + 1.0j])
    p = np.array([1.0 - 1.0j, 0.5j, 2.0, 0.0])
    assert _dopri5.energy_columns(model, x, p)[2] == 2
    assert_column_matches_python(model, x, p)


def test_driven_runs_keep_no_scale_column(library):
    """Only ``energy_drift`` reads the scale, and ``cli`` calls it for
    autonomous models only: a driven run keeps H alone, the library
    skipping the scale's rows, and ``energy_drift`` still reads the
    Python path's bits."""
    model = DrivenPendulum(g=1.0, epsilon=0.5, omega=1.0)
    traj = integrate(model, PhaseState(0.5 + 0.1j, 0.2 - 0.1j), IntegratorConfig(max_time=30.0))
    h, scale = traj._energy_columns
    assert scale is None and len(h) == len(traj) > _dopri5._ROWS
    h_with_scale, scale, n = _dopri5.energy_columns(model, traj.x, traj.p)
    assert n == len(traj) and h.tolist() == h_with_scale.tolist()
    drift = traj.energy_drift()
    assert traj._energy_columns[1] is None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        in_python = Trajectory(traj.t, traj.x, traj.p, traj.termination, model)
        assert in_python._energy_columns[1] is None
        assert in_python.energy_drift().hex() == drift.hex()
        assert in_python.energy.tolist() == h.tolist()
    model = Pendulum(g=1.0)
    autonomous = integrate(model, PhaseState(0.5 + 0.1j, 0.2 - 0.1j), IntegratorConfig(max_time=30.0))
    _, scale = autonomous._energy_columns
    assert scale.tolist() == _dopri5.energy_columns(model, autonomous.x, autonomous.p)[1].tolist()


# |p| values whose square as libm's pow differs from p * p
POW_WITNESSES = [0.46918931657478585, 0.009568310563464766, 596.1161835995405, 0.5104898634061765]


def test_drift_scale_squares_with_pow(library):
    assert all(a**2 != a * a for a in POW_WITNESSES)
    x = np.zeros(len(POW_WITNESSES), dtype=complex)  # V = 0: the scale is |p|^2 / 2
    p = np.array(POW_WITNESSES, dtype=complex)
    scale = Trajectory(t=np.zeros(len(x)), x=x, p=p, model=Harmonic())._energy_columns[1]
    assert scale.tolist() == [0.5 * a**2 for a in POW_WITNESSES]
    assert_column_matches_python(Harmonic(), x, p)


# Whole runs drawn at random: every built-in model from a random start,
# forward or backward, with random checkpoints, tolerance and step cap,
# as ``integrate`` runs it and on the Python loop, bit for bit.


def run_outcome(run):
    try:
        return fingerprint(run())
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    built_in_models,
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 40.0) | st.floats(-40.0, -0.1),
    st.lists(st.floats(0.0, 1.0), max_size=4),
    st.sampled_from([1e-6, 1e-8, 1e-10]),
    st.sampled_from([1_000_000, 40]),
)
def test_random_runs_match_the_python_loop(library, model, x, p, t0, span, fractions, tol, max_steps):
    config = IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2, max_steps=max_steps)
    checkpoints = [t0 + span * f for f in fractions]

    def run():
        return integrate(model, PhaseState(x, p, t0), config, t_final=t0 + span, t_checkpoints=checkpoints)

    started = []
    steps = _dopri5.steps

    def spy(*args):
        started.append(args)
        return (yield from steps(*args))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "steps", spy)
        fast = run_outcome(run)
    assert started, "the compiled stepper did not run"
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        assert run_outcome(run) == fast


# Events on the kernel.  A main run of ``integrate`` tests each of its
# rows in the kernel (the overflow guard, the escape radius, the closure
# dip), polishes an escape or a return there as ``_locate_escape`` and
# ``locate_return`` do, and yields only the rows the trajectory keeps, its
# refined end last; a closure candidate the acceptance test rejects runs
# on.  An escape or a candidate it does not polish is handed back at the
# step that found it, which the Python loop redoes.


def kernel_run(run):
    """run()'s outcome on the library path, the rows its kernel runs
    yielded and whether a run was handed back to the Python loop."""
    yielded, handed_back = [], []
    steps = _dopri5.steps

    def spy(*args):
        handed_back.append(False)
        gen = steps(*args)
        try:
            while True:
                block = next(gen)
                yielded.append(len(block[0]))
                yield block
        except StopIteration as stop:
            handed_back[-1] = not isinstance(stop.value, str)
            return stop.value

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "steps", spy)
        outcome = run_outcome(run)
    assert handed_back, "the compiled stepper did not run"
    return outcome, sum(yielded), any(handed_back)


def python_returns(run):
    """run()'s outcome on the Python loop, and for each return it refines
    whether the refined time comes before the sampled minimum's, so that
    a closure there drops that row.  Every refined return but a closing
    run's last is a candidate the acceptance test rejected."""
    before_b = []
    locate_return = integrator.locate_return

    def spy(model, start, a, b, c, scale, polish):
        result = locate_return(model, start, a, b, c, scale, polish)
        before_b.append((result[0] - b[0]) * (c[0] - a[0]) < 0.0)
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        m.setattr(integrator, "locate_return", spy)
        return run_outcome(run), before_b


def cubic_closes_after_two_near_misses():
    # a loose closure tolerance: two sampled returns are refined and
    # rejected before a third closes
    return integrate(
        ImaginaryCubic(), PhaseState(0.76 + 0.29j, 0.62 + 0.78j), IntegratorConfig(max_time=40.0), EventSpec(closure_tol=0.03)
    )


def pendulum_closes_two_rows_after_a_handed_back_dip():
    # steps of about a quarter period: the dip at the half period is a
    # candidate whose g does not change sign, which the kernel hands back
    # to Python, where it is rejected; the return's dip two rows later is
    # refined before its sampled minimum, so the cut drops the row before
    config = IntegratorConfig(rel_tol=3e-3, abs_tol=3e-3, max_step=0.314, max_time=4.0)
    return integrate(Pendulum(g=25.0), PhaseState(0.1 + 0j, 0j), config, EventSpec(closure_tol=0.2))


def harmonic_closure_backward():
    return integrate(Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j), t_final=-10.0)


def harmonic_dip_at_min_period():
    # the sampled minimum is the checkpoint row at exactly min_period
    return integrate(Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j), events=EventSpec(min_period=6.2832), t_checkpoints=[6.2832])


def dip_rows_511_512_513_cut_at_512(events=None):
    # rows 511 and 512 are pending when the kernel's first call returns,
    # and the refined return comes before row 512, which the cut drops
    return dip_across_blocks(0.0123, events)


# each run's termination, and for each return the Python loop refines,
# whether the refined time comes before the sampled minimum's: every
# refined return but a closing run's last is a rejected candidate
EVENT_ENDINGS = {
    pendulum_closure: ("closure", [False]),
    cubic_closure: ("closure", [True]),
    cubic_closes_after_two_near_misses: ("closure", [True, True, False]),
    harmonic_checkpoints: ("closure", [False]),
    harmonic_closure_backward: ("closure", [True]),
    harmonic_dip_at_min_period: ("closure", [True]),
    harmonic_dips_that_do_not_close: ("horizon", [False, False, False]),
    dip_rows_511_512_513: ("closure", [False]),
    dip_rows_511_512_513_cut_at_512: ("closure", [True]),
    pendulum_escape: ("escape", []),
    driven_escape: ("escape", []),
    escape_on_row_0: ("escape", []),
    overflow_on_row_0: ("overflow", []),
    pendulum_max_steps: ("max_steps", [False, False]),
    pendulum_i_backward: ("horizon", []),
}


@pytest.mark.parametrize("run", EVENT_ENDINGS, ids=lambda f: f.__name__)
def test_events_end_in_the_kernel(library, run):
    """Each ending on both paths, bit for bit, with the kernel's run
    stopping at its event: it leaves no row to the Python tests and
    yields the rows the trajectory keeps but the start, its refined end
    included, so it takes no step past the event."""
    fast, yielded, handed_back = kernel_run(run)
    slow, before_b = python_returns(run)
    assert fast == slow
    assert not handed_back
    assert yielded == len(fast[0]) - 1
    assert (fast[2], before_b) == EVENT_ENDINGS[run]


def test_rebound_polishing_is_left_to_python(library, monkeypatch):
    """With ``locate_return`` or ``_locate_escape`` rebound, the kernel
    hands the run back once, at the row before its first candidate or its
    escape, and the Python loop refines that one and every later one; the
    trajectory is the same."""
    want = {run: fingerprint(run()) for run in (cubic_closes_after_two_near_misses, pendulum_escape)}
    before = []  # the time of the row before each event's row
    for name, k in (("locate_return", 3), ("_locate_escape", 1)):
        original = getattr(integrator, name)

        def rebound(*args, original=original, k=k):
            before.append(args[k][0])
            return original(*args)

        monkeypatch.setattr(integrator, name, rebound)
    for run, outcome in want.items():
        before.clear()
        with kernel_returns() as returns:
            got, yielded, handed_back = kernel_run(run)
        assert got == outcome and handed_back
        (state,) = returns
        assert state[0] == before[0] and len(before) == {cubic_closes_after_two_near_misses: 3, pendulum_escape: 1}[run]


@pytest.mark.parametrize(
    "run",
    [
        cubic_closes_after_two_near_misses,
        pendulum_closes_two_rows_after_a_handed_back_dip,
        pendulum_escape,
        escape_on_row_0,
        overflow_on_row_0,
    ],
    ids=lambda f: f.__name__,
)
def test_one_rule_watches_every_row(library, monkeypatch, run):
    """The kernel's watch, the same rule in ``_dopri`` after the kernel
    hands the run back (with the polishing rebound, at its first candidate
    or escape) and the pure Python loop give the same run bit for bit."""
    polished = fingerprint(run())
    for name in ("locate_return", "_locate_escape"):
        original = getattr(integrator, name)
        monkeypatch.setattr(integrator, name, lambda *args, original=original: original(*args))
    assert fingerprint(run()) == polished
    assert fingerprint(python_loop(monkeypatch, run)) == polished


def test_a_closure_after_a_handed_back_dip_matches_python(library):
    """The kernel hands the run back at its first candidate, which the
    rule in ``_dopri`` rejects; the return refined two rows later drops
    the row before it, on both paths the same."""
    fast, yielded, handed_back = kernel_run(pendulum_closes_two_rows_after_a_handed_back_dip)
    slow, before_b = python_returns(pendulum_closes_two_rows_after_a_handed_back_dip)
    assert fast == slow and fast[2] == "closure"
    assert (handed_back, before_b) == (True, [False, True])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    built_in_models,
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(-2.5, 2.5) | st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])),
    st.floats(0.5, 25.0) | st.floats(-25.0, -0.5),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.sampled_from([1e-7, 1e-3, 3e-2]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.booleans(),
    st.sampled_from([3.0, 5.0, 30.0]),
    st.sampled_from([5.0, 50.0, 1e12]),
    st.sampled_from([1_000_000, 60]),
)
def test_random_events_match_the_python_loop(
    library, model, x, p, span, fractions, closure_tol, min_period, escape, radius, guard, max_steps
):
    """Runs drawn to end in every way (a closure, a rejected candidate and
    a later one, an escape, an overflow, max_steps or the horizon),
    forward and backward, some with checkpoints: the same samples,
    termination and refined end on both paths, and a kernel run that
    stops at its event."""
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, escape_radius=radius, overflow_guard=guard, max_steps=max_steps)
    events = EventSpec(closure_tol=closure_tol, min_period=min_period, escape=escape)

    def run():
        return integrate(model, PhaseState(x, p), config, events, t_final=span, t_checkpoints=[span * f for f in fractions])

    fast, yielded, handed_back = kernel_run(run)
    assert python_returns(run)[0] == fast
    if isinstance(fast, tuple) and not handed_back:
        assert yielded == len(fast[0]) - 1


def test_the_running_maximum_is_the_maximum_of_the_kept_rows(library, monkeypatch):
    """A watched run's dmax at a hand-back is np.fmax.reduce of ``_dist2``
    over the rows it kept, those it yielded and those pending, bit for
    bit, d2 summed in Python's order: with ``locate_return`` rebound, the
    run is handed back at its first candidate."""
    blocks = []

    def spy(*args):
        gen = steps(*args)
        try:
            while True:
                block = next(gen)
                blocks.append(block)
                yield block
        except StopIteration as stop:
            return stop.value

    locate_return = integrator.locate_return
    monkeypatch.setattr(integrator, "locate_return", lambda *args: locate_return(*args))
    with kernel_returns() as returns, pytest.MonkeyPatch.context() as m:
        steps = _dopri5.steps
        m.setattr(_dopri5, "steps", spy)
        traj = harmonic_dips_that_do_not_close()
    (state,) = returns
    *_, pending, dmax, rows = state
    assert traj.termination == "horizon" and pending == 2
    x = np.concatenate([xs for _, xs, _ in blocks] + [[row[1] for row in rows]])
    p = np.concatenate([ps for _, _, ps in blocks] + [[row[2] for row in rows]])
    assert x[-1] == state[1] and len(x) > 2
    assert dmax.hex() == np.fmax.reduce(integrator._dist2(x, p, 1 + 1j, 0.5 - 0.3j)).hex()


# Runs that reach the kernel's rarer exits, each on both paths, bit for
# bit: the starts it hands back, a rejected step below min_step, landings
# of event polishing that stop short, and dips whose squared distances are
# subnormal.  ``parity_replay.py`` replays them on the sanitized and the
# coverage builds.


def start_past_the_float_range():
    # _initial_step's trial step x + h0 p leaves the float range
    return integrate(Harmonic(), PhaseState(1.79e308 + 0j, 1.79e308 + 0j), IntegratorConfig(max_steps=50))


def tolerances_below_a_square():
    # a component of _initial_step's norm squares past the float range
    return integrate(Harmonic(), PhaseState(1 + 0j, 1 + 0j), IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300, max_steps=50))


def tolerance_below_a_quotient():
    # x / (abs_tol + rel_tol |x|) itself is past the float range
    config = IntegratorConfig(rel_tol=1e-320, abs_tol=1e-10, max_time=1.0)
    return integrate(Pendulum(g=1.0), PhaseState(1e300 + 0j, 0j), config)


def drive_past_the_float_range():
    # omega t overflows at t = 1.8: a stage's drive is not finite
    model = DrivenPendulum(g=1.0, epsilon=1e-300, omega=1e308)
    return integrate(model, PhaseState(0.5 + 0j, 0j, 1.0), IntegratorConfig(max_time=2.0))


def rejected_step_underflows():
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, max_step=0.1, min_step=0.05, max_time=5.0)
    events = EventSpec(closure=False, escape=False)
    return integrate(Pendulum(g=0.6 + 0.8j), PhaseState(-1.08 + 0j, -0.88 + 0.28j), config, events)


def escape_near_the_step_floor():
    # the main run steps near min_step; its polish runs, ten times tighter,
    # have a floor ten times lower
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, max_step=0.5, min_step=0.05, escape_radius=3.0, max_time=30.0)
    return integrate(Pendulum(g=1.0), PhaseState(-1.04 - 0.55j, -1.02 + 0j), config)


def closure_near_the_step_floor():
    config = IntegratorConfig(max_step=0.1, min_step=0.01, max_time=30.0)
    return integrate(Harmonic(), PhaseState(-1.96 + 0j, -0.91 + 0.17j), config)


def every_step_on_a_checkpoint(spacing, n):
    # the main run lands each step on a checkpoint, so its step size, the
    # first one, is never checked against min_step; a polish run, which has
    # no checkpoints, wants steps below its floor
    return [spacing * k for k in range(1, n)]


def escape_polish_stops_short():
    # a landing of the escape's bisection stops short
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, max_step=1.0, min_step=0.5, escape_radius=3.0, max_time=5.0)
    return integrate(Pendulum(g=1j), PhaseState(-0.035 - 0.133j, 1.06 - 0.83j), config, t_checkpoints=every_step_on_a_checkpoint(0.05, 100))


def closure_polish_stops_short():
    # a landing of the return's false position stops short
    config = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, max_step=1.0, min_step=0.5, max_time=5.0)
    return integrate(ImaginaryCubic(), PhaseState(2.09 - 0.757j, -1.71 + 0.6j), config, t_checkpoints=every_step_on_a_checkpoint(0.02, 250))


def subnormal_dip_tied_with_the_next_row():
    # amplitude 1e-160: d2 is subnormal, and the first dip, d2 = 0, ties
    # the row after it; g changes sign across it, and the kernel closes
    return integrate(Harmonic(), PhaseState(1e-160 + 0j, 0j), IntegratorConfig(max_step=0.02, max_time=20.0))


def subnormal_dip_without_a_sign_change():
    # g has one sign across this dip: Python takes the parabolic vertex
    return integrate(Harmonic(), PhaseState(1e-161 + 0j, 0j), IntegratorConfig(max_step=0.1, max_time=20.0))


# each run, and how its kernel run ends: handed back at its start or
# later, or at a stop reason
RARE_RUNS = {
    start_past_the_float_range: "start",
    tolerances_below_a_square: "start",
    tolerance_below_a_quotient: "start",
    drive_past_the_float_range: "handed back",
    rejected_step_underflows: "step_underflow",
    escape_near_the_step_floor: "escape",
    closure_near_the_step_floor: "closure",
    escape_polish_stops_short: "handed back",
    closure_polish_stops_short: "handed back",
    subnormal_dip_tied_with_the_next_row: "closure",
    subnormal_dip_without_a_sign_change: "handed back",
}


@pytest.mark.parametrize("run,end", RARE_RUNS.items(), ids=[f.__name__ for f in RARE_RUNS])
def test_rare_runs_match_the_python_loop(library, run, end):
    fast, yielded, handed_back = kernel_run(run)
    assert python_returns(run)[0] == fast
    if end in ("start", "handed back"):
        assert handed_back and (yielded == 0) == (end == "start")
    else:
        assert fast[2] == end and not handed_back


def test_polish_runs_step_below_the_main_runs_floor(library):
    """Polish runs tighten the tolerances tenfold and lower min_step as
    much, so runs that step near their floor end at their events, on
    both paths (above), where they raised ArithmeticError."""
    closed, escaped = closure_near_the_step_floor(), escape_near_the_step_floor()
    assert (closed.classification, repr(closed.period)) == ("closed", "6.28318530717706")
    assert escaped.classification == "escaped" and abs(escaped.x[-1].imag) == pytest.approx(3.0)


def test_a_dip_tied_with_the_next_row_is_a_dip_on_both_paths(library):
    """The first candidate's d2 equals the next row's, 0.0 each, and both
    paths take it: Python's _is_dip keeps d <= d_after, so the kernel's
    test must too."""
    locate_return = integrator.locate_return
    outcomes = []
    for params in (_dopri5.model_params, lambda model: None):
        d2 = []

        def spy(model, start, a, b, c, scale, polish):
            d2.append((a[3], b[3], c[3]))
            return locate_return(model, start, a, b, c, scale, polish)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(_dopri5, "model_params", params)
            m.setattr(integrator, "locate_return", spy)
            outcomes.append((d2, fingerprint(subnormal_dip_tied_with_the_next_row())))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == (1e-323, 0.0, 0.0)


# (model, x, p, t_end, rel_tol, abs_tol, max_step, min_step, max_steps) of
# a ``_dopri`` loop from (0, x, p) whose kernel hands a step back at one
# screen of dopri5_steps, each found by a random search aimed at it over
# extreme magnitudes, tolerances and step bounds: a stage past cmath's
# switch (the third, the sixth), a non-finite new state, error estimate
# or error norm
SCREENS = {
    "stage-3": (
        Pendulum(g=1j), 3.8807451186281214e244 + 197.97650979833267j, 1.1153715723026738e16 + 0j,
        0.9309651689504249, 1.2212062565399183e-105, 1.4045395425675926e-33, 0.004526544001948191,
        6.835341147626394e-82, 50,
    ),
    "stage-6": (
        Pendulum(g=1j), -1.0040114366070454e223 + 1.0811210755937908e-07j,
        1.2202318588583584e88 + 7.968610915321928e39j, 74.93376472119851, 2.4686990153750935e-19,
        1.3023024377775401e-188, 0.0727765705519094, 1.1509200135941491e-120, 50,
    ),
    "new-state": (
        Pendulum(g=6.705674623274922e49), 6.136894812655825e-221j, -5.87144520119058e-193 - 1.1681929090347294e-284j,
        0.1850833245439354, 8.276190492664734e-54, 0.00011986949395455343, 1.0382057648562637e168,
        3.518260025957782e-65, 3,
    ),
    "error-estimate": (
        Harmonic(), -573924809316648 + 3.949573245762652j, 1.5615507573531278 - 695.301641852826j,
        47567623.34730019, 74.80585329228602, 0.43076671882188605, 6.295310244367944e121,
        3.9718736066060165e-184, 50,
    ),
    "error-norm": (
        Pendulum(g=4.0644710397589e124), 5.287730711128634e-153 + 0j, 0j, 1616039.0716024812,
        1.5780508199306686e-177, 9.745070759484109e-43, 1.986115467467984e249, 7.106876995650692e-177, 1,
    ),
}


def loop_outcome(model, x, p, t_end, *settings):
    """The rows of ``integrator._dopri`` from (0, x, p) as hex strings and
    its stop reason, or the error it raises."""
    blocks = integrator._dopri(model, 0.0, x, p, [t_end], *settings)
    rows = []
    try:
        while True:
            ts, xs, ps = next(blocks)
            rows += [as_floats((t, x, p)) for t, x, p in zip(ts.tolist(), xs.tolist(), ps.tolist())]
    except StopIteration as stop:
        return [[v.hex() for v in row] for row in rows], stop.value
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("loop", SCREENS.values(), ids=list(SCREENS))
def test_each_screen_of_a_step_hands_it_back(library, kernel_spy, loop):
    fast = loop_outcome(*loop)
    (state,) = kernel_spy
    assert not isinstance(state, str) and state[4] > 0.0  # handed back after its start
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        assert loop_outcome(*loop) == fast


# The landing runs of event polishing.  ``integrator._advance`` runs each
# one in the library as one ``dopri5_steps`` call that keeps no rows
# (``_dopri5.land``), initial step included; with ``model_params``
# patched out, ``_dopri`` computes it in Python, the reference.  Each
# outcome carries the model's field at the landed state, which
# ``locate_return`` evaluates there.

POLISH = (1e-11, 1e-13, 0.25, 1e-12)  # integrate's polish record at the default tolerances


def as_floats(values):
    return [part for z in values for part in (z.real, z.imag)]


def advance_outcome(model, row, t_target, polish=POLISH):
    """x, p and the model's field at t_target as hex strings, or the
    error raised, and whether the library's rowless call landed the run."""
    landings = []
    land = _dopri5.land

    def spy(*args):
        landed = land(*args)
        landings.append(landed is not None)
        return landed

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "land", spy)
        try:
            x, p = integrator._advance(model, row, t_target, polish)
        except ArithmeticError as exc:
            return f"{type(exc).__name__}: {exc}", False
    return [v.hex() for v in as_floats((x, p, *model.field(t_target, x, p)))], landings == [True]


def assert_advance_matches_python(model, row, t_target, polish=POLISH):
    """The outcome on both paths; returns it and whether the library
    landed."""
    fast, landed = advance_outcome(model, row, t_target, polish)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        slow, _ = advance_outcome(model, row, t_target, polish)
    assert fast == slow
    return fast, landed


def python_steps(model, row, t_target):
    """Accepted steps of the Python loop's landing run."""
    t, x, p = row
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda model: None)
        blocks = integrator._dopri(model, t, x, p, [t_target], *POLISH)
        return sum(len(ts) for ts, *_ in blocks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    built_in_models,
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(-2.0, 2.0)),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.floats(-50.0, 50.0),
    st.sampled_from([1e-9, 1e-6, 1e-3]) | st.floats(1e-3, 25.0),
    st.sampled_from([1.0, -1.0]),
)
def test_landing_runs_match_python(library, model, x, p, t, span, direction):
    assert_advance_matches_python(model, (t, x, p), t + direction * span)


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
@pytest.mark.parametrize(
    "model", [Pendulum(g=0.6 + 0.8j), Harmonic(), ImaginaryCubic(), DrivenPendulum(g=1.0, epsilon=0.3, omega=0.7)], ids=repr
)
@pytest.mark.parametrize("span,steps", [(1e-6, (1, 1)), (20.0, (81, 10**4))], ids=["one-step", "many-steps"])
def test_landing_runs_land_in_the_library(library, model, direction, span, steps):
    """A landing inside one step, and one over many steps, forward and
    backward, each in one call that keeps no rows."""
    row, t_target = (0.5, 0.3 + 0.2j, 0.4 - 0.1j), 0.5 + direction * span
    assert steps[0] <= python_steps(model, row, t_target) <= steps[1]
    assert assert_advance_matches_python(model, row, t_target)[1]


def test_concurrent_landing_runs_keep_their_own_state(library):
    """Landing runs in six threads at once, each library call made without
    the interpreter lock, land where they land alone: no ``State`` record
    of ``_dopri5.land`` serves two calls at a time."""
    model, row = Pendulum(g=0.6 + 0.8j), (0.5, 0.3 + 0.2j, 0.4 - 0.1j)
    targets = [0.5 + 0.01 * k for k in range(1, 201)]
    want = [integrator._advance(model, row, t, POLISH) for t in targets]
    got = {}

    def land_all(k):
        got[k] = [integrator._advance(model, row, t, POLISH) for t in targets]

    threads = [threading.Thread(target=land_all, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {k: want for k in range(6)}


# landing runs the library hands back: (model, row, t_target, polish, outcome)
HANDED_BACK_LANDINGS = [
    # a stage past |Im x| = 708.396..., where cmath.sinh switches formula
    (Pendulum(g=1e-307), (0.0, 0.3 + 708.0j, 2j), 0.3, POLISH, "landed"),
    # the field at the start overflows in cmath.sin
    (Pendulum(g=1.0), (0.0, 0.3 + 711.0j, 1j), 0.2, POLISH, "OverflowError: math range error"),
    # the field at the start is finite past the switch; _initial_step's h0 underflows to 0
    (
        Pendulum(g=1.0),
        (0.0, 0.3 + 709.0j, 1j),
        0.2,
        POLISH,
        "ArithmeticError: event polishing stopped at t=0.0 short of 0.2",
    ),
    # the controller wants steps below min_step after some accepted ones
    (
        Harmonic(),
        (0.0, 1 + 0j, 0j),
        5.0,
        (1e-11, 1e-13, 0.25, 0.2),
        "ArithmeticError: event polishing stopped at t=0.0011486983549970347 short of 5.0",
    ),
]


@pytest.mark.parametrize(
    "model,row,t_target,polish,outcome",
    HANDED_BACK_LANDINGS,
    ids=["stage-past-cmath-switch", "start-field-overflows", "start-past-cmath-switch", "min-step-underflow"],
)
def test_landing_runs_the_library_hands_back(library, model, row, t_target, polish, outcome):
    fast, landed = assert_advance_matches_python(model, row, t_target, polish)
    assert not landed
    if outcome == "landed":
        assert float.fromhex(fast[1]) > 708.4  # Im x
    else:
        assert fast == outcome


def test_a_first_step_that_underflows_truncates_the_run(monkeypatch, kernel_spy):
    """The field at x = 0.3 + 709i is so large that _initial_step's trial
    step underflows to 0: the kernel hands the run back at its start, with
    h_mag still 0, and the run stops there, on both paths."""
    run = (Pendulum(g=1.0), PhaseState(0.3 + 709.0j, 1j), IntegratorConfig(escape_radius=800.0))
    fast = integrate(*run)
    assert [(t, h_mag, accepted) for t, _, _, _, h_mag, _, accepted, *_ in kernel_spy] == [(0.0, 0.0, 0)]
    monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
    slow = integrate(*run)
    for traj in (fast, slow):
        assert (traj.classification, traj.termination, len(traj)) == ("truncated", "step_underflow", 1)


@pytest.mark.parametrize(
    "model,row,t_target",
    [
        (Harmonic(), (3.147, -0.19 - 0.55j, 0.13 + 0.7j), 3.9),
        (Pendulum(g=1.0), (4.4, -0.44 + 0.71j, 0.99 - 0.74j), 5.5),
        (ImaginaryCubic(), (-1.6, -1.48 - 0.84j, -0.89 + 0.77j), 0.176),
    ],
    ids=repr,
)
def test_the_initial_step_squares_with_pow(library, model, row, t_target):
    """Landings whose bits change when ``_initial_step``'s ``** 2`` is
    taken as a product, which rounds otherwise now and then."""
    assert assert_advance_matches_python(model, row, t_target)[1]


def test_a_rebound_panel_sees_every_panel(library, monkeypatch):
    """With ``quadrature._panel`` rebound, by a counting wrapper say, the
    library cannot mirror it: the integral runs in Python, panel by
    panel, to the same bits."""
    model, x0 = Pendulum(g=1.0), complex(math.pi, 1.0)
    value = escape_time(model, model.potential(x0), x0)
    panel, panels = quadrature._panel, []

    def counting(f, a, b):
        panels.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "_panel", counting)
    assert escape_time(model, model.potential(x0), x0) == value
    assert len(panels) >= 8


# ctypes holds the types it builds only weakly, and each sits in a
# reference cycle, so a type built for one call would die at the next
# cyclic collection and the call after it would build it again.  No entry
# point uses one: records go in as packed bytes and buffers as numpy
# arrays, so after a collection no call builds an array, structure,
# union or pointer type.

CTYPES_METATYPES = {type(ctypes.Array), type(ctypes.Structure), type(ctypes.Union), type(ctypes._Pointer)}


def ctypes_types():
    return [o for o in gc.get_objects() if type(o) in CTYPES_METATYPES]


def write_trajectory_csv(tmp_path):
    model = DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)
    traj = integrate(model, start_at(model, 0.5, 0.3), IntegratorConfig(max_time=5.0))
    cli._write_trajectory_csv(tmp_path / "traj.csv", traj)


LIBRARY_CALLS = {
    "real-form-escape-time": lambda _: escape_time_real_form(Pendulum(g=1.0), COSH1, math.pi + 1j),
    "period-contour": lambda _: period_contour(Pendulum(g=1.0), 0.0, (-math.pi / 2, math.pi / 2)),
    "landing-run": lambda _: integrator._advance(Pendulum(g=0.6 + 0.8j), (0.5, 0.3 + 0.2j, 0.4 - 0.1j), 2.0, POLISH),
    "kernel-run": lambda _: pendulum_i_backward(),
    "csv-write": write_trajectory_csv,
}


@pytest.mark.parametrize("call", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS.keys())
def test_calls_after_a_collection_build_no_array_type(library, tmp_path, call):
    call(tmp_path)
    gc.collect()
    known = {id(t) for t in ctypes_types()}
    gc.disable()  # a collection inside the call would free a type built there before it is seen
    try:
        call(tmp_path)
        built = [t for t in ctypes_types() if id(t) not in known]
    finally:
        gc.enable()
    assert built == []
