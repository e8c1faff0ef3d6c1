"""The compiled stepper, energy column and quadrature reproduce Python bit for bit.

Every case runs twice: once as the package runs it, with the built-in
models stepped by the C kernel, and once with the loader patched so that
``integrator._dopri`` falls back to its Python loop, the reference.  The
samples are compared as ``float.hex`` strings, which tell -0.0 from 0.0,
together with the classification, termination, period and escape time.
The energy column (V, H and ``energy_drift``'s local scale) is compared
the same way against the Python expressions of ``Trajectory``.
"""
import cmath
import hashlib
import logging
import math
import shutil
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
    TurningPointContour,
    VerticalRay,
    escape_time,
    escape_time_real_form,
    integrate,
    integrator,
    turning_points,
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


@pytest.fixture
def kernel_spy(monkeypatch):
    """One entry per compiled run begun: what it returned, a stop reason
    or the state handed back to the Python loop, or None while it has not
    returned (a run left at its event never does)."""
    if _dopri5._library() is None:
        pytest.skip("the compiled stepper could not be built here")
    returns = []
    steps = _dopri5.steps

    def spy(*args):
        k = len(returns)
        returns.append(None)
        returns[k] = yield from steps(*args)
        return returns[k]

    monkeypatch.setattr(_dopri5, "steps", spy)
    return returns


def python_loop(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda field: None)
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
    polished = []
    locate_return = integrator.locate_return

    def spy(*args):
        polished.append(args[3][0])  # time of the sampled minimum
        return locate_return(*args)

    monkeypatch.setattr(integrator, "locate_return", spy)
    traj = harmonic_dips_that_do_not_close()
    assert [round(t / math.pi) for t in polished] == [2, 4, 6]
    assert len(traj.samples) > 512  # the main run refilled its buffer
    assert all(isinstance(r, str) for r in kernel_spy)


def test_hand_back_at_the_cmath_sinh_switch(kernel_spy):
    traj = past_cmath_sinh_switch()
    handed_back = [r for r in kernel_spy if isinstance(r, tuple)]
    assert len(handed_back) == 1
    t, x, p, kx, kp, h_mag, facold, accepted, i = handed_back[0]
    assert accepted == 11687
    assert len(traj.samples) == accepted + 1
    assert 708.0 < x.imag < 708.3964185322641
    assert (t, x, p) == (traj.samples[-1].t, traj.samples[-1].x, traj.samples[-1].p)


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
        return verify_pt_symmetry(model, traj)

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
    CSV written by the Python writer."""
    python_csvs = []
    write_rows_in_python = cli._write_rows_in_python

    def spy(fh, *args):
        python_csvs.append(Path(fh.name).name)
        return write_rows_in_python(fh, *args)

    monkeypatch.setattr(cli, "_write_rows_in_python", spy)
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
    monkeypatch.setattr(_dopri5, "_FLAGS", (*_dopri5._FLAGS, "-Wall", "-Wextra", "-Werror"))
    _dopri5._build(tmp_path / "lib.so")  # an OSError carries the compiler's messages


# The energy column.  ``_dopri5.energy_columns`` fills the rows it can
# mirror; the Python expressions of ``Trajectory._energy_columns`` fill
# the rest, and fill all of them when ``model_params`` is patched out.


def energy_outcome(model, x, p):
    """V, H, local scale and energy_drift as hex strings, or the error
    raised."""
    traj = Trajectory(t=np.zeros(len(x)), x=x, p=p, model=model)
    try:
        v, h, scale = traj._energy_columns
        drift = traj.energy_drift()
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    parts = [v.real, v.imag, h.real, h.imag, scale]
    return [[value.hex() for value in part.tolist()] for part in parts], drift.hex()


def assert_column_matches_python(model, x, p):
    fast = energy_outcome(model, x, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda field: None)
        slow = energy_outcome(model, x, p)
    assert fast == slow


@pytest.fixture(scope="module")
def library():
    if _dopri5._library() is None:
        pytest.skip("the compiled library could not be built here")


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
            st.builds(complex, signed | st.floats(-1e160, 1e160), signed),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_energy_column_matches_python(library, model, rows):
    x, p = (np.array(column, dtype=complex) for column in zip(*rows))
    assert_column_matches_python(model, x, p)
    assert _dopri5.energy_columns(model, x, p)[3] == len(x)


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
    assert _dopri5.energy_columns(model, x, p)[3] == 2
    assert_column_matches_python(model, x, p)


# |p| values whose square as libm's pow differs from p * p
POW_WITNESSES = [0.46918931657478585, 0.009568310563464766, 596.1161835995405, 0.5104898634061765]


def test_drift_scale_squares_with_pow(library):
    assert all(a**2 != a * a for a in POW_WITNESSES)
    x = np.zeros(len(POW_WITNESSES), dtype=complex)  # V = 0: the scale is |p|^2 / 2
    p = np.array(POW_WITNESSES, dtype=complex)
    scale = Trajectory(t=np.zeros(len(x)), x=x, p=p, model=Harmonic())._energy_columns[2]
    assert scale.tolist() == [0.5 * a**2 for a in POW_WITNESSES]
    assert_column_matches_python(Harmonic(), x, p)


# The landing runs of event polishing.  ``integrator._advance`` runs each
# one in the library (``_dopri5.advance``), initial step included, and
# takes the field at the landed state from it; with ``model_params``
# patched out, ``_dopri`` and the model's ``field`` compute them in
# Python, the reference.

POLISH = (1e-11, 1e-13, 0.25, 1e-12)  # integrate's polish record at the default tolerances


def as_floats(values):
    return [part for z in values for part in (z.real, z.imag)]


def advance_outcome(model, row, t_target, polish=POLISH):
    """x, p and the field at t_target as hex strings, or the error raised,
    and whether the library ran the whole landing."""
    try:
        x, p, k = integrator._advance(model.field, row, t_target, polish)
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}", False
    landed = k is not None
    if k is None:
        k = model.field(t_target, x, p)
    return [v.hex() for v in as_floats((x, p, *k))], landed


def assert_advance_matches_python(model, row, t_target, polish=POLISH):
    """The outcome on both paths; returns it and whether the library
    landed."""
    fast, landed = advance_outcome(model, row, t_target, polish)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda field: None)
        slow, _ = advance_outcome(model, row, t_target, polish)
    assert fast == slow
    return fast, landed


def python_steps(model, row, t_target):
    """Accepted steps of the Python loop's landing run."""
    t, x, p = row
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda field: None)
        blocks = integrator._dopri(model.field, t, x, p, *model.field(t, x, p), [t_target], *POLISH)
        return sum(len(ts) for ts, _ in blocks)


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
    """A landing inside one step, and one over more steps than the
    library's row buffer of 64 holds, forward and backward."""
    row, t_target = (0.5, 0.3 + 0.2j, 0.4 - 0.1j), 0.5 + direction * span
    assert steps[0] <= python_steps(model, row, t_target) <= steps[1]
    assert assert_advance_matches_python(model, row, t_target)[1]


@pytest.mark.parametrize(
    "model,row,t_target,polish,outcome",
    [
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
    ],
    ids=["stage-past-cmath-switch", "start-field-overflows", "start-past-cmath-switch", "min-step-underflow"],
)
def test_landing_runs_the_library_hands_back(library, model, row, t_target, polish, outcome):
    fast, landed = assert_advance_matches_python(model, row, t_target, polish)
    assert not landed
    if outcome == "landed":
        assert float.fromhex(fast[1]) > 708.4  # Im x
    else:
        assert fast == outcome


def test_a_first_step_that_underflows_truncates_the_run(library, monkeypatch):
    """The field at x = 0.3 + 709i is so large that _initial_step's trial
    step underflows to 0: the run stops at its start, on both paths."""
    run = (Pendulum(g=1.0), PhaseState(0.3 + 709.0j, 1j), IntegratorConfig(escape_radius=800.0))
    fast = integrate(*run)
    monkeypatch.setattr(_dopri5, "model_params", lambda field: None)
    slow = integrate(*run)
    for traj in (fast, slow):
        assert (traj.classification, traj.termination, len(traj)) == ("truncated", "step_underflow", 1)


@pytest.mark.parametrize(
    "row,t_target",
    [
        ((0.25, 0.3 + 0.2j, 0.4 - 0.1j), 7.3),
        ((0.25, 0.3 + 0.2j, 0.4 - 0.1j), -3.1),
        # near 0 from the other side: the last step's t + h is not t_target
        ((-0.08790556276955472, -0.09 + 0.08j, 0.73 + 0.1j), 2.9401564334201916e-05),
    ],
)
def test_the_landed_field_is_the_models(library, row, t_target):
    """The field handed back with a landing is ``field(t_target, x, p)``,
    for the driven model too, whose last stage is evaluated at t + h."""
    model = DrivenPendulum(g=1.0, epsilon=0.3, omega=0.7)
    x, p, k = _dopri5.advance(_dopri5.model_params(model.field), *row, t_target, POLISH)
    assert [v.hex() for v in as_floats(k)] == [v.hex() for v in as_floats(model.field(t_target, x, p))]


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


# Quadrature integrals.  ``_dopri5.integral`` runs each whole integral of
# the branch and real-form integrands in the library.  Every case runs
# twice: as the package runs it, and with ``model_params`` patched to
# None, so that the Python integrands, ``adaptive_quad`` and ``_panel``,
# the reference, compute it.  The outcomes are compared as hex strings or
# error texts, and a spy on ``_dopri5.integral`` tells whether the library
# computed each integral, stopped it with ``ToleranceNotMet`` or handed it
# back.


def quadrature_outcome(run):
    try:
        value = run()
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.real.hex(), value.imag.hex()


def assert_integral_matches_python(run):
    """The outcome of ``run()``, the same on both paths, and what the
    library did with each integral it was given."""
    calls = []
    integral = _dopri5.integral

    def spy(*args):
        result = integral(*args)
        calls.append("handed_back" if result is None else "stopped" if result[1] else "computed")
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "integral", spy)
        fast = quadrature_outcome(run)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "model_params", lambda field: None)
        slow = quadrature_outcome(run)
    assert fast == slow
    return fast, calls


def branch_integral(model, energy, path):
    """A call of ``_branch_integral`` along a path."""
    pieces = quadrature._pieces(path, 1e-10)
    closed = isinstance(path, TurningPointContour)
    return lambda: quadrature._branch_integral(model, complex(energy), pieces, closed)


finite_complex = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
paths = st.builds(
    VerticalRay,
    finite_complex,
    st.sampled_from([1, -1]),
    st.floats(0.1, 100.0) | st.sampled_from([709.5, 720.0]),
) | st.builds(TurningPointContour, finite_complex, finite_complex, st.floats(0.05, 2.0)).filter(
    lambda path: path.z_left != path.z_right
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(built_in_models, finite_complex, paths)
def test_branch_panels_match_python(library, model, energy, path):
    _, calls = assert_integral_matches_python(branch_integral(model, energy, path))
    assert len(calls) <= 1  # none when the guide fails first


# (model, energy, path, the outcome); the library hands each one back
BRANCH_HAND_BACKS = {
    # nodes past |Im z| = 708.4: cmath.cos takes its other formula there
    "cosh-switch": (Pendulum(g=1.0), COSH1, VerticalRay(math.pi + 1j, 1, 709.5), "value"),
    # and overflows a little further on
    "overflow": (Pendulum(g=1j), 0.5, VerticalRay(0.5 + 1j, 1, 720.0), "OverflowError"),
    # the midpoint u = 1 of the ray's first panel is z = 0, where V = E:
    # Python divides by a zero root
    "zero-root": (ImaginaryCubic(), 0.0, VerticalRay(-1j, 1, 256.0), "ZeroDivisionError"),
    # there 2 (E - V) is subnormal, which cmath.sqrt rescales first
    "subnormal-root": (Harmonic(), 1e-310, VerticalRay(-1j, 1, 256.0), "ToleranceNotMet"),
}


@pytest.mark.parametrize("case", BRANCH_HAND_BACKS.values(), ids=BRANCH_HAND_BACKS.keys())
def test_branch_panels_the_library_hands_back(library, case):
    model, energy, path, outcome = case
    got, calls = assert_integral_matches_python(branch_integral(model, energy, path))
    assert isinstance(got, tuple) if outcome == "value" else got.split(":")[0] == outcome
    assert calls == ["handed_back"]


@pytest.mark.parametrize(
    "model,energy,path",
    [
        (Pendulum(g=0.6 + 0.8j), -0.3 + 0.2j, TurningPointContour(-1.9 - 0.4j, 1.9 + 0.4j, 0.5)),
        (DrivenPendulum(g=2), 2.0 * COSH1, VerticalRay(math.pi - 1j, -1, 60.0)),
        (Harmonic(), 0.5, TurningPointContour(-1.0, 1.0, 0.25)),
        (ImaginaryCubic(), 0.125, VerticalRay(0.5j, 1, 60.0)),
    ],
    ids=repr,
)
def test_the_library_computes_rays_and_loops(library, model, energy, path):
    got, calls = assert_integral_matches_python(branch_integral(model, energy, path))
    assert isinstance(got, tuple)
    assert calls == ["computed"]


# integrals that adaptive_quad stops with ToleranceNotMet
QUADRATURE_STOPS = {
    # a tolerance no panel reaches: the 4000 panels are spent
    "budget": (
        lambda: escape_time(Pendulum(g=1.0), COSH1, math.pi + 1j, tol=1e-300),
        "quadrature error 1.206e-11 above target 1.291e-301 after 4000 panels",
    ),
    # a pole of 1/w on the ray at u = sqrt(2), which no node hits exactly
    "resolution-limit": (
        branch_integral(Harmonic(), 0.0, VerticalRay(-2j, 1, 9.0)),
        "panel [1.414213562373094, 1.4142135623730994] at resolution limit with error 5.814e-02",
    ),
}


@pytest.mark.parametrize("case", QUADRATURE_STOPS.values(), ids=QUADRATURE_STOPS.keys())
def test_the_library_stops_where_python_raises(library, case):
    run, message = case
    assert assert_integral_matches_python(run) == (f"ToleranceNotMet: {message}", ["stopped"])


def test_sign_choice_ties_take_the_hypots(library):
    """With a guide of zeros every node is an exact tie, |-r - 0| == |r - 0|,
    which the library settles with the two hypots as Python does: no
    root is turned.  The reference is ``_branch_integral``'s integrand."""
    model, energy = Harmonic(), 0.5 + 0j
    [(z, dz, s0, s1, tol, piece)] = quadrature._pieces(VerticalRay(2.0, 1, 1.0), 1e-10)
    guide, h = [0j] * 9, (s1 - s0) / 8

    def f(s):
        r = cmath.sqrt(2.0 * (energy - model.potential(z(s))))
        ref = guide[int((s - s0) / h)]
        if abs(-r - ref) < abs(r - ref):
            r = -r
        return 1.0 / r * dz(s)

    want = quadrature.adaptive_quad(f, s0, s1, tol)
    got, stop = _dopri5.integral(model, energy, [(piece, s0, s1, tol, 0, h)], quadrature._NODES, 4000, guide)
    assert stop is None
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_an_escape_ray_past_a_root_fails_alike(library):
    """A ray that passes 0.024 from another root: the guide refines to its
    ceiling, and both paths find the same imaginary residue."""
    model, energy = Pendulum(g=0.6 + 0.8j), -0.753 - 0.989j
    roots = turning_points(model, energy, (-1.0, 1.0, -1.0, 1.0))
    root = min(roots, key=lambda tp: abs(tp.x0 - (-0.01219 - 0.68387j)))
    got, calls = assert_integral_matches_python(lambda: escape_time(model, energy, root, direction=1))
    assert got == "BranchInconsistency: escape integral has imaginary residue -7.918e-01"
    assert calls == ["computed"]


# escape rays: (model, the real part of the turning points whose rays escape)
ESCAPE_FAMILIES = {
    "pendulum": (Pendulum(g=1.0), math.pi),
    "pendulum-int-g": (Pendulum(g=2), -math.pi),
    "pendulum-i": (Pendulum(g=1j), 1.5 * math.pi),
    "driven-pendulum": (DrivenPendulum(g=0.5), math.pi),
    "cubic-i": (ImaginaryCubic(), 0.0),
}


def real_form(model, x0, cutoff, direction):
    """A call of ``escape_time_real_form`` from the root x0."""
    return lambda: escape_time_real_form(model, model.potential(x0), x0, cutoff, direction=direction)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    # the harmonic rays from i y escape nowhere: V - E turns negative
    st.sampled_from([*ESCAPE_FAMILIES.values(), (Harmonic(), 0.0)]),
    st.floats(0.05, 3.0),
    st.sampled_from([0.0, 0.0, 1e-3, -0.2]),
    st.floats(0.5, 100.0),
    st.sampled_from([None, 1, -1]),
)
def test_real_form_panels_match_python(library, family, height, shift, cutoff, direction):
    model, re = family
    _, calls = assert_integral_matches_python(real_form(model, complex(re + shift, height), cutoff, direction))
    assert len(calls) == 1


@pytest.mark.parametrize("family", ESCAPE_FAMILIES.values(), ids=ESCAPE_FAMILIES.keys())
def test_real_form_values_match_python(library, family):
    model, re = family
    for y in (0.3, 1.0, 2.5):
        got, calls = assert_integral_matches_python(real_form(model, complex(re, y), 60.0, None))
        assert got[0].startswith("0x") and calls == ["computed"]


def test_real_form_domain_failures_are_handed_back(library):
    # off the escape ray V - E is complex: Python raises DomainError
    got, calls = assert_integral_matches_python(real_form(Pendulum(g=1.0), complex(math.pi + 0.2, 1.0), 60.0, None))
    assert got.startswith("DomainError")
    assert calls == ["handed_back"]


def test_subclass_integrands_have_no_compiled_sums(library):
    """A subclass of a built-in model runs on the Python path."""

    class Subclass(ImaginaryCubic):
        pass

    [(_, _, s0, s1, tol, piece)] = quadrature._pieces(VerticalRay(1j), 1e-10)
    rows = [(piece, s0, s1, tol, 0, 1.0)]
    assert _dopri5.integral(Subclass(), 1.0, rows, quadrature._NODES, 4000) is None
    assert _dopri5.integral(ImaginaryCubic(), 1.0, rows, quadrature._NODES, 4000)[1] is None
    assert escape_time(Subclass(), 1.0, 1j) == escape_time(ImaginaryCubic(), 1.0, 1j)


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
