"""The compiled stepper reproduces the Python loop bit for bit.

Every case runs twice: once as the package runs it, with the built-in
models stepped by the C kernel, and once with the loader patched so that
``integrator._dopri`` falls back to its Python loop, the reference.  The
samples are compared as ``float.hex`` strings, which tell -0.0 from 0.0,
together with the classification, termination, period and escape time.
"""
import hashlib
import logging
import math

import pytest
from test_golden_outputs import GOLDEN

from complexpendulum import (
    DrivenPendulum,
    EventSpec,
    Harmonic,
    ImaginaryCubic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    integrate,
    integrator,
    verify_pt_symmetry,
)
from complexpendulum import _dopri5
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
    """Records what each compiled run returned: a stop reason, or the
    state handed back to the Python loop."""
    if _dopri5._library() is None:
        pytest.skip("the compiled stepper could not be built here")
    returns = []
    steps = _dopri5.steps

    def spy(*args):
        result = yield from steps(*args)
        returns.append(result)
        return result

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
        polished.append(args[7][0])  # time of the sampled minimum
        return locate_return(*args)

    monkeypatch.setattr(integrator, "locate_return", spy)
    traj = harmonic_dips_that_do_not_close()
    assert [round(t / math.pi) for t in polished] == [2, 4, 6]
    assert len(traj.samples) > 512  # the main run refilled its buffer
    assert all(isinstance(r, str) for r in kernel_spy)


def test_hand_back_at_the_cmath_sinh_switch(kernel_spy):
    traj = past_cmath_sinh_switch()
    handed_back = [r for r in kernel_spy if not isinstance(r, str)]
    assert len(handed_back) == 1
    t, x, p, kx, kp, h_mag, facold, accepted, i = handed_back[0]
    assert accepted == 11687
    assert len(traj.samples) == accepted + 1
    assert 708.0 < x.imag < 708.3964185322641
    assert (t, x, p) == (traj.samples[-1].t, traj.samples[-1].x, traj.samples[-1].p)


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
    still reproduces the bundled outputs, on the Python loop."""
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
    records = [r for r in caplog.records if r.name == "complexpendulum._dopri5"]
    assert len(records) == 1
    assert reason in records[0].getMessage()
    assert list((tmp_path / "cache").iterdir()) == []
