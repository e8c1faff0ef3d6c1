"""Acceptance gate: the headline quantitative claims, one criterion per test.

Each test prints a single pass/fail line (bypassing capture) so a plain
``pytest -v`` run shows the scoreboard.  Reference values and tolerances
are frozen here on purpose; loosening them is a behaviour change, not a
test fix.
"""
import json
import math
import time
from functools import lru_cache

import pytest

from complexpendulum import (
    EventSpec,
    Harmonic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    detect_closure,
    elliptic_K,
    escape_time,
    escape_time_real_form,
    fit_ellipse,
    integrate,
    period_contour,
    turning_points,
    verify_pt_symmetry,
)
from complexpendulum.cli import run_scenario

PI = math.pi
COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)

# frozen references
ESCAPE_REAL_G_REF = 1.97536  # printed to 5 decimals; tolerance 1e-4
ESCAPE_IMAG_G_REF = 1.84549
ESCAPE_CLOSED_FORM = 2.0 / math.sqrt(math.e) * elliptic_K(-math.exp(-2.0))
PERIOD_E0 = 4.0 * elliptic_K(0.5)  # 7.41630 to the printed precision

E0_STARTS = (0.2j, 0.6j, 1.0j, PI / 2 + 0.2j, PI / 2 + 0.6j)
SHO_STARTS = (0.3j, 0.8j, 1.2 + 0.2j, 0.5 + 0.5j, 1.0 + 0.8j)


def emit(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {label}: {detail}"


@lru_cache(maxsize=None)
def quad_escape_real_g():
    return escape_time(Pendulum(g=1.0), COSH1, PI + 1j)


@lru_cache(maxsize=None)
def e0_runs():
    model = Pendulum(g=1.0)
    runs = []
    for x0 in E0_STARTS:
        p0 = model.momentum_from_energy(x0, 0.0, branch=1)
        runs.append(integrate(model, PhaseState(x0, p0)))
    return tuple(runs)


@lru_cache(maxsize=None)
def sho_runs():
    model = Harmonic()
    runs = []
    for x0 in SHO_STARTS:
        p0 = model.momentum_from_energy(x0, 1.0, branch=1)
        runs.append(integrate(model, PhaseState(x0, p0)))
    return tuple(runs)


@lru_cache(maxsize=None)
def ode_escape_run():
    return integrate(Pendulum(g=1.0), PhaseState(PI + 1j, 0j))


def test_criterion_01_escape_quadrature_real_g(capsys):
    t0 = time.perf_counter()
    value = quad_escape_real_g()
    elapsed = time.perf_counter() - t0
    ok = abs(value - ESCAPE_REAL_G_REF) < 1e-4 and elapsed < 1.0
    emit(capsys, 1, "escape time by quadrature, real g", ok, f"value={value!r} in {elapsed:.3f}s")


def test_criterion_02_escape_quadrature_imag_g(capsys):
    t0 = time.perf_counter()
    model = Pendulum(g=1j)
    value = escape_time(model, SINH1, 1.5 * PI + 1j)
    real_form = escape_time_real_form(model, SINH1, 1.5 * PI + 1j)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(value - ESCAPE_IMAG_G_REF) < 1e-4
        and abs(value - ESCAPE_CLOSED_FORM) < 1e-8
        and abs(value - real_form) < 1e-8
        and elapsed < 1.0
    )
    emit(
        capsys,
        2,
        "escape time by quadrature, imaginary g",
        ok,
        f"value={value!r} vs closed form {ESCAPE_CLOSED_FORM!r} in {elapsed:.3f}s",
    )


def test_criterion_03_escape_by_integration(capsys):
    t0 = time.perf_counter()
    traj = ode_escape_run()
    elapsed = time.perf_counter() - t0
    diff = abs(traj.escape_time - quad_escape_real_g())
    ok = traj.classification == "escaped" and diff < 1e-3 and elapsed < 1.0
    emit(
        capsys,
        3,
        "escape time by direct integration",
        ok,
        f"ode={traj.escape_time!r} |ode-quad|={diff:.2e} in {elapsed:.3f}s",
    )


def test_criterion_04_universal_zero_energy_period(capsys):
    t0 = time.perf_counter()
    runs = e0_runs()
    contour = period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2))
    elapsed = time.perf_counter() - t0
    periods = [r.period for r in runs]
    all_closed = all(r.classification == "closed" for r in runs)
    spread = (max(periods) - min(periods)) / PERIOD_E0 if all_closed else math.inf
    vs_contour = max(abs(p - contour) / PERIOD_E0 for p in periods) if all_closed else math.inf
    vs_elliptic = max(abs(p - PERIOD_E0) / PERIOD_E0 for p in periods) if all_closed else math.inf
    ok = all_closed and spread < 1e-5 and vs_contour < 1e-5 and vs_elliptic < 1e-5 and elapsed < 5.0
    emit(
        capsys,
        4,
        "one period for every zero-energy orbit",
        ok,
        f"periods within {spread:.2e} of each other, {vs_elliptic:.2e} of 4K(1/2)={PERIOD_E0:.5f}, in {elapsed:.3f}s",
    )


def test_criterion_05_turning_point_families(capsys):
    t0 = time.perf_counter()
    window = (-3 * PI, 3 * PI, -2.0, 2.0)
    cases = [
        (Pendulum(g=1.0), 0.0, [s * PI / 2 + 2 * PI * k for k in (-1, 0, 1) for s in (1, -1)]),
        (Pendulum(g=1.0), COSH1, [complex((2 * k + 1) * PI, s) for k in (-2, -1, 0, 1) for s in (-1, 1)]),
        (Pendulum(g=1.0), -COSH1, [complex(2 * k * PI, s) for k in (-1, 0, 1) for s in (-1, 1)]),
        (
            Pendulum(g=1j),
            SINH1,
            [complex(PI / 2 + 2 * PI * k, -1.0) for k in (-1, 0, 1)]
            + [complex(3 * PI / 2 + 2 * PI * k, 1.0) for k in (-2, -1, 0)],
        ),
    ]
    worst_residual = 0.0
    ok = True
    detail_bits = []
    for model, energy, want in cases:
        got = turning_points(model, energy, window)
        match = len(got) == len(want) and all(
            min(abs(tp.x0 - complex(w)) for tp in got) < 1e-9 for w in want
        )
        for tp in got:
            worst_residual = max(worst_residual, abs(model.potential(tp.x0) - energy))
        ok = ok and match
        detail_bits.append(f"{len(got)} of {len(want)}")
    elapsed = time.perf_counter() - t0
    ok = ok and worst_residual <= 1e-12 * max(1.0, COSH1) and elapsed < 1.0
    emit(
        capsys,
        5,
        "turning-point families of all four potentials",
        ok,
        f"roots found: {', '.join(detail_bits)}; worst residual {worst_residual:.2e}; in {elapsed:.3f}s",
    )


def test_criterion_06_harmonic_orbits_are_ellipses(capsys):
    runs = sho_runs()
    ok = True
    worst_period = 0.0
    worst_residual = 0.0
    for traj in runs:
        ok = ok and traj.classification == "closed"
        if traj.classification == "closed":
            worst_period = max(worst_period, abs(traj.period - 2 * PI))
            worst_residual = max(worst_residual, fit_ellipse(traj).residual)
    ok = ok and worst_period < 1e-6 and worst_residual < 1e-8
    emit(
        capsys,
        6,
        "harmonic orbits close at 2*pi on exact ellipses",
        ok,
        f"max |period - 2pi| = {worst_period:.2e}, max fit residual = {worst_residual:.2e}",
    )


def test_criterion_07_energy_conservation(capsys):
    drifts = [r.energy_drift() for r in list(e0_runs()) + list(sho_runs()) + [ode_escape_run()]]
    worst = max(drifts)
    ok = worst <= 1e-8
    emit(
        capsys,
        7,
        "energy drift on all autonomous acceptance runs",
        ok,
        f"worst relative drift {worst:.2e} over {len(drifts)} runs",
    )


def test_criterion_08_pt_symmetry(capsys):
    cases = []
    model = Pendulum(g=1.0)
    for x0 in (0.6j, 1 + 0.5j):
        p0 = model.momentum_from_energy(complex(x0), 0.0)
        traj = integrate(model, PhaseState(complex(x0), p0), events=EventSpec(escape=False, closure=False), t_final=6.0)
        cases.append(verify_pt_symmetry(traj).max_deviation)
    model_i = Pendulum(g=1j)
    p0 = model_i.momentum_from_energy(0.2 + 0.1j, SINH1)
    traj = integrate(model_i, PhaseState(0.2 + 0.1j, p0), events=EventSpec(escape=False, closure=False), t_final=6.0)
    cases.append(verify_pt_symmetry(traj).max_deviation)
    worst = max(cases)
    ok = worst < 1e-6
    emit(
        capsys,
        8,
        "PT reflection symmetry of real-g and imaginary-g flows",
        ok,
        f"worst pointwise deviation {worst:.2e} over {len(cases)} trajectories",
    )


def _scenario_classes(tmp_path, name):
    out = tmp_path / name
    code = run_scenario(name, out=str(out), quiet=True)
    assert code == 0, f"scenario {name} exited {code}"
    summary = json.loads((out / "summary.json").read_text())
    return [rec["classification"] for rec in summary["trajectories"]], summary


def test_criterion_09_scenario_topologies(capsys, tmp_path):
    t0 = time.perf_counter()
    expected = {
        "fig2": ["closed"] * 5,
        "fig6": ["closed"] * 4,
        "fig4": ["open", "open", "open", "escaped", "escaped"],
        "fig7": ["open", "open", "open", "escaped", "escaped"],
        "fig8": ["open", "open", "open", "escaped", "escaped"],
        "fig5": ["closed", "closed", "escaped", "closed", "closed"],
    }
    mismatches = []
    for name, want in expected.items():
        got, _ = _scenario_classes(tmp_path, name)
        if got != want:
            mismatches.append(f"{name}: {got}")
    got9, _ = _scenario_classes(tmp_path, "fig9")
    if any(c == "closed" for c in got9):
        mismatches.append(f"fig9: {got9}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    emit(
        capsys,
        9,
        "orbit topology across the bundled scenarios",
        ok,
        "; ".join(mismatches) if mismatches else f"7 scenarios as expected in {elapsed:.1f}s",
    )


def test_criterion_10_driven_cell_transitions(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig12"
    code = run_scenario("fig12", out=str(out), quiet=True)
    summary = json.loads((out / "summary.json").read_text())
    transitions = summary["trajectories"][0]["cells"]["transitions"]
    elapsed = time.perf_counter() - t0
    first_t = transitions[0][0] if transitions else math.inf
    ok = code == 0 and first_t > 100.0 and first_t <= 1000.0 and elapsed < 30.0
    emit(
        capsys,
        10,
        "driven pendulum hops lattice cells only late",
        ok,
        f"first transition at t={first_t:.1f}, {len(transitions)} transitions by t=1000, in {elapsed:.1f}s",
    )


def test_criterion_11_bitwise_reproducibility(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_scenario("fig2", out=str(out1), quiet=True) == 0
    assert run_scenario("fig2", out=str(out2), quiet=True) == 0
    names = sorted(p.name for p in out1.iterdir())
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    ok = same and len(names) == 6  # 5 trajectories + summary
    emit(
        capsys,
        11,
        "bitwise-identical outputs across repeated runs",
        ok,
        f"{len(names)} files compared byte for byte",
    )
