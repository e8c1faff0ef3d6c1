"""Adaptive integration: closure, escape, conservation, reversibility."""
import math

import numpy as np
import pytest

from complexpendulum import (
    BLOWUP,
    CLOSED,
    ESCAPED,
    OPEN,
    TRUNCATED,
    DrivenPendulum,
    EventSpec,
    HamiltonianModel,
    Harmonic,
    ImaginaryCubic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    Trajectory,
    detect_closure,
    integrate,
)

PI = math.pi
COSH1 = math.cosh(1.0)
PERIOD_E0 = 7.4162987092054875  # 4 K(1/2), every E = 0 pendulum orbit
ESCAPE_REAL_G = 1.9753644322886177  # quadrature value, ray from pi + i

NO_EVENTS = EventSpec(closure=False, escape=False)


def pendulum_start(x, branch=1):
    model = Pendulum(g=1.0)
    p = model.momentum_from_energy(complex(x), 0.0, branch=branch)
    return model, PhaseState(complex(x), p)


class TestConfigValidation:
    def test_defaults_valid(self):
        IntegratorConfig()

    def test_equal_step_bounds_allowed(self):
        IntegratorConfig(min_step=0.1, max_step=0.1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"min_step": 0.0},
            {"min_step": 0.2, "max_step": 0.1},
            {"escape_radius": 0.0},
            {"max_time": 0.0},
            {"max_steps": 0},
            {"overflow_guard": 1.0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)

    def test_event_spec_rejects(self):
        with pytest.raises(ValueError):
            EventSpec(closure_tol=0.0)
        with pytest.raises(ValueError):
            EventSpec(min_period=-1.0)

    @pytest.mark.parametrize(
        "name",
        ["rel_tol", "abs_tol", "max_step", "min_step", "escape_radius", "max_time", "max_steps", "overflow_guard"],
    )
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            IntegratorConfig(**{name: math.nan})

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_time"])
    def test_rejects_infinite_tolerance(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            IntegratorConfig(**{name: math.inf})

    @pytest.mark.parametrize("name", ["closure_tol", "min_period"])
    def test_event_spec_rejects_nan(self, name):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            EventSpec(**{name: math.nan})

    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize(
        "kw,message",
        [
            ({"start": PhaseState(1 + 1j, 0.5 - 0.3j, math.nan)}, "start time must be finite"),
            ({"start": PhaseState(1 + 1j, 0.5 - 0.3j, math.inf)}, "start time must be finite"),
            ({"t_final": math.nan}, "t_final must be finite"),
            ({"t_final": -math.inf}, "t_final must be finite"),
            ({"t_checkpoints": [1.0, math.nan]}, "t_checkpoints must be finite"),
        ],
    )
    def test_integrate_rejects_non_finite_times(self, kw, message):
        kw.setdefault("start", PhaseState(1 + 1j, 0.5 - 0.3j))
        with pytest.raises(ValueError, match=message):
            integrate(Harmonic(), **kw)


class TestClosure:
    def test_harmonic_orbit_closes_at_two_pi(self):
        traj = integrate(Harmonic(), PhaseState(1 + 1j, 0.5 - 0.3j))
        assert traj.classification == CLOSED
        assert traj.termination == "closure"
        assert abs(traj.period - 2 * PI) < 1e-6

    @pytest.mark.parametrize("x0,branch", [(0.2j, 1), (1.0j, 1), (PI / 2 + 0.2j, 1)])
    def test_zero_energy_pendulum_closes(self, x0, branch):
        model, start = pendulum_start(x0, branch)
        traj = integrate(model, start)
        assert traj.classification == CLOSED
        assert abs(traj.period - PERIOD_E0) < 1e-5 * PERIOD_E0

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 10.0])
    def test_closure_is_scale_free(self, lam):
        # harmonic flow is linear: every amplitude closes at 2 pi
        start = PhaseState(lam * (1 + 1j), 0j)
        cfg = IntegratorConfig(max_time=20.0)
        traj = integrate(Harmonic(), start, cfg)
        assert traj.classification == CLOSED
        assert abs(traj.period - 2 * PI) < 1e-8
        rep = detect_closure(integrate(Harmonic(), start, cfg, EventSpec(closure=False)))
        assert rep.closed
        assert abs(rep.period - 2 * PI) < 1e-8

    def test_period_recorded_only_when_closed(self):
        model, start = pendulum_start(0.2j)
        traj = integrate(model, start, events=NO_EVENTS, t_final=3.0)
        assert traj.classification == OPEN
        assert traj.period is None and traj.escape_time is None
        assert traj.termination == "horizon"


class TestEscape:
    def test_matches_quadrature(self):
        traj = integrate(Pendulum(g=1.0), PhaseState(PI + 1j, 0j))
        assert traj.classification == ESCAPED
        assert traj.termination == "escape"
        assert abs(traj.escape_time - ESCAPE_REAL_G) < 1e-3

    def test_final_sample_sits_at_the_radius(self):
        cfg = IntegratorConfig()
        traj = integrate(Pendulum(g=1.0), PhaseState(PI + 1j, 0j), cfg)
        assert abs(abs(traj.samples[-1].x.imag) - cfg.escape_radius) < 1e-6

    def test_time_grows_slowly_with_radius(self):
        # the tail of the escape integral decays, so pushing the radius
        # out adds strictly positive but rapidly shrinking time
        times = [
            integrate(
                Pendulum(g=1.0), PhaseState(PI + 1j, 0j), IntegratorConfig(escape_radius=r)
            ).escape_time
            for r in (20.0, 25.0, 30.0)
        ]
        assert times[0] < times[1] < times[2]
        assert times[2] - times[0] < 1e-3

    def test_start_beyond_radius_rejected(self):
        with pytest.raises(ValueError):
            integrate(Pendulum(g=1.0), PhaseState(0.5 + 31j, 0j))


class TestConservation:
    def test_drift_small_on_closed_orbit(self):
        model, start = pendulum_start(PI / 2 + 0.6j)
        traj = integrate(model, start)
        assert traj.energy_drift() < 1e-8

    def test_drift_small_on_escape(self):
        traj = integrate(Pendulum(g=1.0), PhaseState(PI + 1j, 0j))
        assert traj.energy_drift() < 1e-8

    def test_drift_scales_with_tolerance(self):
        model, start = pendulum_start(0.2j)
        loose = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
        tight = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)
        d_loose = integrate(model, start, loose, NO_EVENTS, t_final=7.0).energy_drift()
        d_tight = integrate(model, start, tight, NO_EVENTS, t_final=7.0).energy_drift()
        assert d_tight < d_loose / 5.0

    def test_drift_evaluates_the_potential_once_per_sample(self):
        calls = []

        class CountedHarmonic(Harmonic):
            def potential(self, x):
                calls.append(x)
                return super().potential(x)

        model = CountedHarmonic()
        traj = integrate(model, PhaseState(1 + 1j, 1 - 1j), events=NO_EVENTS, t_final=3.0)
        calls.clear()
        drift = traj.energy_drift()
        # H(0) too is read from the energy column
        assert len(calls) == len(traj.samples)
        # bit for bit the value of H through model.energy
        e0 = model.energy(traj.samples[0])
        assert drift == max(
            abs(model.energy(s) - e0) / max(1.0, abs(e0), 0.5 * abs(s.p) ** 2 + abs(model.potential(s.x)))
            for s in traj.samples
        )

    def test_drift_requires_model(self):
        with pytest.raises(ValueError):
            Trajectory([0.0], [0j], [0j], "horizon").energy_drift()

    def test_drift_requires_samples(self):
        with pytest.raises(ValueError, match="^trajectory has no samples$"):
            Trajectory([], [], [], model=Harmonic()).energy_drift()


class TestReversibility:
    def test_backward_run_recovers_the_start(self):
        model, start = pendulum_start(PI / 2 + 0.2j)
        fwd = integrate(model, start, events=NO_EVENTS, t_final=2.0)
        end = fwd.samples[-1]
        assert end.t == 2.0
        back = integrate(model, end, events=NO_EVENTS, t_final=0.0)
        assert back.samples[-1].t == 0.0
        assert abs(back.samples[-1].x - start.x) < 1e-7
        assert abs(back.samples[-1].p - start.p) < 1e-7


class TestCheckpoints:
    def test_exact_landing(self):
        model, start = pendulum_start(0.2j)
        cps = [1.0, 2.5, 4.0]
        traj = integrate(model, start, events=NO_EVENTS, t_final=5.0, t_checkpoints=cps)
        ts = [s.t for s in traj.samples]
        for c in cps:
            assert c in ts

    def test_states_agree_across_step_settings(self):
        model, start = pendulum_start(0.2j)
        cps = [1.0, 2.5, 4.0]
        kw = dict(events=NO_EVENTS, t_final=5.0, t_checkpoints=cps)
        coarse = integrate(model, start, IntegratorConfig(max_step=0.25), **kw)
        fine = integrate(model, start, IntegratorConfig(max_step=0.04), **kw)
        for c in cps:
            a = next(s for s in coarse.samples if s.t == c)
            b = next(s for s in fine.samples if s.t == c)
            assert abs(a.x - b.x) < 1e-8
            assert abs(a.p - b.p) < 1e-8

    @pytest.mark.parametrize(
        "cps,same",
        [
            (np.array([1.0, 2.5, 4.0]), [1.0, 2.5, 4.0]),
            (np.array([]), []),
            ((4.0, 1.0, 2.5), [4.0, 1.0, 2.5]),
            (iter([1.0, 2.5, 4.0]), [1.0, 2.5, 4.0]),
        ],
        ids=["array", "empty-array", "tuple", "iterator"],
    )
    def test_any_iterable_of_times(self, cps, same):
        """A numpy array, a tuple or an iterator of checkpoints gives the
        same list's trajectory bit for bit."""
        model, start = pendulum_start(0.2j)
        want = integrate(model, start, events=NO_EVENTS, t_final=5.0, t_checkpoints=same)
        got = integrate(model, start, events=NO_EVENTS, t_final=5.0, t_checkpoints=cps)
        for column in ("t", "x", "p"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    @pytest.mark.parametrize("t_final", [5.0, -5.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("zeros", [[0.0, -0.0], [-0.0, 0.0]], ids=["plus-first", "minus-first"])
    def test_equal_checkpoints_land_on_the_first_given(self, t_final, zeros):
        """Equal times keep their given order, as ``sorted`` keeps them in
        either direction, so the run lands on the signed zero listed first."""
        model, start = pendulum_start(0.2j)
        start = PhaseState(start.x, start.p, -math.copysign(1.0, t_final))
        traj = integrate(model, start, events=NO_EVENTS, t_final=t_final, t_checkpoints=np.array(zeros))
        (landed,) = [t for t in traj.t.tolist() if t == 0.0]
        assert math.copysign(1.0, landed) == math.copysign(1.0, zeros[0])

    @pytest.mark.parametrize("t_final", [5.0, -5.0], ids=["forward", "backward"])
    def test_a_list_and_an_array_give_the_same_run(self, t_final):
        """The checkpoints are read as one float64 array: a list and a 1-D
        array, unsorted, with a repeat, a signed zero and times outside the
        span, give one trajectory bit for bit, forward and backward."""
        model, start = pendulum_start(0.2j)
        cps = [2.5, -1.0, 1.0, 0.0, -0.0, 4.0, -2.5, 2.5, 7.0, -4.0, 1]
        runs = [integrate(model, start, events=NO_EVENTS, t_final=t_final, t_checkpoints=c) for c in (cps, np.array(cps))]
        assert runs[0].t[-1] == t_final
        assert {c * math.copysign(1.0, t_final) for c in (1.0, 2.5, 4.0)} <= set(runs[0].t.tolist())
        for column in ("t", "x", "p"):
            assert getattr(runs[0], column).tobytes() == getattr(runs[1], column).tobytes()

    def test_a_two_dimensional_array_is_rejected(self):
        model, start = pendulum_start(0.2j)
        with pytest.raises(ValueError, match="t_checkpoints"):
            integrate(model, start, events=NO_EVENTS, t_final=5.0, t_checkpoints=np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestFailureModes:
    def test_step_underflow_truncates(self):
        # near the cubic's finite-time blow-up the local timescale
        # collapses; a raised floor halts the run before the overflow
        # guard can trip
        cfg = IntegratorConfig(min_step=1e-5)
        traj = integrate(ImaginaryCubic(), PhaseState(1j, 0j), cfg, NO_EVENTS, t_final=10.0)
        assert traj.classification == TRUNCATED
        assert traj.termination == "step_underflow"

    def test_cubic_blowup_detected(self):
        # from the turning point at x = i the cubic trajectory runs off to
        # infinity in finite time; with escape detection off the overflow
        # guard is what stops it
        traj = integrate(ImaginaryCubic(), PhaseState(1j, 0j), events=NO_EVENTS)
        assert traj.classification == BLOWUP
        assert traj.termination == "overflow"

    def test_max_steps_truncates(self):
        cfg = IntegratorConfig(max_steps=10)
        model, start = pendulum_start(0.2j)
        traj = integrate(model, start, cfg, NO_EVENTS)
        assert traj.classification == TRUNCATED
        assert traj.termination == "max_steps"

    def test_non_finite_stages_end_in_blowup(self):
        # the field is NaN beyond Re x = 1: steps into the wall are halved
        # until they fall below min_step, leaving the run just short of it
        class NanWall(HamiltonianModel):
            def potential(self, x):
                return 0j

            def gradient(self, x):
                return complex(math.nan, 0.0) if x.real >= 1.0 else 0j

        traj = integrate(NanWall(), PhaseState(0j, 1 + 0j), IntegratorConfig(max_time=5.0), NO_EVENTS)
        assert traj.classification == BLOWUP
        assert traj.termination == "non_finite"
        assert len(traj.samples) == 26
        assert 1.0 - 1e-9 < traj.samples[-1].x.real < 1.0

    def test_empty_span_rejected(self):
        model, start = pendulum_start(0.2j)
        with pytest.raises(ValueError):
            integrate(model, start, t_final=0.0)

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            integrate(Pendulum(g=1.0), PhaseState(complex(math.nan, 0.0), 0j))


class TestDrivenConsistency:
    def test_zero_drive_matches_the_autonomous_pendulum(self):
        plain = Pendulum(g=1.0)
        driven = DrivenPendulum(g=1.0, epsilon=0.0, omega=0.1)
        x0 = PI / 2 + 0.1
        p0 = plain.momentum_from_energy(complex(x0), 0.0)
        cps = [2.0, 5.0, 8.0]
        kw = dict(events=NO_EVENTS, t_final=10.0, t_checkpoints=cps)
        a = integrate(plain, PhaseState(complex(x0), p0), **kw)
        b = integrate(driven, PhaseState(complex(x0), p0), **kw)
        for c in cps:
            sa = next(s for s in a.samples if s.t == c)
            sb = next(s for s in b.samples if s.t == c)
            assert abs(sa.x - sb.x) < 1e-9
            assert abs(sa.p - sb.p) < 1e-9

    def test_closure_watch_is_inert_for_driven_runs(self):
        driven = DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)
        p0 = driven.momentum_from_energy(PI / 2 + 0.1 + 0j, 0.0)
        traj = integrate(
            driven,
            PhaseState(PI / 2 + 0.1 + 0j, p0),
            events=EventSpec(closure=True, escape=False),
            t_final=50.0,
        )
        assert traj.classification == OPEN
        assert traj.termination == "horizon"


class TestBackwardIntegration:
    def test_negative_span(self):
        model, start = pendulum_start(0.2j)
        traj = integrate(model, start, events=NO_EVENTS, t_final=-3.0)
        assert traj.samples[-1].t == -3.0
        assert traj.samples[0].t == 0.0
        assert all(b.t < a.t for a, b in zip(traj.samples, traj.samples[1:]))


class TestColumns:
    def test_samples_view_matches_the_columns(self):
        model, start = pendulum_start(0.6j)
        traj = integrate(model, start, IntegratorConfig(max_time=40.0))
        assert len(traj) == len(traj.samples) > 100
        assert traj.samples is traj.samples  # built once
        assert [s.t for s in traj.samples] == traj.t.tolist()
        assert [s.x for s in traj.samples] == traj.x.tolist()
        assert [s.p for s in traj.samples] == traj.p.tolist()
        assert (traj.t.dtype, traj.x.dtype, traj.p.dtype) == (float, complex, complex)

    def test_made_from_samples(self):
        # columns of plain lists are read as float64 and complex128
        traj = Trajectory([0.0, 0.5], [1 + 1j, 2.0], [0.5j, -1j], "horizon")
        assert len(traj) == 2
        assert traj.samples == [PhaseState(1 + 1j, 0.5j, 0.0), PhaseState(2 + 0j, -1j, 0.5)]

    def test_the_ending_is_read_from_the_termination(self):
        t, x, p = [0.5, 1.0, 2.75], [1j, 2j, 3j], [0j] * 3
        closed = Trajectory(t, x, p, "closure")
        assert (closed.classification, closed.period, closed.escape_time) == (CLOSED, 2.25, None)
        escaped = Trajectory(t, x, p, "escape")
        assert (escaped.classification, escaped.period, escaped.escape_time) == (ESCAPED, None, 2.25)
        unfinished = Trajectory(t, x, p)
        assert (unfinished.classification, unfinished.period, unfinished.escape_time) == ("", None, None)
        with pytest.raises(ValueError, match="unknown termination 'open'"):
            Trajectory(t, x, p, "open")

    @pytest.mark.parametrize("termination", ["closure", "escape", "horizon"])
    def test_an_ending_needs_samples(self, termination):
        """Only samples that no run produced may be empty: a period or an
        escape time is read from the first and last samples."""
        empty = Trajectory([], [], [])
        assert (len(empty), empty.classification, empty.period, empty.escape_time) == (0, "", None, None)
        with pytest.raises(ValueError, match=f"^termination '{termination}' needs samples$"):
            Trajectory([], [], [], termination)

    def test_integrate_builds_no_phase_state_per_step(self, monkeypatch):
        from complexpendulum import integrator

        built = []

        def counted(*args):
            built.append(args)
            return PhaseState(*args)

        monkeypatch.setattr(integrator, "PhaseState", counted)
        model, start = pendulum_start(0.6j)
        traj = integrate(model, start, IntegratorConfig(max_time=40.0), EventSpec(closure=False))
        assert len(traj) > 1000
        assert built == []

    def test_the_potential_is_evaluated_once_per_written_sample(self, monkeypatch, tmp_path):
        """fig2 writes five closed orbits: beyond one evaluation per CSV
        row, each trajectory costs one, its start momentum (the
        energy_drift reference H(0) is the column's first row).  The
        compiled library computes the rows' energy column itself and
        calls ``potential`` for none."""
        from complexpendulum import _dopri5
        from complexpendulum.cli import run_scenario

        calls = []
        potential = Pendulum.potential

        def counted(self, x):
            calls.append(x)
            return potential(self, x)

        monkeypatch.setattr(Pendulum, "potential", counted)
        if _dopri5._library() is not None:
            assert run_scenario("fig2", out=tmp_path / "compiled", quiet=True) == 0
            assert len(calls) == 5
            calls.clear()
        monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
        assert run_scenario("fig2", out=tmp_path, quiet=True) == 0
        csvs = sorted(tmp_path.glob("traj_*.csv"))
        rows = sum(len(f.read_text().splitlines()) - 1 for f in csvs)
        assert len(csvs) == 5 and rows > 1000
        assert rows <= len(calls) <= rows + len(csvs)
