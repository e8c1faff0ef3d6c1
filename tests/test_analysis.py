"""Post-hoc trajectory analysis: closure, reflection symmetry, ellipse fits."""
import math

import numpy as np
import pytest

from complexpendulum import (
    CLOSED,
    DegenerateConic,
    DrivenPendulum,
    EventSpec,
    Harmonic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    Trajectory,
    cell_escape_summary,
    cell_index,
    detect_closure,
    fit_ellipse,
    integrate,
    verify_pt_symmetry,
)
from complexpendulum.analysis import _windings

PI = math.pi
SINH1 = math.sinh(1.0)
NO_EVENTS = EventSpec(closure=False, escape=False)


def sho_orbit(x0=1 + 1j, p0=0.5 - 0.3j, t_final=8.0):
    return integrate(Harmonic(), PhaseState(x0, p0), events=NO_EVENTS, t_final=t_final)


class TestDetectClosure:
    def test_finds_harmonic_period_post_hoc(self):
        # closure detection was off during the run; the analysis pass
        # still recovers the period from the recorded samples
        rep = detect_closure(sho_orbit())
        assert rep.closed
        assert abs(rep.period - 2 * PI) < 1e-6
        assert rep.return_distance < 1e-7

    def test_windings_follow_orientation(self):
        # (Re x, Im x) = M (cos t, sin t)^T: the sign of det M is the
        # orientation of the traced ellipse
        assert detect_closure(sho_orbit(1 + 1j, -0.5 + 0.3j)).windings == 1
        assert detect_closure(sho_orbit(1 + 1j, 0.5 - 0.3j)).windings == -1

    @pytest.mark.parametrize("turns", [-3, -1, 1, 2])
    def test_windings_match_a_scalar_loop(self, turns):
        t = np.linspace(0.0, 2 * PI, 401)
        xs = (1.5 + np.cos(3 * t)) * np.exp(1j * turns * t) + (0.2 - 0.1j)
        c = sum(xs.tolist()) / len(xs)
        angles = [math.atan2((z - c).imag, (z - c).real) for z in xs.tolist()]
        total = sum((b - a + PI) % (2 * PI) - PI for a, b in zip(angles, angles[1:]))
        assert _windings(xs) == round(total / (2 * PI)) == turns

    def test_rotation_is_not_closed(self):
        # E = 2 > 1: the real pendulum rotates, Re x advances monotonically
        model = Pendulum(g=1.0)
        p0 = model.momentum_from_energy(0j, 2.0)
        traj = integrate(model, PhaseState(0j, p0), events=NO_EVENTS, t_final=20.0)
        res = [s.x.real for s in traj.samples]
        assert all(b > a for a, b in zip(res, res[1:]))
        assert not detect_closure(traj).closed

    def test_wandering_run_is_not_closed(self):
        model = Pendulum(g=1j)
        p0 = model.momentum_from_energy(0.5 + 0j, 1j)
        traj = integrate(model, PhaseState(0.5 + 0j, p0), events=NO_EVENTS, t_final=50.0)
        assert not detect_closure(traj).closed

    def test_tolerance_is_respected(self):
        traj = sho_orbit()
        loose = detect_closure(traj, tol=1e-5)
        assert loose.closed
        # requiring a return tighter than the integration error fails
        strict = detect_closure(traj, tol=1e-14)
        assert not strict.closed
        assert strict.return_distance > 1e-14


class TestPTSymmetry:
    @pytest.mark.parametrize("x0", [0.6j, 1 + 0.5j])
    def test_real_g(self, x0):
        model = Pendulum(g=1.0)
        p0 = model.momentum_from_energy(complex(x0), 0.0)
        traj = integrate(model, PhaseState(complex(x0), p0), events=NO_EVENTS, t_final=6.0)
        rep = verify_pt_symmetry(model, traj)
        assert rep.map_kind == "real-g"
        assert rep.max_deviation < 1e-6
        assert rep.compared_points > 10

    def test_imaginary_g(self):
        model = Pendulum(g=1j)
        p0 = model.momentum_from_energy(0.2 + 0.1j, SINH1)
        traj = integrate(model, PhaseState(0.2 + 0.1j, p0), events=NO_EVENTS, t_final=6.0)
        rep = verify_pt_symmetry(model, traj)
        assert rep.map_kind == "imag-g"
        assert rep.max_deviation < 1e-6

    def test_deviation_tracks_tolerance(self):
        model = Pendulum(g=1.0)
        p0 = model.momentum_from_energy(0.6j, 0.0)
        loose_cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)
        tight_cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        loose_run = integrate(model, PhaseState(0.6j, p0), loose_cfg, NO_EVENTS, t_final=6.0)
        tight_run = integrate(model, PhaseState(0.6j, p0), tight_cfg, NO_EVENTS, t_final=6.0)
        dev_loose = verify_pt_symmetry(model, loose_run, config=loose_cfg).max_deviation
        dev_tight = verify_pt_symmetry(model, tight_run, config=tight_cfg).max_deviation
        assert dev_tight < 0.5 * dev_loose

    def test_a_backward_run_cut_short_compares_the_rows_it_reached(self):
        # fig7's first start; the backward run stops after 30 steps, so
        # only the first mirrored sample times are matched
        model = Pendulum(g=1j)
        x0 = 0.2 + 0.1j
        traj = integrate(model, PhaseState(x0, model.momentum_from_energy(x0, SINH1)), t_final=60.0)
        cfg = IntegratorConfig(max_steps=30)
        rep = verify_pt_symmetry(model, traj, config=cfg)
        # the comparison written as a scalar loop over the sampled rows
        n = len(traj)
        idx = sorted(set(np.linspace(1, n - 1, min(800, n - 1)).astype(int).tolist()))
        t0 = traj.t[0].item()
        taus = [traj.t[i].item() - t0 for i in idx]
        start = PhaseState(model.pt_reflection(x0), traj.p[0].item().conjugate(), 0.0)
        back = integrate(model, start, cfg, NO_EVENTS, t_final=-taus[-1], t_checkpoints=[-tau for tau in taus])
        assert back.termination == "max_steps"
        mirrored = {s.t: s for s in back.samples}
        dev, matched = 0.0, 0
        for i, tau in zip(idx, taus):
            s = mirrored.get(-tau)
            if s is not None:
                matched += 1
                x, p = traj.samples[i].x, traj.samples[i].p
                dev = max(dev, abs(s.x - model.pt_reflection(x)), abs(s.p - p.conjugate()))
        assert (rep.compared_points, rep.max_deviation.hex()) == (matched, dev.hex())
        assert (matched, dev.hex()) == (12, "0x1.0bfffdeafc2bcp-40")

    def test_backward_run_watches_no_escape(self):
        # the start lies past the default escape radius: the backward
        # run, bounded by the forward span, must not refuse it
        traj = integrate(Harmonic(), PhaseState(40j, 1.0), events=NO_EVENTS, t_final=2.0)
        rep = verify_pt_symmetry(Harmonic(), traj)
        assert rep.compared_points == len(traj) - 1
        assert rep.max_deviation < 1e-6

    def test_requires_autonomous_model(self):
        from complexpendulum import DrivenPendulum

        model = DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)
        traj = integrate(model, PhaseState(PI / 2 + 0.1 + 0j, 0.4j), events=NO_EVENTS, t_final=2.0)
        with pytest.raises(ValueError):
            verify_pt_symmetry(model, traj)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            verify_pt_symmetry(
                Pendulum(g=1.0),
                Trajectory(samples=[PhaseState(0.6j, 0j)], classification="open"),
            )


class TestEllipseFit:
    def test_matches_singular_values(self):
        x0, p0 = 1 + 1j, 0.5 - 0.3j
        fit = fit_ellipse(sho_orbit(x0, p0))
        m = np.array([[x0.real, p0.real], [x0.imag, p0.imag]])
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(fit.semi_major - sv[0]) < 1e-8
        assert abs(fit.semi_minor - sv[1]) < 1e-8
        assert abs(fit.center) < 1e-8
        assert fit.residual < 1e-8

    def test_orientation_in_range(self):
        fit = fit_ellipse(sho_orbit())
        assert -PI / 2 < fit.orientation <= PI / 2

    def test_real_orbit_is_degenerate(self):
        # a purely real harmonic oscillation never leaves the real axis
        traj = integrate(Harmonic(), PhaseState(1 + 0j, 0j), events=NO_EVENTS, t_final=8.0)
        with pytest.raises(DegenerateConic):
            fit_ellipse(traj)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateConic):
            fit_ellipse(Trajectory(samples=[PhaseState(1j, 0j)] * 5, classification="open"))

    def test_harmonic_fit_survives_high_aspect_ratio(self):
        # nearly collinear position/momentum vectors trace a needle of
        # aspect ratio ~200; the normalized direct fit must stay accurate
        fit = fit_ellipse(sho_orbit(1 + 0.01j, 1 + 0j))
        assert fit.residual < 1e-3
        assert fit.semi_major / fit.semi_minor > 100.0
        assert fit.semi_major >= fit.semi_minor > 0.0

    def test_pendulum_oval_is_only_approximately_elliptical(self):
        # the E = 0 orbit is an oval around the segment between the
        # turning points: close to a conic, but measurably not one
        model = Pendulum(g=1.0)
        x0 = PI / 2 + 0.05j
        p0 = model.momentum_from_energy(x0, 0.0)
        traj = integrate(model, PhaseState(x0, p0))
        assert traj.classification == CLOSED
        fit = fit_ellipse(traj)
        assert fit.residual < 0.05
        assert fit.semi_major > fit.semi_minor


class TestRealLibration:
    def test_stays_real_and_reaches_the_turning_point(self):
        # E = 0 from the bottom of the well: real oscillation with
        # amplitude pi/2, the real representative of the closed family
        model = Pendulum(g=1.0)
        traj = integrate(model, PhaseState(0j, math.sqrt(2.0) + 0j))
        assert traj.classification == CLOSED
        res = [s.x.real for s in traj.samples]
        ims = [abs(s.x.imag) for s in traj.samples]
        assert max(abs(r) for r in res) <= PI / 2 + 1e-8
        assert max(res) >= PI / 2 - 1e-3
        assert max(ims) <= 1e-10


class TestCellEscapeSummary:
    def test_compression(self):
        # x in cells 0, 0, 1, 1, 0
        xs = [0j, 1 + 1j, 2 * PI + 0.5j, 3 * PI - 0.1, 0.5 - 2j]
        traj = Trajectory(
            samples=[PhaseState(x, 0j, float(t)) for t, x in enumerate(xs)],
            classification="open",
        )
        assert cell_escape_summary(traj) == [(2.0, 0, 1), (4.0, 1, 0)]

    def test_empty_for_confined_run(self):
        traj = sho_orbit()
        assert cell_escape_summary(traj) == []

    def test_matches_pairwise_history(self):
        # a strong drive leaves cell 0, comes back and moves on; the one
        # pass over the samples must give what pairing up cell_history
        # with itself, shifted by one sample, gives
        model = DrivenPendulum(g=1.0, epsilon=0.5, omega=1.0)
        x0 = PI / 2 + 0.1
        start = PhaseState(x0, model.momentum_from_energy(x0, 0.0, branch=1))
        traj = integrate(model, start, events=EventSpec(escape=False), t_final=40.0)
        hist = [(s.t, cell_index(s.x)) for s in traj.samples]
        want = [(t, a, b) for (_, a), (t, b) in zip(hist, hist[1:]) if a != b]
        assert len(want) > len({b for _, _, b in want})  # some cell is entered twice
        assert cell_escape_summary(traj) == want
