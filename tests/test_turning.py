"""Turning-point enumeration: root families, residuals, symmetry pairings."""
import cmath
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexpendulum import (
    HamiltonianModel,
    Harmonic,
    ImaginaryCubic,
    NonConvergence,
    Pendulum,
    refine_root,
    turning_points,
)
from complexpendulum import _dopri5, turning
from complexpendulum.turning import _dedupe

PI = math.pi
WIDE = (-3 * PI, 3 * PI, -2.0, 2.0)
COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)


def roots_of(model, energy, window=WIDE, **kw):
    return [tp.x0 for tp in turning_points(model, energy, window, **kw)]


def assert_same_set(got, want, tol=1e-10):
    assert len(got) == len(want), f"{len(got)} roots, expected {len(want)}: {got}"
    for w in want:
        assert min(abs(g - w) for g in got) < tol, f"missing root near {w}"


class TestPendulumRealG:
    def test_zero_energy_family(self):
        # V = -cos x = 0 on the real axis at odd multiples of pi/2
        want = [s * PI / 2 + 2 * PI * k for k in (-1, 0, 1) for s in (1, -1)]
        got = roots_of(Pendulum(g=1.0), 0.0)
        assert_same_set(got, want)
        assert len(got) == 6

    def test_positive_energy_conjugate_pairs(self):
        # E = cosh 1: cos x = -cosh 1, roots at odd multiples of pi shifted by +-i
        want = [complex((2 * k + 1) * PI, s) for k in (-2, -1, 0, 1) for s in (1, -1)]
        got = roots_of(Pendulum(g=1.0), COSH1)
        assert_same_set(got, want)
        assert len(got) == 8  # the +-3 pi columns sit exactly on the window edge

    def test_negative_energy_conjugate_pairs(self):
        want = [complex(2 * k * PI, s) for k in (-1, 0, 1) for s in (1, -1)]
        got = roots_of(Pendulum(g=1.0), -COSH1)
        assert_same_set(got, want)
        assert len(got) == 6

    def test_residuals(self):
        model = Pendulum(g=1.0)
        for tp in turning_points(model, COSH1, WIDE):
            assert abs(model.potential(tp.x0) - COSH1) <= 1e-12 * max(1.0, COSH1)


class TestPendulumImaginaryG:
    def test_positive_energy_staggered(self):
        # g = i, E = sinh 1: single root per half-lattice column, alternating sheet
        model = Pendulum(g=1j)
        want = [complex(PI / 2 + 2 * PI * k, -1.0) for k in (-1, 0, 1)]
        want += [complex(3 * PI / 2 + 2 * PI * k, 1.0) for k in (-2, -1, 0)]
        got = roots_of(model, SINH1)
        assert_same_set(got, want)
        assert len(got) == 6

    def test_negative_energy_mirror(self):
        model = Pendulum(g=1j)
        want = [complex(PI / 2 + 2 * PI * k, 1.0) for k in (-1, 0, 1)]
        want += [complex(3 * PI / 2 + 2 * PI * k, -1.0) for k in (-2, -1, 0)]
        got = roots_of(model, -SINH1)
        assert_same_set(got, want)

    def test_residuals(self):
        model = Pendulum(g=1j)
        for tp in turning_points(model, SINH1, WIDE):
            assert abs(model.potential(tp.x0) - SINH1) <= 1e-12 * max(1.0, SINH1)

    def test_complex_energy_degenerate_roots(self):
        # E = i forces cos x = -1: double roots on the real axis
        got = roots_of(Pendulum(g=1j), 1j, window=(-7.0, 7.0, -1.0, 1.0), residual_tol=1e-9)
        assert_same_set(got, [-PI + 0j, PI + 0j], tol=1e-4)


class TestOtherPotentials:
    def test_harmonic(self):
        got = roots_of(Harmonic(), 1.0, window=(-2.0, 2.0, -1.0, 1.0))
        assert_same_set(got, [math.sqrt(2.0), -math.sqrt(2.0)])

    def test_cubic(self):
        # i x^3 = 1 has the three cube roots of -i
        want = [1j, complex(math.sqrt(3) / 2, -0.5), complex(-math.sqrt(3) / 2, -0.5)]
        got = roots_of(ImaginaryCubic(), 1.0, window=(-2.0, 2.0, -2.0, 2.0))
        assert_same_set(got, want)

    def test_cubic_residuals(self):
        model = ImaginaryCubic()
        for tp in turning_points(model, 1.0, (-2.0, 2.0, -2.0, 2.0)):
            assert abs(model.potential(tp.x0) - 1.0) <= 1e-12


class TestRefineRoot:
    def test_polishes_nearby_seed(self):
        tp = refine_root(Pendulum(g=1.0), 0.0, 1.5 + 0.05j)
        assert abs(tp.x0 - PI / 2) < 1e-12
        assert tp.branch_sign == 0
        assert tp.lattice_index == 0

    def test_tags(self):
        tp = refine_root(Pendulum(g=1.0), COSH1, complex(3 * PI, 0.9))
        assert abs(tp.x0 - complex(3 * PI, 1.0)) < 1e-12
        assert tp.lattice_index == 2  # round(3 pi / 2 pi) = round(1.5) = 2
        assert tp.branch_sign == 1

    @pytest.mark.parametrize("seed", [complex(math.inf, 0.0), complex(0.0, math.nan), -math.inf])
    def test_non_finite_seed_rejected(self, seed):
        # cmath used to raise an untyped "math domain error" for it
        with pytest.raises(ValueError, match=r"^seed .* is not finite$"):
            refine_root(Pendulum(g=1.0), 0.0, seed)

    def test_raises_when_stuck(self):
        # seed at the potential maximum of the harmonic well with wrong energy
        with pytest.raises(NonConvergence):
            refine_root(Harmonic(), 1.0, 0j)


class Cubic(HamiltonianModel):
    """V(x) = x^3, with no closed-form roots here: found from a seed grid."""

    def potential(self, x):
        return x * x * x

    def gradient(self, x):
        return 3.0 * x * x


class TestWindowHandling:
    def test_boundary_roots_kept(self):
        got = roots_of(Pendulum(g=1.0), COSH1, window=(-3 * PI, 3 * PI, -1.0, 1.0))
        assert any(abs(z - complex(3 * PI, 1.0)) < 1e-10 for z in got)
        assert any(abs(z - complex(-3 * PI, -1.0)) < 1e-10 for z in got)

    def test_empty_window_area_rejected(self):
        with pytest.raises(ValueError):
            turning_points(Pendulum(g=1.0), 0.0, (1.0, 1.0, -1.0, 1.0))

    @pytest.mark.parametrize("path", ["library", "python"])
    @pytest.mark.parametrize("energy", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf)])
    def test_non_finite_energy_rejected(self, monkeypatch, path, energy):
        # the window check used to ask for nan seeds
        if path == "python":
            monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
        for model in (Pendulum(g=1.0), Harmonic()):
            with pytest.raises(ValueError, match="^energy must be finite$"):
                turning_points(model, energy, (-1.0, 1.0, -1.0, 1.0))

    def test_sorted_output(self):
        got = roots_of(Pendulum(g=1.0), COSH1)
        keys = [(z.real, z.imag) for z in got]
        assert keys == sorted(keys)

    def test_wide_window_in_linear_time(self):
        # 10186 roots; merging them pairwise took about 7 s
        start = time.perf_counter()
        got = roots_of(Pendulum(g=1.0), 0.3, window=(-16000.0, 16000.0, -2.0, 2.0))
        assert time.perf_counter() - start < 2.0
        assert len(got) == 10186
        assert min(b.real - a.real for a, b in zip(got, got[1:])) > 1.0

    def test_wide_window_finds_every_closed_form_root(self, caplog):
        # past |x| ~ 2e4 cos x rounds coarser than the 1e-12 residual target;
        # 2064 of these seeds used to stop short of it and lose their roots
        alpha = cmath.acos(-0.3).real
        want = sorted(s * alpha + 2.0 * PI * k for k in range(-3820, 3821) for s in (1.0, -1.0))
        want = [x for x in want if abs(x) <= 24000.0]
        got = roots_of(Pendulum(g=1.0), 0.3, window=(-24000.0, 24000.0, -2.0, 2.0))
        assert len(got) == len(want) == 15280
        assert max(abs(z - x) for z, x in zip(got, want)) < 1e-11
        assert "did not converge" not in caplog.text

    @pytest.mark.parametrize(
        "model,window",
        [
            # 6e11 closed-form seeds, or 1.6e5 grid seeds 0.5 apart:
            # rejected from their count, before any is made
            (Pendulum(g=1.0), (-1e12, 1e12, -2.0, 2.0)),
            (Cubic(), (-100.0, 100.0, -100.0, 100.0)),
        ],
        ids=["closed-form-seeds", "grid-seeds"],
    )
    def test_rejected_before_seeding(self, model, window):
        with pytest.raises(ValueError, match="^window needs"):
            turning_points(model, 1.0, window)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.floats(-2e-9, 2e-9), st.floats(-2e-9, 2e-9)),
            max_size=40,
        )
    )
    def test_merge_keeps_the_first_root_within_tol(self, clusters):
        # points clustered around a few centres, closer and farther than tol
        roots = [complex(3e-9 * i + dx, 3e-9 * j + dy) for i, j, dx, dy in clusters]
        want = []
        for z in roots:
            if all(abs(z - w) > 1e-9 for w in want):
                want.append(z)
        assert _dedupe(roots, 1e-9) == want



@st.composite
def pendulum_windows(draw):
    """(g, energy, window) for the pendulum; half the windows have one
    edge on a closed-form root's coordinate, clipping it."""
    g = draw(st.sampled_from([1.0, 1j, 0.6 + 0.8j]))
    energy = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    window = [draw(st.floats(-12.0, 12.0)), 0.0, draw(st.floats(-4.0, 4.0)), 0.0]
    window[1] = window[0] + draw(st.floats(0.1, 14.0))
    window[3] = window[2] + draw(st.floats(0.1, 8.0))
    if draw(st.booleans()):
        alpha = cmath.acos(-energy / g)
        root = draw(st.sampled_from([1.0, -1.0])) * alpha + 2.0 * PI * draw(st.integers(-2, 2))
        edge = draw(st.integers(0, 3))
        at = root.real if edge < 2 else root.imag
        span = window[edge ^ 1] - window[edge]  # signed: the far edge stays on its side
        window[edge], window[edge ^ 1] = at, at + span
    return g, energy, tuple(window)


class TestSeedReach:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pendulum_windows())
    def test_skipped_seeds_change_no_root(self, case):
        # polishing only the seeds within pi of the window finds the roots
        # that polishing every seed finds, bit for bit
        g, energy, window = case
        got = turning_points(Pendulum(g=g), energy, window)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(turning, "_SEED_REACH", math.inf)
            want = turning_points(Pendulum(g=g), energy, window)
        assert [(tp.x0.real.hex(), tp.x0.imag.hex()) for tp in got] == [
            (tp.x0.real.hex(), tp.x0.imag.hex()) for tp in want
        ]

    def test_only_seeds_near_the_window_are_polished(self):
        # of the ten seeds +/- acos(-0.3) + 2 pi k, k = -2..2, only k = 0's
        # lie within pi of the window
        seeds = list(turning._pendulum_seeds(Pendulum(g=1.0), 0.3 + 0j, (-1.0, 1.0, -1.0, 1.0)))
        alpha = cmath.acos(-0.3)
        assert seeds == [alpha, -alpha]


@st.composite
def real_energies_off_critical(draw):
    e = draw(st.floats(-5.0, 5.0, allow_nan=False))
    # stay away from |E| = 1 where roots collide on the real axis
    if abs(abs(e) - 1.0) < 0.05:
        e += 0.1
    return e


class TestStructuralProperties:
    @settings(max_examples=60, deadline=None)
    @given(e=real_energies_off_critical())
    def test_conjugate_pairing_real_g(self, e):
        got = roots_of(Pendulum(g=1.0), e)
        for z in got:
            if abs(z.imag) > 1e-9:
                assert min(abs(w - z.conjugate()) for w in got) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(e=real_energies_off_critical())
    def test_lattice_translation(self, e):
        model = Pendulum(g=1.0)
        # tall window: |Im root| = arccosh|E| reaches ~2.3 for |E| = 5
        got = roots_of(model, e, window=(-3 * PI, 3 * PI, -4.0, 4.0))
        inner = [z for z in got if abs(z.real) <= PI]
        assert inner, "expected roots in the central cell"
        for z in inner:
            shifted = refine_root(model, e, z + 2 * PI).x0
            assert abs(shifted - (z + 2 * PI)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(e=st.floats(0.2, 5.0, allow_nan=False))
    def test_reflection_pairing_imaginary_g(self, e):
        # the antiunitary symmetry x -> pi - x* of g = i maps the root set
        # to itself (modulo the 2 pi lattice)
        model = Pendulum(g=1j)
        got = roots_of(model, e)
        for z in got:
            image = PI - z.conjugate()
            shifted = min(
                (image + 2 * PI * k for k in range(-3, 4)),
                key=lambda w: abs(w.real),
            )
            candidates = [w for w in got]
            assert min(abs(((w - shifted).real + PI) % (2 * PI) - PI) + abs(w.imag - shifted.imag) for w in candidates) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(e=real_energies_off_critical())
    def test_refine_root_is_fixed_point(self, e):
        model = Pendulum(g=1.0)
        for tp in turning_points(model, e, WIDE):
            again = refine_root(model, e, tp.x0)
            assert abs(again.x0 - tp.x0) < 1e-12
