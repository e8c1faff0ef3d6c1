"""Contour quadrature: escape times, periods, elliptic integrals.

Reference values were frozen from independent routes: scipy.integrate.quad
on hand-substituted real forms, scipy.special.ellipk, and closed forms.
The library itself never imports scipy; it is used here purely as an
oracle.
"""
import cmath
import logging
import math

import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from complexpendulum import _dopri5, quadrature
from complexpendulum import (
    BranchInconsistency,
    DomainError,
    HamiltonianModel,
    Harmonic,
    ImaginaryCubic,
    PathThroughSingularity,
    Pendulum,
    Segment,
    ToleranceNotMet,
    TurningPointContour,
    VerticalRay,
    adaptive_quad,
    agm,
    contour_integral,
    elliptic_K,
    escape_time,
    escape_time_real_form,
    path_integral,
    period_contour,
    refine_root,
    turning_points,
)

PI = math.pi
COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)

# escape time from pi + i at E = cosh 1 (real pendulum), frozen from
# scipy.quad of 2 du / sqrt(2 (cosh(1 + u^2) - cosh 1)) on [0, sqrt(60)]
ESCAPE_REAL_G = 1.9753644322886177
# escape time from 3 pi/2 + i at E = sinh 1 (g = i), frozen the same way
ESCAPE_IMAG_G = 1.8454924998997722
# the same quantity in closed form: (2 / sqrt(e)) K(-1 / e^2)
ESCAPE_CLOSED = 2.0 / math.sqrt(math.e) * elliptic_K(-math.exp(-2.0))
# period of every E = 0 orbit of the real pendulum: 4 K(1/2)
PERIOD_E0 = 7.4162987092054875
# period at E = -cosh 1 (librations inside the well)
PERIOD_FIG6 = 5.911611295076774

K_HALF = 1.8540746773013717

# period_contour of the E = 0 pendulum orbit at each contour offset, bit for
# bit: the quadrature nodes are fixed, so a change to the path expressions
# or the branch choice shows up in the last digit
PERIOD_E0_BITS = {0.25: 7.416298709205488, 0.5: 7.4162987092054875, 1.0: 7.416298709205487}


class PoleBetweenRoots(HamiltonianModel):
    """V(x) = x - 1/x: at E = 0 the roots are -1 and 1, and the simple
    pole at 0 between them puts a second branch point inside any contour
    around the pair.  At the pole itself (a turning-point seed lands
    there) the division raises ``ZeroDivisionError``."""

    def potential(self, x):
        return x - 1.0 / x

    def gradient(self, x):
        return 1.0 + 1.0 / (x * x)


class TestAdaptiveQuad:
    def test_polynomial(self):
        assert abs(adaptive_quad(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-14

    def test_oscillatory_vs_scipy(self):
        f = lambda x: math.exp(-x) * math.cos(7.0 * x)
        want, _ = scipy.integrate.quad(f, 0.0, 10.0, epsabs=1e-13, epsrel=1e-13)
        got = adaptive_quad(f, 0.0, 10.0, tol=1e-12)
        assert abs(got - want) < 1e-11

    def test_complex_integrand(self):
        got = adaptive_quad(lambda x: cmath.exp(1j * x), 0.0, PI, tol=1e-12)
        assert abs(got - 2j) < 1e-11

    def test_undeclared_singularity_fails_loudly(self):
        with pytest.raises(ToleranceNotMet):
            adaptive_quad(lambda x: 1.0 / (abs(x - 0.3) + 1e-300), 0.0, 1.0, tol=1e-10)


    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # with tol = nan, toterr > tol never held: the first 8 panels were
        # returned unverified, 1.9377535913678672 against 1.9377541969215548
        f = lambda s: 1.0 / math.sqrt(s + 1e-3)
        assert adaptive_quad(f, 0.0, 1.0) == 1.9377541969215548
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            adaptive_quad(f, 0.0, 1.0, tol=tol)

    def test_escape_time_and_period_reject_a_nan_tolerance(self):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            escape_time(Pendulum(g=1.0), COSH1, PI + 1j, tol=math.nan)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, tol=math.nan)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2), tol=math.nan)


class TestPathIntegral:
    def test_constant_over_segment(self):
        got = path_integral(lambda z: 1.0, Segment(0j, 1 + 1j))
        assert abs(got - (1 + 1j)) < 1e-13

    def test_exponential(self):
        got = path_integral(cmath.exp, Segment(0j, 1j * PI))
        assert abs(got - (cmath.exp(1j * PI) - 1.0)) < 1e-12

    def test_declared_sqrt_singularity(self):
        got = path_integral(
            lambda z: 1.0 / cmath.sqrt(z), Segment(0j, 1 + 0j, sqrt_singular_start=True)
        )
        assert abs(got - 2.0) < 1e-12

    def test_declared_sqrt_singularity_at_the_end(self):
        got = path_integral(lambda z: 1.0 / cmath.sqrt(1.0 - z), Segment(0j, 1 + 0j, sqrt_singular_end=True))
        assert abs(got - 2.0) < 1e-12

    def test_declared_sqrt_singularities_at_both_ends(self):
        # split at the midpoint, each half substituted from its singular end
        got = path_integral(lambda z: 1.0 / cmath.sqrt(1.0 - z * z), Segment(-1 + 0j, 1 + 0j, True, True))
        assert abs(got - PI) < 1e-12

    def test_vertical_ray_geometry(self):
        # integrating 1 along the ray measures its (directed) length
        got = path_integral(lambda z: 1.0, VerticalRay(2 + 1j, direction=1, cutoff=3.0))
        assert abs(got - 3j) < 1e-12

    def test_stadium_encloses_simple_pole(self):
        # the loop is counterclockwise: residue theorem gives +2 pi i
        got = path_integral(lambda z: 1.0 / z, TurningPointContour(-1 + 0j, 1 + 0j, 0.5), tol=1e-12)
        assert abs(got - 2j * PI) < 1e-10


class TestEscapeTime:
    def test_real_g_value(self):
        t = escape_time(Pendulum(g=1.0), COSH1, PI + 1j)
        assert abs(t - ESCAPE_REAL_G) < 1e-8
        assert abs(t - 1.97536) < 1e-4

    def test_real_g_vs_scipy(self):
        # independent oracle: v = u^2 substitution done by hand; at u -> 0
        # the limit of 2u / sqrt(2 (cosh(1 + u^2) - cosh 1)) is sqrt(2/sinh 1)
        def f(u):
            d = 2.0 * (math.cosh(1.0 + u * u) - COSH1)
            if d <= 0.0:
                return math.sqrt(2.0 / SINH1)
            return 2.0 * u / math.sqrt(d)

        want, _ = scipy.integrate.quad(f, 0.0, math.sqrt(60.0), epsabs=1e-12, epsrel=1e-12)
        assert abs(escape_time(Pendulum(g=1.0), COSH1, PI + 1j) - want) < 1e-8

    def test_imag_g_value(self):
        t = escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j)
        assert abs(t - ESCAPE_IMAG_G) < 1e-8
        assert abs(t - 1.84549) < 1e-4

    def test_imag_g_closed_form(self):
        # (2 / sqrt(e)) K(-1 / e^2) is the exact value of the ray integral
        assert abs(ESCAPE_CLOSED - ESCAPE_IMAG_G) < 1e-8
        t = escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j)
        assert abs(t - ESCAPE_CLOSED) < 1e-8

    def test_real_form_route_agrees(self):
        # independent all-real route: no complex branch tracking involved
        a = escape_time(Pendulum(g=1.0), COSH1, PI + 1j)
        b = escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j)
        assert abs(a - b) < 1e-8
        a = escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j)
        b = escape_time_real_form(Pendulum(g=1j), SINH1, 1.5 * PI + 1j)
        assert abs(a - b) < 1e-8

    def test_cutoff_tail_negligible(self):
        a = escape_time(Pendulum(g=1.0), COSH1, PI + 1j, 60.0)
        b = escape_time(Pendulum(g=1.0), COSH1, PI + 1j, 120.0)
        assert abs(a - b) < 1e-10

    def test_accepts_turning_point_object(self):
        tp = refine_root(Pendulum(g=1.0), COSH1, PI + 1j)
        assert abs(escape_time(Pendulum(g=1.0), COSH1, tp) - ESCAPE_REAL_G) < 1e-8

    def test_lower_root_escapes_downward(self):
        # default direction points away from the real axis
        t = escape_time(Pendulum(g=1.0), COSH1, PI - 1j)
        assert abs(t - ESCAPE_REAL_G) < 1e-8

    def test_unbundled_rays_bit_for_bit(self):
        # the downward ray and a shorter cutoff are routes no bundled
        # scenario takes; their values are pinned to the last bit
        assert escape_time(Pendulum(g=1.0), COSH1, PI - 1j) == 1.975364432288618
        assert escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j, 30.0) == 1.845492128821711

    def test_ray_through_other_root_rejected(self):
        # forcing the ray from pi - i upward runs straight into pi + i
        with pytest.raises(PathThroughSingularity):
            escape_time(Pendulum(g=1.0), COSH1, PI - 1j, direction=1)

    def test_degenerate_turning_point_rejected(self):
        # E = i with g = i has double roots on the real axis
        with pytest.raises(DomainError):
            escape_time(Pendulum(g=1j), 1j, PI + 0j)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            escape_time(Pendulum(g=1.0), COSH1, PI + 1j, 0.0)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_non_finite_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            escape_time(Pendulum(g=1.0), COSH1, PI + 1j, cutoff)
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, cutoff)
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            VerticalRay(PI + 1j, 1, cutoff)

    def test_non_root_rejected(self):
        with pytest.raises((DomainError, ValueError)):
            escape_time(Pendulum(g=1.0), COSH1, 1.0 + 1j)

    def test_a_root_is_accepted_by_the_root_searchs_rule(self):
        """Near Re x = 1e9, cos x rounds by about 1e-7, coarser than the
        1e-8 residual target: the root turning_points returns there is
        a root by its rounding floor, and the quadrature accepts it as
        one.  A point 1e-6 off is still rejected."""
        model = Pendulum(g=1.0)
        k = round(1e9 / (2.0 * PI))
        roots = turning_points(model, COSH1, (2.0 * PI * k, 2.0 * PI * (k + 1), -2.0, 2.0))
        x0 = roots[-1].x0
        assert x0 == 1000000002.5641972 + 0.9999999999999986j
        assert abs(model.potential(x0) - COSH1) > 1e-8 * COSH1
        assert quadrature._as_root(model, COSH1, x0) == x0
        for off in (1e-6, 1e-6j):
            with pytest.raises(ValueError, match="is not a turning point at this energy"):
                quadrature._as_root(model, COSH1, x0 + off)

    @pytest.mark.parametrize("path", ["library", "python"])
    @pytest.mark.parametrize(
        "g,energy,seed,k",
        [(1.0, COSH1, PI + 1j, k) for k in (-3, 160, 1000, 100_000)]
        + [(1j, SINH1, 0.5 * PI - 1j, k) for k in (1, 500)],
    )
    def test_a_root_in_another_cell_escapes_as_in_cell_0(self, path, g, energy, seed, k):
        """V is 2 pi periodic, so the pendulum root moved to cell k escapes
        in the cell-0 time, to the last bit on both routes and both paths:
        the ray starts from the root moved back to cell 0.  From the root
        as given, cos x rounds by |x| ulp and the branch form drifted
        (-1e-7 relative at k = 160) or raised (k = 1e5)."""
        model = Pendulum(g=g)
        x0 = refine_root(model, energy, seed + 2.0 * PI * k).x0
        root = refine_root(model, energy, seed).x0
        with pytest.MonkeyPatch.context() as m:
            if path == "python":
                m.setattr(_dopri5, "model_params", lambda model: None)
            for route in (escape_time, escape_time_real_form):
                assert route(model, energy, x0) == route(model, energy, root)


class TestPeriodContour:
    def test_zero_energy_period(self):
        t = period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2))
        assert abs(t - PERIOD_E0) < 1e-8

    def test_matches_elliptic_form(self):
        t = period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2))
        assert abs(t - 4.0 * elliptic_K(0.5)) < 1e-8

    def test_harmonic_period_is_two_pi(self):
        r = math.sqrt(2.0)
        t = period_contour(Harmonic(), 1.0, (-r, r))
        assert abs(t - 2.0 * PI) < 1e-8

    def test_libration_period(self):
        t = period_contour(Pendulum(g=1.0), -COSH1, (-1j, 1j))
        assert abs(t - PERIOD_FIG6) < 1e-8

    @pytest.mark.parametrize("offset", [0.25, 0.5, 1.0])
    def test_offset_invariance(self, offset):
        t = period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2), offset)
        assert abs(t - PERIOD_E0) < 1e-8
        assert t == PERIOD_E0_BITS[offset]

    def test_unbundled_models_bit_for_bit(self):
        # no bundled scenario takes a period of these models
        r = math.sqrt(2.0)
        assert period_contour(Harmonic(), 1.0, (-r, r)) == 6.283185307179586
        c = math.sqrt(3.0) / 2.0
        assert period_contour(ImaginaryCubic(), 1.0, (-c - 0.5j, c - 0.5j)) == 3.4346306845088224

    def test_raw_integral_is_real(self):
        v = contour_integral(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2))
        assert abs(v.imag) < 1e-9

    def test_oversized_contour_rejected(self):
        # an offset of 6.5 sweeps the stadium into the neighbouring roots
        with pytest.raises(PathThroughSingularity):
            period_contour(Pendulum(g=1.0), COSH1, (PI - 1j, PI + 1j), 6.5)

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2), 0.0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_offset(self, offset):
        with pytest.raises(ValueError, match="offset must be positive and finite"):
            period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2), offset)
        with pytest.raises(ValueError, match="offset must be positive and finite"):
            TurningPointContour(-PI / 2, PI / 2, offset)


class TestExactSymmetries:
    """Metamorphic checks built on exact symmetries of the models."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(0.25, 4.0))
    def test_cubic_i_period_scales_as_the_inverse_square_root(self, lam):
        # x -> lam x takes V = i x^3 to lam^3 V, so E -> lam^3 E and
        # T -> T / sqrt(lam), with the contour scaled along
        c = math.sqrt(3.0) / 2.0
        pair = (-c - 0.5j, c - 0.5j)
        period = period_contour(ImaginaryCubic(), 1.0, pair, offset=0.3)
        scaled = period_contour(ImaginaryCubic(), lam**3, (lam * pair[0], lam * pair[1]), offset=lam * 0.3)
        assert scaled * math.sqrt(lam) == pytest.approx(period, rel=1e-12, abs=0.0)

    @settings(max_examples=7, deadline=None, derandomize=True)
    @given(st.integers(-3, 3))
    def test_pendulum_escape_time_is_two_pi_periodic(self, k):
        want = escape_time(Pendulum(g=1.0), COSH1, PI + 1j)
        assert escape_time(Pendulum(g=1.0), COSH1, PI + 1j + 2.0 * PI * k) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBranchGuide:
    @pytest.mark.parametrize("cells", [24, 72])
    def test_denser_guide_keeps_every_pinned_bit(self, monkeypatch, cells):
        # the guide only picks the sign of each node's root, so starting
        # it denser must leave every returned bit where it is
        monkeypatch.setattr(quadrature, "_GUIDE_CELLS", cells)
        for offset, bits in PERIOD_E0_BITS.items():
            assert period_contour(Pendulum(g=1.0), 0.0, (-PI / 2, PI / 2), offset) == bits
        r = math.sqrt(2.0)
        assert period_contour(Harmonic(), 1.0, (-r, r)) == 6.283185307179586
        c = math.sqrt(3.0) / 2.0
        assert period_contour(ImaginaryCubic(), 1.0, (-c - 0.5j, c - 0.5j)) == 3.4346306845088224
        # the eq10 and eq14 rays, and two that no scenario takes
        assert escape_time(Pendulum(g=1.0), COSH1, PI + 1j) == 1.975364432288618
        assert escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j) == 1.845492499899772
        assert escape_time(Pendulum(g=1.0), COSH1, PI - 1j) == 1.975364432288618
        assert escape_time(Pendulum(g=1j), SINH1, 1.5 * PI + 1j, 30.0) == 1.845492128821711

    def test_refinement_is_logged_and_keeps_the_bits(self, caplog):
        # at offset 2 the caps around the libration pair are long enough
        # that 8 cells leave consecutive guide values too far apart; the
        # value is the one the fixed 2048-point guide gave
        model = Pendulum(g=1.0)
        with caplog.at_level(logging.DEBUG, logger="complexpendulum.quadrature"):
            assert period_contour(model, -COSH1, (-1j, 1j), 0.5) == PERIOD_FIG6
            assert caplog.records == []
            assert period_contour(model, -COSH1, (-1j, 1j), 2.0) == 5.911611295076775
        assert [rec.getMessage() for rec in caplog.records] == [
            "branch guide: piece 1 refined to 24 cells",
            "branch guide: piece 3 refined to 24 cells",
        ]

    def test_an_empty_path_integrates_to_zero(self):
        # a segment of zero length has no pieces
        empty = Segment(1 + 1j, 1 + 1j, True, True)
        assert quadrature._branch_integral(Pendulum(g=1.0), COSH1, quadrature._pieces(empty, 1e-10), False) == 0j
        assert path_integral(lambda z: 1.0, empty) == 0j

    def test_the_rotation_period_over_a_segment(self):
        # omega_rot of the pendulum at E = cosh 1: dz / w over one period
        # 0 -> 2 pi of the real axis
        pieces = quadrature._pieces(Segment(0.0, 2.0 * PI), 1e-10)
        got = quadrature._branch_integral(Pendulum(g=1.0), COSH1 + 0j, pieces, False)
        assert (got.real.hex(), got.imag.hex()) == ((3.9507288645777314).hex(), (0.0).hex())

    def test_a_segment_through_a_root_refines_to_the_ceiling(self):
        # w turns by 90 degrees at the root at any density
        pieces = quadrature._pieces(Segment(0.0, 1.7), 1e-6)
        assert quadrature._guide(Harmonic(), 0.5 + 0j, pieces, False)[1] == [quadrature._GUIDE_MAX_CELLS]

    def test_sign_choice_ties_keep_the_root(self):
        """On the real axis the harmonic root w = sqrt(1 - x^2) at E = 1/2 is
        real before x = 1 and imaginary past it, so a node past the root in a
        guide cell whose entry lies before it is an exact tie,
        |-r - ref| == |r - ref|, where no root is turned.  The reference
        integrand counts the ties."""
        model, energy = Harmonic(), 0.5 + 0j
        pieces = quadrature._pieces(Segment(0.0, 1.7), 1e-6)
        [(piece, s0, s1, tol)] = pieces
        guide, [cells] = quadrature._guide(model, energy, pieces, False)
        z, dz = quadrature._curve(piece)
        h, ties = (s1 - s0) / cells, []

        def f(s):
            r = cmath.sqrt(2.0 * (energy - model.potential(z(s))))
            ref = guide[int((s - s0) / h)]
            ties.append(abs(-r - ref) == abs(r - ref))
            if abs(-r - ref) < abs(r - ref):
                r = -r
            return 1.0 / r * dz(s)

        want = adaptive_quad(f, s0, s1, tol)
        assert sum(ties) > 100
        got = quadrature._branch_integral(model, energy, pieces, False)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_raw_sign_is_seeded_at_the_loop_start(self):
        # the sign of the raw integral is that of the principal root at
        # the start of the loop, below the left root; periods take abs
        c = math.sqrt(3.0) / 2.0
        raw = contour_integral(ImaginaryCubic(), 1.0, (-c - 0.5j, c - 0.5j))
        assert raw.real == 3.4346306845088224


class TestBranchInconsistency:
    def test_guide_that_does_not_close(self):
        # the pole at 0 is a second branch point inside the stadium, so
        # continuing w once around the loop ends on the other sign
        with pytest.raises(BranchInconsistency, match="does not close around the contour"):
            contour_integral(PoleBetweenRoots(), 0.0, (-1.0, 1.0), 0.3)

    def test_seed_on_the_pole_is_skipped(self, caplog):
        # the seed grid of this window has a seed at 0, where the model
        # divides by zero: Newton gives that seed up and counts it
        with caplog.at_level(logging.WARNING, logger="complexpendulum.turning"):
            roots = turning_points(PoleBetweenRoots(), 0.0, (-1.8, 1.8, -0.8, 0.8))
        assert [round(tp.x0.real, 12) for tp in roots] == [-1.0, 1.0]
        assert all(abs(tp.x0.imag) < 1e-12 for tp in roots)
        assert "seeds did not converge" in caplog.text

    def test_period_with_imaginary_residue(self):
        # at a complex energy the first pair of the window is no real
        # orbit: the loop closes, but the integral keeps an imaginary part
        model = Pendulum(g=1.0)
        energy = 0.5 + 0.5j
        pair = [tp.x0 for tp in turning_points(model, energy, (-2.5, 2.5, -2.0, 2.0))][:2]
        raw = contour_integral(model, energy, pair)
        assert abs(raw - (7.96949 + 1.37614j)) < 1e-5
        with pytest.raises(BranchInconsistency, match="imaginary residue"):
            period_contour(model, energy, pair)

    def test_a_residue_small_on_the_period_scale_is_accepted(self):
        # at E = 0.5 + 1e-6 i the residue 3.6e-6 lies above 1e-6 but
        # below 1e-6 |T| = 8.6e-6: the residue rule is relative to the
        # integral, as for escape times
        model = Pendulum(g=1.0)
        energy = 0.5 + 1e-6j
        pair = [tp.x0 for tp in turning_points(model, energy, (-2.5, 2.5, -2.0, 2.0))][:2]
        raw = contour_integral(model, energy, pair)
        assert 1e-6 < raw.imag < 1e-6 * abs(raw)
        assert period_contour(model, energy, pair) == abs(raw.real)


class TestElliptic:
    def test_frozen_value(self):
        assert abs(elliptic_K(0.5) - K_HALF) < 1e-15

    def test_at_zero(self):
        assert abs(elliptic_K(0.0) - PI / 2) < 1e-15

    @pytest.mark.parametrize("m", [-0.5, 0.0, 0.5, 0.9])
    def test_matches_direct_quadrature(self, m):
        direct = adaptive_quad(
            lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, PI / 2, tol=1e-13
        )
        assert abs(elliptic_K(m) - direct) < 1e-12

    @pytest.mark.parametrize("m", [-0.5, 0.0, 0.5, 0.9])
    def test_matches_scipy(self, m):
        assert abs(elliptic_K(m) - scipy.special.ellipk(m)) < 1e-13

    @pytest.mark.parametrize("m", [1.0, 1.5, math.inf, math.nan])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            elliptic_K(m)

    def test_agm_basis(self):
        assert agm(1.0, 1.0) == 1.0
        assert abs(agm(1.0, 2.0) - agm(2.0, 1.0)) < 1e-15
        assert abs(agm(3.0, 6.0) - 3.0 * agm(1.0, 2.0)) < 1e-14
        # Gauss's original constant: agm(1, sqrt 2) = pi / (2 varpi') with
        # K(1/2) = pi / (2 agm(1, sqrt(1/2)))
        assert abs(PI / (2.0 * agm(1.0, math.sqrt(0.5))) - K_HALF) < 1e-14

    def test_agm_domain(self):
        for bad in [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0)]:
            with pytest.raises(DomainError):
                agm(*bad)
