"""Potentials, energies, vector fields, and momentum inversion."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexpendulum import (
    DrivenPendulum,
    Harmonic,
    ImaginaryCubic,
    Pendulum,
    PhaseState,
    cell_index,
)

PEND = Pendulum(g=1.0)
SHO = Harmonic()
CUBIC = ImaginaryCubic()
DRIVEN = DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)


finite_complex = st.builds(
    complex,
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False),
)

all_models = st.sampled_from([PEND, Pendulum(g=1j), SHO, CUBIC])


def cos_formula(z):
    """cos(a+ib) = cos a cosh b - i sin a sinh b."""
    a, b = z.real, z.imag
    return complex(math.cos(a) * math.cosh(b), -math.sin(a) * math.sinh(b))


def sin_formula(z):
    """sin(a+ib) = sin a cosh b + i cos a sinh b."""
    a, b = z.real, z.imag
    return complex(math.sin(a) * math.cosh(b), math.cos(a) * math.sinh(b))


class TestComplexTrig:
    """Pendulum V = -g cos x and V' = g sin x against the explicit
    entire extensions of cos and sin."""

    @given(z=finite_complex)
    def test_potential_matches_cos_formula(self, z):
        c = cos_formula(z)
        assert abs(PEND.potential(z) + c) <= 1e-12 * max(1.0, abs(c))

    @given(z=finite_complex)
    def test_gradient_matches_sin_formula(self, z):
        s = sin_formula(z)
        assert abs(PEND.gradient(z) - s) <= 1e-12 * max(1.0, abs(s))

    @given(z=finite_complex)
    def test_pythagorean_identity(self, z):
        s, c = PEND.gradient(z), -PEND.potential(z)
        assert abs(s * s + c * c - 1.0) <= 1e-10 * max(1.0, abs(s) ** 2 + abs(c) ** 2)


class TestPotential:
    def test_pendulum_at_origin(self):
        assert PEND.potential(0j) == -1.0

    def test_pendulum_at_half_pi(self):
        assert abs(PEND.potential(math.pi / 2 + 0j)) < 1e-16

    def test_pendulum_at_pi_plus_i(self):
        v = PEND.potential(complex(math.pi, 1.0))
        assert abs(v - math.cosh(1.0)) < 1e-15

    def test_cubic_at_i(self):
        assert abs(CUBIC.potential(1j) - 1.0) < 1e-15



class TestEnergy:
    def test_rest_at_bottom(self):
        assert PEND.energy(PhaseState(0j, 0j)) == -1.0

    def test_turning_point_of_zero_energy(self):
        assert abs(PEND.energy(PhaseState(math.pi / 2 + 0j, 0j))) < 1e-16

    def test_harmonic_unit(self):
        assert SHO.energy(PhaseState(1 + 0j, 1 + 0j)) == 1.0


class TestVectorField:
    def test_pendulum_at_origin(self):
        dx, dp = PEND.field(0.0, 0j, 2 + 0j)
        assert dx == 2.0 and abs(dp) < 1e-16

    def test_cubic_gradient(self):
        dx, dp = CUBIC.field(0.0, 1 + 0j, 0j)
        assert dx == 0.0 and abs(dp - (-3j)) < 1e-15

    def test_drive_term_alone(self):
        dx, dp = DRIVEN.field(5 * math.pi, 0j, 0j)
        assert dx == 0.0
        assert abs(dp - 0.2 * math.sin(0.5 * math.pi)) < 1e-15

    def test_drive_requires_valid_parameters(self):
        with pytest.raises(ValueError):
            DrivenPendulum(g=1.0, epsilon=-0.1, omega=0.1)
        with pytest.raises(ValueError):
            DrivenPendulum(g=1.0, epsilon=0.1, omega=0.0)


class TestMomentumFromEnergy:
    def test_at_turning_point(self):
        # cos(pi/2) is zero only to float rounding, so p is ~1e-8, not 0
        assert abs(PEND.momentum_from_energy(math.pi / 2 + 0j, 0.0)) < 1e-7

    def test_at_origin(self):
        p = PEND.momentum_from_energy(0j, 0.0)
        assert abs(p - math.sqrt(2.0)) < 1e-15

    def test_driven_start_is_imaginary(self):
        p = DRIVEN.momentum_from_energy(math.pi / 2 + 0.1, 0.0)
        want = 1j * math.sqrt(2.0 * math.sin(0.1))
        assert abs(p - want) < 1e-15
        assert abs(DRIVEN.energy(PhaseState(math.pi / 2 + 0.1, p))) < 1e-15

    def test_branch_sign(self):
        plus = PEND.momentum_from_energy(0.3j, 0.0, branch=1)
        minus = PEND.momentum_from_energy(0.3j, 0.0, branch=-1)
        assert plus == -minus

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            PEND.momentum_from_energy(0.3j, 0.0, branch=2)

    @settings(max_examples=200)
    @given(model=all_models, x=finite_complex, p=finite_complex)
    def test_roundtrip(self, model, x, p):
        e = model.energy(PhaseState(x, p))
        q = model.momentum_from_energy(x, e)
        # q is determined up to sign; comparing squares sidesteps the
        # square root's precision loss near turning points
        scale = max(1.0, abs(e), abs(model.potential(x)), abs(p) ** 2)
        assert abs(q * q - p * p) <= 1e-12 * scale


class TestFieldStructure:
    @settings(max_examples=200)
    @given(model=all_models, x=finite_complex, p=finite_complex)
    def test_energy_is_invariant_along_field(self, model, x, p):
        # dE/dt = Re and Im parts of (dV/dx) dx + p dp evaluated on the flow
        dx, dp = model.field(0.0, x, p)
        de = model.gradient(x) * dx + p * dp
        scale = max(1.0, abs(model.gradient(x)) * abs(dx), abs(p) * abs(dp))
        assert abs(de) <= 1e-12 * scale

    @settings(max_examples=200)
    @given(x=finite_complex, p=finite_complex)
    def test_pt_maps_real_g_field(self, x, p):
        # if (dx, dp) is the field at (x, p), the field at (-x*, p*) is
        # (dx*, -dp*): solutions map to time-reversed solutions
        dx, dp = PEND.field(0.0, x, p)
        mdx, mdp = PEND.field(0.0, -x.conjugate(), p.conjugate())
        assert abs(mdx - dx.conjugate()) <= 1e-13 * max(1.0, abs(dx))
        assert abs(mdp + dp.conjugate()) <= 1e-13 * max(1.0, abs(dp))

    @settings(max_examples=200)
    @given(x=finite_complex, p=finite_complex)
    def test_pt_maps_imaginary_g_field(self, x, p):
        model = Pendulum(g=1j)
        dx, dp = model.field(0.0, x, p)
        mdx, mdp = model.field(0.0, math.pi - x.conjugate(), p.conjugate())
        assert abs(mdx - dx.conjugate()) <= 1e-13 * max(1.0, abs(dx))
        assert abs(mdp + dp.conjugate()) <= 1e-12 * max(1.0, abs(dp))


class TestReflectionMaps:
    def test_real_g(self):
        assert PEND.pt_reflection(0.3 + 0.4j) == -(0.3 - 0.4j)

    def test_imaginary_g(self):
        model = Pendulum(g=1j)
        assert model.pt_reflection(0.3 + 0.4j) == math.pi - (0.3 - 0.4j)

    def test_generic_complex_g_has_no_map(self):
        with pytest.raises(ValueError):
            Pendulum(g=1 + 1j).pt_reflection(0.3j)


class TestCellIndex:
    @pytest.mark.parametrize(
        "x,k",
        [(0j, 0), (3.0 + 0j, 0), (3.3 + 0j, 1), (-3.3 + 0j, -1), (2 * math.pi + 0j, 1), (-9.0 + 5j, -1)],
    )
    def test_values(self, x, k):
        assert cell_index(x) == k
