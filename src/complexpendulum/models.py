"""Hamiltonian families for complexified classical dynamics.

Position x and momentum p are complex numbers evolving under Hamilton's
equations

    dx/dt = p,      dp/dt = -V'(x) + F(t),

where F(t) is an optional real driving force (zero for the autonomous
kinds).  Four families are provided:

* ``Pendulum``:         V(x) = -g cos x, complex field strength g
* ``Harmonic``:         V(x) = x^2 / 2
* ``ImaginaryCubic``:   V(x) = i x^3
* ``DrivenPendulum``:   pendulum plus the force eps * sin(omega * t)

Complex trigonometric values come from ``cmath``.  Models are frozen
dataclasses; all methods are pure functions of their arguments.  The
potential is a function of x alone: the drive enters only through
``drive_force``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseState",
    "HamiltonianModel",
    "Pendulum",
    "Harmonic",
    "ImaginaryCubic",
    "DrivenPendulum",
    "cell_index",
]


def cell_index(x: complex) -> int:
    """Index of the 2*pi-wide vertical strip containing x.

    Cell k covers (2k-1)*pi <= Re x < (2k+1)*pi, so cell 0 is centred on
    the origin.
    """
    return math.floor((x.real + math.pi) / (2.0 * math.pi))


def cell_indices(x: np.ndarray) -> np.ndarray:
    """``cell_index`` of every element of a complex array, as integral
    float64 values: the same add, divide and floor, exact elementwise,
    computed in place in one float64 array."""
    k = x.real + math.pi
    np.divide(k, 2.0 * math.pi, out=k)
    return np.floor(k, out=k)


@dataclass(frozen=True)
class PhaseState:
    """A point of the complexified flow: position x, momentum p, time t."""

    x: complex
    p: complex
    t: float = 0.0


class HamiltonianModel:
    """Base class of the model families.

    Concrete kinds supply ``potential`` and ``gradient``; everything else
    (energy, the vector field ``field``, momentum reconstruction) is
    shared.  ``kind`` is a stable string tag used by configuration files.
    """

    kind: str = ""
    autonomous: bool = True

    def potential(self, x: complex) -> complex:
        """V(x)."""
        raise NotImplementedError

    def gradient(self, x: complex) -> complex:
        """V'(x)."""
        raise NotImplementedError

    def drive_force(self, t: float) -> float:
        """Real driving force on dp/dt; zero unless the model is driven."""
        return 0.0

    def field(self, t: float, x: complex, p: complex) -> tuple[complex, complex]:
        """Right-hand side (dx/dt, dp/dt) at time t."""
        return p, -self.gradient(x) + self.drive_force(t)

    def energy(self, state: PhaseState) -> complex:
        """H = p^2/2 + V(x).

        Conserved along trajectories of the autonomous kinds; for the
        driven kind this is the instantaneous undriven energy and drifts.
        """
        return 0.5 * state.p * state.p + self.potential(state.x)

    def momentum_from_energy(self, x: complex, energy: complex, branch: int = 1) -> complex:
        """Invert the energy relation: p = branch * sqrt(2 (E - V(x))).

        The square root is the principal one (branch cut along the
        negative real axis, result in the right half plane or on the
        positive imaginary axis); ``branch`` selects the sign in front.
        """
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        return branch * cmath.sqrt(2.0 * (energy - self.potential(x)))

    def pt_reflection(self, x: complex) -> complex:
        """Spatial half of the PT map: x -> -conj(x), reflection through
        the imaginary axis.  Correct whenever conj(V(-conj x)) = V(x), as
        for the harmonic and imaginary-cubic potentials; the pendulum
        overrides this with a g-dependent choice of reflection axis."""
        return -x.conjugate()


@dataclass(frozen=True)
class Pendulum(HamiltonianModel):
    """H = p^2/2 - g cos x with complex field strength g.

    Real g is the ordinary pendulum continued to complex x; purely
    imaginary g gives a PT-symmetric flow whose symmetry axis sits at
    Re x = pi/2 (mod pi).
    """

    g: complex = 1.0

    kind = "pendulum"

    def potential(self, x: complex) -> complex:
        return -self.g * cmath.cos(x)

    def gradient(self, x: complex) -> complex:
        return self.g * cmath.sin(x)

    def pt_reflection(self, x: complex) -> complex:
        """Spatial half of the PT map.

        Real g: x -> -conj(x) (reflection through the imaginary axis).
        Purely imaginary g: x -> pi - conj(x) (reflection through the
        vertical line Re x = pi/2).
        """
        if self.g.imag == 0.0 and self.g.real != 0.0:
            return -x.conjugate()
        if self.g.real == 0.0 and self.g.imag != 0.0:
            return math.pi - x.conjugate()
        raise ValueError("PT reflection is defined only for real or purely imaginary g")


@dataclass(frozen=True)
class Harmonic(HamiltonianModel):
    """H = p^2/2 + x^2/2; every complex orbit closes with period 2*pi."""

    kind = "harmonic"

    def potential(self, x: complex) -> complex:
        return 0.5 * x * x

    def gradient(self, x: complex) -> complex:
        return x


@dataclass(frozen=True)
class ImaginaryCubic(HamiltonianModel):
    """H = p^2/2 + i x^3, the PT-symmetric cubic oscillator."""

    kind = "cubic-i"

    def potential(self, x: complex) -> complex:
        return 1j * x * x * x

    def gradient(self, x: complex) -> complex:
        return 3j * x * x


@dataclass(frozen=True)
class DrivenPendulum(Pendulum):
    """Pendulum with the additive real force eps * sin(omega * t) on dp/dt.

    The drive couples as a force, not through the potential, so
    ``potential`` and ``energy`` report instantaneous undriven values
    (not conserved along driven trajectories).
    """

    epsilon: float = 0.2
    omega: float = 0.1

    kind = "driven-pendulum"
    autonomous = False

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.omega <= 0.0:
            raise ValueError("omega must be > 0")

    def drive_force(self, t: float) -> float:
        return self.epsilon * math.sin(self.omega * t)
