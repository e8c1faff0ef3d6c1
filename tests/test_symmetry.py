"""Exact symmetries of the flow, checked bit for bit.

Where V has real Taylor coefficients (the pendulum with real g, the
harmonic well, and the driven pendulum, whose force is real), V(conj x)
= conj V(x), so the flow from the conjugated start (conj x0, conj p0) is
the conjugated flow.  Where V is even (the pendulum with g = 1 or g = i,
the harmonic well), the flow from (-x0, -p0) is the negated flow.
Floating-point products, sums, quotients and the complex sine and cosine
commute with conjugation and negation exactly, and the stepper's error
norm, escape test and closure distance only read magnitudes, so both runs
take the same steps: every sample is the image of the other run's, with
no tolerance, on the compiled kernel and on the Python path alike.  The
imaginary cubic, V(x) = i x^3, has neither symmetry.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complexpendulum import (
    DrivenPendulum,
    Harmonic,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    _dopri5,
    escape_time,
    integrate,
)

CONFIG = IntegratorConfig(max_time=8.0)
STARTS = st.tuples(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False).filter(lambda x: abs(x.imag) < 3.0),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
PATHS = ["kernel", "python"]


def on_path(path, run):
    """run() as the package runs it, or with the compiled library patched
    out so that the Python loop, the reference, takes every step."""
    with pytest.MonkeyPatch.context() as m:
        if path == "python":
            m.setattr(_dopri5, "model_params", lambda model: None)
        return run()


def assert_image(traj, image, mapped):
    """``image`` is ``traj`` with every sample mapped by ``mapped``, and
    ended the same way at the same time."""
    assert np.array_equal(image.t, traj.t)
    assert np.array_equal(image.x, mapped(traj.x))
    assert np.array_equal(image.p, mapped(traj.p))
    assert (image.classification, image.termination, image.period, image.escape_time) == (
        traj.classification,
        traj.termination,
        traj.period,
        traj.escape_time,
    )


def mirrored_runs(path, model, start, mapped):
    def run():
        x0, p0 = start
        forward = integrate(model, PhaseState(x0, p0), CONFIG)
        return forward, integrate(model, PhaseState(mapped(x0), mapped(p0)), CONFIG)

    return on_path(path, run)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("model", [Pendulum(g=1.0), Harmonic(), DrivenPendulum(g=1.0, epsilon=0.2, omega=0.1)], ids=repr)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(start=STARTS)
@example(start=(math.pi + 1j, 0j))  # escapes
def test_conjugating_the_start_conjugates_every_sample(path, model, start):
    traj, image = mirrored_runs(path, model, start, np.conjugate)
    assert_image(traj, image, np.conjugate)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("model", [Pendulum(g=1.0), Pendulum(g=1j), Harmonic()], ids=repr)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(start=STARTS)
@example(start=(math.pi + 1j, 0j))  # escapes
def test_negating_the_start_negates_every_sample_of_an_even_potential(path, model, start):
    traj, image = mirrored_runs(path, model, start, np.negative)
    assert_image(traj, image, np.negative)


@pytest.mark.parametrize("path", PATHS)
def test_the_four_images_of_an_escaping_turning_point_escape_alike(path):
    """pi + i is a turning point at E = cosh 1; its conjugate, its negation
    and both at once are too.  Their runs escape at one time and their
    escape-time integrals agree, bit for bit."""
    model = Pendulum(g=1.0)
    roots = [math.pi + 1j, math.pi - 1j, -math.pi - 1j, -math.pi + 1j]

    def run():
        runs = [integrate(model, PhaseState(x0, 0j), CONFIG) for x0 in roots]
        return [traj.escape_time for traj in runs], [escape_time(model, math.cosh(1.0), x0) for x0 in roots]

    times, integrals = on_path(path, run)
    assert len(set(times)) == 1 and times[0] is not None
    assert len(set(integrals)) == 1
    assert integrals[0] == pytest.approx(1.975364432288618, rel=1e-12)
