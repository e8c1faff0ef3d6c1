"""Turning points and quadrature as one library operation per call.

For the built-in models, ``turning_points``, ``refine_root``,
``escape_time``, ``escape_time_real_form`` and ``contour_integral`` each
make one call of the compiled library (``_dopri5.operation``).  These
tests check, against the Python path, which stays the reference:

- the roots, their order and count, and every integral bit for bit,
  with g an int, a float or a complex with signed zeros, roots in other
  2 pi cells, harmonic and cubic energies, windows with a root on an
  edge and roots closer than the merge distance;
- the imaginary cubic's closed-form seeds, where the sign of a zero in
  -iE picks the conjugate seed set;
- that every typed error keeps its type and message, and the warning and
  the debug log read as before, the library handing the call back, also
  from inside an integral: the panel budget, the resolution limit, a
  node on a root and a loop whose guide does not close;
- that a benchmark operation is one library call, and a ``turning`` one
  evaluates no Python potential, and that each entry point on the
  imaginary cubic is one library call;
- that rebinding any of the functions the operations mirror, as the
  benchmark's tracer does, sends the whole call down the Python path.

The Python path is forced by rebinding ``quadrature._panel`` and
``turning.refine_root`` to wrappers, as the tracer rebinds them.
"""
import cmath
import contextlib
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexpendulum import (
    BranchInconsistency,
    DomainError,
    DrivenPendulum,
    Harmonic,
    ImaginaryCubic,
    PathThroughSingularity,
    Pendulum,
    ToleranceNotMet,
    _dopri5,
    contour_integral,
    escape_time,
    escape_time_real_form,
    period_contour,
    quadrature,
    refine_root,
    turning,
    turning_points,
)

PI = math.pi
COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)

pytestmark = pytest.mark.skipif(_dopri5.model_params(Pendulum(g=1.0)) is None, reason="no compiled library here")


@contextlib.contextmanager
def python_path():
    """Every call, and every call inside one, on the Python path."""
    panel, refine = quadrature._panel, turning.refine_root
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrature, "_panel", lambda f, a, b: panel(f, a, b))
        m.setattr(turning, "refine_root", lambda *args: refine(*args))
        yield


@contextlib.contextmanager
def operations():
    """The operation code of each library operation made, and whether the
    library ran it (True) or handed it back (False)."""
    made = []
    operation = _dopri5.operation

    def spy(model, call, nodes=None):
        result = operation(model, call, nodes)
        made.append((call[0], result is not None))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_dopri5, "operation", spy)
        yield made


class Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append((record.name, record.levelname, record.getMessage()))


def outcome(call):
    """What a call gives, bit for bit: its value, or its error's type and
    message, with every log record of the package either way."""
    records = Records()
    logger = logging.getLogger("complexpendulum")
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    try:
        value = call()
    except (ValueError, ArithmeticError, RuntimeError, turning.NonConvergence) as exc:
        value = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
    return bits(value), records.lines


def bits(value):
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, turning.TurningPoint):
        return bits(value.x0), value.lattice_index, value.branch_sign
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


def on_both_paths(call):
    """The outcome of a call on the library's path, checked to be the
    Python path's, with the library operations it made."""
    with operations() as made:
        fast = outcome(call)
    with python_path():
        assert outcome(call) == fast
    return fast, made


parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.2, 2.0), st.floats(-2.0, -0.2))
field_strengths = st.one_of(
    st.sampled_from([1, 2, -1]),
    st.floats(0.2, 2.0),
    st.floats(-2.0, -0.2),
    st.builds(complex, parts, parts).filter(lambda g: g != 0.0),
)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["pendulum", "pendulum", "driven", "harmonic", "cubic"]))
    if kind == "harmonic":
        return Harmonic()
    if kind == "cubic":
        return ImaginaryCubic()
    g = draw(field_strengths)
    return Pendulum(g=g) if kind == "pendulum" else DrivenPendulum(g=g)


@st.composite
def energies(draw, model):
    """A complex energy; some next to a double (or the cubic's triple)
    root, where two roots lie within the merge distance of each other."""
    if draw(st.integers(0, 4)) == 0:
        tiny = draw(st.sampled_from([1e-20, -1e-20, 1e-19]))
        if isinstance(model, Harmonic):
            return complex(tiny, draw(st.sampled_from([0.0, -0.0, tiny])))
        if isinstance(model, ImaginaryCubic):
            return complex(draw(st.sampled_from([0.0, -0.0, tiny])), tiny * 1e-10)
        return -complex(model.g) * complex(1.0, tiny)
    re = st.floats(-3.0, 3.0)
    if isinstance(model, ImaginaryCubic):
        re |= st.sampled_from([0.0, -0.0])  # -iE on the real axis
    return complex(draw(re), draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))))


@st.composite
def searches(draw):
    """(model, energy, window); half the pendulum windows have an edge on
    a closed-form root's coordinate."""
    model = draw(models())
    energy = draw(energies(model))
    window = [draw(st.floats(-12.0, 12.0)), 0.0, draw(st.floats(-4.0, 4.0)), 0.0]
    window[1] = window[0] + draw(st.floats(0.1, 14.0))
    window[3] = window[2] + draw(st.floats(0.1, 8.0))
    if isinstance(model, Pendulum) and draw(st.booleans()):
        alpha = cmath.acos(-energy / model.g)
        root = draw(st.sampled_from([1.0, -1.0])) * alpha + 2.0 * PI * draw(st.integers(-2, 2))
        edge = draw(st.integers(0, 3))
        at = root.real if edge < 2 else root.imag
        span = window[edge ^ 1] - window[edge]
        window[edge], window[edge ^ 1] = at, at + span
    return model, energy, tuple(window)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(searches())
def test_turning_points_match_the_python_search(case):
    model, energy, window = case
    on_both_paths(lambda: turning_points(model, energy, window))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(models(), st.data())
def test_refine_root_matches_the_python_polish(model, data):
    energy = data.draw(energies(model))
    seed = complex(data.draw(st.floats(-12.0, 12.0)), data.draw(st.floats(-3.0, 3.0)))
    on_both_paths(lambda: refine_root(model, energy, seed))


# Energies that pin the cubic's seeds, -iE's cmath.log mirrored in the
# library: on the imaginary axis -iE is real with a signed zero imaginary
# part, so atan2 gives +pi or -pi and picks one of two conjugate seed sets
# (-1j * E and E / 1j part on many of these); |E| inside [0.71, 1.73],
# where c_log takes log1p (three of these polish to other roots from
# log(hypot)'s seeds), and outside it; E = 0, whose one seed is 0j; and
# real energies with each sign of a zero imaginary part.
CUBIC_ENERGIES = [
    complex(0.0, 4.582214023841306),
    complex(-0.0, 4.582214023841306),
    complex(0.0, -4.397975275541559),
    complex(-0.0, -4.397975275541559),
    complex(0.0, 1.2),
    complex(0.0, -1.2),
    complex(-0.0, -1.2),
    complex(0.0, 1.0),
    complex(0.0, -0.75),
    complex(0.0, -0.3),
    complex(0.0, 2.5),
    complex(-0.033, 0.91),
    complex(0.743, -0.03),
    complex(0.433, -0.676),
    complex(0.0, 0.0),
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    complex(0.5, 0.0),
    complex(0.5, -0.0),
    complex(-0.5, 0.0),
    complex(-1.2, -0.0),
    complex(3.0, -0.0),
]


@pytest.mark.parametrize("energy", CUBIC_ENERGIES, ids=repr)
def test_cubic_roots_follow_the_sign_of_a_zero(energy):
    model = ImaginaryCubic()
    calls = [
        (lambda: turning_points(model, energy, (-3.0, 3.0, -3.0, 3.0)), _dopri5.OP_TURNING),
        (lambda: refine_root(model, energy, 1.0 - 0.5j), _dopri5.OP_REFINE),
    ]
    for call, op in calls:
        _, made = on_both_paths(call)
        assert made == [(op, True)]


@pytest.mark.parametrize("energy", [complex(0.0, 1e-320), complex(0.0, 5e307)], ids=["subnormal", "huge"])
def test_a_cubic_energy_cmath_log_rescales_is_handed_back(energy):
    # -iE with both parts below DBL_MIN, or one above DBL_MAX / 4
    _, made = on_both_paths(lambda: turning_points(ImaginaryCubic(), energy, (-3.0, 3.0, -3.0, 3.0)))
    assert made == [(_dopri5.OP_TURNING, False)]


def escape_family(model, c):
    """(energy, [root, another root]) where the first root's upward
    vertical ray is a genuine escape ray, a real one of the real-form
    integrand: V = |g| cosh y along Re x = pi (g > 0) or 0 (g < 0) for
    real g, V = |g| sinh y along Re x = 3 pi/2 or pi/2 for imaginary g,
    V = y^3 along Re x = 0 for the cubic; None for other models."""
    if isinstance(model, ImaginaryCubic):
        return c**3, [complex(0.0, c), c * cmath.exp(-1j * PI / 6.0)]
    if not isinstance(model, Pendulum):
        return None
    g = complex(model.g)
    if g.imag == 0.0:
        energy, root = abs(g.real) * math.cosh(c), complex(PI if g.real > 0.0 else 0.0, c)
    elif g.real == 0.0:
        energy, root = abs(g.imag) * math.sinh(c), complex(1.5 * PI if g.imag > 0.0 else 0.5 * PI, c)
    else:
        return None
    return energy, [root, root.conjugate()]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(models(), st.data())
def test_integrals_match_the_python_path(model, data):
    # roots of the escape family two times in three, or else roots of a
    # window around the origin;
    # on the pendulum, moved to another cell of the lattice one time in three
    family = escape_family(model, data.draw(st.floats(0.3, 2.0)))
    if family is not None and data.draw(st.integers(0, 2)) > 0:
        energy, (first, second) = family
    else:
        energy = data.draw(energies(model))
        roots = [tp.x0 for tp in turning_points(model, energy, (-8.0, 8.0, -3.0, 3.0))]
        if len(roots) < 2:
            roots += [complex(data.draw(st.floats(-3.0, 3.0)), 1.0)] * 2
        first, second = data.draw(st.permutations(roots))[:2]
    if isinstance(model, Pendulum) and data.draw(st.integers(0, 2)) == 0:
        k = data.draw(st.integers(-200, 200))
        first, second = first + 2.0 * PI * k, second + 2.0 * PI * k
    tol = data.draw(st.sampled_from([1e-10, 1e-8, 1e-12]))
    which = data.draw(st.sampled_from(["escape", "real_form", "period", "contour"]))
    if which in ("escape", "real_form"):
        route = escape_time if which == "escape" else escape_time_real_form
        cutoff = data.draw(st.sampled_from([60.0, 20.0, 7]))
        direction = data.draw(st.sampled_from([None, 1, -1]))
        on_both_paths(lambda: route(model, energy, first, cutoff, tol=tol, direction=direction))
    else:
        route = period_contour if which == "period" else contour_integral
        offset = data.draw(st.sampled_from([0.5, 0.2, 2.0, 1]))
        on_both_paths(lambda: route(model, energy, [first, second], offset, tol=tol))


def residue_pair():
    """At a complex energy the first pair of this window is no real orbit:
    the loop closes, but the integral keeps an imaginary part."""
    return [tp.x0 for tp in turning_points(Pendulum(g=1.0), 0.5 + 0.5j, (-2.5, 2.5, -2.0, 2.0))][:2]


def ray_past_a_root():
    """A ray that passes 0.024 from another root: the guide refines to
    1944 cells, and the integral keeps an imaginary residue."""
    model, energy = Pendulum(g=0.6 + 0.8j), -0.753 - 0.989j
    roots = turning_points(model, energy, (-1.0, 1.0, -1.0, 1.0))
    root = min(roots, key=lambda tp: abs(tp.x0 - (-0.01219 - 0.68387j)))
    return escape_time(model, energy, root, direction=1)


# 2^-32 below the harmonic root 1 at E = 1/2: a root by the check's
# 1e-8, whose ray up passes through the root itself, 1e-9 or less from
# its start, where the clearance does not look
BELOW_ONE = 1.0 - 2.0**-32 * 1j
# the cubic's roots at E = 1, e^(-5i pi/6) and e^(-i pi/6)
CUBIC_PAIR = (cmath.exp(-5j * PI / 6.0), cmath.exp(-1j * PI / 6.0))

# calls that end in each typed error: (call, error type, a piece of its
# message, the library operation made and whether the library ran it);
# the library hands back each call on which Python raises, but runs those
# that Python rejects only once it has the integral
ERRORS = [
    (lambda: escape_time(Pendulum(g=1.0), COSH1, PI + 1.1j), ValueError, "not a turning point",
     (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time_real_form(Pendulum(g=1.0), COSH1, 1.0 + 1j), ValueError, "not a turning point",
     (_dopri5.OP_REAL_FORM, False)),
    (lambda: period_contour(Pendulum(g=1.0), 0.3, (0.0, PI / 2)), ValueError, "not a turning point",
     (_dopri5.OP_CONTOUR, False)),
    (lambda: escape_time(ImaginaryCubic(), 1.0, 1.1j), ValueError, "not a turning point", (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time(Pendulum(g=1.0), COSH1, PI - 1j, direction=1), PathThroughSingularity, "escape ray",
     (_dopri5.OP_ESCAPE, False)),
    (lambda: period_contour(Pendulum(g=1.0), COSH1, (PI - 1j, PI + 1j), 6.5), PathThroughSingularity,
     "period contour", (_dopri5.OP_CONTOUR, False)),
    (lambda: period_contour(ImaginaryCubic(), 1.0, CUBIC_PAIR, 1.6), PathThroughSingularity, "period contour",
     (_dopri5.OP_CONTOUR, False)),
    (lambda: period_contour(Pendulum(g=1.0), 0.5 + 0.5j, residue_pair()), BranchInconsistency, "imaginary residue",
     (_dopri5.OP_CONTOUR, True)),
    (ray_past_a_root, BranchInconsistency, "imaginary residue -7.918e-01", (_dopri5.OP_ESCAPE, True)),
    # a loop around one root: the other end is no branch point, but a root
    # by the check, 1e-9 from V = E
    (lambda: contour_integral(Harmonic(), 1e-9, (0j, math.sqrt(2e-9)), 1e-5), BranchInconsistency,
     "does not close", (_dopri5.OP_CONTOUR, False)),
    (lambda: contour_integral(ImaginaryCubic(), 1e-9, (0j, 1e-3j), 1e-4), BranchInconsistency, "does not close",
     (_dopri5.OP_CONTOUR, False)),
    (lambda: escape_time(Pendulum(g=1j), 1j, PI + 0j), DomainError, "degenerate", (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time_real_form(Harmonic(), 0.5, 1.0), DomainError, "not an escape ray",
     (_dopri5.OP_REAL_FORM, False)),
    # off the escape ray V - E is complex
    (lambda: escape_time_real_form(Pendulum(g=1.0), cmath.cos(0.2 + 1j), PI + 0.2 + 1j), DomainError, "not real",
     (_dopri5.OP_REAL_FORM, False)),
    (lambda: escape_time(Pendulum(g=1.0), COSH1, PI + 1j, tol=1e-300), ToleranceNotMet, "after 4000 panels",
     (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, tol=1e-300), ToleranceNotMet, "rounding floor",
     (_dopri5.OP_REAL_FORM, False)),
    # a node so near the root that V - E is lost in the rounding of V and E
    (lambda: escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, tol=1e-14), ToleranceNotMet, "rounding floor",
     (_dopri5.OP_REAL_FORM, False)),
    (lambda: escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, tol=1e-16), ToleranceNotMet, "rounding floor",
     (_dopri5.OP_REAL_FORM, False)),
    (lambda: contour_integral(Pendulum(g=1.0), -COSH1, (-1j, 1j), 2.0, tol=1e-300), ToleranceNotMet,
     "after 4000 panels", (_dopri5.OP_CONTOUR, False)),
    (lambda: contour_integral(ImaginaryCubic(), 1.0, CUBIC_PAIR, tol=1e-300), ToleranceNotMet, "after 4000 panels",
     (_dopri5.OP_CONTOUR, False)),
    # the root 1 on the ray: an inverse square root singularity at u = 2^-16
    (lambda: escape_time(Harmonic(), 0.5, BELOW_ONE, direction=1), ToleranceNotMet, "at resolution limit",
     (_dopri5.OP_ESCAPE, False)),
    # the midpoint of the first guide cell, u = 2^-16, is the root 1: Python
    # divides by a zero root
    (lambda: escape_time(Harmonic(), 0.5, BELOW_ONE, 2.0**-24, direction=1), ZeroDivisionError, "division by zero",
     (_dopri5.OP_ESCAPE, False)),
    # nodes past |Im x| = 710.5, where cmath.cos overflows
    (lambda: escape_time(Pendulum(g=1j), SINH1, 0.5 * PI - 1j, 720.0), OverflowError, "math range error",
     (_dopri5.OP_ESCAPE, False)),
    (lambda: refine_root(Harmonic(), 1.0, 0j), turning.NonConvergence, "derivative vanished",
     (_dopri5.OP_REFINE, False)),
    (lambda: refine_root(ImaginaryCubic(), 1.0, 0j), turning.NonConvergence, "derivative vanished",
     (_dopri5.OP_REFINE, False)),
    (lambda: turning_points(Pendulum(g=1.0), 1.0, (-1e12, 1e12, -2.0, 2.0)), ValueError, "window needs",
     (_dopri5.OP_TURNING, False)),
]


@pytest.mark.parametrize("call,error,message,made_by", ERRORS)
def test_each_error_keeps_its_type_and_message(call, error, message, made_by):
    """The library hands each of these back, and Python raises; an escape
    time or a period whose integral keeps an imaginary residue is computed
    by the library and rejected in Python, as on the Python path."""
    ((name, text), _), made = on_both_paths(call)
    assert name == error.__name__ and message in text
    assert made_by in made


def corner_stadium():
    """(energy, pair, offset) of a stadium around the pendulum's roots -a
    and a whose closing corner passes 1e-2 from the root a - 2 pi, just
    outside it: the guide's last value and its seed are apart."""
    a = PI * math.cos(0.5) * cmath.exp(-0.5j)
    return -cmath.cos(a), (-a, a), 2.0 * PI * math.sin(0.5) - 1e-2


FAR = 2.0 * PI * 10**15  # a root by the check's rounding: cell 10^15, moved onto V' = 0

# calls that reach the library's rarer paths: (call, the library
# operation made and whether the library ran it)
RARE = [
    (lambda: contour_integral(Pendulum(g=1.0), *corner_stadium()), (_dopri5.OP_CONTOUR, True)),
    # the pair in reverse (Re, Im) order
    (lambda: period_contour(Harmonic(), 0.5, (1.0, -1.0)), (_dopri5.OP_CONTOUR, True)),
    # |V'| at the seed past the float range; |V - E| past it
    (lambda: refine_root(Pendulum(g=1e308), 0.0, complex(PI / 2, 1.2)), (_dopri5.OP_REFINE, False)),
    (lambda: refine_root(Pendulum(g=1e308), 0.0, 1 + 2j), (_dopri5.OP_REFINE, False)),
    (lambda: refine_root(Pendulum(g=1.0), complex(1.7e308, 1.7e308), 1 + 1j), (_dopri5.OP_REFINE, False)),
    # -E/g past the range of cmath.acos's mirror
    (lambda: turning_points(Pendulum(g=1e-300), 1e10, (-7.0, 7.0, -1.0, 1.0)), (_dopri5.OP_TURNING, False)),
    # near 1e9 both seeds of a cell round to one double: a tie in the sort
    (lambda: turning_points(Pendulum(g=1.0), -(1.0 - 2.0**-53), (1e9, 1e9 + 10.0, -1.0, 1.0)), (_dopri5.OP_TURNING, True)),
    # a root past cmath.cos's switch; a ray shorter than its start's rounding
    (lambda: escape_time(Pendulum(g=1.0), COSH1, PI + 710j), (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time(Harmonic(), 0.5, BELOW_ONE, 1e-30, direction=1), (_dopri5.OP_ESCAPE, False)),
    # a root 2^52 cells out, and one whose move to cell 0 lands on V' = 0
    (lambda: escape_time(Pendulum(g=1.0), COSH1, 3e16 + 1j), (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time(Pendulum(g=1.0), -math.cos(FAR), complex(FAR, 0.0)), (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time(Pendulum(g=1.0), COSH1, PI + 1j, tol=0.0), (_dopri5.OP_ESCAPE, False)),
    (lambda: escape_time_real_form(Pendulum(g=1.0), COSH1, PI + 1j, 720.0), (_dopri5.OP_REAL_FORM, False)),
    (lambda: contour_integral(Harmonic(), 0.5, (1.0, 1.0)), (_dopri5.OP_CONTOUR, False)),
]


@pytest.mark.parametrize("call,made_by", RARE)
def test_rare_paths_match_the_python_path(call, made_by):
    _, made = on_both_paths(call)
    assert made_by in made


def test_a_ray_past_the_cosh_switch_is_handed_back():
    # nodes past |Im x| = 708.4, where cmath.cos takes its other formula
    (value, _), made = on_both_paths(lambda: escape_time(Pendulum(g=1.0), COSH1, PI + 1j, 709.5))
    assert value == (1.9753644322888315).hex()
    assert made[0] == (_dopri5.OP_ESCAPE, False)


def test_the_unconverged_seed_warning_reads_as_before(monkeypatch):
    # with no Newton step allowed, two of these six seeds stop short of a
    # residual target of 1e-30: the library hands the search back
    monkeypatch.setattr(turning, "_MAX_ITER", 0)
    model, energy = Pendulum(g=0.6 + 0.8j), -0.02103806404302988 - 2.31485612584794j
    (value, lines), made = on_both_paths(lambda: turning_points(model, energy, (-7.0, 7.0, -4.0, 4.0), residual_tol=1e-30))
    assert lines == [("complexpendulum.turning", "WARNING", "turning_points: 2 of 6 seeds did not converge")]
    assert made == [(_dopri5.OP_TURNING, False)]


def test_the_guide_refinement_is_logged_by_the_library_operation():
    (value, lines), made = on_both_paths(lambda: period_contour(Pendulum(g=1.0), -COSH1, (-1j, 1j), 2.0))
    assert value == (5.911611295076775).hex()
    assert [line[2] for line in lines] == [
        "branch guide: piece 1 refined to 24 cells",
        "branch guide: piece 3 refined to 24 cells",
    ]
    assert made == [(_dopri5.OP_CONTOUR, True)]


def test_a_guide_refined_to_its_ceiling_is_used_as_it_stands():
    # the stadium's upper edge passes 1e-4 below the cubic's third root i
    call = lambda: contour_integral(ImaginaryCubic(), 1.0, CUBIC_PAIR, 1.5 - 1e-4)
    (value, lines), made = on_both_paths(call)
    assert value == ((3.4346306845088206).hex(), (5.551115123125783e-17).hex())
    assert [line[2] for line in lines] == [f"branch guide: piece 2 refined to {quadrature._GUIDE_MAX_CELLS} cells"]
    assert made == [(_dopri5.OP_CONTOUR, True)]


class CountingLibrary:
    """The library, counting the calls of its entry points."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = []

    def __getattr__(self, name):
        entry = getattr(self.lib, name)

        def call(*args):
            self.calls.append(name)
            return entry(*args)

        return call


def benchmark_operations():
    """One operation of each kind the benchmark's ``quadrature`` workload
    runs, with g = 1.0 and g = 1j."""
    alpha = math.acos(-0.3)
    for g, energy, x0 in ((1.0, COSH1, PI + 1j), (1j, SINH1, 0.5 * PI - 1j)):
        yield "escape", lambda g=g, e=energy, x=x0: escape_time(Pendulum(g=g), e, x)
        yield "real_form", lambda g=g, e=energy, x=x0: escape_time_real_form(Pendulum(g=g), e, x)
        yield "turning", lambda g=g: turning_points(Pendulum(g=g), 0.4 - 1.2j, (-7.0, 7.0, -4.0, 4.0))
    yield "period", lambda: period_contour(Pendulum(g=1.0), 0.3, (-alpha, alpha))


@pytest.mark.parametrize("kind,call", list(benchmark_operations()))
def test_each_benchmark_operation_is_one_library_call(monkeypatch, kind, call):
    library = CountingLibrary(_dopri5._library())
    potentials = []
    potential = Pendulum.potential

    def counted(self, x):
        potentials.append(x)
        return potential(self, x)

    monkeypatch.setattr(_dopri5, "_library", lambda: library)
    monkeypatch.setattr(Pendulum, "potential", counted)
    call()
    assert library.calls == ["quad_op"]
    if kind == "turning":
        assert potentials == []


def cubic_calls():
    """A call of each entry point on the imaginary cubic, whose roots
    x^3 = -i E lie at i, e^(-i pi/6) and e^(-5i pi/6) for E = 1."""
    model, root = ImaginaryCubic(), cmath.exp(-1j * PI / 6.0)
    yield lambda: turning_points(model, 1.0, (-2.0, 2.0, -2.0, 2.0))
    yield lambda: refine_root(model, 1.0, 0.9 - 0.4j)
    yield lambda: escape_time(model, 1.0, 1j)
    yield lambda: escape_time_real_form(model, 1.0, 1j)
    yield lambda: contour_integral(model, 1.0, (root, -root.conjugate()))


@pytest.mark.parametrize("call", list(cubic_calls()))
def test_each_cubic_entry_point_is_one_library_call(monkeypatch, call):
    """The library runs each entry point on the cubic whole, in one
    ``quad_op`` call that evaluates no Python potential, as the Python
    path computes it."""
    library = CountingLibrary(_dopri5._library())
    potentials = []
    potential = ImaginaryCubic.potential

    def counted(self, x):
        potentials.append(x)
        return potential(self, x)

    monkeypatch.setattr(_dopri5, "_library", lambda: library)
    monkeypatch.setattr(ImaginaryCubic, "potential", counted)
    with operations() as made:
        fast = outcome(call)
    assert library.calls == ["quad_op"] and potentials == []
    assert len(made) == 1 and made[0][1]
    with python_path():
        assert outcome(call) == fast


@pytest.mark.parametrize(
    "module,name",
    [
        (quadrature, "adaptive_quad"),
        (quadrature, "_panel"),
        (quadrature, "turning_points"),
        (quadrature, "refine_root"),
        (turning, "turning_points"),
        (turning, "refine_root"),
    ],
)
def test_a_rebound_function_sends_the_call_down_the_python_path(monkeypatch, module, name):
    calls = [call for _, call in benchmark_operations()]
    want = [bits(call()) for call in calls]
    function = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: function(*args, **kwargs))
    with operations() as made:
        assert [bits(call()) for call in calls] == want
    mirrored = {quadrature: {_dopri5.OP_ESCAPE, _dopri5.OP_REAL_FORM, _dopri5.OP_CONTOUR}}
    mirrored[turning] = {_dopri5.OP_TURNING, _dopri5.OP_REFINE}
    assert not [op for op, _ in made if op in mirrored[module]]


def test_more_roots_than_a_reused_buffer_holds():
    # 1592 roots: the library reports the count and is called again
    window = (-2500.0, 2500.0, -2.0, 2.0)
    (value, _), made = on_both_paths(lambda: turning_points(Pendulum(g=1.0), 0.3, window))
    assert len(value) == 1592 > _dopri5._OP_RESULTS // 2
    assert made == [(_dopri5.OP_TURNING, True)]
