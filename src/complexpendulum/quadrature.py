"""Complex-path quadrature: transit times, closed-orbit periods, elliptic K.

The workhorse is a globally adaptive scheme that halves the panel with
the largest error estimate first.  A panel's value is its 31-point
Gauss-Legendre sum and its error estimate the distance to the 15-point
sum.  The two rules are not nested: they share only the midpoint, the
node 0.0, so a panel costs 45 integrand evaluations, or 46 in ``_panel``,
which evaluates the midpoint in each rule.
Inverse-square-root endpoint singularities - the generic behaviour of
1/p(x) at a turning point - are removed exactly by the substitution
z = z0 + d u^2, after which the integrand is smooth.

Each path kind (segment, vertical ray, stadium loop) is described once,
by ``_pieces``, as pieces (kind, c0, c1, c2, phi0): ``_curve`` builds
z(s) and dz(s) from them for the Python integrands, and ``piece_at`` in
``_dopri5.c`` term for term for the compiled ones.  The ray and stadium
constants fix the quadrature nodes, and so the bits of every bundled
escape time and period.  The momentum w(z) = sqrt(2 (E - V(z))) is
double-valued: escape times (along a ray) and periods (around a loop)
both take its branch from one guide, built by ``_guide``, which
tabulates w at the parameter midpoints of each piece, continues its sign
from a principal seed, and gives each quadrature node the root nearer to
the entry of its own piece and parameter cell.  The guide is sized from
the path: each piece starts with 8 cells and triples them only where two
consecutive continued values are more than about 26 degrees apart.  It
picks signs only, so the nodes and every returned bit do not depend on
its density.  The seed fixes the sign of a raw integral: a loop is
seeded at its start point, an escape ray at its first guide entry;
escape times and periods take the absolute value.  A loop that fails to
return to the seed value raises ``BranchInconsistency``, as does an
escape or period integral whose imaginary part is not negligible next to
the integral itself.

For the built-in models, ``escape_time``, ``escape_time_real_form`` and
``contour_integral`` are each one call of the compiled library
(``_dopri5.operation``), from the root checks to the integral: the
branch guide, built by the rule of ``_guide`` from the constants below,
then ``adaptive_quad``'s whole refinement of every piece, bit for bit as
``_guide``, the Python integrands, ``adaptive_quad`` and ``_panel``
compute them, the refinement log included.  The library runs the
success path only: a call that would raise, or has a guide value or a
panel the library cannot mirror, is handed back whole, and the Python
path, which stays the reference, computes it: the same bits, or the
same error.
"""
from __future__ import annotations

import cmath
import heapq
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _dopri5
from .models import HamiltonianModel, Pendulum
from .turning import _TWO_PI, TurningPoint, _converged, _search_call, refine_root, turning_points

__all__ = [
    "DomainError",
    "PathThroughSingularity",
    "BranchInconsistency",
    "ToleranceNotMet",
    "Segment",
    "VerticalRay",
    "TurningPointContour",
    "adaptive_quad",
    "path_integral",
    "escape_time",
    "escape_time_real_form",
    "period_contour",
    "contour_integral",
    "elliptic_K",
    "agm",
]

logger = logging.getLogger(__name__)

_EPS = sys.float_info.epsilon


class DomainError(ValueError):
    """Input outside the mathematical domain of the requested quantity."""


class PathThroughSingularity(ValueError):
    """An integration path passes too close to a root of E - V."""


class BranchInconsistency(ArithmeticError):
    """Square-root branch tracking failed (loop did not close, or a
    period integral came out with a non-negligible imaginary part)."""


class ToleranceNotMet(RuntimeError):
    """The adaptive quadrature exhausted its panel budget."""


@dataclass(frozen=True)
class Segment:
    """Straight path from z_start to z_end.

    Declared inverse-square-root endpoint singularities are removed by
    the u^2 substitution; undeclared singularities make the adaptive
    refinement fail loudly instead of silently losing accuracy.
    """

    z_start: complex
    z_end: complex
    sqrt_singular_start: bool = False
    sqrt_singular_end: bool = False


@dataclass(frozen=True)
class VerticalRay:
    """Vertical path from z_start to z_start + 1j*direction*cutoff, with
    an inverse-square-root singularity at the start (a turning point)."""

    z_start: complex
    direction: int = 1
    cutoff: float = 60.0

    def __post_init__(self) -> None:
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValueError("cutoff must be positive and finite")


@dataclass(frozen=True)
class TurningPointContour:
    """Stadium-shaped loop around the segment joining two roots: straight
    edges offset by +/- offset on either side and semicircular caps,
    traversed counterclockwise."""

    z_left: complex
    z_right: complex
    offset: float = 0.5

    def __post_init__(self) -> None:
        if not (self.offset > 0.0 and math.isfinite(self.offset)):
            raise ValueError("offset must be positive and finite")


_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)
_G31_X, _G31_W = np.polynomial.legendre.leggauss(31)
_G15 = list(zip(_G15_X.tolist(), _G15_W.tolist()))
_G31 = list(zip(_G31_X.tolist(), _G31_W.tolist()))
_NODES = np.array(_G15 + _G31).tobytes()  # the (xi, wi) pairs as the compiled panels read them
_MAX_PANELS = 4000  # adaptive_quad's panel budget

# branch guide: each piece starts with this many midpoint cells and
# triples them, up to the ceiling, while two consecutive continued values
# of w are more than acos(_GUIDE_COS), about 26 degrees, apart; the
# library's guide reads them at each call
_GUIDE_CELLS = 8
_GUIDE_MAX_CELLS = 8 * 3**6
_GUIDE_COS = 0.9


def _panel(f, a, b):
    """(G31 value, |G31 - G15|) over [a, b].  ``quad_panel`` in
    ``_dopri5.c`` mirrors it for the compiled integrals."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    i15 = 0.0j
    for xi, wi in _G15:
        i15 += wi * f(mid + half * xi)
    i31 = 0.0j
    for xi, wi in _G31:
        i31 += wi * f(mid + half * xi)
    i15 *= half
    i31 *= half
    err = abs(i31 - i15)
    if not (math.isfinite(i31.real) and math.isfinite(i31.imag) and math.isfinite(err)):
        raise ToleranceNotMet(f"non-finite integrand values on [{a}, {b}]")
    return i31, err


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> complex:
    """Integrate a complex-valued f over the real interval [a, b] to the
    absolute error target ``tol``, refining the worst panel first, with
    at most ``_MAX_PANELS`` panels.  ``refine`` in ``_dopri5.c`` mirrors
    it for the compiled integrals."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if a == b:
        return 0.0j
    n0 = 8
    entries = []
    counter = 0
    total = 0.0j
    toterr = 0.0
    for i in range(n0):
        lo = a + (b - a) * i / n0
        hi = a + (b - a) * (i + 1) / n0
        val, err = _panel(f, lo, hi)
        heapq.heappush(entries, (-err, counter, lo, hi, val))
        counter += 1
        total += val
        toterr += err
    panels = n0
    while toterr > tol:
        if panels >= _MAX_PANELS:
            raise ToleranceNotMet(f"quadrature error {toterr:.3e} above target {tol:.3e} after {panels} panels")
        neg_err, _, lo, hi, val = heapq.heappop(entries)
        if hi - lo <= 32.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            # refining at float resolution while the error estimate is
            # still dominant: the integrand has structure the rule cannot
            # resolve (an undeclared singularity, typically); narrower
            # panels would make the estimates agree spuriously
            raise ToleranceNotMet(f"panel [{lo}, {hi}] at resolution limit with error {-neg_err:.3e}")
        total -= val
        toterr += neg_err  # neg_err is negative: removes this panel's error
        mid = 0.5 * (lo + hi)
        for la, lb in ((lo, mid), (mid, hi)):
            v, e = _panel(f, la, lb)
            heapq.heappush(entries, (-e, counter, la, lb, v))
            counter += 1
            total += v
            toterr += e
        panels += 1
    return total


# the functions the compiled operations mirror; with any rebound (a spy,
# a tracer's wrapper) the library cannot, and Python runs them
_MIRRORED = (adaptive_quad, _panel, turning_points, refine_root)


def _pieces(path, tol: float):
    """A path specification as pieces (piece, s0, s1, piece_tol).

    The integral of f(z) dz along the path is the sum over its pieces of
    the integral of f(z(s)) * dz(s) for s in [s0, s1], each to its own
    error target ``piece_tol``.  ``piece`` is the one description of z(s)
    and dz(s), (kind, c0, c1, c2, phi0), which ``_curve`` and ``piece_at``
    in ``_dopri5.c`` both read: a ``ray`` is c0 + c1 * s**2, an ``edge``
    c0 + c1 * s and a ``cap`` an arc from the angle phi0.  The ray and
    stadium constants fix the quadrature nodes, and with them the bits of
    every escape time and period a scenario writes: keep them character
    for character, here and in ``escape_op`` and ``contour_op`` in
    ``_dopri5.c``, which build the same ray and stadium for the library
    operations (``test_library_operations`` compares their integrals
    with this path's bit for bit).
    """
    if isinstance(path, Segment):
        z0, z1 = complex(path.z_start), complex(path.z_end)
        d = z1 - z0
        if d == 0.0:
            return []
        if path.sqrt_singular_start and path.sqrt_singular_end:
            zm = 0.5 * (z0 + z1)
            return _pieces(Segment(z0, zm, True), 0.5 * tol) + _pieces(Segment(zm, z1, False, True), 0.5 * tol)
        ptol = tol / max(1.0, abs(d))
        if path.sqrt_singular_end:
            # u^2 measured back from the end: z runs from z1 to z0, so the
            # weight is -dz/du
            return [(("ray", z1, -d, 2.0 * d, 0.0), 0.0, 1.0, ptol)]
        if path.sqrt_singular_start:
            return [(("ray", z0, d, 2.0 * d, 0.0), 0.0, 1.0, ptol)]
        return [(("edge", z0, d, 0j, 0.0), 0.0, 1.0, ptol)]
    if isinstance(path, VerticalRay):
        z0 = complex(path.z_start)
        sgn = 1.0 if path.direction >= 0 else -1.0
        umax = math.sqrt(path.cutoff)
        return [(("ray", z0, 1j * sgn, 2.0j * sgn, 0.0), 0.0, umax, tol / max(1.0, umax))]
    if isinstance(path, TurningPointContour):
        # counterclockwise, starting below the z_left -> z_right segment
        c1, c2, offset = complex(path.z_left), complex(path.z_right), path.offset
        chord = c2 - c1
        u = chord / abs(chord)
        n = 1j * u
        edge_tol = 0.25 * tol / max(1.0, abs(chord))
        cap_tol = 0.25 * tol / max(1.0, math.pi * offset)
        arm, turn = offset * u, 1j * math.pi * offset * u  # each cap's c1 and c2
        return [
            (("edge", c1 - offset * n, chord, 0j, 0.0), 0.0, 1.0, edge_tol),
            (("cap", c2, arm, turn, -0.5 * math.pi), 0.0, 1.0, cap_tol),
            (("edge", c2 + offset * n, -chord, 0j, 0.0), 0.0, 1.0, edge_tol),
            (("cap", c1, arm, turn, 0.5 * math.pi), 0.0, 1.0, cap_tol),
        ]
    raise TypeError(f"not a path specification: {path!r}")


def _curve(piece):
    """(z, dz): the functions z(s) and dz(s) of a piece of ``_pieces``,
    term for term as ``piece_at`` in ``_dopri5.c`` computes them."""
    kind, c0, c1, c2, phi0 = piece
    if kind == "ray":
        return (lambda s: c0 + c1 * (s * s)), (lambda s: c2 * s)
    if kind == "edge":
        return (lambda s: c0 + c1 * s), (lambda s: c1)
    arc = lambda s: cmath.exp(1j * (phi0 + math.pi * s))
    return (lambda s: c0 + c1 * arc(s)), (lambda s: c2 * arc(s))


def path_integral(f, path, tol: float = 1e-10) -> complex:
    """Integral of f(z) dz along a path specification."""
    total = 0.0j
    for piece, s0, s1, ptol in _pieces(path, tol):
        z, dz = _curve(piece)
        total += adaptive_quad(lambda s: f(z(s)) * dz(s), s0, s1, ptol)
    return total


def _root(model: HamiltonianModel, E: complex):
    """w(z) = sqrt(2 (E - V(z))), the principal root."""
    potential = model.potential
    return lambda z: cmath.sqrt(2.0 * (E - potential(z)))


def _near(r, ref):
    """The root, r or -r, nearer ref."""
    return -r if abs(-r - ref) < abs(r - ref) else r


def _apart(a, b):
    """Whether two consecutive guide values are more than acos(_GUIDE_COS)
    apart."""
    return (a * b.conjugate()).real < _GUIDE_COS * abs(a) * abs(b)


def _log_refined(cells):
    for i, n in enumerate(cells):
        if n > _GUIDE_CELLS:
            logger.debug("branch guide: piece %d refined to %d cells", i, n)


def _guide(model: HamiltonianModel, E: complex, pieces, closed: bool):
    """(guide, cells): the branch guide of ``_branch_integral`` along the
    pieces, the continued values of w at the midpoints of each piece's
    cells followed by the last one again, and each piece's cell count.
    ``build_guide`` in ``_dopri5.c`` builds it bit for bit for the
    compiled integrals."""
    w = _root(model, E)

    def midpoints(z, s0, s1, n, coarse):
        # the midpoints of n cells; with the values at n/3 cells, the
        # middle third of each cell is one of them
        h = (s1 - s0) / n
        if coarse is None:
            return [w(z(s0 + (j + 0.5) * h)) for j in range(n)]
        out = []
        for j, r in enumerate(coarse):
            out += (w(z(s0 + (3 * j + 0.5) * h)), r, w(z(s0 + (3 * j + 2.5) * h)))
        return out

    curves = [_curve(piece)[0] for piece, *_ in pieces]
    raw = [midpoints(z, s0, s1, _GUIDE_CELLS, None) for z, (_, s0, s1, _) in zip(curves, pieces)]
    if closed:
        seed = w(curves[0](pieces[0][1]))
    while True:
        guide = []
        coarse = set()  # pieces with two consecutive values too far apart
        prev = seed if closed else raw[0][0]
        for i, values in enumerate(raw):
            for j, r in enumerate(values):
                r = _near(r, prev)
                if _apart(r, prev):
                    coarse.update((i - 1, i) if j == 0 and i > 0 else (i,))
                guide.append(r)
                prev = r
        if closed:
            back = _near(seed, prev)
            if _apart(back, prev):
                coarse.add(len(raw) - 1)
        refine = [i for i in sorted(coarse) if len(raw[i]) < _GUIDE_MAX_CELLS]
        if not refine:
            break
        for i in refine:
            _, s0, s1, _ = pieces[i]
            raw[i] = midpoints(curves[i], s0, s1, 3 * len(raw[i]), raw[i])
    if closed and back != seed:
        raise BranchInconsistency("branch guide does not close around the contour")
    cells = [len(values) for values in raw]
    _log_refined(cells)
    guide.append(guide[-1])  # a node rounding onto a piece's end reads one entry on
    return guide, cells


def _branch_integral(model: HamiltonianModel, E: complex, pieces, closed: bool) -> complex:
    """Integral of dz / w along the pieces, with w = sqrt(2 (E - V)) kept
    on one branch by a guide.

    The guide (``_guide``) tabulates w at the midpoints of equal
    parameter cells of each piece and continues its sign value to value
    along the path.  A loop is seeded with the principal root at its
    start point, z(s0) of the first piece; an open path (an escape ray, a
    segment) with the principal root at its first guide entry.  Each
    piece starts with ``_GUIDE_CELLS`` cells; while two consecutive
    continued values (two in one piece, the last and first of adjacent
    pieces, or, on a loop, the seed and its neighbours) are more than
    about 26 degrees apart, the pieces they lie on triple their cells,
    keeping every value already computed, up to ``_GUIDE_MAX_CELLS``; at
    the ceiling the guide is used as it stands.  A loop whose
    continuation comes back onto the seed with the other sign raises
    ``BranchInconsistency``.  Each quadrature node then takes the root
    nearer to the guide entry of its own piece and parameter cell, so the
    guide picks signs only: the nodes, and the magnitude of each term,
    are those of the path.  A path with no pieces (a segment of zero
    length) gives 0j.
    """
    if not pieces:
        return 0.0j
    guide, cells = _guide(model, E, pieces, closed)
    w = _root(model, E)
    total = 0.0j
    first = 0
    for (piece, s0, s1, ptol), n in zip(pieces, cells):
        z, dz = _curve(piece)
        h = (s1 - s0) / n

        def f(s):
            return 1.0 / _near(w(z(s)), guide[first + int((s - s0) / h)]) * dz(s)

        total += adaptive_quad(f, s0, s1, ptol)
        first += n
    return total


def _as_root(model: HamiltonianModel, energy: complex, tp) -> complex:
    """The root x0 of ``tp``, checked by the rule of the root search:
    |V(x0) - E| within 1e-8 max(1, |E|), or within the rounding of V."""
    x0 = tp.x0 if isinstance(tp, TurningPoint) else complex(tp)
    f = model.potential(x0) - energy
    if not _converged(f, model.gradient(x0), x0, 1e-8 * max(1.0, abs(energy))):
        raise ValueError(f"{x0} is not a turning point at this energy (residual {abs(f):.2e})")
    return x0


_PLAIN = (int, float)  # the numbers the library operations take as given


def _point(tp):
    """The root a TurningPoint or a plain number gives, as ``_as_root``
    reads it; None for anything else, which only Python reads."""
    if isinstance(tp, TurningPoint):
        return tp.x0 if type(tp.x0) is complex else None
    return complex(tp) if type(tp) in (complex, float, int) else None


def _library_op(model, op: int, E: complex, numbers):
    """An escape or period integral in one library operation (see
    ``_dopri5.operation``): from the root checks to the integral, with
    the quadrature's rules as this module holds them at the call, and
    the guide's refinement logged as ``_guide`` logs it.  None where the
    library hands it back, which Python then computes."""
    if (adaptive_quad, _panel, turning_points, refine_root) != _MIRRORED:
        return None
    call = _search_call(op, E, (_MAX_PANELS, _GUIDE_CELLS, _GUIDE_MAX_CELLS, _GUIDE_COS, *numbers))
    result = _dopri5.operation(model, call, _NODES)
    if result is None:
        return None
    _log_refined(result[2:])
    return complex(result[0], result[1])


def _library_escape(model, op: int, energy, tp, cutoff, tol, direction):
    """An escape integral, ``escape_time``'s (``op`` OP_ESCAPE) or
    ``escape_time_real_form``'s (OP_REAL_FORM), in one library operation
    when the root, cutoff, tolerance and direction are plain numbers and
    the cutoff is valid; None otherwise."""
    E = complex(energy)
    x0 = _point(tp)
    if x0 is None or type(cutoff) not in _PLAIN or type(tol) not in _PLAIN:
        return None
    if not (direction is None or type(direction) in _PLAIN) or not (cutoff > 0.0 and math.isfinite(cutoff)):
        return None
    up = x0.imag >= 0.0 if direction is None else direction >= 0
    return _library_op(model, op, E, (x0.real, x0.imag, 1.0 if up else -1.0, cutoff, tol))


def _roots_near_segment(model, energy, a, b, pad, ends):
    """(root, distance to the segment a..b) for each root of E - V in the
    segment's bounding box widened by ``pad``, skipping the roots ``ends``."""
    window = (
        min(a.real, b.real) - pad,
        max(a.real, b.real) + pad,
        min(a.imag, b.imag) - pad,
        max(a.imag, b.imag) + pad,
    )
    chord = b - a
    L = abs(chord)
    u = chord / L
    for root in turning_points(model, energy, window):
        z = root.x0
        if any(abs(z - end) <= 1e-9 for end in ends):
            continue
        s = min(max(((z - a) / u).real, 0.0), L)
        yield z, abs(z - (a + s * u))


def _escape_ray(model, energy, tp, cutoff, direction):
    """What both escape routes share: the energy and the ray from the
    root, by default pointing away from the real axis.  A pendulum root in
    cell k != 0 is moved to cell 0, x0 - 2 pi k polished there, since V is
    2 pi periodic and cos x rounds by |x| ulp: at |Re x0| ~ 6e5 the branch
    integrand no longer tells the branches apart."""
    E = complex(energy)
    x0 = _as_root(model, E, tp)
    up = x0.imag >= 0.0 if direction is None else direction >= 0
    k = round(x0.real / _TWO_PI) if isinstance(model, Pendulum) else 0
    if k:
        x0 = refine_root(model, E, x0 - _TWO_PI * k).x0
    return E, VerticalRay(x0, 1 if up else -1, cutoff)


def escape_time(
    model: HamiltonianModel,
    energy: complex,
    tp,
    cutoff: float = 60.0,
    *,
    tol: float = 1e-10,
    direction: int | None = None,
) -> float:
    """Transit time from a turning point to |Im x| = Im(start) + cutoff
    along the vertical escape ray, by quadrature of dz / w.

    ``tp`` may be a TurningPoint or a complex root of V(x) = E; it must
    satisfy the residual check, and the ray (by default pointing away
    from the real axis) must not pass another root.  The start
    singularity of 1/w is removed by the u^2 substitution, and the branch
    of w follows a guide seeded with the principal root at the start.
    The tail beyond the default cutoff of 60 is far below the quadrature
    tolerance for the potentials here, which grow exponentially or
    polynomially along the ray.  A pendulum root in another 2 pi cell
    escapes from its image in cell 0.  For the built-in models the whole
    call is one library operation, bit for bit as the code below, which
    runs where the library hands it back.
    """
    total = _library_escape(model, _dopri5.OP_ESCAPE, energy, tp, cutoff, tol, direction)
    if total is not None:
        return _real_part(total, "escape")
    E, ray = _escape_ray(model, energy, tp, cutoff, direction)
    x0 = ray.z_start
    if abs(model.gradient(x0)) < 1e-8:
        raise DomainError("degenerate turning point: V'(x0) is (close to) zero")
    for z, d in _roots_near_segment(model, E, x0, x0 + 1j * ray.direction * ray.cutoff, 0.25, (x0,)):
        if d < 1e-6:
            raise PathThroughSingularity(f"root {z} lies on the escape ray from {x0}")
    return _real_part(_branch_integral(model, E, _pieces(ray, tol), closed=False), "escape")


def escape_time_real_form(
    model: HamiltonianModel,
    energy: complex,
    tp,
    cutoff: float = 60.0,
    *,
    tol: float = 1e-10,
    direction: int | None = None,
) -> float:
    """Escape time as a purely real integral along the ray.

    Along a genuine vertical escape ray V - E is real and positive, so
    T = integral of dv / sqrt(2 (V - E)) with no complex branch choices
    at all; the endpoint singularity is removed by v = u^2 as usual.
    This is an independent cross-check route for ``escape_time``.
    """
    total = _library_escape(model, _dopri5.OP_REAL_FORM, energy, tp, cutoff, tol, direction)
    if total is not None:
        return total.real
    E, ray = _escape_ray(model, energy, tp, cutoff, direction)
    [(piece, s0, umax, ptol)] = _pieces(ray, tol)
    z, _ = _curve(piece)

    def f(u: float) -> float:
        v = model.potential(z(u))
        q = 2.0 * (v - E)
        real = abs(q.imag) <= 1e-9 * (1.0 + abs(q))
        if real and q.real > 0.0:
            return 2.0 * u / math.sqrt(q.real)
        if abs(q) <= 8.0 * _EPS * (abs(v) + abs(E)):
            lost = f"V - E = {0.5 * q} at u = {u!r} is lost in the rounding of V and E"
            raise ToleranceNotMet(f"{lost}: tol {tol:.3e} is below the integrand's rounding floor")
        raise DomainError(f"V - E is not {'positive' if real else 'real'} along the ray; not an escape ray")

    return adaptive_quad(f, s0, umax, ptol).real


def _resolve_pair(model, energy, tp_pair):
    c1 = _as_root(model, energy, tp_pair[0])
    c2 = _as_root(model, energy, tp_pair[1])
    if abs(c2 - c1) < 1e-9:
        raise ValueError("turning points of the pair coincide")
    if (c2.real, c2.imag) < (c1.real, c1.imag):
        c1, c2 = c2, c1
    return c1, c2


def contour_integral(
    model: HamiltonianModel,
    energy: complex,
    tp_pair,
    offset: float = 0.5,
    *,
    tol: float = 1e-10,
) -> complex:
    """The raw counterclockwise contour integral of dz / w around the
    segment joining a turning-point pair; see ``period_contour``.

    Its sign is a convention: w is continued from the principal root at
    the start of the loop, the point at distance ``offset`` beside the
    first root of the pair in (Re, Im) order, to the right of the chord
    towards the second.  It does not depend on the guide's density;
    ``period_contour`` takes the absolute value.  For the built-in models
    the whole call is one library operation, bit for bit as the code
    below, which runs where the library hands it back.
    """
    E = complex(energy)
    if type(tp_pair) in (tuple, list) and len(tp_pair) >= 2 and type(offset) in _PLAIN and type(tol) in _PLAIN:
        c1, c2 = _point(tp_pair[0]), _point(tp_pair[1])
        if c1 is not None and c2 is not None and offset > 0.0 and math.isfinite(offset):
            numbers = (c1.real, c1.imag, c2.real, c2.imag, offset, tol)
            total = _library_op(model, _dopri5.OP_CONTOUR, E, numbers)
            if total is not None:
                return total
    c1, c2 = _resolve_pair(model, E, tp_pair)
    pieces = _pieces(TurningPointContour(c1, c2, offset), tol)
    for z, d in _roots_near_segment(model, E, c1, c2, offset + 0.5, (c1, c2)):
        if d <= offset + 1e-9:
            raise PathThroughSingularity(f"root {z} lies on or inside the period contour (offset {offset})")
    return _branch_integral(model, E, pieces, closed=True)


def period_contour(
    model: HamiltonianModel,
    energy: complex,
    tp_pair,
    offset: float = 0.5,
    *,
    tol: float = 1e-10,
) -> float:
    """Orbit period as the contour integral of dz / w around the branch
    cut joining a turning-point pair.

    The contour is a stadium at distance ``offset`` from the segment;
    by deformation invariance the value does not depend on the offset as
    long as no other root is enclosed (checked, raising
    ``PathThroughSingularity``).  The integral of a genuine period is
    real; an imaginary part above 1e-6 max(1, |integral|) signals
    branch-tracking failure and raises ``BranchInconsistency``.
    """
    return _real_part(contour_integral(model, energy, tp_pair, offset, tol=tol), "period")


def _real_part(total: complex, name: str) -> float:
    """|Re total| for an escape or period integral, once its imaginary
    residue is checked to be negligible on the integral's own scale:
    at most 1e-6 max(1, |total|)."""
    if abs(total.imag) > 1e-6 * max(1.0, abs(total)):
        raise BranchInconsistency(f"{name} integral has imaginary residue {total.imag:.3e}")
    return abs(total.real)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive reals."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError("agm requires positive finite arguments")
    for _ in range(200):
        if abs(a - b) <= 4.0 * _EPS * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind in the parameter
    convention, K(m) = integral_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt for
    m < 1, computed as pi / (2 agm(1, sqrt(1 - m)))."""
    m = float(m)
    if not math.isfinite(m):
        raise DomainError("m must be finite")
    if m >= 1.0:
        raise DomainError("elliptic_K requires parameter m < 1")
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))
