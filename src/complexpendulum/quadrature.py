"""Complex-path quadrature: transit times, closed-orbit periods, elliptic K.

The workhorse is a globally adaptive scheme that halves the panel with
the largest error estimate first.  A panel's value is its 31-point
Gauss-Legendre sum and its error estimate the distance to the 15-point
sum.  The two rules are not nested: they share only the midpoint, so a
panel costs 46 integrand evaluations, the midpoint's twice.
Inverse-square-root endpoint singularities - the generic behaviour of
1/p(x) at a turning point - are removed exactly by the substitution
z = z0 + d u^2, after which the integrand is smooth.

Each path kind (segment, vertical ray, stadium loop) is described once,
by ``_pieces``; the ray and stadium expressions fix the quadrature nodes,
and so the bits of every bundled escape time and period, and are kept
character for character.  The momentum w(z) = sqrt(2 (E - V(z))) is
double-valued: escape times (along a ray) and periods (around a loop)
both take its branch from one guide, ``_branch_integral``, which
tabulates w at the parameter midpoints of each piece, continues its sign
from a principal seed, and gives each quadrature node the root nearer to
the entry of its own piece and parameter cell.  The guide is sized from
the path: each piece starts with 8 cells and triples them only where two
consecutive continued values are more than about 26 degrees apart.  It
picks signs only, so the nodes and every returned bit do not depend on
its density.  The seed fixes the sign of a raw integral: a loop is
seeded at its start point, an escape ray at its first guide entry;
escape times and periods take the absolute value.  A loop that fails to
return to the seed value raises ``BranchInconsistency``, as does a
period integral with a non-negligible imaginary part.

For the four built-in models, each integral of the branch integrand,
and of ``escape_time_real_form``'s, is one call of the compiled library
(``_dopri5.integral``): ``adaptive_quad``'s whole refinement of every
piece, bit for bit as the Python integrands, ``adaptive_quad`` and
``_panel`` compute it, the same ``ToleranceNotMet`` stops included.  An
integral with a panel the library cannot mirror is handed back whole,
and the Python path, which stays the reference, computes it: the same
bits, or the same error.
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
from .models import HamiltonianModel
from .turning import TurningPoint, turning_points

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


@dataclass(frozen=True)
class TurningPointContour:
    """Stadium-shaped loop around the segment joining two roots: straight
    edges offset by +/- offset on either side and semicircular caps,
    traversed counterclockwise."""

    z_left: complex
    z_right: complex
    offset: float = 0.5


_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)
_G31_X, _G31_W = np.polynomial.legendre.leggauss(31)
_G15 = list(zip(_G15_X.tolist(), _G15_W.tolist()))
_G31 = list(zip(_G31_X.tolist(), _G31_W.tolist()))
_NODES = np.array(_G15 + _G31).tobytes()  # the (xi, wi) pairs as the compiled panels read them
_MAX_PANELS = 4000  # adaptive_quad's panel budget

# branch guide: each piece starts with this many midpoint cells and
# triples them, up to the ceiling, while two consecutive continued values
# of w are more than acos(_GUIDE_COS), about 26 degrees, apart
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


def _budget_spent(toterr, tol, panels):
    return ToleranceNotMet(f"quadrature error {toterr:.3e} above target {tol:.3e} after {panels} panels")


def _resolution_limit(lo, hi, err):
    return ToleranceNotMet(f"panel [{lo}, {hi}] at resolution limit with error {err:.3e}")


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10, max_panels: int = _MAX_PANELS) -> complex:
    """Integrate a complex-valued f over the real interval [a, b] to the
    absolute error target ``tol``, refining the worst panel first.
    ``refine`` in ``_dopri5.c`` mirrors it for the compiled integrals."""
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
        if panels >= max_panels:
            raise _budget_spent(toterr, tol, panels)
        neg_err, _, lo, hi, val = heapq.heappop(entries)
        if hi - lo <= 32.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            # refining at float resolution while the error estimate is
            # still dominant: the integrand has structure the rule cannot
            # resolve (an undeclared singularity, typically); narrower
            # panels would make the estimates agree spuriously
            raise _resolution_limit(lo, hi, -neg_err)
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


# the functions the compiled integrals mirror; with either rebound (a
# spy, a counting wrapper) the library cannot, and Python runs them
_MIRRORED = (adaptive_quad, _panel)


def _library_integral(model: HamiltonianModel, E: complex, rows, guide=None):
    """The integral over the pieces ``rows`` in one call of the library
    (see ``_dopri5.integral``), branch integrand with ``guide``, real-form
    integrand without; it raises ``adaptive_quad``'s ``ToleranceNotMet``.
    None when the library cannot compute it as Python would."""
    if (adaptive_quad, _panel) != _MIRRORED:
        return None
    result = _dopri5.integral(model, E, rows, _NODES, _MAX_PANELS, guide)
    if result is None:
        return None
    total, stop = result
    if stop is not None:
        reason, *numbers = stop
        raise (_budget_spent if reason == "budget" else _resolution_limit)(*numbers)
    return total


def _segment_pieces(z0, z1, sing_start, sing_end, tol):
    d = z1 - z0
    if d == 0.0:
        return []
    if sing_start and sing_end:
        zm = 0.5 * (z0 + z1)
        return _segment_pieces(z0, zm, True, False, 0.5 * tol) + _segment_pieces(zm, z1, False, True, 0.5 * tol)
    ptol = tol / max(1.0, abs(d))
    if sing_end:
        # u^2 measured back from the end: z runs from z1 to z0, so the
        # weight is -dz/du
        return [(lambda u: z1 - d * (u * u), lambda u: d * (2.0 * u), 0.0, 1.0, ptol, None)]
    if sing_start:
        return [(lambda u: z0 + d * (u * u), lambda u: d * (2.0 * u), 0.0, 1.0, ptol, None)]
    return [(lambda s: z0 + d * s, lambda s: d, 0.0, 1.0, ptol, None)]


def _pieces(path, tol: float):
    """A path specification as pieces (z, dz, s0, s1, piece_tol, piece).

    The integral of f(z) dz along the path is the sum over its pieces of
    the integral of f(z(s)) * dz(s) for s in [s0, s1], each to its own
    error target ``piece_tol``.  The ray and stadium expressions fix the
    quadrature nodes, and with them the bits of every escape time and
    period a scenario writes: keep them character for character.

    ``piece`` describes a ray, stadium edge or stadium cap to the
    compiled integrals as (kind, c0, c1, c2, phi0), the constants its two
    lambdas start from (``piece_at`` in ``_dopri5.c`` says which); it is
    None for a segment's pieces, which only ``path_integral`` uses.
    """
    if isinstance(path, Segment):
        return _segment_pieces(
            complex(path.z_start), complex(path.z_end), path.sqrt_singular_start, path.sqrt_singular_end, tol
        )
    if isinstance(path, VerticalRay):
        if not (path.cutoff > 0.0 and math.isfinite(path.cutoff)):
            raise ValueError("cutoff must be positive and finite")
        z0 = complex(path.z_start)
        sgn = 1.0 if path.direction >= 0 else -1.0
        umax = math.sqrt(path.cutoff)
        ptol = tol / max(1.0, umax)
        piece = ("ray", z0, 1j * sgn, 2.0j * sgn, 0.0)
        return [(lambda u: z0 + 1j * sgn * (u * u), lambda u: 2.0j * sgn * u, 0.0, umax, ptol, piece)]
    if isinstance(path, TurningPointContour):
        # counterclockwise, starting below the z_left -> z_right segment
        if not (path.offset > 0.0 and math.isfinite(path.offset)):
            raise ValueError("offset must be positive and finite")
        c1, c2, offset = complex(path.z_left), complex(path.z_right), path.offset
        chord = c2 - c1
        u = chord / abs(chord)
        n = 1j * u
        edge_len = abs(chord)
        cap_len = math.pi * offset

        def edge(start, d):
            piece = ("edge", start, d, 0j, 0.0)
            return (lambda s: start + d * s, lambda s: d, 0.0, 1.0, 0.25 * tol / max(1.0, edge_len), piece)

        def cap(center, phi0):
            return (
                lambda s: center + offset * u * cmath.exp(1j * (phi0 + math.pi * s)),
                lambda s: 1j * math.pi * offset * u * cmath.exp(1j * (phi0 + math.pi * s)),
                0.0,
                1.0,
                0.25 * tol / max(1.0, cap_len),
                ("cap", center, offset * u, 1j * math.pi * offset * u, phi0),
            )

        return [
            edge(c1 - offset * n, chord),
            cap(c2, -0.5 * math.pi),
            edge(c2 + offset * n, -chord),
            cap(c1, 0.5 * math.pi),
        ]
    raise TypeError(f"not a path specification: {path!r}")


def path_integral(f, path, tol: float = 1e-10) -> complex:
    """Integral of f(z) dz along a path specification."""
    total = 0.0j
    for z, dz, s0, s1, ptol, _ in _pieces(path, tol):
        total += adaptive_quad(lambda s: f(z(s)) * dz(s), s0, s1, ptol)
    return total


def _branch_integral(model: HamiltonianModel, E: complex, pieces, closed: bool) -> complex:
    """Integral of dz / w along the pieces, with w = sqrt(2 (E - V)) kept
    on one branch by a guide.

    The guide tabulates w at the midpoints of equal parameter cells of
    each piece and continues its sign value to value along the path.  A
    loop is seeded with the principal root at its start point, z(s0) of
    the first piece; an open path (an escape ray) with the principal
    root at its first guide entry.  Each piece starts with
    ``_GUIDE_CELLS`` cells; while two consecutive continued values (two
    in one piece, the last and first of adjacent pieces, or, on a loop,
    the seed and its neighbours) are more than about 26 degrees apart,
    the pieces they lie on triple their cells, keeping every value
    already computed, up to ``_GUIDE_MAX_CELLS``; at the ceiling the
    guide is used as it stands.  A loop whose continuation comes back
    onto the seed with the other sign raises ``BranchInconsistency``.
    Each quadrature node then takes the root nearer to the guide entry
    of its own piece and parameter cell, so the guide picks signs only:
    the nodes, and the magnitude of each term, are those of the path.
    For the built-in models the library integrates every piece in one
    call; the loop at the end, the reference, runs otherwise.
    """
    potential = model.potential

    def w(z):
        return cmath.sqrt(2.0 * (E - potential(z)))

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

    def near(r, ref):
        return -r if abs(-r - ref) < abs(r - ref) else r

    def apart(a, b):
        return (a * b.conjugate()).real < _GUIDE_COS * abs(a) * abs(b)

    raw = [midpoints(z, s0, s1, _GUIDE_CELLS, None) for z, _, s0, s1, _, _ in pieces]
    if closed:
        seed = w(pieces[0][0](pieces[0][2]))
    while True:
        guide = []
        coarse = set()  # pieces with two consecutive values too far apart
        prev = seed if closed else raw[0][0]
        for i, values in enumerate(raw):
            for j, r in enumerate(values):
                r = near(r, prev)
                if apart(r, prev):
                    coarse.update((i - 1, i) if j == 0 and i > 0 else (i,))
                guide.append(r)
                prev = r
        if closed:
            back = near(seed, prev)
            if apart(back, prev):
                coarse.add(len(raw) - 1)
        refine = [i for i in sorted(coarse) if len(raw[i]) < _GUIDE_MAX_CELLS]
        if not refine:
            break
        for i in refine:
            z, _, s0, s1, _, _ = pieces[i]
            raw[i] = midpoints(z, s0, s1, 3 * len(raw[i]), raw[i])
    if closed and back != seed:
        raise BranchInconsistency("branch guide does not close around the contour")
    for i, values in enumerate(raw):
        if len(values) > _GUIDE_CELLS:
            logger.debug("branch guide: piece %d refined to %d cells", i, len(values))
    guide.append(guide[-1])  # a node rounding onto a piece's end reads one entry on

    # each piece's (descriptor, s0, s1, tol, first guide entry, cell width)
    rows = []
    first = 0
    for (_, _, s0, s1, ptol, piece), values in zip(pieces, raw):
        rows.append((piece, s0, s1, ptol, first, (s1 - s0) / len(values)))
        first += len(values)
    total = _library_integral(model, E, rows, guide)
    if total is not None:
        return total
    total = 0.0j
    for (z, dz, *_), (_, s0, s1, ptol, first, h) in zip(pieces, rows):

        def f(s):
            r = cmath.sqrt(2.0 * (E - potential(z(s))))
            ref = guide[first + int((s - s0) / h)]
            if abs(-r - ref) < abs(r - ref):
                r = -r
            return 1.0 / r * dz(s)

        total += adaptive_quad(f, s0, s1, ptol)
    return total


def _as_root(model: HamiltonianModel, energy: complex, tp) -> complex:
    x0 = tp.x0 if isinstance(tp, TurningPoint) else complex(tp)
    resid = abs(model.potential(x0) - energy)
    if resid > 1e-8 * max(1.0, abs(energy)):
        raise ValueError(f"{x0} is not a turning point at this energy (residual {resid:.2e})")
    return x0


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
    """What both escape routes share: the energy, the root and the ray's
    direction (by default away from the real axis)."""
    E = complex(energy)
    x0 = _as_root(model, E, tp)
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    if direction is None:
        sgn = 1.0 if x0.imag >= 0.0 else -1.0
    else:
        sgn = 1.0 if direction >= 0 else -1.0
    return E, x0, sgn


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
    polynomially along the ray.
    """
    E, x0, sgn = _escape_ray(model, energy, tp, cutoff, direction)
    if abs(model.gradient(x0)) < 1e-8:
        raise DomainError("degenerate turning point: V'(x0) is (close to) zero")
    for z, d in _roots_near_segment(model, E, x0, x0 + 1j * sgn * cutoff, 0.25, (x0,)):
        if d < 1e-6:
            raise PathThroughSingularity(f"root {z} lies on the escape ray from {x0}")

    pieces = _pieces(VerticalRay(x0, int(sgn), cutoff), tol)
    total = _branch_integral(model, E, pieces, closed=False)
    if abs(total.imag) > 1e-6 * max(1.0, abs(total)):
        raise BranchInconsistency(f"escape integral has imaginary residue {total.imag:.3e}")
    return abs(total.real)


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
    E, x0, sgn = _escape_ray(model, energy, tp, cutoff, direction)
    [(z, _, s0, umax, ptol, piece)] = _pieces(VerticalRay(x0, int(sgn), cutoff), tol)
    total = _library_integral(model, E, [(piece, s0, umax, ptol, 0, 1.0)])
    if total is not None:
        return total.real

    def f(u: float) -> float:
        q = 2.0 * (model.potential(z(u)) - E)
        if abs(q.imag) > 1e-9 * (1.0 + abs(q)):
            raise DomainError("V - E is not real along the ray; not an escape ray")
        if q.real <= 0.0:
            raise DomainError("V - E is not positive along the ray; not an escape ray")
        return 2.0 * u / math.sqrt(q.real)

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
    ``period_contour`` takes the absolute value.
    """
    E = complex(energy)
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
    real; an imaginary part above 1e-6 signals branch-tracking failure
    and raises ``BranchInconsistency``.
    """
    return _real_period(contour_integral(model, energy, tp_pair, offset, tol=tol))


def _real_period(total: complex) -> float:
    """The period from a raw contour integral: its real part, once the
    imaginary residue is checked to be negligible."""
    if abs(total.imag) > 1e-6:
        raise BranchInconsistency(f"period integral has imaginary residue {total.imag:.3e}")
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
