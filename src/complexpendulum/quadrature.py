"""Complex-path quadrature: transit times, closed-orbit periods, elliptic K.

The workhorse is a globally adaptive scheme built on an embedded pair of
Gauss-Legendre rules (15 and 31 points, nested refinement of the worst
panel first).  Inverse-square-root endpoint singularities - the generic
behaviour of 1/p(x) at a turning point - are removed exactly by the
substitution z = z0 + d u^2, after which the integrand is smooth.

The momentum w(z) = sqrt(2 (E - V(z))) is double-valued; integrals pick a
branch by continuation along a densely precomputed guide: w is tabulated
along the path by nearest-neighbour sign continuation from a principal
seed, and each quadrature evaluation then selects the square root closest
to the guide value at the nearest tabulated point.  A full loop that
fails to return to the seed value raises ``BranchInconsistency``, as does
a period integral with a non-negligible imaginary part.
"""
from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

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


def _panel(f, a, b):
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


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10, max_panels: int = 4000) -> complex:
    """Integrate a complex-valued f over the real interval [a, b] to the
    absolute error target ``tol``, refining the worst panel first."""
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
            raise ToleranceNotMet(
                f"quadrature error {toterr:.3e} above target {tol:.3e} after {panels} panels"
            )
        neg_err, _, lo, hi, val = heapq.heappop(entries)
        if hi - lo <= 32.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            # refining at float resolution while the error estimate is
            # still dominant: the integrand has structure the rule cannot
            # resolve (an undeclared singularity, typically); narrower
            # panels would make the estimates agree spuriously
            raise ToleranceNotMet(
                f"panel [{lo}, {hi}] at resolution limit with error {-neg_err:.3e}"
            )
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


def _segment_integral(f, z0, z1, sing_start, sing_end, tol):
    d = z1 - z0
    if d == 0.0:
        return 0.0j
    if sing_start and sing_end:
        zm = 0.5 * (z0 + z1)
        return _segment_integral(f, z0, zm, True, False, 0.5 * tol) + _segment_integral(
            f, zm, z1, False, True, 0.5 * tol
        )
    if sing_end:
        return -_segment_integral(f, z1, z0, True, False, tol)
    ptol = tol / max(1.0, abs(d))
    if sing_start:
        return d * adaptive_quad(lambda u: f(z0 + d * (u * u)) * (2.0 * u), 0.0, 1.0, ptol)
    return d * adaptive_quad(lambda s: f(z0 + d * s), 0.0, 1.0, ptol)


def _contour_pieces(c1: complex, c2: complex, offset: float):
    """The four stadium pieces as (z(s), dz/ds(s), arclength), s in [0, 1],
    ordered counterclockwise starting below the c1 -> c2 segment."""
    chord = c2 - c1
    u = chord / abs(chord)
    n = 1j * u
    edge_len = abs(chord)
    cap_len = math.pi * offset

    def cap(center, phi0):
        def z(s, center=center, phi0=phi0):
            return center + offset * u * cmath.exp(1j * (phi0 + math.pi * s))

        def dz(s, center=center, phi0=phi0):
            return 1j * math.pi * offset * u * cmath.exp(1j * (phi0 + math.pi * s))

        return z, dz, cap_len

    lower = (lambda s: c1 - offset * n + chord * s, lambda s: chord, edge_len)
    upper = (lambda s: c2 + offset * n - chord * s, lambda s: -chord, edge_len)
    return [lower, cap(c2, -0.5 * math.pi), upper, cap(c1, 0.5 * math.pi)]


def path_integral(f, path, tol: float = 1e-10) -> complex:
    """Integral of f(z) dz along a path specification."""
    if isinstance(path, Segment):
        return _segment_integral(
            f, complex(path.z_start), complex(path.z_end), path.sqrt_singular_start, path.sqrt_singular_end, tol
        )
    if isinstance(path, VerticalRay):
        if path.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        z0 = complex(path.z_start)
        sgn = 1.0 if path.direction >= 0 else -1.0
        umax = math.sqrt(path.cutoff)
        return adaptive_quad(
            lambda u: f(z0 + 1j * sgn * (u * u)) * (2.0j * sgn * u), 0.0, umax, tol / max(1.0, umax)
        )
    if isinstance(path, TurningPointContour):
        if path.offset <= 0.0:
            raise ValueError("offset must be positive")
        total = 0.0j
        for z, dz, length in _contour_pieces(complex(path.z_left), complex(path.z_right), path.offset):
            total += adaptive_quad(lambda s: f(z(s)) * dz(s), 0.0, 1.0, 0.25 * tol / max(1.0, length))
        return total
    raise TypeError(f"not a path specification: {path!r}")


def _as_root(model: HamiltonianModel, energy: complex, tp) -> complex:
    x0 = tp.x0 if isinstance(tp, TurningPoint) else complex(tp)
    resid = abs(model.potential(x0) - energy)
    if resid > 1e-8 * max(1.0, abs(energy)):
        raise ValueError(f"{x0} is not a turning point at this energy (residual {resid:.2e})")
    return x0


def _ray_clearance(model, energy, x0, sgn, cutoff):
    """Raise when another root of E - V sits on or next to the escape ray."""
    v_lo = min(0.0, sgn * cutoff)
    v_hi = max(0.0, sgn * cutoff)
    window = (x0.real - 0.25, x0.real + 0.25, x0.imag + v_lo - 0.25, x0.imag + v_hi + 0.25)
    for root in turning_points(model, energy, window):
        z = root.x0
        if abs(z - x0) <= 1e-9:
            continue
        # distance from z to the vertical segment x0 .. x0 + 1j*sgn*cutoff
        v = (z.imag - x0.imag) * sgn
        v_clamped = min(max(v, 0.0), cutoff)
        d = math.hypot(z.real - x0.real, (v - v_clamped))
        if d < 1e-6:
            raise PathThroughSingularity(f"root {z} lies on the escape ray from {x0}")


def escape_time(
    model: HamiltonianModel,
    energy: complex,
    tp,
    cutoff: float = 60.0,
    *,
    tol: float = 1e-10,
    direction: int | None = None,
    guide_points: int = 1024,
) -> float:
    """Transit time from a turning point to |Im x| = Im(start) + cutoff
    along the vertical escape ray, by quadrature of dz / w.

    ``tp`` may be a TurningPoint or a complex root of V(x) = E; it must
    satisfy the residual check, and the ray (by default pointing away
    from the real axis) must not pass another root.  The start
    singularity of 1/w is removed by the u^2 substitution, and the branch
    of w follows a precomputed continuation guide seeded with the
    principal root at the start.  The tail beyond the default cutoff of
    60 is far below the quadrature tolerance for the potentials here,
    which grow exponentially or polynomially along the ray.
    """
    E = complex(energy)
    x0 = _as_root(model, E, tp)
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    if abs(model.gradient(x0)) < 1e-8:
        raise DomainError("degenerate turning point: V'(x0) is (close to) zero")
    if direction is None:
        sgn = 1.0 if x0.imag >= 0.0 else -1.0
    else:
        sgn = 1.0 if direction >= 0 else -1.0
    _ray_clearance(model, E, x0, sgn, cutoff)

    umax = math.sqrt(cutoff)
    du = umax / guide_points
    guide: list[complex] = []
    prev = None
    for j in range(guide_points):
        uj = (j + 0.5) * du
        z = x0 + 1j * sgn * (uj * uj)
        r = cmath.sqrt(2.0 * (E - model.potential(z)))
        if prev is not None and abs(-r - prev) < abs(r - prev):
            r = -r
        guide.append(r)
        prev = r

    def w_of(z: complex) -> complex:
        r = cmath.sqrt(2.0 * (E - model.potential(z)))
        v = (z.imag - x0.imag) * sgn
        u = math.sqrt(v) if v > 0.0 else 0.0
        jj = min(guide_points - 1, int(u / du))
        if abs(-r - guide[jj]) < abs(r - guide[jj]):
            r = -r
        return r

    total = path_integral(lambda z: 1.0 / w_of(z), VerticalRay(x0, int(sgn), cutoff), tol)
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
    E = complex(energy)
    x0 = _as_root(model, E, tp)
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    if direction is None:
        sgn = 1.0 if x0.imag >= 0.0 else -1.0
    else:
        sgn = 1.0 if direction >= 0 else -1.0

    def f(u: float) -> float:
        z = x0 + 1j * sgn * (u * u)
        q = 2.0 * (model.potential(z) - E)
        if abs(q.imag) > 1e-9 * (1.0 + abs(q)):
            raise DomainError("V - E is not real along the ray; not an escape ray")
        if q.real <= 0.0:
            raise DomainError("V - E is not positive along the ray; not an escape ray")
        return 2.0 * u / math.sqrt(q.real)

    umax = math.sqrt(cutoff)
    total = adaptive_quad(f, 0.0, umax, tol / max(1.0, umax))
    return total.real


def _resolve_pair(model, energy, tp_pair):
    c1 = _as_root(model, energy, tp_pair[0])
    c2 = _as_root(model, energy, tp_pair[1])
    if abs(c2 - c1) < 1e-9:
        raise ValueError("turning points of the pair coincide")
    if (c2.real, c2.imag) < (c1.real, c1.imag):
        c1, c2 = c2, c1
    return c1, c2


def _contour_clearance(model, energy, c1, c2, offset):
    pad = offset + 0.5
    window = (
        min(c1.real, c2.real) - pad,
        max(c1.real, c2.real) + pad,
        min(c1.imag, c2.imag) - pad,
        max(c1.imag, c2.imag) + pad,
    )
    chord = c2 - c1
    L = abs(chord)
    u = chord / L
    for root in turning_points(model, energy, window):
        z = root.x0
        if abs(z - c1) <= 1e-9 or abs(z - c2) <= 1e-9:
            continue
        # distance from z to the segment c1..c2
        s = ((z - c1) / u).real
        s = min(max(s, 0.0), L)
        d = abs(z - (c1 + s * u))
        if d <= offset + 1e-9:
            raise PathThroughSingularity(
                f"root {z} lies on or inside the period contour (offset {offset})"
            )


def contour_integral(
    model: HamiltonianModel,
    energy: complex,
    tp_pair,
    offset: float = 0.5,
    *,
    tol: float = 1e-10,
    guide_points: int = 2048,
) -> complex:
    """The raw counterclockwise contour integral of dz / w around the
    segment joining a turning-point pair; see ``period_contour``."""
    E = complex(energy)
    c1, c2 = _resolve_pair(model, E, tp_pair)
    if offset <= 0.0:
        raise ValueError("offset must be positive")
    _contour_clearance(model, E, c1, c2, offset)

    pieces = _contour_pieces(c1, c2, offset)
    total_len = sum(length for _, _, length in pieces)

    # tabulate the loop: arclength-uniform points in traversal order
    zs: list[complex] = []
    for z, _, length in pieces:
        n = max(8, int(round(guide_points * length / total_len)))
        for j in range(n):
            zs.append(z((j + 0.5) / n))
    m = len(zs)
    z_arr = np.array(zs, dtype=complex)

    # continuation around the loop, seeded with the principal root at the
    # rightmost point
    seed = int(np.argmax(z_arr.real))
    guide = [0.0j] * m
    prev = None
    for step in range(m + 1):
        idx = (seed + step) % m
        r = cmath.sqrt(2.0 * (E - model.potential(zs[idx])))
        if prev is not None and abs(-r - prev) < abs(r - prev):
            r = -r
        if step == m:
            # back at the seed: the loop must close on the same branch
            if abs(r - guide[seed]) > 0.5 * max(abs(guide[seed]), 1e-300):
                raise BranchInconsistency("branch guide does not close around the contour")
            break
        guide[idx] = r
        prev = r
    w_arr = np.array(guide, dtype=complex)

    def w_of(z: complex) -> complex:
        r = cmath.sqrt(2.0 * (E - model.potential(z)))
        jj = int(np.argmin(np.abs(z_arr - z)))
        if abs(-r - w_arr[jj]) < abs(r - w_arr[jj]):
            r = -r
        return r

    return path_integral(lambda z: 1.0 / w_of(z), TurningPointContour(c1, c2, offset), tol)


def period_contour(
    model: HamiltonianModel,
    energy: complex,
    tp_pair,
    offset: float = 0.5,
    *,
    tol: float = 1e-10,
    guide_points: int = 2048,
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
    return _real_period(contour_integral(model, energy, tp_pair, offset, tol=tol, guide_points=guide_points))


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
