"""Turning points: complex roots of V(x) = E.

Where the potential inverts in closed form the roots are enumerated
analytically and then polished by a Newton step or two, so every returned
point satisfies |V(x0) - E| <= residual_tol * max(1, |E|) (1e-12 unless
``turning_points`` is given another), or, where V itself rounds coarser
than that, |V(x0) - E| <= |V'(x0)| |x0| 2^-52, regardless of how it was
produced:

* pendulum (any complex g, E):  cos x = -E/g, so x = +/- acos(-E/g) + 2 pi k
  with the principal complex arccosine; this covers real roots (|E/g| <= 1
  real), the conjugate pairs off the real axis, and the staggered
  single-root-per-column pattern of purely imaginary g in one formula.
  Only the seeds within pi of the window in both coordinates are
  polished: pi is half the lattice period, and each seed sits on its
  root to within the conditioning of acos.
* harmonic:                     x = +/- sqrt(2 E)
* imaginary cubic:              x^3 = -i E, the three cube roots

For anything else (or when no closed form applies) a Newton search runs
from a rectangular grid of seeds with spacing 0.5; duplicates are merged
within 1e-9 and the window filter is applied after refinement,
inclusively, so roots that polish onto the boundary are kept.
Each seed costs a Newton solve, so a window that needs more than
``_MAX_SEEDS`` seeds is rejected before any is made.

For the built-in models, ``turning_points`` and ``refine_root`` are
one call of the compiled library each (``_dopri5.operation``): the
seeds, the polish by ``_newton``'s rule, the window filter, the merge
and the sort, bit for bit as the code here, which stays the reference
and runs wherever the library hands a call back, as it does wherever
this code would raise or warn.  Neither takes that path while either
function is rebound (a spy, a tracer's wrapper).
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from . import _dopri5
from .models import HamiltonianModel, Harmonic, ImaginaryCubic, Pendulum

__all__ = ["TurningPoint", "NonConvergence", "turning_points", "refine_root"]

logger = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi
_EPS = 2.0**-52  # the spacing of floats at 1
_MAX_SEEDS = 20_000  # per window: a pendulum window about 6e4 wide
_SEED_GRID = 0.5  # spacing of the seed grid of models with no closed form
_DEDUPE_TOL = 1e-9  # roots closer than this are one root
_RESIDUAL_TOL = 1e-12  # relative residual target of the Newton polish
_MAX_ITER = 50  # Newton steps per seed
# a pendulum seed further than this outside the window is not polished:
# half the period of the root lattice, while a closed-form seed sits on
# its root to within the conditioning of acos
_SEED_REACH = math.pi


class NonConvergence(Exception):
    """Newton refinement failed to reach the residual target."""


@dataclass(frozen=True)
class TurningPoint:
    """A root x0 of V(x0) = E.

    lattice_index = round(Re x0 / 2 pi)
    tags the containing 2 pi cell; branch_sign is the sign of Im x0
    (0 when the root sits on the real axis).  Tags are informational;
    roots are identified by their value.
    """

    x0: complex
    lattice_index: int
    branch_sign: int


def _tag(x0: complex) -> TurningPoint:
    b = x0.imag
    sign = 0 if abs(b) < 1e-12 else (1 if b > 0.0 else -1)
    return TurningPoint(x0=x0, lattice_index=round(x0.real / _TWO_PI), branch_sign=sign)


def _converged(f: complex, fp: complex, z: complex, target: float) -> bool:
    """|f| within the target, or within the rounding of V at z, which
    moves V by about |V'(z)| |z| ulp: past |x| ~ 1e3 a pendulum's
    cos x rounds coarser than the 1e-12 default target."""
    residual = abs(f)
    return residual <= target or residual <= abs(fp) * abs(z) * _EPS < math.inf


def _newton(model: HamiltonianModel, energy: complex, seed: complex, tol: float) -> complex:
    """Newton iteration on V(x) - E; returns the refined root or raises
    ``NonConvergence``, also when the model raises an ``ArithmeticError``
    (a seed on a pole, an overflow)."""
    target = tol * max(1.0, abs(energy))
    z = complex(seed)
    try:
        for _ in range(_MAX_ITER):
            f = model.potential(z) - energy
            fp = model.gradient(z)
            if _converged(f, fp, z, target):
                # one extra step sharpens the root without risk: near a double
                # root f/f' is half the remaining distance, elsewhere smaller
                if fp != 0.0:
                    z -= f / fp
                return z
            if abs(fp) < 1e-300 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NonConvergence(f"derivative vanished near {z}")
            z -= f / fp
        if _converged(model.potential(z) - energy, model.gradient(z), z, target):
            return z
    except ArithmeticError as exc:
        raise NonConvergence(f"{type(exc).__name__} from the model near {z}: {exc}") from exc
    raise NonConvergence(f"no root reached from seed {seed}")


def _search_call(op: int, energy: complex, numbers, residual_tol: float | None = None):
    """The call record of library operation ``op`` (see
    ``_dopri5.operation``): the energy, the rules of the root search as
    this module holds them at the call, the residual target
    ``_RESIDUAL_TOL`` unless given, then ``numbers``."""
    tol = _RESIDUAL_TOL if residual_tol is None else residual_tol
    return (op, energy.real, energy.imag, tol, _MAX_SEEDS, _SEED_REACH, _DEDUPE_TOL, _MAX_ITER, *numbers)


def refine_root(model: HamiltonianModel, energy: complex, seed: complex) -> TurningPoint:
    """Polish a single root of V(x) = E from a finite ``seed`` by Newton
    iteration."""
    z = complex(seed)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"seed {seed!r} is not finite")
    if (turning_points, refine_root) == _MIRRORED and type(energy) in (complex, float, int):
        root = _dopri5.operation(model, _search_call(_dopri5.OP_REFINE, complex(energy), (z.real, z.imag)))
        if root is not None:
            return _tag(complex(*root))
    return _tag(_newton(model, energy, seed, _RESIDUAL_TOL))


def _check_seed_count(count: float) -> None:
    if not count <= _MAX_SEEDS:
        raise ValueError(f"window needs {count:.3g} seeds, more than {_MAX_SEEDS}")


def _pendulum_seeds(model: Pendulum, energy: complex, window):
    """+/- acos(-E/g) + 2 pi k for the k that cover the window, less the
    seeds more than ``_SEED_REACH`` outside it in either coordinate."""
    if model.g == 0.0:
        raise ValueError("g must be nonzero for turning points of the pendulum")
    re_lo, re_hi, im_lo, im_hi = window
    alpha = cmath.acos(-energy / model.g)
    lo = (re_lo - abs(alpha.real)) / _TWO_PI
    hi = (re_hi + abs(alpha.real)) / _TWO_PI
    _check_seed_count(2.0 * (hi - lo + 4.0))
    x_lo, x_hi, y_lo, y_hi = re_lo - _SEED_REACH, re_hi + _SEED_REACH, im_lo - _SEED_REACH, im_hi + _SEED_REACH
    for k in range(math.floor(lo) - 1, math.ceil(hi) + 2):
        for seed in (alpha + _TWO_PI * k, -alpha + _TWO_PI * k):
            if not (seed.real < x_lo or seed.real > x_hi or seed.imag < y_lo or seed.imag > y_hi):
                yield seed


def _closed_form_seeds(model: HamiltonianModel, energy: complex, window):
    """Analytic root candidates covering the window, or None."""
    if isinstance(model, Pendulum):  # includes the driven kind: same potential
        return list(_pendulum_seeds(model, energy, window))
    if isinstance(model, Harmonic):
        r = cmath.sqrt(2.0 * energy)
        return [r, -r]
    if isinstance(model, ImaginaryCubic):
        if energy == 0.0:
            return [0.0 + 0.0j]
        base = cmath.exp(cmath.log(-1j * energy) / 3.0)
        rot = cmath.exp(2j * math.pi / 3.0)
        return [base, base * rot, base * rot * rot]
    return None


def _dedupe(roots: list[complex], tol: float) -> list[complex]:
    """The roots in order, less each one within tol of a root kept before
    it.  Roots within tol of each other sit in the same or adjacent cells
    of a grid of side 2 tol, so each root is compared with its few
    neighbours only."""
    side = 2.0 * tol
    kept: list[complex] = []
    cells: dict[tuple[int, int], list[complex]] = {}
    for z in roots:
        i, j = math.floor(z.real / side), math.floor(z.imag / side)
        near = [w for di in (-1, 0, 1) for dj in (-1, 0, 1) for w in cells.get((i + di, j + dj), ())]
        if all(abs(z - w) > tol for w in near):
            kept.append(z)
            cells.setdefault((i, j), []).append(z)
    return kept


def turning_points(
    model: HamiltonianModel,
    energy: complex,
    window: tuple[float, float, float, float],
    *,
    residual_tol: float = _RESIDUAL_TOL,
) -> list[TurningPoint]:
    """All turning points inside a closed rectangle of the complex plane.

    ``window`` is (re_min, re_max, im_min, im_max) and must have positive
    area, and the energy must be finite.  Every root is Newton-polished
    to the residual target; the window filter runs after refinement
    (inclusive, with a one-nanounit grace so boundary roots survive
    rounding), and near-coincident roots merge within 1e-9.  The result
    is sorted by (Re, Im).  For the built-in models the whole search is
    one call of the compiled library, bit for bit as the code below,
    which runs where the library hands it back.
    """
    re_lo, re_hi, im_lo, im_hi = map(float, window)
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("window must have positive area")
    energy = complex(energy)
    if not (math.isfinite(energy.real) and math.isfinite(energy.imag)):
        raise ValueError("energy must be finite")
    if (turning_points, refine_root) == _MIRRORED and type(residual_tol) in (float, int):
        window = (re_lo, re_hi, im_lo, im_hi)
        found = _dopri5.operation(model, _search_call(_dopri5.OP_TURNING, energy, window, residual_tol))
        if found is not None:
            return [_tag(complex(re, im)) for re, im in zip(found[::2], found[1::2])]

    seeds = _closed_form_seeds(model, energy, (re_lo, re_hi, im_lo, im_hi))
    if seeds is None:
        seeds = []
        _check_seed_count(((re_hi - re_lo) / _SEED_GRID + 2.0) * ((im_hi - im_lo) / _SEED_GRID + 2.0))
        n_re = max(1, math.ceil((re_hi - re_lo) / _SEED_GRID))
        n_im = max(1, math.ceil((im_hi - im_lo) / _SEED_GRID))
        for i in range(n_re + 1):
            sr = re_lo + (re_hi - re_lo) * i / n_re
            for j in range(n_im + 1):
                si = im_lo + (im_hi - im_lo) * j / n_im
                seeds.append(complex(sr, si))

    grace = 1e-9
    found: list[complex] = []
    skipped = 0
    for seed in seeds:
        try:
            z = _newton(model, energy, seed, residual_tol)
        except NonConvergence:
            skipped += 1
            continue
        if re_lo - grace <= z.real <= re_hi + grace and im_lo - grace <= z.imag <= im_hi + grace:
            found.append(z)
    if skipped:
        logger.warning("turning_points: %d of %d seeds did not converge", skipped, len(seeds))
    found = _dedupe(found, _DEDUPE_TOL)
    found.sort(key=lambda z: (z.real, z.imag))
    return [_tag(z) for z in found]


# the functions the compiled search and polish stand for; with either
# rebound (a spy, a tracer's wrapper) Python runs them
_MIRRORED = (turning_points, refine_root)
