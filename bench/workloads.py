"""Seeded benchmark inputs, the operations that run them, and their references.

Every workload is a list of operations ("ops") issued one at a time by a
single caller (a closed loop).  Inputs depend only on the seed: the same
seed gives the same op list and byte-identical scenario files.

* ``catalog``    the bundled scenarios through ``run_scenario``, in an order
                 shuffled by the seed.
* ``shell-grid`` generated scenario files, one energy shell each, through
                 ``run_scenario`` with ``analyses: [closure, pt]``.
* ``quadrature`` direct calls of ``period_contour``, ``escape_time``,
                 ``escape_time_real_form`` and ``turning_points``.

Reference values are computed by ``fill_references`` outside the timed
region; ``checks`` compares outputs against them.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("catalog", "shell-grid", "quadrature")

# The bundled scenarios, named explicitly so that a scenario added or
# removed later changes the workload visibly instead of silently.
CATALOG = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "eq10", "eq14", "period-e0",
)

# Orbit classes of the bundled scenarios (acceptance criterion 9).
_CATALOG_CLASSES = {
    "fig2": ["closed"] * 5,
    "fig6": ["closed"] * 4,
    "fig4": ["open", "open", "open", "escaped", "escaped"],
    "fig7": ["open", "open", "open", "escaped", "escaped"],
    "fig8": ["open", "open", "open", "escaped", "escaped"],
    "fig5": ["closed", "closed", "escaped", "closed", "closed"],
}

ESCAPE_RADIUS = 30.0  # IntegratorConfig default; shell-grid files keep it
PERIOD_RTOL = 1e-6  # trajectory period / escape time against the reference
QUAD_RTOL = 1e-8  # quadrature against its closed form or second route
CATALOG_QUAD_RTOL = 1e-9  # frozen eq10 / eq14 quadrature values


@dataclass
class Op:
    """One operation: ``kind`` selects the entry point, ``args`` its inputs,
    ``expect`` the references its output must match."""

    name: str
    kind: str  # "scenario", "period", "escape", "real_form" or "turning"
    args: dict
    expect: dict = field(default_factory=dict)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(256)
_GL_SIN2 = np.sin(0.25 * math.pi * (_GL_X + 1.0)) ** 2


def pendulum_period(energy: float) -> float:
    """Libration period 4 K((1 + E)/2) of the g = 1 pendulum.

    K(m) is the 256-point Gauss-Legendre sum of its defining integral over
    [0, pi/2], a route independent of the package's AGM; for m <= 0.95 it
    agrees with scipy.special.ellipk to 1e-15.
    """
    m = 0.5 * (1.0 + energy)
    return float(math.pi * np.sum(_GL_W / np.sqrt(1.0 - m * _GL_SIN2)))


def _num(v: float) -> str:
    return repr(float(v))


def _start_x(x: complex) -> str:
    return f"[{_num(x.real)}, {_num(x.imag)}]"


def _scenario_text(name: str, description: str, model: str, energy, starts: list[str]) -> str:
    e = f"[{_num(energy.real)}, {_num(energy.imag)}]" if isinstance(energy, complex) else _num(energy)
    lines = [
        f"name: {name}",
        f'description: "{description}"',
        f"model: {model}",
        f"energy: {e}",
        "starts:",
        *(f"  - {s}" for s in starts),
        "analyses: [closure, pt]",
    ]
    return "\n".join(lines) + "\n"


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values spaced (hi - lo)/n apart in (lo, hi), with one random
    offset for all of them, in random order.

    Work per op depends on these parameters (energy, height c, start
    position), so spacing them evenly keeps the work of a pass, and the
    spread of op latencies, nearly the same for every seed.
    """
    u = rng.random()
    vals = [lo + (i + u) * (hi - lo) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _escape_starts(g: str, c: float, n: int):
    """Turning-point starts with p = 0 that escape along a vertical ray.

    g = 1: x0 = pi + 2 pi k +/- i c at E = cosh c.
    g = i: x0 = 3 pi/2 + 2 pi k + i c and pi/2 + 2 pi k - i c at E = sinh c.
    """
    energy = math.cosh(c) if g == "1" else math.sinh(c)
    xs = []
    for j in range(n):
        k = j // 2 - 1
        if g == "1":
            xs.append(complex(math.pi + 2.0 * math.pi * k, c if j % 2 == 0 else -c))
        elif j % 2 == 0:
            xs.append(complex(1.5 * math.pi + 2.0 * math.pi * k, c))
        else:
            xs.append(complex(0.5 * math.pi + 2.0 * math.pi * k, -c))
    return energy, xs


# shell-grid: families per pass, in generation order.  Op latency rises
# from harmonic through pendulum to escape files; with 4 + 8 + 4 files the
# median falls inside the pendulum group and the 90th percentile inside
# the escape group, instead of on a boundary between two groups.
_SHELL_FAMILIES = ("pendulum", "harmonic", "pendulum", "escape-g1", "pendulum", "harmonic", "pendulum", "escape-gi") * 2
_STARTS_PER_SHELL = 8


def shell_grid_ops(seed: int) -> list[Op]:
    """Scenario files, one energy shell and eight starts each, 16 a pass.

    pendulum   g = 1, real E in (-0.9, 0.9), starts in the central cell:
               closed with period 4 K((1 + E)/2).
    harmonic   complex E: closed with period 2 pi.
    escape-*   turning-point starts (see ``_escape_starts``): escaped, at
               the quadrature escape time to |Im x| = ESCAPE_RADIUS.
    """
    rng = random.Random(seed)
    n = {family: _SHELL_FAMILIES.count(family) for family in _SHELL_FAMILIES}
    pendulum_energies = _strata(rng, n["pendulum"], -0.9, 0.9)
    harmonic_energies = list(zip(_strata(rng, n["harmonic"], -2.0, 2.0), _strata(rng, n["harmonic"], -2.0, 2.0)))
    heights = {family: _strata(rng, n[family], 0.3, 2.0) for family in ("escape-g1", "escape-gi")}

    def closed_starts(re_max: float, im_max: float) -> list[str]:
        re = _strata(rng, _STARTS_PER_SHELL, -re_max, re_max)
        im = _strata(rng, _STARTS_PER_SHELL, -im_max, im_max)
        branches = ["+", "-"] * (_STARTS_PER_SHELL // 2)
        rng.shuffle(branches)
        return [f"{{x: {_start_x(complex(a, b))}, branch: '{sign}'}}" for a, b, sign in zip(re, im, branches)]

    ops = []
    for i, family in enumerate(_SHELL_FAMILIES):
        name = f"shell-{i:02d}-{family}"
        if family == "pendulum":
            energy = pendulum_energies.pop()
            model = "{kind: pendulum, g: 1}"
            starts = closed_starts(3.0, 1.5)
            expect = [{"class": "closed", "period": ("pendulum", energy)} for _ in starts]
        elif family == "harmonic":
            energy = complex(*harmonic_energies.pop())
            model = "{kind: harmonic}"
            starts = closed_starts(2.0, 2.0)
            expect = [{"class": "closed", "period": ("harmonic", energy)} for _ in starts]
        else:
            g = "1" if family == "escape-g1" else "i"
            energy, xs = _escape_starts(g, heights[family].pop(), _STARTS_PER_SHELL)
            model = "{kind: pendulum, g: 1}" if g == "1" else "{kind: pendulum, g: [0.0, 1.0]}"
            starts = [f"{{x: {_start_x(x)}, p: 0}}" for x in xs]
            expect = [{"class": "escaped", "escape_time": (g, energy, x)} for x in xs]
        text = _scenario_text(name, f"generated {family} shell", model, energy, starts)
        ops.append(Op(name, "scenario", {"file": f"{name}.yaml", "text": text}, {"starts": expect}))
    return ops


def catalog_ops(seed: int) -> list[Op]:
    """The bundled scenarios, in an order shuffled by the seed."""
    names = list(CATALOG)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        expect: dict = {}
        if name in _CATALOG_CLASSES:
            expect["classes"] = _CATALOG_CLASSES[name]
        if name == "fig9":
            expect["never_closed"] = True
        if name == "fig3":
            expect["starts"] = [{"class": "closed", "period": ("harmonic", 1.0)} for _ in range(5)]
        if name == "eq10":
            expect["quad_escape"] = 1.9753644322886177
        if name == "eq14":
            expect["quad_escape"] = 1.8454924998997722
        if name == "period-e0":
            expect["quad_period"] = ("pendulum", 0.0)
        if name == "fig12":
            expect["first_transition"] = (100.0, 1000.0)
        ops.append(Op(name, "scenario", {"source": name}, expect))
    return ops


def quadrature_ops(seed: int) -> list[Op]:
    """Direct quadrature and turning-point calls.

    The mix (16 turning, 10 real-form, 10 escape, 8 period) keeps the
    median and the 90th percentile of op latency inside one call kind
    each instead of on a boundary between two.
    """
    rng = random.Random(seed)
    ops = []
    heights = {"1": _strata(rng, 5, 0.3, 2.0), "i": _strata(rng, 5, 0.3, 2.0)}
    for i, energy in enumerate(_strata(rng, 8, -0.9, 0.9)):
        alpha = math.acos(-energy)
        ops.append(Op(f"period-{i}", "period", {"g": 1.0, "energy": energy, "pair": (-alpha, alpha)}))
    for i in range(10):
        g = "1" if i % 2 == 0 else "i"
        energy, xs = _escape_starts(g, heights[g].pop(), 4)
        x0 = xs[rng.randrange(4)]
        args = {"g": 1.0 if g == "1" else 1j, "energy": energy, "x0": x0}
        ops.append(Op(f"escape-{i}", "escape", dict(args)))
        ops.append(Op(f"real-form-{i}", "real_form", dict(args)))
    for i in range(16):
        g = 1.0 if i % 2 == 0 else 1j
        energy = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        ops.append(Op(f"turning-{i}", "turning", {"g": g, "energy": energy, "window": (-7.0, 7.0, -4.0, 4.0)}))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list[Op]:
    if workload == "catalog":
        return catalog_ops(seed)
    if workload == "shell-grid":
        return shell_grid_ops(seed)
    if workload == "quadrature":
        return quadrature_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def materialise(ops: list[Op], workdir: Path) -> None:
    """Write generated scenario files into ``workdir``."""
    for op in ops:
        if "text" in op.args:
            path = workdir / op.args["file"]
            path.write_text(op.args["text"])
            op.args["source"] = str(path)


def _pendulum_roots(g: complex, energy: complex, window) -> list[complex]:
    """Closed-form roots of -g cos x = E inside the window, skipping any
    within 1e-6 of its edge (where rounding decides membership)."""
    re_lo, re_hi, im_lo, im_hi = window
    alpha = cmath.acos(-energy / g)
    roots = []
    for k in range(-3, 4):
        for z in (alpha + 2.0 * math.pi * k, -alpha + 2.0 * math.pi * k):
            if re_lo + 1e-6 < z.real < re_hi - 1e-6 and im_lo + 1e-6 < z.imag < im_hi - 1e-6:
                roots.append(z)
    return roots


def fill_references(ops: list[Op], cp) -> None:
    """Compute every reference value; runs before the timed region.

    Periods come from closed forms (``pendulum_period``, 2 pi); escape
    times of the shell-grid starts come from ``escape_time`` with the
    cutoff ending at the escape radius; each quadrature escape op is
    checked against the other route (``escape_time`` against
    ``escape_time_real_form``).
    """
    for op in ops:
        for start in op.expect.get("starts", []):
            if "period" in start and isinstance(start["period"], tuple):
                kind, energy = start["period"]
                start["period"] = pendulum_period(energy) if kind == "pendulum" else 2.0 * math.pi
            if "escape_time" in start and isinstance(start["escape_time"], tuple):
                g, energy, x0 = start["escape_time"]
                model = cp.Pendulum(g=1.0 if g == "1" else 1j)
                start["escape_time"] = cp.escape_time(model, energy, x0, cutoff=ESCAPE_RADIUS - abs(x0.imag))
        if isinstance(op.expect.get("quad_period"), tuple):
            op.expect["quad_period"] = pendulum_period(op.expect["quad_period"][1])
        a = op.args
        if op.kind == "period":
            op.expect["value"] = pendulum_period(a["energy"])
        elif op.kind == "escape":
            op.expect["value"] = cp.escape_time_real_form(cp.Pendulum(g=a["g"]), a["energy"], a["x0"])
        elif op.kind == "real_form":
            op.expect["value"] = cp.escape_time(cp.Pendulum(g=a["g"]), a["energy"], a["x0"])
        elif op.kind == "turning":
            op.expect["roots"] = _pendulum_roots(a["g"], a["energy"], a["window"])


def run_op(op: Op, cp, out_root: Path):
    """Issue one op through the package's public entry points.

    Entry points are looked up on the package at call time, so wrappers
    installed by the tracer are the ones called.  Returns the exit code
    for scenarios and the return value otherwise.
    """
    a = op.args
    if op.kind == "scenario":
        return cp.cli.run_scenario(a["source"], out=str(out_root / op.name), quiet=True)
    if op.kind == "period":
        return cp.period_contour(cp.Pendulum(g=a["g"]), a["energy"], a["pair"])
    if op.kind == "escape":
        return cp.escape_time(cp.Pendulum(g=a["g"]), a["energy"], a["x0"])
    if op.kind == "real_form":
        return cp.escape_time_real_form(cp.Pendulum(g=a["g"]), a["energy"], a["x0"])
    if op.kind == "turning":
        return [tp.x0 for tp in cp.turning_points(cp.Pendulum(g=a["g"]), a["energy"], a["window"])]
    raise ValueError(f"unknown op kind {op.kind!r}")
