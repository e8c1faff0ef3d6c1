"""Regenerate ``turning_corpus.json``, a corpus of seeded turning-point outcomes.

    python3 tests/data/make_turning_corpus.py

The script imports the package from ``src/`` of the checkout it sits in
and writes ``turning_corpus.json`` beside itself.  Each entry is one call
of ``turning_points`` (an energy and a window) or of ``refine_root`` (an
energy and a seed) on the pendulum, the driven pendulum, the harmonic
oscillator or the imaginary cubic, with its outcome: the roots as
[re, im] pairs, or the error's type and message.  The field strength g
is an int, a float or a complex [re, im], with signed zeros.  One
energy in five sits next to a double root, whose two roots lie closer
than the merge distance.  Windows are drawn near the origin, some with
an edge on a root's coordinate, or wide, or far out on the real axis.
``tests/test_turning_corpus.py`` replays the calls.  The
file pins the outcomes of the commit it was generated on; regenerate it
only when a change is meant to move them, and say which ones moved.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import complexpendulum as cp  # noqa: E402

SEED = 20261019
CASES_PER_MODEL = 12  # two in three turning_points, one in three refine_root
MODELS = [
    {"kind": "pendulum", "g": 1},
    {"kind": "pendulum", "g": 1.0},
    {"kind": "pendulum", "g": -2.0},
    {"kind": "pendulum", "g": [0.0, 1.0]},
    {"kind": "pendulum", "g": [-0.0, -0.5]},
    {"kind": "pendulum", "g": [1.0, -0.0]},
    {"kind": "pendulum", "g": [0.6, 0.8]},
    {"kind": "driven-pendulum", "g": 1.0},
    {"kind": "harmonic"},
    {"kind": "cubic-i"},
]


def build_model(spec: dict):
    """The model an entry's ``model`` field names; a [re, im] g is complex."""
    g = spec.get("g")
    if isinstance(g, list):
        g = complex(*g)
    if spec["kind"] == "pendulum":
        return cp.Pendulum(g=g)
    if spec["kind"] == "driven-pendulum":
        return cp.DrivenPendulum(g=g)
    if spec["kind"] == "harmonic":
        return cp.Harmonic()
    if spec["kind"] == "cubic-i":
        return cp.ImaginaryCubic()
    raise ValueError(f"unknown model kind {spec['kind']!r}")


def call(entry: dict):
    """Replay one entry's call; returns the roots as complexes or raises."""
    model = build_model(entry["model"])
    energy = complex(*entry["energy"])
    if entry["call"] == "turning_points":
        return [tp.x0 for tp in cp.turning_points(model, energy, tuple(entry["window"]))]
    return [cp.refine_root(model, energy, complex(*entry["seed"])).x0]


def outcome(entry: dict) -> dict:
    try:
        roots = call(entry)
    except (ValueError, ArithmeticError, RuntimeError, cp.NonConvergence) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"roots": [[z.real, z.imag] for z in roots]}


def _energy(rng: random.Random, spec: dict) -> complex:
    """A complex energy; one in five sits next to a double root, where
    two roots lie closer than the merge distance."""
    if rng.random() < 0.2:
        if spec["kind"] in ("pendulum", "driven-pendulum"):
            g = build_model(spec).g
            return -complex(g) * complex(1.0, rng.choice([1e-20, -1e-20]))
        return complex(rng.choice([1e-20, -1e-20]), rng.choice([0.0, 1e-20]))
    im = rng.choice([0.0, -0.0, round(rng.uniform(-3.0, 3.0), 3)])
    return complex(round(rng.uniform(-3.0, 3.0), 3), im)


def _window(rng: random.Random, spec: dict, energy: complex) -> list[float]:
    shape = rng.random()
    if shape < 0.15:
        # wide, or far out on the real axis
        centre = rng.choice([0.0, round(rng.uniform(-1e5, 1e5), 1)])
        half = rng.choice([40.0, 120.0])
        return [centre - half, centre + half, -3.0, 3.0]
    re_lo, im_lo = round(rng.uniform(-10.0, 10.0), 3), round(rng.uniform(-4.0, 4.0), 3)
    window = [re_lo, re_lo + round(rng.uniform(0.5, 14.0), 3), im_lo, im_lo + round(rng.uniform(0.5, 8.0), 3)]
    if shape < 0.55 and spec["kind"] in ("pendulum", "driven-pendulum"):
        # one edge on a closed-form root's coordinate
        alpha = cmath.acos(-energy / build_model(spec).g)
        root = rng.choice([1.0, -1.0]) * alpha + 2.0 * math.pi * rng.randint(-1, 1)
        edge = rng.randrange(4)
        at = root.real if edge < 2 else root.imag
        span = window[edge ^ 1] - window[edge]
        window[edge], window[edge ^ 1] = at, at + span
    return window


def entries(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for spec in MODELS:
        for n in range(CASES_PER_MODEL):
            energy = _energy(rng, spec)
            entry = {"model": spec, "energy": [energy.real, energy.imag]}
            if n % 3 == 2:
                seed_x = complex(round(rng.uniform(-10.0, 10.0), 3), round(rng.uniform(-3.0, 3.0), 3))
                entry.update(call="refine_root", seed=[seed_x.real, seed_x.imag])
            else:
                entry.update(call="turning_points", window=_window(rng, spec, energy))
            entry.update(outcome(entry))
            out.append(entry)
    # the errors a call can end in: a window too wide to seed, a window
    # of no area, a seed Newton cannot leave, and g = 0
    for spec, energy, key, value in [
        ({"kind": "pendulum", "g": 1.0}, 1.0, "window", [-1e12, 1e12, -2.0, 2.0]),
        ({"kind": "harmonic"}, 0.5, "window", [1.0, 1.0, -1.0, 1.0]),
        ({"kind": "harmonic"}, 1.0, "seed", [0.0, 0.0]),
        ({"kind": "pendulum", "g": 0.0}, 0.5, "window", [-1.0, 1.0, -1.0, 1.0]),
    ]:
        entry = {"model": spec, "energy": [energy, 0.0], "call": "turning_points" if key == "window" else "refine_root"}
        entry[key] = value
        entry.update(outcome(entry))
        out.append(entry)
    return out


def main() -> None:
    rows = ",\n".join(json.dumps(entry) for entry in entries(SEED))
    (HERE / "turning_corpus.json").write_text(f'{{"seed": {SEED}, "entries": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
