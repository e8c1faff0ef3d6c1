"""Regenerate ``quadrature_corpus.json``, a corpus of seeded quadrature outcomes.

    python3 tests/data/make_quadrature_corpus.py

The script imports the package from ``src/`` of the checkout it sits in
and writes ``quadrature_corpus.json`` beside itself.  Each entry is one
call of ``contour_integral`` (a turning-point pair and an offset) or of
``escape_time`` (a root, a direction and a cutoff) on the pendulum with
g = 1, i or 0.6+0.8i, the harmonic oscillator or the imaginary cubic,
with its outcome: the value as [re, im], or the error's type and message.
``tests/test_quadrature_corpus.py`` replays the calls.  The file pins
the outcomes of the commit it was generated on; regenerate it only when
a change is meant to move them, and say which ones moved.
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import complexpendulum as cp  # noqa: E402

SEED = 20261018
CASES_PER_MODEL = 20  # half contours, half escape rays
WINDOW = (-4.0, 4.0, -2.5, 2.5)
MODELS = [
    {"kind": "pendulum", "g": [1.0, 0.0]},
    {"kind": "pendulum", "g": [0.0, 1.0]},
    {"kind": "pendulum", "g": [0.6, 0.8]},
    {"kind": "harmonic"},
    {"kind": "cubic-i"},
]


def build_model(spec: dict):
    """The model an entry's ``model`` field names."""
    if spec["kind"] == "pendulum":
        return cp.Pendulum(g=complex(*spec["g"]))
    if spec["kind"] == "harmonic":
        return cp.Harmonic()
    if spec["kind"] == "cubic-i":
        return cp.ImaginaryCubic()
    raise ValueError(f"unknown model kind {spec['kind']!r}")


def call(entry: dict):
    """Replay one entry's call; returns the complex result or raises."""
    model = build_model(entry["model"])
    energy = complex(*entry["energy"])
    if entry["call"] == "contour_integral":
        pair = [complex(*z) for z in entry["pair"]]
        return complex(cp.contour_integral(model, energy, pair, entry["offset"]))
    return complex(
        cp.escape_time(model, energy, complex(*entry["root"]), entry["cutoff"], direction=entry["direction"])
    )


def outcome(entry: dict) -> dict:
    try:
        value = call(entry)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"value": [value.real, value.imag]}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _escape_family(spec: dict, c: float):
    """An energy and a root whose vertical ray is a genuine escape ray of
    the real-g pendulum, the g = i pendulum and the imaginary cubic; for
    g = 0.6+0.8i and the harmonic oscillator the analogous ray is none
    (V - E along it is complex, or real and negative), so escape_time
    raises there."""
    if spec["kind"] == "pendulum":
        g = complex(*spec["g"])
        if g == 1j:
            return complex(math.sinh(c)), complex(1.5 * math.pi, c)
        return g * math.cosh(c), complex(math.pi, c)
    if spec["kind"] == "harmonic":
        return complex(-0.5 * c * c), complex(0.0, c)
    return complex(c**3), complex(0.0, c)


def entries(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for spec in MODELS:
        model = build_model(spec)
        for n in range(CASES_PER_MODEL):
            if n % 4 == 3:
                # a ray of the escape family from its upper root, or from
                # the root Newton reaches from that root's mirror image (the
                # lower root, but for the cubic); the default direction
                # points away from the real axis
                energy, guess = _escape_family(spec, round(rng.uniform(0.3, 2.0), 3))
                if rng.random() < 0.5:
                    guess = guess.conjugate() if spec["kind"] == "pendulum" else -guess
                roots = [cp.refine_root(model, energy, guess).x0]
            else:
                # half the energies real, where escape rays and real periods exist
                im = 0.0 if rng.random() < 0.5 else round(rng.uniform(-1.0, 1.0), 3)
                energy = complex(round(rng.uniform(-2.0, 2.0), 3), im)
                roots = [tp.x0 for tp in cp.turning_points(model, energy, WINDOW)]
            entry = {"model": spec, "energy": _pair(energy)}
            if n % 2 == 0:
                # neighbours in (Re, Im) order, or next-but-one, which may
                # enclose a third root
                i = rng.randrange(len(roots) - 1)
                j = min(i + rng.choice([1, 1, 2]), len(roots) - 1)
                entry.update(
                    call="contour_integral",
                    pair=[_pair(roots[i]), _pair(roots[j])],
                    offset=rng.choice([0.2, 0.3, 0.5, 1.0, 2.0]),
                )
            else:
                entry.update(
                    call="escape_time",
                    root=_pair(rng.choice(roots)),
                    direction=None if n % 4 == 3 else rng.choice([None, 1, -1]),
                    cutoff=rng.choice([20.0, 40.0, 60.0]),
                )
            entry.update(outcome(entry))
            out.append(entry)
    return out


def main() -> None:
    rows = ",\n".join(json.dumps(entry) for entry in entries(SEED))
    (HERE / "quadrature_corpus.json").write_text(f'{{"seed": {SEED}, "entries": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
