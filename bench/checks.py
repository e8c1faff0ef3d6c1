"""Output checks.  Each returns the list of problems found; an empty list
means the op's output is correct.

Scenario ops are judged only from the exit code and ``summary.json``;
quadrature ops from the return value.  Neither looks inside package
objects, so refactors of the package cannot break the checks.
"""
from __future__ import annotations

import cmath
import math

from workloads import CATALOG_QUAD_RTOL, PERIOD_RTOL, QUAD_RTOL, Op


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _errors(summary: dict) -> list[str]:
    """Every 'error' entry in a summary, with where it sits."""
    found = []
    for rec in summary.get("trajectories", []):
        if "error" in rec:
            found.append(f"trajectory {rec.get('index')}: {rec['error']}")
        for key, val in rec.items():
            if isinstance(val, dict) and "error" in val:
                found.append(f"trajectory {rec.get('index')} {key}: {val['error']}")
    for key, val in summary.get("quadrature", {}).items():
        if isinstance(val, dict) and "error" in val:
            found.append(f"quadrature {key}: {val['error']}")
    return found


def check_scenario(op: Op, code: int, summary: dict | None) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if summary is None:
        return ["no summary.json"]
    problems = _errors(summary)
    trajs = summary.get("trajectories", [])
    classes = [t.get("classification") for t in trajs]
    exp = op.expect
    if "classes" in exp and classes != exp["classes"]:
        problems.append(f"classifications {classes} != {exp['classes']}")
    if exp.get("never_closed") and "closed" in classes:
        problems.append(f"closed orbit in {classes}")
    if "starts" in exp:
        if len(trajs) != len(exp["starts"]):
            problems.append(f"{len(trajs)} trajectories, expected {len(exp['starts'])}")
        for i, (rec, want) in enumerate(zip(trajs, exp["starts"])):
            got = rec.get("classification")
            if got != want["class"]:
                problems.append(f"start {i}: {got}, expected {want['class']}")
                continue
            for key in ("period", "escape_time"):
                if key in want:
                    val = rec.get(key)
                    if not isinstance(val, float) or _rel(val, want[key]) > PERIOD_RTOL:
                        problems.append(f"start {i}: {key} {val} vs reference {want[key]!r}")
    quad = summary.get("quadrature", {})
    for key, block, rtol in (
        ("quad_escape", "escape_time", CATALOG_QUAD_RTOL),
        ("quad_period", "period", QUAD_RTOL),
    ):
        if key in exp:
            val = quad.get(block, {}).get("value")
            if not isinstance(val, float) or _rel(val, exp[key]) > rtol:
                problems.append(f"{block} quadrature {val} vs reference {exp[key]!r}")
    if "first_transition" in exp:
        lo, hi = exp["first_transition"]
        transitions = (trajs[0].get("cells") or {}).get("transitions") if trajs else None
        first = transitions[0][0] if transitions else math.inf
        if not lo < first <= hi:
            problems.append(f"first cell transition at {first}, expected in ({lo}, {hi}]")
    return problems


def check_value(op: Op, value) -> list[str]:
    """Check the return value of a direct quadrature or turning-point call."""
    if op.kind == "turning":
        a = op.args
        g, energy = a["g"], a["energy"]
        re_lo, re_hi, im_lo, im_hi = a["window"]
        problems = []
        for z in value:
            resid = abs(-g * cmath.cos(z) - energy)
            if resid > 1e-10 * max(1.0, abs(energy)):
                problems.append(f"root {z} has residual {resid:.2e}")
            if not (re_lo - 1e-6 <= z.real <= re_hi + 1e-6 and im_lo - 1e-6 <= z.imag <= im_hi + 1e-6):
                problems.append(f"root {z} outside the window")
        for ref in op.expect["roots"]:
            if not any(abs(z - ref) <= 1e-8 for z in value):
                problems.append(f"closed-form root {ref} not found")
        return problems
    if not isinstance(value, float) or _rel(value, op.expect["value"]) > QUAD_RTOL:
        return [f"{op.kind} {value!r} vs reference {op.expect['value']!r}"]
    return []
