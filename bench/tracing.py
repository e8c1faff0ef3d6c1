"""Spans and counters around the package's layer boundaries.

A ``Tracer`` wraps package functions from outside the package: span
wrappers record (name, start, end, parent, op) for each call, counting
wrappers add one to a counter of the innermost open span.  Wrappers are
installed only in the traced run and removed afterwards.

Modules import one another with ``from .x import y``, so one function can
be bound under several module names (``cli.integrate``,
``analysis.integrate`` and ``integrator.integrate`` are three bindings).
``install`` rebinds every binding in every loaded package module.  A
target that no longer exists is recorded in ``missing`` and skipped; the
metrics that depend on it are then reported as unmeasured.
"""
from __future__ import annotations

import functools
import os
import sys
import time

def _note_csv(args, kwargs, result):
    path, traj = args[0], args[1]
    return {"samples": len(traj.samples), "bytes": os.path.getsize(path)}


def _note_integrate(args, kwargs, result):
    return {"classification": result.classification}


def _note_drift(args, kwargs, result):
    return {"samples": len(args[0].samples)}


def _note_roots(args, kwargs, result):
    return {"roots": len(result)}


# (module, qualified name, note) for span wrappers.  A note reads extra
# facts from the call after it returns; it may fail on a renamed
# attribute, which marks the note's metrics unmeasured.
SPAN_TARGETS = (
    ("cli", "run_scenario", None),
    ("cli", "load_scenario", None),
    ("cli", "_write_trajectory_csv", _note_csv),
    ("integrator", "integrate", _note_integrate),
    ("integrator", "locate_return", None),
    ("integrator", "_locate_escape", None),
    ("integrator", "Trajectory.energy_drift", _note_drift),
    ("analysis", "detect_closure", None),
    ("analysis", "verify_pt_symmetry", None),
    ("analysis", "fit_ellipse", None),
    ("analysis", "cell_escape_summary", None),
    ("turning", "turning_points", _note_roots),
    ("turning", "refine_root", None),
    ("quadrature", "escape_time", None),
    ("quadrature", "escape_time_real_form", None),
    ("quadrature", "period_contour", None),
    ("quadrature", "contour_integral", None),
    ("quadrature", "adaptive_quad", None),
)

# (module, qualified name, counter).  ``*.potential`` stands for the
# ``potential`` of every model class that defines its own.
COUNT_TARGETS = (
    ("models", "HamiltonianModel.field", "field"),
    ("models", "*.potential", "potential"),
    ("integrator", "_next_h", "accepted"),  # once per accepted step
    ("integrator", "_reject_h", "rejected"),  # once per rejected step
    ("quadrature", "_panel", "panel"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}
        self.note = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
            "note": self.note,
        }


class Tracer:
    """In-memory span recorder.  ``spans`` holds every span in opening
    order; ``parent`` is an index into it, or -1 at the top level."""

    def __init__(self):
        self.spans: list[Span] = []
        self._root = Span("<root>", 0.0, -1, None)
        self._stack: list[tuple[int, Span]] = [(-1, self._root)]
        self.op = None
        self.missing: dict[str, str] = {}
        self.note_failures: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1][0], self.op)
        self._stack.append((len(self.spans), span))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # pop down to this span, tolerating children left open by an exception
        while len(self._stack) > 1:
            if self._stack.pop()[1] is span:
                break

    def count(self, key: str) -> None:
        counts = self._stack[-1][1].counts
        counts[key] = counts.get(key, 0) + 1

    def span_wrapper(self, name: str, fn, note=None, target: str = ""):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None and target not in self.note_failures:
                try:
                    span.note = note(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError) as exc:
                    self.note_failures[target] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def count_wrapper(self, key: str, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every span and count target of ``package``."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for modname, qualname, note in SPAN_TARGETS:
            target = f"{modname}.{qualname}"
            short = qualname.rpartition(".")[2]
            make = lambda fn, s=short, n=note, t=target: self.span_wrapper(s, fn, n, t)  # noqa: E731
            self._wrap(package, modules, modname, qualname, make)
        for modname, qualname, key in COUNT_TARGETS:
            self._wrap(package, modules, modname, qualname, lambda fn, k=key: self.count_wrapper(k, fn))

    def _wrap(self, package, modules, modname, qualname, make) -> None:
        target = f"{modname}.{qualname}"
        mod = sys.modules.get(f"{package.__name__}.{modname}")
        if mod is None:
            self.missing[target] = f"module {package.__name__}.{modname} not loaded"
            return
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name == "*":
            base = getattr(mod, "HamiltonianModel", None)
            owners = [
                c for c in vars(mod).values()
                if isinstance(c, type) and base is not None and issubclass(c, base) and attr in vars(c)
            ]
            if not owners:
                self.missing[target] = f"no model class in {mod.__name__} defines {attr}"
            for owner in owners:
                self._wrap_attr(owner, attr, make)
            return
        if owner_name:
            owner = getattr(mod, owner_name, None)
            if not isinstance(owner, type) or attr not in vars(owner):
                self.missing[target] = f"{mod.__name__}.{qualname} not found"
                return
            self._wrap_attr(owner, attr, make)
            return
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.missing[target] = f"{mod.__name__}.{attr} not found"
            return
        wrapper = make(orig)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapper)
                    self._restore.append((m, name, orig))

    def _wrap_attr(self, owner, attr, make) -> None:
        orig = vars(owner)[attr]
        setattr(owner, attr, make(orig))
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()


def self_times(spans: list[Span], lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of each span in ``spans[lo:hi]``: its duration minus the
    part of its interval covered by its children."""
    hi = len(spans) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(lo, hi):
        sp = spans[i]
        if sp.parent >= lo:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i in range(lo, hi):
        sp = spans[i]
        covered = 0.0
        reach = sp.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((sp.end - sp.start) - covered)
    return out
