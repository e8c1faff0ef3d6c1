"""Replay the seeded quadrature corpus in ``tests/data``.

Each entry of ``quadrature_corpus.json`` is a ``contour_integral`` or
``escape_time`` call with the outcome it had when the corpus was made
(``tests/data/make_quadrature_corpus.py`` regenerates it).  Values must
match bit for bit in |Re| and |Im|: the sign of a raw integral is the
branch guide's seed convention, which escape times and periods discard.
Errors must match in type and message.  The corpus is replayed twice: as
the package runs it, with the library's panel sums for the built-in
models, and with ``_dopri5.model_params`` patched to None, so that the
Python integrands, the reference, evaluate every node.
"""
import importlib.util
import json
from pathlib import Path

from complexpendulum import _dopri5

DATA = Path(__file__).resolve().parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location("make_quadrature_corpus", DATA / "make_quadrature_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches():
    """(index, call, outcome) of each entry whose replay differs."""
    gen = _generator()
    entries = json.loads((DATA / "quadrature_corpus.json").read_text())["entries"]
    assert len(entries) == 100
    mismatches = []
    for k, entry in enumerate(entries):
        got = gen.outcome(entry)
        if "value" in entry:
            want = [abs(v) for v in entry["value"]]
            same = "value" in got and [abs(v) for v in got["value"]] == want
        else:
            same = got == {"error": entry["error"], "message": entry["message"]}
        if not same:
            mismatches.append((k, entry["call"], got))
    return mismatches


def test_outcomes_match_the_corpus():
    assert _mismatches() == []


def test_python_integrands_match_the_corpus(monkeypatch):
    monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
    assert _mismatches() == []
