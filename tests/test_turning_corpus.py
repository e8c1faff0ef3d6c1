"""Replay the seeded turning-point corpus in ``tests/data``.

Each entry of ``turning_corpus.json`` is a ``turning_points`` or
``refine_root`` call with the outcome it had when the corpus was made
(``tests/data/make_turning_corpus.py`` regenerates it).  Roots must match
bit for bit and in order, errors in type and message.  The corpus is
replayed twice: as the package runs it, with the library's search and
polish for the pendulum kinds and the harmonic model, and with
``_dopri5.model_params`` patched to None, so that the Python search, the
reference, runs every call.
"""
import importlib.util
import json
from pathlib import Path

from complexpendulum import _dopri5

DATA = Path(__file__).resolve().parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location("make_turning_corpus", DATA / "make_turning_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches():
    """(index, call, outcome) of each entry whose replay differs."""
    gen = _generator()
    entries = json.loads((DATA / "turning_corpus.json").read_text())["entries"]
    assert len(entries) == 124
    mismatches = []
    for k, entry in enumerate(entries):
        want = {key: entry[key] for key in ("roots", "error", "message") if key in entry}
        got = gen.outcome(entry)
        # as JSON text, so that a root's signed zero counts
        if json.dumps(got) != json.dumps(want):
            mismatches.append((k, entry["call"], got))
    return mismatches


def test_outcomes_match_the_corpus():
    assert _mismatches() == []


def test_python_search_matches_the_corpus(monkeypatch):
    monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
    assert _mismatches() == []
