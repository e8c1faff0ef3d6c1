"""Every line of the compiled library is run by the parity corpus.

This test builds the library with ``--coverage -O0 -fprofile-update=atomic``
into a temporary directory, replays the parity corpus on it
(``parity_replay.py``, shared with ``test_sanitized_build``) in a fresh
interpreter, and reads from ``gcov`` how often each line of ``_dopri5.c``
and ``_csv.c`` ran.  Every input of the corpus is compared with the
Python reference, so a line it runs is a line proven to mirror Python.

A line the replay does not run fails the test unless ``ALLOWED`` names
it, with its reason.  Only two kinds belong there: an allocation that
fails, and a safety exit that no input reaches (a search aimed at it
found none, or its condition is checked before).  Mirrored arithmetic
that no input reaches does not: give it an input in the parity tests, or
delete it and hand the case back, so that the Python reference runs it,
as ``locate_return``'s parabolic vertex now is.  An allowed line that the
replay runs fails too, so that the list stays short.

A coverage build exports gcov's symbols, so it stays apart from the
library the package loads, whose exports
``test_dopri5.test_the_library_exports_only_its_declared_entry_points``
checks.  The test is skipped where ``cc`` or ``gcov`` is missing.
"""
import json
import shutil
import subprocess
from pathlib import Path

import parity_replay
import pytest

from complexpendulum import _dopri5

FLAGS = ("--coverage", "-O0", "-fprofile-update=atomic")

ALLOCATION = "an allocation that fails"

# (function, the line before, the unreached line): why no input reaches it
ALLOWED = {
    ("locate_return", "if (!force(model, a->t, a->x, &ka) || !force(model, c->t, c->x, &kc))", "return 0;"): (
        "the field at a and c was computed when the kernel accepted those rows"
    ),
    ("locate_return", "if (!state_at(model, run, a, c, t_star, &end->x, &end->p, &kp) || !force(model, run->t0, run->x0, &k0p))", "return 0;"): (
        "a landing at t* that stops short after the false position's landings reached: none in 5e5 runs drawn"
        " to make the polish's landings stop short"
    ),
    ("branch_term", "if (!(fabs(cell) < 1e15))", "return 0;"): "a node lies on its piece: its cell is at most the piece's cell count",
    ("branch_term", "if (j < 0 || j >= f->n_guide)", "return 0;"): "a node's cell lies in its piece's part of the guide",
    ("midpoints", "!root_at(f, p, p->s0 + ((double)(3 * j) + 2.5) * h, &out[3 * j + 2], &dz))", "return 0;"): (
        "a refined midpoint with no root the library mirrors: past cmath's switch only where a coarse midpoint"
        " is too, or on a root, which the clearance keeps off the path"
    ),
    ("build_guide", "if (n < 1 || cells < 1 || max_cells < 0)", "return 0;"): "quadrature's own guide settings",
    ("build_guide", "if (coarse == NULL)", "goto out;"): ALLOCATION,
    ("build_guide", "if (closed && !root_at(f, &pieces[0], pieces[0].s0, &seed, &dz))", "goto out;"): (
        "the loop's start, a corner of the stadium, is no further past cmath's switch than the edge beside it,"
        " and the clearance keeps it off a root"
    ),
    ("build_guide", "if (grown == NULL)", "goto out;"): ALLOCATION,
    ("build_guide", "if (finer == NULL)", "goto out;"): ALLOCATION,
    ("build_guide", "if (!ok)", "goto out;"): "as for midpoints: a refined midpoint with no root the library mirrors",
    ("pendulum_seeds", "if (out == NULL)", "return -1;"): ALLOCATION,
    ("search", "if (!(win[0] < win[1] && win[2] < win[3]) || !is_finite(energy))", "return -1;"): (
        "turning_points checks the window and the energy first, and the clearance's windows are never empty"
    ),
    ("search", "if (found == NULL || place == NULL || keep == NULL)", "goto out;"): ALLOCATION,
    ("search", "if (*roots == NULL) {", "kept = -1;"): ALLOCATION,
    ("search", "kept = -1;", "goto out;"): ALLOCATION,
    ("integral_op", "if (heap == NULL)", "goto out;"): ALLOCATION + ", or a panel budget below 8",
    ("escape_op", "if (!vgrad(m, x0, &v, &grad))", "return -1;"): (
        "x0 passed the root check or Newton's last check, each taking V and V' there"
    ),
}


def unreached(build):
    """(source, function, the line before, the line, its number) of each
    line of the sources that the replay built in ``build`` did not run."""
    for source in _dopri5._SOURCES:
        counts = list(build.glob(f"*-{source.stem}.gcda"))
        assert len(counts) == 1, f"no line counts of {source.name}"
        report = subprocess.run(
            ["gcov", "--json-format", "--stdout", str(counts[0])], cwd=build, capture_output=True, text=True, check=True
        )
        text = source.read_text().splitlines()
        for document in report.stdout.splitlines():
            for entry in json.loads(document)["files"]:
                if Path(entry["file"]).name != source.name:
                    continue
                for line in entry["lines"]:
                    if line["count"] == 0:
                        n = line["line_number"]
                        yield source.name, line.get("function_name"), text[n - 2].strip(), text[n - 1].strip(), n


def test_every_line_is_run_or_allowed(tmp_path):
    if shutil.which(_dopri5._COMPILER) is None or shutil.which("gcov") is None:
        pytest.skip(f"no {_dopri5._COMPILER} or gcov here")
    proc = parity_replay.run(tmp_path, Path(_dopri5.__file__).resolve().parents[1], FLAGS)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "replayed"
    assert list(tmp_path.glob("_dopri5-*.so")), "the replay did not use a library built here"
    missed = list(unreached(tmp_path))
    keys = [(function, before, line) for _, function, before, line, _ in missed]
    assert [entry for entry, key in zip(missed, keys) if key not in ALLOWED] == []
    assert [key for key in ALLOWED if key not in keys] == []
