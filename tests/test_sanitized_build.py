"""The compiled quadrature under AddressSanitizer and UBSan.

``quad_integral`` in ``_dopri5.c`` keeps each integral's panels on a heap
of its own.  This test builds the library with
``-fsanitize=address,undefined`` into a temporary directory and replays
the quadrature corpus in a fresh interpreter with the ASan runtime
preloaded, together with an integral that spends its whole panel budget
and one that stops at the resolution limit.  A bad heap access or
undefined behaviour aborts the replay.  The test is skipped where the
compiler or the ASan runtime is missing.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from complexpendulum import _dopri5

TESTS = Path(__file__).resolve().parent

REPLAY = """
import math, sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])
from complexpendulum import Harmonic, Pendulum, VerticalRay, _dopri5, escape_time, quadrature

_dopri5._CACHE = Path(sys.argv[1])
_dopri5._FLAGS = (*_dopri5._FLAGS, "-fsanitize=address,undefined", "-fno-omit-frame-pointer")
assert _dopri5._library() is not None, "the sanitized library did not build"

import test_quadrature_corpus

assert test_quadrature_corpus._mismatches() == []

stops = []
integral = _dopri5.integral


def spy(*args):
    result = integral(*args)
    stops.append(None if result is None else result[1] and result[1][0])
    return result


_dopri5.integral = spy
try:
    escape_time(Pendulum(g=1.0), math.cosh(1.0), math.pi + 1j, tol=1e-300)
except quadrature.ToleranceNotMet:
    pass
pieces = quadrature._pieces(VerticalRay(-2j, 1, 9.0), 1e-10)
try:
    quadrature._branch_integral(Harmonic(), 0j, pieces, False)
except quadrature.ToleranceNotMet:
    pass
assert stops == ["budget", "resolution"], stops
print("replayed")
"""


def test_quadrature_runs_clean_under_asan(tmp_path):
    compiler = shutil.which(_dopri5._COMPILER)
    if compiler is None:
        pytest.skip(f"no {_dopri5._COMPILER} here")
    asan = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.isfile(asan):
        pytest.skip("no ASan runtime here")
    env = {
        **os.environ,
        "LD_PRELOAD": asan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        "PYTHONPATH": str(TESTS),
    }
    src = str(Path(_dopri5.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, str(tmp_path), src], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "replayed"
    assert "runtime error" not in proc.stderr
    assert list(tmp_path.glob("_dopri5-*.so")), "the replay did not use a library built here"
