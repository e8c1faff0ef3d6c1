"""The compiled library under AddressSanitizer and UBSan.

This test builds the library with ``-fsanitize=address,undefined`` into a
temporary directory and replays the parity corpus on it
(``parity_replay.py``, shared with ``test_coverage_build``) in a fresh
interpreter with the ASan runtime preloaded.  A bad memory access, a
record laid out otherwise in Python and in C, or undefined behaviour
fails the replay.  The interpreter allocates with the system ``malloc``,
so ASan also catches a read past a packed record.  The test is skipped
where the compiler or the ASan runtime is missing.
"""
import os
import shutil
import subprocess
from pathlib import Path

import parity_replay
import pytest

from complexpendulum import _dopri5


def test_quadrature_runs_clean_under_asan(tmp_path):
    compiler = shutil.which(_dopri5._COMPILER)
    if compiler is None:
        pytest.skip(f"no {_dopri5._COMPILER} here")
    asan = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.isfile(asan):
        pytest.skip("no ASan runtime here")
    env = {
        "LD_PRELOAD": asan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        # the system allocator, not pymalloc's arenas, so that ASan sees
        # each packed record and numpy buffer as an allocation of its own
        "PYTHONMALLOC": "malloc",
    }
    src = Path(_dopri5.__file__).resolve().parents[1]
    proc = parity_replay.run(tmp_path, src, ("-fsanitize=address,undefined", "-fno-omit-frame-pointer"), env)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "replayed"
    assert "runtime error" not in proc.stderr
    assert list(tmp_path.glob("_dopri5-*.so")), "the replay did not use a library built here"
