"""The parity corpus, replayed on a library built with extra flags.

    python parity_replay.py CACHE SRC FLAG...

builds the compiled library into the directory CACHE from the package
under SRC, its flags followed by FLAG..., and replays on it, in this
interpreter, the inputs the parity tests compare with the Python path:

- the 14 bundled scenarios through ``run_scenario``, each output file
  checked against ``test_golden_outputs.GOLDEN``, which runs every entry
  point: ``dopri5_steps`` (main runs, which it starts itself and whose
  events it polishes, and landing runs that keep no rows),
  ``energy_rows`` (with and without the scale column), ``csv_rows`` and
  ``quad_op``, each reading the model record;
- ``csv_rows`` writing each of ``test_csv_writer.longest_rows()`` into an
  allocation of exactly one row's 512 bytes, so that a fixed-width copy
  of the digits reaching past the row fails; the special values, and a
  driven row with no cell, on both formatters;
- the quadrature corpus and the turning-point corpus, each on the
  library's path and on the Python path;
- ``test_library_operations``' calls: each typed error (a hand-back of
  every kind, from inside an integral too: the panel budget, the
  resolution limit, a node on a root, an unclosed guide), the cubic's
  signed-zero seeds and entry points, the guide refined to its ceiling,
  the unconverged seeds, the rare paths (``RARE``) and more roots than
  the reused result buffer holds, with a pendulum window at the seed
  budget ``_MAX_SEEDS`` and just past it;
- ``test_dopri5``'s runs: the cases, the events the kernel watches and
  polishes (and, with the polishing rebound, leaves to Python), runs at
  the edges of its row buffer, landing runs it lands and hands back,
  energy rows past cmath's switch, the kernel's rarer exits
  (``RARE_RUNS``, ``SCREENS``), the dip tied with the next row and the
  running maximum.

It prints "replayed" at the end.  ``test_sanitized_build`` replays it
under AddressSanitizer and UBSan, where a bad memory access, a record
laid out otherwise in Python and in C, or undefined behaviour fails it;
``test_coverage_build`` under gcov, where a line of the sources that it
does not run fails unless that test's allowlist names it.
"""
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def run(cache, src, flags, env=None):
    """This script in a fresh interpreter, building into ``cache`` from
    the package under ``src`` with ``flags``; its completed process."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(TESTS)}
    cmd = [sys.executable, str(Path(__file__).resolve()), str(cache), str(src), *flags]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)


def scenarios(cache):
    import test_golden_outputs

    from complexpendulum.cli import run_scenario

    out = cache / "out"
    for scenario in test_golden_outputs.SCENARIOS:
        assert run_scenario(scenario, out=out / scenario, quiet=True) == 0, scenario
    got = {f"{f.parent.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*/*")}
    golden = test_golden_outputs.GOLDEN
    assert got == golden, sorted(k for k in got if got[k] != golden.get(k))


def csv_rows():
    import numpy as np
    import test_csv_writer

    from complexpendulum import _dopri5

    csv_rows = _dopri5._library().csv_rows
    for row in test_csv_writer.longest_rows():
        t, z = np.ascontiguousarray(row[:1]), np.ascontiguousarray(row[1:]).view(complex)
        for driven in (0, 1):
            # an allocation of exactly one row's bytes
            out = np.empty(_dopri5._CSV_ROW_BYTES, dtype=np.uint8)
            assert csv_rows(1, t.ctypes.data, *(z[i:].ctypes.data for i in range(3)), driven, out.ctypes.data) > 0
    rows = _dopri5.csv_formatter()
    test_csv_writer.test_switch_points_and_special_values(rows)
    for re_x in (math.nan, math.inf):
        for at in (0, 600):
            test_csv_writer.test_a_row_with_no_cell_raises_alike_in_both_writers(rows, re_x, at)


def corpora():
    import test_quadrature_corpus
    import test_turning_corpus

    from complexpendulum import _dopri5

    for corpus in (test_quadrature_corpus, test_turning_corpus):
        assert corpus._mismatches() == []
        params, _dopri5.model_params = _dopri5.model_params, lambda model: None
        try:
            assert corpus._mismatches() == []
        finally:
            _dopri5.model_params = params


def operations():
    import pytest
    import test_library_operations as t

    from complexpendulum import Pendulum, _dopri5, turning_points

    for case in t.ERRORS:
        t.test_each_error_keeps_its_type_and_message(*case)
    for case in t.RARE:
        t.test_rare_paths_match_the_python_path(*case)
    for energy in t.CUBIC_ENERGIES:
        t.test_cubic_roots_follow_the_sign_of_a_zero(energy)
    for energy in (complex(0.0, 1e-320), complex(0.0, 5e307)):
        t.test_a_cubic_energy_cmath_log_rescales_is_handed_back(energy)
    for call in t.cubic_calls():
        with pytest.MonkeyPatch.context() as m:
            t.test_each_cubic_entry_point_is_one_library_call(m, call)
    for _, call in t.benchmark_operations():
        t.on_both_paths(call)
    t.test_a_ray_past_the_cosh_switch_is_handed_back()
    t.test_the_guide_refinement_is_logged_by_the_library_operation()
    t.test_a_guide_refined_to_its_ceiling_is_used_as_it_stands()
    with pytest.MonkeyPatch.context() as m:
        t.test_the_unconverged_seed_warning_reads_as_before(m)
    t.test_more_roots_than_a_reused_buffer_holds()
    # a pendulum window at the seed budget _MAX_SEEDS, whose roots outgrow
    # the reused result buffer, and the window just past it
    with t.operations() as made:
        assert len(turning_points(Pendulum(g=1.0), 0.3, (-31401.0, 31401.0, -2.0, 2.0))) == 19990
        with pytest.raises(ValueError):
            turning_points(Pendulum(g=1.0), 0.3, (-31402.0, 31402.0, -2.0, 2.0))
    assert made == [(_dopri5.OP_TURNING, True), (_dopri5.OP_TURNING, False)], made


def runs():
    import pytest
    import test_dopri5 as t

    for run in t.CASES:
        with t.kernel_returns() as spy, pytest.MonkeyPatch.context() as m:
            t.test_kernel_matches_the_python_loop(m, spy, run)
    for run in (t.dip_rows_511_512_513, t.dip_rows_512_513_514, t.escape_on_row_0, t.overflow_on_row_0):
        with t.kernel_returns() as spy, pytest.MonkeyPatch.context() as m:
            t.test_events_at_block_edges_match_the_python_loop(m, spy, run)
    for run in t.EVENT_ENDINGS:
        t.test_events_end_in_the_kernel(None, run)
    # with the polishing rebound, the kernel leaves each candidate to
    # Python and goes on from it
    with pytest.MonkeyPatch.context() as m:
        t.test_rebound_polishing_is_left_to_python(None, m)
    with t.kernel_returns() as spy:
        t.test_hand_back_at_the_cmath_sinh_switch(spy)
    with t.kernel_returns() as spy, pytest.MonkeyPatch.context() as m:
        t.test_a_first_step_that_underflows_truncates_the_run(m, spy)
    for run, end in t.RARE_RUNS.items():
        t.test_rare_runs_match_the_python_loop(None, run, end)
    for loop in t.SCREENS.values():
        with t.kernel_returns() as spy:
            t.test_each_screen_of_a_step_hands_it_back(None, spy, loop)
    t.test_a_dip_tied_with_the_next_row_is_a_dip_on_both_paths(None)
    t.test_the_running_maximum_is_the_maximum_of_the_kept_rows(None)
    for model, row, t_target, polish, outcome in t.HANDED_BACK_LANDINGS:
        t.test_landing_runs_the_library_hands_back(None, model, row, t_target, polish, outcome)
    landing = (t.Pendulum(g=0.6 + 0.8j), (0.5, 0.3 + 0.2j, 0.4 - 0.1j), 2.0)
    assert t.assert_advance_matches_python(*landing)[1]
    for x_last in (0.3 + 708.5j, 0.3 + 711.0j, complex(math.inf, 0.0)):
        t.test_rows_past_the_cmath_cosh_switch_go_to_python(None, x_last)


def main(cache, src, flags):
    sys.path.insert(0, src)
    from complexpendulum import _dopri5

    _dopri5._CACHE = Path(cache)
    _dopri5._FLAGS = (*_dopri5._FLAGS, *flags)
    assert _dopri5._library() is not None, "the library did not build"
    scenarios(Path(cache))
    for section in (csv_rows, corpora, operations, runs):
        section()
    print("replayed")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
