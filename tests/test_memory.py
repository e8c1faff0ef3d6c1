"""A run holds its rows once: the peak memory of fig12, the longest bundled
run (66667 rows), stays near the size of its own t, x and p columns.

tracemalloc counts numpy's buffers, and the run is deterministic, so the
peaks are exact counts, not timings.  Both ratios are to the columns'
bytes, 8 + 16 + 16 per row: ``integrate`` holds the columns and, while it
assembles them, the pieces of those not yet copied; ``run_scenario``
adds the outputs, the energy column H (16 bytes a row; a driven run
such as fig12 keeps no scale column), the cell indices and the CSV
writer's buffer.  The Python paths of the
energy rows and the CSV writer, which serve the models the library does
not run and a failed build, work a block of rows at a time and stay
inside the same bound.
"""
import gc
import tracemalloc

import pytest

from complexpendulum import _dopri5, cli, integrate


@pytest.fixture(scope="module")
def fig12():
    if _dopri5._library() is None:
        pytest.skip("the compiled library could not be built here")
    scn = cli.load_scenario("fig12")
    _, (start,) = cli._starting_states(scn)
    return scn, start


def traced_peak(run):
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(traj):
    return traj.t.nbytes + traj.x.nbytes + traj.p.nbytes


def test_integrate_peaks_at_one_and_a_half_columns(fig12):
    scn, start = fig12
    traj, peak = traced_peak(lambda: integrate(scn.model, start, scn.config, scn.events))
    assert len(traj) == 66667
    assert peak <= 1.5 * column_bytes(traj)


def test_run_scenario_peaks_at_two_columns(fig12, tmp_path):
    scn, start = fig12
    columns = column_bytes(integrate(scn.model, start, scn.config, scn.events))
    cli.run_scenario("fig12", out=tmp_path / "warm", quiet=True)  # imports and the library's first calls
    code, peak = traced_peak(lambda: cli.run_scenario("fig12", out=tmp_path / "run", quiet=True))
    assert code == 0
    assert peak <= 2.0 * columns


def test_python_energy_rows_and_writer_peak_at_two_columns(fig12, monkeypatch, tmp_path):
    """The run on the library, its energy rows and CSV rows all on the
    Python path: no whole-run list of Python numbers (5.4 columns)."""
    scn, start = fig12
    columns = column_bytes(integrate(scn.model, start, scn.config, scn.events))
    energy_columns = _dopri5.energy_columns
    monkeypatch.setattr(_dopri5, "energy_columns", lambda *args: (*energy_columns(*args)[:2], 0))
    monkeypatch.setattr(_dopri5, "csv_formatter", lambda: None)
    cli.run_scenario("fig12", out=tmp_path / "warm", quiet=True)
    code, peak = traced_peak(lambda: cli.run_scenario("fig12", out=tmp_path / "run", quiet=True))
    assert code == 0
    assert peak <= 2.0 * columns
