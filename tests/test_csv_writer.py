"""The compiled CSV formatter writes what the Python writer writes.

``_csv.c`` formats each float as CPython's ``repr`` (float_repr_style
'short') from the shortest round-trip digits, which it finds itself
(Schubfach, one table of 128-bit powers of ten), and the driven cell
column as ``models.cell_index``.  The table is recomputed here from
Python integers, and the formatter is checked against ``repr`` value by
value: random bit patterns, every binary exponent's extreme significands,
the subnormals, the powers of ten and the switch points of ``repr``'s
layout, each with its neighbours.  Then the whole writer is checked
against its Python loop, ``cli._rows_in_python``, byte for byte on
trajectories outside the bundled scenarios (which ``test_golden_outputs``
covers), and each writer's file is checked to hold the rows before one
that raises, also when it rewrites a longer file.
"""
import cmath
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from complexpendulum import (
    DrivenPendulum,
    EventSpec,
    Harmonic,
    HamiltonianModel,
    IntegratorConfig,
    Pendulum,
    PhaseState,
    Trajectory,
    _dopri5,
    cli,
    integrate,
)
from complexpendulum.models import cell_index

DBL_MAX = sys.float_info.max


@pytest.fixture(scope="module")
def rows():
    formatter = _dopri5.csv_formatter()
    if formatter is None:
        pytest.skip("the compiled library could not be built here")
    return formatter


def format_table(rows, table, driven=False):
    """The formatter's lines for an (n, 7) array of doubles laid out as the
    CSV columns t, re_x, im_x, re_p, im_p, re_E, im_E."""
    z = np.ascontiguousarray(table[:, 1:]).view(complex)  # x, p, E
    blocks = rows(table[:, 0], z[:, 0], z[:, 1], z[:, 2], driven)
    # copied: each block is a view of the buffer that the next overwrites
    return b"".join(bytes(block) for block in blocks).decode().splitlines()


def assert_formats_as_repr(rows, values):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-len(values) % 7)])
    got = ",".join(format_table(rows, values.reshape(-1, 7))).split(",")
    want = [repr(v) for v in values.tolist()]
    mismatches = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want)
    assert mismatches == []


def test_random_bit_patterns(rows):
    rng = np.random.default_rng(20180618)
    values = np.frombuffer(rng.bytes(8 * 1_100_000), dtype=np.float64)
    values = values[np.isfinite(values)][: 1 << 20]
    assert len(values) == 1 << 20
    assert_formats_as_repr(rows, values)


def test_power_of_ten_table_is_recomputed_from_integers():
    """Each entry of ``_csv.c``'s table G is g(e) = floor(10**e * 2**-r) + 1
    with r = floor(log2(10**e)) - 127, for e = -292..324: the powers that
    the doubles' exponents need."""
    source = Path(_dopri5.__file__).with_name("_csv.c").read_text()
    table = re.search(r"static const uint64_t G\[[^]]*\]\[2\] = \{(.*?)\};", source, re.S).group(1)
    pairs = re.findall(r"\{0x([0-9a-f]{16}), 0x([0-9a-f]{16})\}", table)
    entries = [int(hi, 16) << 64 | int(lo, 16) for hi, lo in pairs]
    want = []
    for e in range(-292, 325):
        if e >= 0:
            shift = 127 - (10**e).bit_length() + 1  # -r
            g = 10**e << shift if shift >= 0 else 10**e >> -shift
        else:
            # 2**(L-1) < 10**-e < 2**L, so floor(log2(10**e)) = -L
            g = (1 << ((10**-e).bit_length() + 127)) // 10**-e
        want.append(g + 1)
    assert entries == want
    assert all(1 << 127 < g < 1 << 128 for g in entries)


def test_every_binary_exponent(rows):
    """Significands 0, 1, 2**51 and 2**52 - 1 at each of the 2047 finite
    exponents, both signs: the zeros, the subnormals' extremes, and each
    binade's first value, whose lower neighbour is closer."""
    fields = [(b << 52) | f for b in range(2047) for f in (0, 1, 1 << 51, (1 << 52) - 1)]
    bits = np.array(fields + [(1 << 63) | v for v in fields], dtype=np.uint64)
    assert_formats_as_repr(rows, bits.view(np.float64))


def test_subnormals(rows):
    rng = np.random.default_rng(4940656458412)
    fields = np.concatenate([np.arange(1, 5000), rng.integers(1, 1 << 52, 20000)]).astype(np.uint64)
    values = fields.view(np.float64)
    assert_formats_as_repr(rows, np.concatenate([values, -values]))


def test_powers_of_ten(rows):
    """10**k from 1e-323 to 1e308 with the doubles on either side."""
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_formats_as_repr(rows, powers + [math.nextafter(v, d) for v in powers for d in (-math.inf, math.inf)])


def test_integers_around_two_to_the_53(rows):
    """Below 2**53 every integer is a double and writes as itself; above,
    the doubles step by 2 and 4 and the shortest digits round."""
    integers = [float(2**53 + k) for k in range(-3000, 3001)]
    assert_formats_as_repr(rows, integers + [-v for v in integers])


def test_powers_of_two(rows):
    powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    assert_formats_as_repr(rows, powers + [-v for v in powers])


def test_switch_points_and_special_values(rows):
    points = [0.0, -0.0, 5e-324, -5e-324, DBL_MAX, -DBL_MAX, 1e-4, 1e-5, 9.999999999999999e15, 1e16, 0.1, 123.0]
    near = [math.nextafter(v, d) for v in points for d in (-math.inf, math.inf)]
    integers = [float(10**16 + k) for k in range(-40, 41)] + [float(k) for k in range(-30, 31)]
    nan = float("nan")
    specials = [math.inf, -math.inf, nan, -nan, math.copysign(nan, -1.0), math.copysign(nan, 1.0)]
    assert [math.copysign(1.0, v) for v in specials[2:]] == [1.0, -1.0, -1.0, 1.0]
    assert_formats_as_repr(rows, points + near + integers + specials)


def test_cell_column_is_cell_index(rows):
    boundaries = [(2 * k + 1) * math.pi for k in range(-6, 6)]
    re_x = boundaries + [math.nextafter(b, d) for b in boundaries for d in (-math.inf, math.inf)]
    re_x += [0.0, -0.0, 1e18, -1e18, 1e20, -1e20, 1e300, -1e300, DBL_MAX, -DBL_MAX]
    re_x += [2 * math.pi * c for c in (2.0**63, -(2.0**63), 2.0**64)]  # cells past the int64 range
    re_x += np.random.default_rng(7).uniform(-1e4, 1e4, 1000).tolist()
    table = np.zeros((len(re_x), 7))
    table[:, 1] = re_x
    cells = [line.rsplit(",", 1)[1] for line in format_table(rows, table, driven=True)]
    assert cells == [str(cell_index(complex(v, 0.0))) for v in re_x]
    assert min(int(c) for c in cells[: len(boundaries)]) < 0


def test_longest_row_fits_the_buffer(rows):
    table = np.full((1, 7), -2.2250738585072014e-308)
    table[0, 1] = -DBL_MAX
    (line,) = format_table(rows, table, driven=True)
    assert len(line) + 1 == 485 <= _dopri5._CSV_ROW_BYTES


def longest_rows():
    """One (7,) row of each float layout at its longest, and rows of the
    longest cells, which end the row after the digits' wide copies."""
    layouts = [-1.2345678901234567e-300, -1234567890123456.7, -0.0012345678901234567, -1e16, -5e-324, -9e15]
    layouts += [-1.2345678901234567e16, -0.1, -1.0, -0.00012345678901234567]
    table = np.array([[v] * 7 for v in layouts])
    cells = np.full((4, 7), -2.2250738585072014e-308)
    cells[:, 1] = [-DBL_MAX, DBL_MAX, -(2.0**63) * 2 * math.pi, -(2.0**62) * 2 * math.pi]
    return np.concatenate([table, cells])


def test_no_copy_writes_past_a_row(rows):
    """The digits go out in fixed-width copies that may reach past the
    end of a value: never past the row's 512 bytes."""
    csv_rows = _dopri5._library().csv_rows
    for row in longest_rows():
        for driven in (0, 1):
            t, z = np.ascontiguousarray(row[:1]), np.ascontiguousarray(row[1:]).view(complex)
            out = np.full(_dopri5._CSV_ROW_BYTES + 64, 0xA5, dtype=np.uint8)
            n = csv_rows(1, t.ctypes.data, *(z[i:].ctypes.data for i in range(3)), driven, out.ctypes.data)
            line = ",".join(map(repr, row.tolist()))
            if driven:
                line += f",{cell_index(complex(row[1], row[2]))}"
            assert bytes(out[:n]) == (line + "\n").encode()
            assert (out[_dopri5._CSV_ROW_BYTES :] == 0xA5).all()


class Quartic(HamiltonianModel):
    """A model defined through the Python API: V = x^4/4."""

    kind = "quartic"

    def potential(self, x):
        return 0.25 * x * x * x * x

    def gradient(self, x):
        return x * x * x


def huge_harmonic():
    # p*p overflows, so every energy is inf - inf = nan
    return Harmonic(), integrate(
        Harmonic(),
        PhaseState(1e155 * (1 + 1j), 1e155 * (1 - 1j)),
        IntegratorConfig(max_time=0.5, overflow_guard=1e300),
        EventSpec(closure=False, escape=False),
    )


def pendulum_blocks():
    model = Pendulum(g=1.0)
    return model, integrate(model, PhaseState(0.5 + 0.2j, 0.3 - 0.1j), IntegratorConfig(max_time=120.0))


def driven_leftwards():
    model = DrivenPendulum(g=1.0, epsilon=0.5, omega=1.0)
    return model, integrate(model, PhaseState(-0.5 + 0.01j, -2.5 + 0j), IntegratorConfig(max_time=40.0))


def python_api_model():
    model = Quartic()
    return model, integrate(model, PhaseState(1.0 + 0.5j, 0.2j), IntegratorConfig(max_time=30.0))


@pytest.mark.parametrize("run", [huge_harmonic, pendulum_blocks, driven_leftwards, python_api_model], ids=lambda f: f.__name__)
def test_compiled_writer_matches_the_python_writer(monkeypatch, tmp_path, rows, run):
    model, traj = run()
    python_calls = []
    rows_in_python = cli._rows_in_python

    def spy(*args):
        python_calls.append(args)
        return rows_in_python(*args)

    monkeypatch.setattr(cli, "_rows_in_python", spy)
    cli._write_trajectory_csv(tmp_path / "compiled.csv", traj)
    assert python_calls == []
    monkeypatch.setattr(_dopri5, "csv_formatter", lambda: None)
    cli._write_trajectory_csv(tmp_path / "python.csv", traj)
    assert len(python_calls) == 1
    compiled = (tmp_path / "compiled.csv").read_bytes()
    assert compiled == (tmp_path / "python.csv").read_bytes()
    assert compiled.count(b"\n") == len(traj.samples) + 1


def test_cases_cover_what_they_are_for(rows):
    model, huge = huge_harmonic()
    assert len(huge.samples) > 1
    assert all(cmath.isnan(model.energy(s)) for s in huge.samples)
    _, long_run = pendulum_blocks()
    assert len(long_run.samples) > 2 * _dopri5._ROWS and len(long_run.samples) % _dopri5._ROWS != 0
    _, driven = driven_leftwards()
    assert min(cell_index(s.x) for s in driven.samples) < -1


def test_legacy_repr_style_uses_the_python_writer(monkeypatch, tmp_path):
    model, traj = pendulum_blocks()
    cli._write_trajectory_csv(tmp_path / "short.csv", traj)
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    assert _dopri5.csv_formatter() is None
    cli._write_trajectory_csv(tmp_path / "legacy.csv", traj)
    assert (tmp_path / "legacy.csv").read_bytes() == (tmp_path / "short.csv").read_bytes()


@pytest.mark.parametrize("at", [0, 600], ids=["first-row", "second-block"])
@pytest.mark.parametrize("re_x", [math.nan, -math.nan, math.inf, -math.inf], ids=["nan", "-nan", "inf", "-inf"])
def test_a_row_with_no_cell_raises_alike_in_both_writers(rows, re_x, at):
    """A driven row whose Re x is not finite has no cell: the compiled
    writer hands it back, and ``cell_index`` raises the Python writer's
    error on it, after the same rows.  Only hand-built columns have such
    a row: ``integrate`` stores no non-finite state, and a trajectory's
    energy column raises first at an infinite Re x."""
    t, x = np.arange(700.0), np.full(700, 0.5 + 0.1j)
    x[at] = complex(re_x, 0.2)
    p, e = np.full(700, 0.3 - 0.2j), np.full(700, -0.2 + 0.1j)
    compiled, python = io.BytesIO(), io.BytesIO()
    with pytest.raises((ValueError, OverflowError)) as raised:
        for block in rows(t, x, p, e, True):
            compiled.write(bytes(block))
    with pytest.raises((ValueError, OverflowError)) as want:
        python.writelines(cli._rows_in_python(t, x, p, e, True))
    assert (type(raised.value), str(raised.value)) == (type(want.value), str(want.value))
    assert type(want.value) is (ValueError if math.isnan(re_x) else OverflowError)
    assert compiled.getvalue() == python.getvalue()
    assert compiled.getvalue().count(b"\n") == at


@pytest.mark.parametrize("formatter", ["compiled", "python"])
@pytest.mark.parametrize("at", [0, 600], ids=["first-row", "second-block"])
def test_a_file_holds_the_rows_before_one_that_raises(monkeypatch, tmp_path, rows, formatter, at):
    """A driven row with no cell raises in ``_write_trajectory_csv``, and
    the file it replaces holds exactly the header and the rows
    before it, with nothing of the longer file it replaces."""
    if formatter == "python":
        monkeypatch.setattr(_dopri5, "csv_formatter", lambda: None)
    model = DrivenPendulum(g=1.0, epsilon=0.5, omega=1.0)
    t, x, p = np.arange(700.0), np.full(700, 0.5 + 0.1j), np.full(700, 0.3 - 0.2j)
    cli._write_trajectory_csv(tmp_path / "whole.csv", Trajectory(t, x, p, "horizon", model))
    path = tmp_path / "traj.csv"
    path.write_bytes(b"x" * 200_000)
    x[at] = complex(math.nan, 0.2)
    with pytest.raises(ValueError):
        cli._write_trajectory_csv(path, Trajectory(t, x, p, "horizon", model))
    # the header and the rows before the one with no cell
    want = (tmp_path / "whole.csv").read_bytes().splitlines(keepends=True)[: at + 1]
    assert path.read_bytes() == b"".join(want)
