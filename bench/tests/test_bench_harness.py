"""Tests of the benchmark harness itself: inputs, checks, tracing."""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import complexpendulum as cp  # noqa: E402
import complexpendulum.cli  # noqa: E402,F401


def _inputs(workload: str, seed: int, tmp: Path) -> dict:
    ops = workloads.generate(workload, seed)
    listed = [(op.name, op.kind, repr(sorted(op.args.items()))) for op in ops]
    tmp.mkdir()
    workloads.materialise(ops, tmp)
    return {"ops": listed, "files": {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(workload, tmp_path):
    a = _inputs(workload, 7, tmp_path / "a")
    b = _inputs(workload, 7, tmp_path / "b")
    c = _inputs(workload, 8, tmp_path / "c")
    assert a == b
    assert a != c


def _shell_op_with_summary(tmp_path):
    """The first shell-grid op of seed 1, run for real, and its summary."""
    op = workloads.shell_grid_ops(1)[0]
    workloads.materialise([op], tmp_path)
    workloads.fill_references([op], cp)
    code = cp.cli.run_scenario(op.args["source"], out=str(tmp_path / "out"), quiet=True)
    return op, code, json.loads((tmp_path / "out" / "summary.json").read_text())


def test_checker_flags_tampered_outputs(tmp_path):
    op, code, summary = _shell_op_with_summary(tmp_path)
    assert checks.check_scenario(op, code, summary) == []

    bad_period = copy.deepcopy(summary)
    bad_period["trajectories"][2]["period"] *= 1.0 + 1e-5
    assert checks.check_scenario(op, code, bad_period)

    flipped = copy.deepcopy(summary)
    flipped["trajectories"][0]["classification"] = "open"
    assert checks.check_scenario(op, code, flipped)

    assert checks.check_scenario(op, 2, summary) == ["exit code 2"]

    errored = copy.deepcopy(summary)
    errored["trajectories"][1]["pt"] = {"error": "ValueError: boom"}
    assert checks.check_scenario(op, code, errored)


def test_checker_flags_tampered_quadrature_value():
    op = next(o for o in workloads.quadrature_ops(1) if o.kind == "period")
    workloads.fill_references([op], cp)
    assert checks.check_value(op, workloads.run_op(op, cp, Path("."))) == []
    assert checks.check_value(op, op.expect["value"] * (1.0 + 1e-7))


def test_reference_period_matches_package_elliptic_k():
    for energy in (-0.85, 0.0, 0.4, 0.89):
        ref = 4.0 * cp.elliptic_K(0.5 * (1.0 + energy))
        assert abs(workloads.pendulum_period(energy) - ref) <= 1e-13 * ref


def _span(name, start, end, parent):
    s = tracing.Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_subtracts_children():
    spans = [
        _span("op", 0.0, 10.0, -1),  # children cover 1-4 and 5-9
        _span("integrate", 1.0, 4.0, 0),  # child covers 2-3
        _span("locate_return", 2.0, 3.0, 1),
        _span("pt", 5.0, 9.0, 0),  # children cover 5-6 and 7-8.5
        _span("integrate", 5.0, 6.0, 3),
        _span("integrate", 7.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # a slice counts only the children inside it
    assert tracing.self_times(spans, 3, 6) == pytest.approx([1.5, 1.0, 1.5])


def _package_modules():
    return [m for n, m in sys.modules.items() if m is not None and (n == "complexpendulum" or n.startswith("complexpendulum."))]


def test_install_rebinds_every_binding_and_uninstall_restores():
    integrate = cp.integrator.integrate
    originals = {id(integrate), id(cp.integrator.locate_return), id(cp.turning.turning_points), id(cp.quadrature._panel)}
    tracer = tracing.Tracer()
    tracer.install(cp)
    try:
        assert tracer.missing == {}
        for m in _package_modules():
            assert not any(id(v) in originals for v in vars(m).values()), m.__name__
        bindings = (cp.integrate, cp.integrator.integrate, cp.analysis.integrate, cp.cli.integrate)
        assert all(b is bindings[0] and b is not integrate for b in bindings)
        assert cp.analysis.locate_return is cp.integrator.locate_return
        cp.escape_time(cp.Pendulum(g=1.0), 1.5430806348152437, complex(3.141592653589793, 1.0))
    finally:
        tracer.uninstall()
    assert cp.cli.integrate is integrate and cp.analysis.integrate is integrate
    names = [s.name for s in tracer.spans]
    assert names[0] == "escape_time" and "turning_points" in names and "adaptive_quad" in names
    assert sum(s.counts.get("panel", 0) for s in tracer.spans) > 0


def test_missing_target_is_reported_unmeasured(monkeypatch):
    monkeypatch.delattr(cp.integrator, "_locate_escape")
    tracer = tracing.Tracer()
    tracer.install(cp)
    tracer.uninstall()
    assert "integrator._locate_escape" in tracer.missing
    per_pass = layers.derive([], 0, 0, {})
    values, unmeasured, _ = layers.combine([per_pass], tracer.missing, {})
    assert "integrator._locate_escape" in unmeasured["integrator.steps"]
    assert "integrator.steps" not in values
    assert values["turning.calls"] == 0


def test_counts_repeat_exactly():
    op = next(o for o in workloads.quadrature_ops(3) if o.kind == "escape")
    tracer = tracing.Tracer()
    tracer.install(cp)
    ranges = []
    try:
        for _ in range(2):
            lo = len(tracer.spans)
            workloads.run_op(op, cp, Path("."))
            ranges.append((lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    per_pass = [layers.derive(tracer.spans, lo, hi, {}) for lo, hi in ranges]
    _, _, mismatches = layers.combine(per_pass, tracer.missing, {})
    assert mismatches == []
    assert per_pass[0]["quadrature.panels"] > 0


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quadrature", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, *_ in layers.METRICS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
