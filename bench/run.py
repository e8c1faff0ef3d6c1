"""Benchmark of the complexpendulum package: one workload per run.

    python3 bench/run.py --workload catalog --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all

A run imports the package from ``src/`` of the checkout it sits in, makes
the workload's inputs from the seed, and issues ops one at a time (a
closed loop, one caller, one thread) in passes over the op list until
``--seconds`` have gone by.  Every output is checked against a reference
computed before timing starts.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # span dumps and trace reports
TMP = ROOT / ".bench_tmp"  # scenario files and outputs, removed at exit

SETUP_REPEATS = 7
MIN_TRACED_PASSES = 2
UNTRACED_SHARE = 0.25  # of a traced run's time, spent on untraced passes

UNITS = {"setup_s": "s", "pass_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms", "peak_rss_mb": "MB"}


def _log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _import_package():
    sys.path.insert(0, str(SRC))
    import complexpendulum
    import complexpendulum.cli  # noqa: F401  (the package does not import it)

    return complexpendulum


def setup_only(workload: str, seed: int, workdir: Path) -> None:
    """What a user waits for before the first op: import the package and
    load or generate the workload's inputs."""
    cp = _import_package()
    ops = workloads.generate(workload, seed)
    workloads.materialise(ops, workdir)
    for op in ops:
        if op.kind == "scenario":
            cp.cli.load_scenario(op.args["source"])


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters doing ``setup_only``."""
    times = []
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup-{i}"
        d.mkdir()
        cmd = [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed), "--workdir", str(d)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return times


class Runner:
    """Issues the ops of one workload and checks every output."""

    def __init__(self, cp, ops, outdir: Path):
        self.cp, self.ops, self.outdir = cp, ops, outdir
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None, pass_no: int = 0) -> float:
        total = 0.0
        for i, op in enumerate(self.ops):
            gc.collect()
            op_span = None
            if tracer is not None:
                tracer.op = pass_no * len(self.ops) + i
                op_span = tracer.open("op")
            t0 = time.perf_counter()
            try:
                result, error = workloads.run_op(op, self.cp, self.outdir), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if op_span is not None:
                tracer.close(op_span)
                tracer.op = None
            total += dt
            self.latencies.append(dt)
            self.attempted += 1
            problems = [error] if error else self._check(op, result)
            if problems:
                self.failures.append(f"{op.name}: {'; '.join(problems[:3])}")
        self.pass_times.append(total)
        return total

    def _check(self, op, result) -> list[str]:
        try:
            if op.kind != "scenario":
                return checks.check_value(op, result)
            path = self.outdir / op.name / "summary.json"
            summary = json.loads(path.read_text()) if path.is_file() else None
            shutil.rmtree(self.outdir / op.name, ignore_errors=True)
            return checks.check_scenario(op, result, summary)
        except Exception as exc:  # malformed output is a failed check
            return [f"check raised {type(exc).__name__}: {exc}"]


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _result(correct: bool, runner: Runner, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def timed_run(cp, runner: Runner, args, setup_times: list[float]) -> tuple[bool, dict]:
    deadline = time.perf_counter() + args.seconds
    while True:
        runner.run_pass()
        if time.perf_counter() >= deadline:
            break
    lat_ms = [1e3 * t for t in runner.latencies]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(runner.pass_times),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": _quantile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  passes {len(runner.pass_times)}  ops {n}")
    print("  pass times " + " ".join(f"{t:.3f}" for t in runner.pass_times) + " s")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "pass_s": f"median of {len(runner.pass_times)} passes",
        "op_ms.p50": f"n={n}",
        "op_ms.p90": f"n={n}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {UNITS[name]:<3}  ({notes[name]})")
    print(f"  {'fail_frac':<12} {len(runner.failures) / n:12.4f} 1    ({len(runner.failures)}/{n} ops failed)")
    return not runner.failures, {k: (v, UNITS[k]) for k, v in metrics.items()}


def traced_run(cp, runner: Runner, args) -> tuple[bool, dict]:
    deadline = time.perf_counter() + args.seconds
    probes = layers.field_ns(cp)
    untraced_until = time.perf_counter() + UNTRACED_SHARE * args.seconds
    while True:
        runner.run_pass()
        if time.perf_counter() >= untraced_until:
            break
    n_untraced = len(runner.pass_times)
    untraced = statistics.median(runner.pass_times)
    tracer = tracing.Tracer()
    ranges = []
    tracer.install(cp)
    try:
        while len(ranges) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            lo = len(tracer.spans)
            runner.run_pass(tracer, len(ranges))
            ranges.append((lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    op_names = {p * len(runner.ops) + i: op.name for p in range(len(ranges)) for i, op in enumerate(runner.ops)}
    per_pass = [layers.derive(tracer.spans, lo, hi, op_names) for lo, hi in ranges]
    values, unmeasured, mismatches = layers.combine(per_pass, tracer.missing, tracer.note_failures)
    values.update(probes)
    try:
        values["integrator.bytes_per_sample"] = layers.bytes_per_sample(cp)
    except (AttributeError, TypeError, ValueError) as exc:
        unmeasured["integrator.bytes_per_sample"] = f"{type(exc).__name__}: {exc}"
    traced = statistics.median(runner.pass_times[n_untraced:])
    values["trace.overhead"] = traced / untraced - 1.0

    print(f"workload {args.workload}  seed {args.seed}  traced passes {len(ranges)}  ops {runner.attempted}")
    print(
        f"  untraced pass {untraced:.4f} s (median of {n_untraced}), traced pass {traced:.4f} s"
        f" (median of {len(ranges)}), overhead {values['trace.overhead']:+.1%}"
    )
    for name, (unit, *_) in layers.METRICS.items():
        if name in values:
            print(f"  {name:<40} {values[name]:16.6g} {unit}")
        else:
            print(f"  {name:<40} {'unmeasured':>16}  ({unmeasured[name]})")
    for line in mismatches:
        _log(f"COUNTER MISMATCH: {line}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    report = {"metrics": values, "unmeasured": unmeasured, "mismatches": mismatches, "ops": op_names}
    (OUT / f"trace-{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    metrics = {name: (values.get(name, 0), unit) for name, (unit, *_) in layers.METRICS.items()}
    return not runner.failures and not mismatches, metrics


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "complexpendulum" / "__init__.py").is_file():
        _log(f"error: no package source at {SRC / 'complexpendulum'}")
        return 2
    if args.setup_only:
        setup_only(args.workload, args.seed, args.workdir)
        return 0
    if args.workload == "all":
        return run_all(args)

    cp = _import_package()
    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = measure_setup(args.workload, args.seed, workdir) if not args.trace else []
        ops = workloads.generate(args.workload, args.seed)
        workloads.materialise(ops, workdir)
        workloads.fill_references(ops, cp)
        runner = Runner(cp, ops, workdir / "out")
        if args.trace:
            correct, metrics = traced_run(cp, runner, args)
        else:
            correct, metrics = timed_run(cp, runner, args, setup_times)
        for line in runner.failures:
            _log(f"FAILED {line}")
        print(_result(correct, runner, metrics))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
