#!/usr/bin/env python3
"""iqcl benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload taut-session --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process issues the workload's operations one after
another (no threads, no pool), repeating the workload's cycle of
operations until ``--seconds`` seconds have passed (whole cycles only,
and at least the workload's minimum number of them), and checks every
answer.  Between operations a fixed stdlib kernel is timed; end-to-end
times are scaled by its reference time over its measured time nearby,
so that they read as times at one reference machine speed (see
``SpeedClock``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics.  The last line of stdout is one JSON object; a fuller record,
with the machine note, goes to ``.perfbench-out/``.

``failed`` counts every operation whose answer check failed, raised, or
exited with an unexpected code.  ``correct`` is false when any of them is
not a defect listed in ``workloads.KNOWN_WRONG_RELEVANCE``; the exit code
is then 1, after the result line is printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7
# The calibration kernel's time at the reference speed, and how far on
# either side of an operation its samples are taken to gauge the speed.
KERNEL_REF_S = 4e-4
SPEED_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _require_source():
    if not (SRC / "iqcl" / "cli.py").is_file():
        sys.exit(f"perfbench: no iqcl source at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def _setup(workload: str, seed: int, workdir: Path):
    """Cold-start work every CLI user pays: import the CLI, write the inputs."""
    import iqcl.cli
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return iqcl.cli, workloads.build(workload, seed, workdir)


def _kernel():
    """Fixed interpreter work like the program's: exact and float arithmetic, strings, dicts."""
    acc, total, table = Fraction(0), 0.0, {}
    for i in range(1, 41):
        acc += Fraction(i % 7 + 1, i + 1) * Fraction(1, 2)
        x = (i * 0.37) % 1.0
        total += math.sqrt(x * (1.0 - x)) + min(1.0, x + 0.5)
        key = f"({i} -> p{i % 5})"
        table[key] = key.split(" ")[0]
    return acc, total, len(table)


class SpeedClock:
    """The machine's speed over time, from a stdlib kernel timed between operations.

    On a shared virtual machine the CPU speed seen by one process swings
    by up to a factor of two, for seconds at a time.  The kernel uses no
    program code, so a change to the program leaves it alone; ``scale``
    turns a wall time into the time it would have taken at the speed where
    the kernel takes ``KERNEL_REF_S``, using the median kernel time within
    ``SPEED_WINDOW_S`` of the interval.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, count: int = 3):
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            for _ in range(count):
                start = perf_counter()
                _kernel()
                end = perf_counter()
                self.times.append(end)
                self.kernel_s.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, end: float) -> float:
        lo = bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect_right(self.times, end + SPEED_WINDOW_S)
        nearby = self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1):lo + 1]
        return KERNEL_REF_S / statistics.median(nearby)


def _setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its set-up is ready, scaled and wall.

    Each is scaled by the kernel time that the fresh interpreter measures
    right after it is ready, since it may run on another CPU than this one.
    """
    scaled, wall = [], []
    for k in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--probe-dir", str(OUT / f"setup-{os.getpid()}-{k}")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            ready = child.stdout.readline()
            end = perf_counter()
            kernel_s = child.stdout.read()
            if child.wait(timeout=120) != 0 or ready.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        wall.append(end - start)
        scaled.append(wall[-1] * KERNEL_REF_S / float(kernel_s))
    return scaled, wall


@dataclass
class Outcome:
    op: object
    latency: float
    failure: str | None
    output: object
    start: float


def execute(cli, op, tracer=None, op_id: int = -1) -> Outcome:
    """Run one operation; only the call itself is timed."""
    if op.prepare is not None:
        try:
            op.prepare()
        except Exception as exc:  # e.g. no built proof to corrupt: the operation fails
            return Outcome(op, 0.0, f"could not prepare input: {type(exc).__name__}: {exc}", None,
                           perf_counter())
    sink = io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
        root = tracer.begin(f"cli.{op.command}" if op.argv else "bench.proof_build")
        tracer.active = True
    start = perf_counter()
    try:
        if op.argv is not None:
            with redirect_stdout(sink), redirect_stderr(io.StringIO()):
                code = cli.main(op.argv)
            output = sink.getvalue()
        else:
            code, output = 0, op.call()
    except Exception as exc:  # an operation that raises is a failed operation
        return Outcome(op, perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None, start)
    finally:
        latency = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.end(root)
    try:
        failure = op.check(code, output)
    except Exception as exc:  # a check that cannot read the output fails the operation
        failure = f"unreadable output ({type(exc).__name__}: {exc})"
    # Keep only the relevance output, which the metrics read: output kept per
    # repetition would make peak memory grow with the repetitions, that is,
    # with the machine's speed.
    return Outcome(op, latency, failure, output if op.command == "relevance" else None, start)


def run_untraced(cli, wl, seconds: float, min_cycles: int, clock: SpeedClock) -> tuple[list[Outcome], int]:
    """Whole cycles until ``seconds`` have passed, with the speed sampled between operations."""
    outcomes: list[Outcome] = []
    start, cycles = perf_counter(), 0
    clock.sample()
    while cycles < min_cycles or perf_counter() - start < seconds:
        for op in wl.ops:
            outcomes.append(execute(cli, op))
            clock.sample()
        cycles += 1
    return outcomes, cycles


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine_note() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "iqcl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "load": "one process, one closed-loop client: each operation starts after the previous one ends",
    }


def _timing(latencies: list[float], tail_pct: float) -> tuple[dict, int]:
    tail, beyond = percentile(latencies, tail_pct)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
    }, beyond


def end_to_end(outcomes: list[Outcome], tail_pct: float, setup: tuple[list[float], list[float]],
               clock: SpeedClock) -> tuple[dict, dict]:
    """Metrics over every latency sample of the run, at the reference speed.

    ``ops_per_s`` is operations attempted per second spent in operations;
    the answer checks, input preparation and speed samples between
    operations are not part of the timed seconds.  The same figures in
    wall time go to the record.
    """
    scaled = [o.latency * clock.scale(o.start, o.start + o.latency) for o in outcomes]
    timing, beyond = _timing(scaled, tail_pct)
    metrics = {"setup_s": statistics.median(setup[0]), **timing,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    wall, _ = _timing([o.latency for o in outcomes], tail_pct)
    wall["setup_s"] = statistics.median(setup[1])
    extra = {
        "fail_ratio": sum(o.failure is not None for o in outcomes) / len(outcomes),
        "tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(outcomes)},
        "wall_time_metrics": wall,
        "kernel_ms": {"reference": 1000.0 * KERNEL_REF_S,
                      "quartiles": [1000.0 * q for q in statistics.quantiles(clock.kernel_s, n=4)]},
    }
    if any(o.op.command == "relevance" for o in outcomes):
        import workloads

        extra["value_max_abs_err"] = workloads.relevance_errors(outcomes)[1]
    return metrics, extra


def run_traced(cli, wl, seconds: float, seed: int, workdir: Path) -> tuple[list[Outcome], dict, object]:
    """Alternate untraced and traced passes over the workload's cycle, then probe."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    op_info: dict[int, tuple[str, bool]] = {}
    outcomes: list[Outcome] = []
    traced: list[Outcome] = []
    overheads: list[tuple[float, float]] = []
    start, k = perf_counter(), 0
    while k == 0 or perf_counter() - start < seconds:
        plain = [execute(cli, op) for op in wl.ops]
        tracer.install()
        try:
            spanned = []
            for op in wl.ops:
                op_info[len(op_info)] = (op.cls, False)
                spanned.append(execute(cli, op, tracer, len(op_info) - 1))
        finally:
            tracer.uninstall()
        base = sum(o.latency for o in plain)
        overheads.append((sum(o.latency for o in spanned) - base, base))
        outcomes += plain + spanned
        traced += spanned
        k += 1
    present = set(wl.class_counts())
    (workdir / "probe").mkdir(exist_ok=True)
    probes = [op for op in workloads.probe_ops(seed, workdir / "probe") if op.cls not in present]
    tracer.install()
    try:
        probe_outcomes = []
        for op in probes:
            op_info[len(op_info)] = (op.cls, True)
            probe_outcomes.append(execute(cli, op, tracer, len(op_info) - 1))
    finally:
        tracer.uninstall()
    outcomes += probe_outcomes

    rel_source = traced if "relevance" in present else probe_outcomes
    wrong, worst = workloads.relevance_errors(rel_source)
    checks = {"relevance_wrong": wrong / (k if rel_source is traced else 1), "relevance_max_abs_err": worst}
    texts = tracing.cycle_texts(wl.ops) or tracing.cycle_texts(probes)
    axioms = wl.axiom_formulas or _axiom_steps(wl.ops) or _axiom_steps(probes)
    probe_metrics = tracing.layer_probes(texts, axioms, seed)
    probe_metrics["cli.dispatch_ms"] = tracing.cli_dispatch_ms(cli)
    imports = tracing.import_breakdown(ROOT)
    delta = statistics.median(d for d, _ in overheads)
    base = statistics.median(b for _, b in overheads)
    metrics = tracing.per_layer(tracer, op_info, k, checks, probe_metrics, imports, (1000.0 * delta, delta / base))
    return outcomes, {"metrics": metrics, "imports": imports, "reps": k}, tracer


def _axiom_steps(ops) -> list:
    """Axiom steps of the proofs that a cycle's check operations read."""
    from iqcl import calculus

    found = []
    for op in ops:
        if op.argv and op.argv[:2] == ["proof", "check"] and op.cls == "check.valid":
            proof = calculus.parse_proof(Path(op.argv[3]).read_text(encoding="utf-8"))
            found += [s.formula for s in proof.steps if isinstance(s.justification, calculus.AxiomRef)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()

    if args.setup_probe:
        workdir = Path(args.probe_dir)
        try:
            _setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            clock = SpeedClock()
            clock.sample(9)
            print(statistics.median(clock.kernel_s))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    setup = ([], []) if args.trace else _setup_samples(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cli, wl = _setup(args.workload, args.seed, workdir)
        spec = workloads.WORKLOADS[args.workload]
        if args.trace:
            outcomes, traced, tracer = run_traced(cli, wl, args.seconds, args.seed, workdir)
            metrics = traced["metrics"]
            reps = traced["reps"]
        else:
            clock = SpeedClock()
            outcomes, reps = run_untraced(cli, wl, args.seconds, spec.min_cycles, clock)
            metrics, extra = end_to_end(outcomes, spec.tail_percentile, setup, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if o.failure is not None]
    correct = all(o.op.known_defect for o in failures)
    note = machine_note()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": note, "repetitions": reps, "class_counts_per_cycle": wl.class_counts(),
        "attempted": len(outcomes), "failed": len(failures), "correct": correct,
        "metrics": metrics, "setup_samples_s": {"scaled": setup[0], "wall": setup[1]},
        "failures": [f"{count} x {line}" for line, count in sorted(Counter(
            f"{o.op.cls} {o.op.label or ' '.join(o.op.argv)}: {o.failure}"
            + (f" [known: {o.op.known_defect}]" if o.op.known_defect else "")
            for o in failures).items())],
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in note.items()))
    print("classes per cycle: " + ", ".join(f"{k}={v}" for k, v in wl.class_counts().items())
          + f"; cycles: {reps}")
    if args.trace:
        import tracing

        record["imports_ms"] = traced["imports"]
        tracer.write(OUT / f"{tag}.spans.jsonl")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g}")
        print("cold import (self ms, cumulative ms): " + ", ".join(
            f"{m}={s:.1f}/{c:.1f}" for m, (s, c) in traced["imports"].items()
            if m.startswith("iqcl") or m == "numpy"))
        result_metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in metrics.items()}
    else:
        record.update(extra)
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"  fail_ratio = {extra['fail_ratio']:.6g} 1")
        if "value_max_abs_err" in extra:
            print(f"  value_max_abs_err = {extra['value_max_abs_err']:.6g} 1")
        tail = extra["tail"]
        print(f"  (op_tail_ms is p{tail['percentile']:g} of all latency samples, with "
              f"{tail['samples_beyond']} of {tail['samples']} samples beyond it)")
        print("  wall time, unscaled: " + ", ".join(
            f"{name} = {value:.6g} {END_TO_END_UNITS[name]}" for name, value in extra["wall_time_metrics"].items()))
        print(f"  kernel ms: reference {extra['kernel_ms']['reference']:g}, quartiles "
              + ", ".join(f"{q:.4g}" for q in extra["kernel_ms"]["quartiles"]))
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    for line in record["failures"]:
        print(f"  FAILED {line}")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failures),
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
