"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times whole passes with tracing off and prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics.  End-to-end times are
scaled to a fixed host speed with a reference kernel (see
:func:`scaled`).  The second-to-last stdout line is the full record
(provenance, raw pass times, failures); the last line is the result
object.  Exit status is non-zero, with no
result printed, when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The reference kernel's graph: the benchmark's own BFS runs on it, so
#: no change to the package can move the kernel's time.
REFERENCE_GRAPH = workloads.planted_graph(random.Random("reference"), 40, 3)
#: One sample's time on the 2-vCPU host the baseline was recorded on,
#: when that host ran at full speed.  Scaled times are seconds at this
#: speed.
REFERENCE_S = 0.00032
#: Reference samples taken between two timed intervals.
EDGE_SAMPLES = 16
#: Seconds between reference samples while an operation runs.
TICK_S = 0.025

#: Fresh interpreters started per run to time set-up; the median counts.
#: Half start before the timed passes and half after, so that one slow
#: stretch of a shared machine cannot cover them all.
SETUP_RUNS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_package() -> None:
    """Import ``oremax`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import oremax
    if Path(oremax.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"oremax imported from {oremax.__file__}, "
                          f"not from {SRC}")


def kernel_s() -> float:
    """Seconds one reference sample takes now: one BFS diameter."""
    began = time.perf_counter()
    workloads.bfs_diameter(REFERENCE_GRAPH)
    return time.perf_counter() - began


def edge_samples() -> list[float]:
    """The reference samples taken between two timed intervals."""
    return [kernel_s() for _ in range(EDGE_SAMPLES)]


def sampled(call):
    """Run ``call`` with a reference sample every ``TICK_S`` seconds.

    Returns its result, its seconds without the samples, and the samples.
    """
    samples = []

    def tick(signum, frame):
        samples.append(kernel_s())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    began = time.perf_counter()
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - began
        signal.signal(signal.SIGALRM, previous)
    return result, took - sum(samples), samples


def scaled(took: float, samples: list[float]) -> float:
    """``took`` at reference speed, given the reference samples of its time.

    The shared host this was built on slows every process by up to 2x,
    in stretches from seconds to minutes, and CPU time slows with it.
    The kernel, sampled around and during the interval, sees the same
    slowdown, so the ratio cancels most of it.
    """
    return took * REFERENCE_S / statistics.fmean(samples)


def attempt(op: workloads.Op) -> tuple[str, bool]:
    """Run and check one operation: (output, whether it is right)."""
    try:
        out = op.call()
    except Exception as exc:  # a failed operation, counted and reported
        return f"raised {type(exc).__name__}: {exc}", False
    return out, op.check(out)


def run_pass(ops: list[workloads.Op]):
    """One closed-loop pass: (wall seconds, per-op scaled seconds,
    outputs, failures)."""
    times, outputs, failures = [], [], []
    start = time.perf_counter()
    before = edge_samples()
    for op in ops:
        (out, ok), took, during = sampled(lambda: attempt(op))
        after = edge_samples()
        times.append(scaled(took, before + during + after))
        before = after
        outputs.append(out)
        if not ok:
            failures.append(op.label)
    return time.perf_counter() - start, times, outputs, failures


def time_setup(workload: str, seed: int, runs: int) -> list[float]:
    """Scaled seconds from starting an interpreter to inputs ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    took = []
    before = edge_samples()
    for _ in range(runs):
        began = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - began
        after = edge_samples()
        took.append(scaled(elapsed, before + after))
        before = after
    return took


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_sha() -> str:
    """HEAD of the checkout's own repository, or "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def provenance(load: tuple[float, float, float]) -> dict:
    """Where a record came from; call after importing the package."""
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else "not imported",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def _keep_going(began: float, seconds: float, per_round: float) -> bool:
    """True if another round, as slow as the slowest so far, still fits."""
    return time.perf_counter() - began + per_round <= seconds


def pass_total(per_op: list[list[float]]) -> float:
    """One pass with each operation at its median time over the passes."""
    return sum(statistics.median(samples) for samples in per_op)


def run_untraced(ops, seconds: float, began: float):
    """Passes until the time is up: per-op seconds, pass walls, failures."""
    per_op = [[] for _ in ops]
    walls, failures, attempted = [], [], 0
    while True:
        wall, times, _, failed = run_pass(ops)
        walls.append(wall)
        for samples, took in zip(per_op, times):
            samples.append(took)
        failures += failed
        attempted += len(ops)
        if not _keep_going(began, seconds, max(walls)):
            return per_op, walls, failures, attempted


def run_traced(ops, seconds: float, began: float):
    """Rounds of one untraced and one traced pass; per-layer metrics, checks.

    The pass that goes first alternates from round to round, so that
    ``trace.overhead_ratio`` does not carry an order effect.
    """
    per_op = {False: [[] for _ in ops], True: [[] for _ in ops]}
    walls = {False: [], True: []}
    layers, failures, problems, attempted = [], [], [], 0
    order = (False, True)
    while True:
        outputs = {}
        for traced in order:
            with tracing.Tracer() if traced else nullcontext() as tracer:
                wall, times, outputs[traced], failed = run_pass(ops)
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans))
            walls[traced].append(wall)
            for samples, took in zip(per_op[traced], times):
                samples.append(took)
            failures += failed
        attempted += 2 * len(ops)
        problems += [f"traced output differs: {op.label}"
                     for op, a, b in zip(ops, outputs[False], outputs[True])
                     if a != b]
        problems += [f"wrapper left installed: {name}"
                     for name in tracing.installed_wrappers()]
        order = order[::-1]
        if not _keep_going(began, seconds,
                           max(walls[False]) + max(walls[True])):
            break
    # Times come from the fastest traced pass as a whole, so that sums
    # such as scan self time plus child spans still add up.
    fastest = walls[True].index(min(walls[True]))
    metrics = dict(layers[fastest])
    problems += [f"count differs between traced passes: {name}"
                 for name, value in layers[0].items()
                 if isinstance(value, int)
                 and any(layer[name] != value for layer in layers)]
    metrics["trace.overhead_ratio"] = \
        pass_total(per_op[True]) / pass_total(per_op[False]) - 1
    return metrics, walls[False], walls[True], failures, problems, attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load = os.getloadavg()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import oremax from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed)
    if args.setup_only:
        return 0

    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seed_dependent": args.workload == "connectivity-large",
        "trace": args.trace,
        "seconds": args.seconds,
        "operations_per_pass": len(ops),
        "provenance": provenance(load),
    }
    problems: list[str] = []
    if args.trace == 0:
        setup = time_setup(args.workload, args.seed, SETUP_RUNS // 2)
        began = time.perf_counter()
        per_op, walls, failures, attempted = run_untraced(
            ops, args.seconds, began)
        setup += time_setup(args.workload, args.seed,
                            SETUP_RUNS - SETUP_RUNS // 2)
        items_ms = [statistics.median(samples) * 1000 for samples in per_op]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_total(per_op),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "item_ms_p50": statistics.median(items_ms),
            "item_ms_p90": percentile(items_ms, 90),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        record.update(pass_s=walls, setup_runs_s=setup,
                      item_samples=len(items_ms))
    else:
        began = time.perf_counter()
        values, walls, traced_walls, failures, problems, attempted = \
            run_traced(ops, args.seconds, began)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
        record.update(
            pass_s=walls, traced_pass_s=traced_walls,
            candidates_note="oracle.candidates is computed from the binomial "
                            "sum over scanned levels, not counted by the "
                            "program")

    record.update(
        attempted=attempted, failed=len(failures),
        error_ratio=len(failures) / attempted, failures=failures,
        problems=problems, metrics=metrics)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
