"""Run every workload, end to end and traced, and print each metric.

    python3 perfbench/suite.py --seed 0 [--out perfbench/BENCH_0.json]

Each workload runs in its own process through ``run.py``, first with
tracing off and then with tracing on, for the ``run_seconds`` of
``BENCHMARK.json``.  The table lists every end-to-end
metric with its unit, the error ratio and the trace overhead.  ``--out``
writes the full records plus the connectivity-large profile of this
seed and the next, which must agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads(
    (run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_workload(name: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=run.ROOT, check=True, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.splitlines()
    record = json.loads(lines[-2])["record"]
    record["correct"] = json.loads(lines[-1])["correct"]
    return record


def seed_profiles(seed: int) -> dict:
    """connectivity-large (kind, order, size, kappa) for two seeds."""
    first = workloads.profile(workloads.stream(seed))
    second = workloads.profile(workloads.stream(seed + 1))
    return {"seeds": [seed, seed + 1], "same": first == second,
            "profile": [list(row) for row in first]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    records = []
    for name in workloads.WORKLOADS:
        plain = run_workload(name, args.seed, 0)
        traced = run_workload(name, args.seed, 1)
        records += [plain, traced]
        print(f"{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"error_ratio={plain['error_ratio']:.4g} (ratio)")
        for metric, entry in plain["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
        overhead = traced["metrics"]["trace.overhead_ratio"]
        print(f"  trace.overhead_ratio {overhead['value']:.4g} ratio")
    ok = all(r["correct"] for r in records)
    if args.out is not None:
        run.import_package()
        report = {"records": records,
                  "connectivity_large_profile": seed_profiles(args.seed)}
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
