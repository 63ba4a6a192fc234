"""Tests of the benchmark itself: inputs, checks, tracing hygiene, result format.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import run
import tracing
import workloads

run.import_package()

from oremax import graphs, metrics, oracle  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_ops() -> list[workloads.Op]:
    """Cheap operations that still reach every traced layer."""
    expected = {}
    calls = [("verify --n 6 --k 1 --d 4", "verify --n 6 --k 1 --d 4".split(),
              ""),
             ("verify --n 7 --k 2 --d 3", "verify --n 7 --k 2 --d 3".split(),
              ""),
             ("family --n 6 --k 2 --d 3", "family --n 6 --k 2 --d 3".split(),
              "")]
    ops = [workloads.Op(label, lambda a=argv, s=stdin: workloads.run_cli(a, s),
                        lambda out: out.startswith("exit 0\n"))
           for label, argv, stdin in calls]
    for label, argv, stdin in calls:
        expected[label] = workloads.run_cli(argv, stdin)
    members = expected["family --n 6 --k 2 --d 3"].splitlines()[1:]
    text = "\n".join(members + [workloads.first_edge_deleted(m)
                                for m in members]) + "\n"
    ops.append(workloads.Op(
        "check", lambda: workloads.run_cli(["check", "--k", "2"], text),
        lambda out: out.count("\ttrue\n") == len(members)))
    stream_ops = workloads.build_ops("connectivity-large", 0)
    return ops + stream_ops[:3]


def traced_pass(ops):
    with tracing.Tracer() as tracer:
        _, _, outputs, failures = run.run_pass(ops)
    return outputs, failures, tracing.layer_metrics(tracer.spans)


def test_expected_outputs_cover_every_cli_call():
    expected = workloads.load_expected()
    for name in ("verify-sparse", "verify-dense", "family-check"):
        labels = [label for label, _, _ in workloads.cli_calls(name, expected)]
        assert labels and all(expected[label].startswith("exit 0\n")
                              for label in labels)


def test_wrappers_cover_every_namespace_while_tracing():
    with tracing.Tracer():
        assert hasattr(oracle.relabeling_codes, "perfbench_span")
        assert hasattr(metrics.local_connectivity, "perfbench_span")
        assert hasattr(sys.modules["oremax"].canonical_form, "perfbench_span")
        assert oracle.relabeling_codes is graphs.relabeling_codes
    assert tracing.installed_wrappers() == []


def test_counts_repeat_exactly():
    ops = small_ops()
    first = traced_pass(ops)[2]
    second = traced_pass(ops)[2]
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    assert counts == {k: second[k] for k in counts}
    for name in ("oracle.candidates", "metrics.local_connectivity.calls",
                 "extremal.enumerate_family.members",
                 "graphs.relabeling_codes.codes"):
        assert first[name] > 0


def test_candidates_and_scan_self_time_add_up():
    ops = [workloads.Op("v", lambda: workloads.run_cli(
        "verify --n 6 --k 1 --d 4".split()), lambda out: True)]
    layer = traced_pass(ops)[2]
    # max size 7 of C(6, 2) = 15 cells: levels 0..8 are scanned
    assert layer["oracle.candidates"] == sum(comb(15, l) for l in range(9))
    assert layer["oracle.classes"] == 2
    assert layer["oracle.scan.self_s"] > 0
    # relabeling_codes runs only inside max_size_bruteforce, so its whole
    # span is a child span; no child can take more than every graphs and
    # metrics span together.
    assert layer["graphs.relabeling_codes.calls"] > 0
    assert layer["oracle.scan.child_s"] >= layer["graphs.relabeling_codes.s"]
    layer_s = sum(value for name, value in layer.items()
                  if name.startswith(("graphs.", "metrics."))
                  and name.endswith(".s"))
    assert layer["oracle.scan.child_s"] <= layer_s
    assert 0 < layer["cli.self_s"] < layer["cli.run.s"]


def test_traced_run_matches_untraced_and_restores_every_name():
    originals = {m: dict(vars(sys.modules[m])) for m in tracing.MODULES}
    layer, walls, traced_walls, failures, problems, attempted = \
        run.run_traced(small_ops(), 0, 0.0)
    # problems covers traced-vs-untraced output and leftover wrappers
    assert failures == [] and problems == []
    assert len(walls) == len(traced_walls) == 1
    for m, names in originals.items():
        now = vars(sys.modules[m])
        assert all(now[attr] is value for attr, value in names.items())
    assert layer["trace.overhead_ratio"] > -1


def test_traced_and_untraced_passes_alternate_in_order():
    seen = []
    probe = workloads.Op(
        "probe", lambda: seen.append(bool(tracing.installed_wrappers())) or "",
        lambda out: True)
    run.run_traced([probe], 0.5, time.perf_counter())
    rounds = list(zip(seen[0::2], seen[1::2]))
    assert len(rounds) >= 3
    assert rounds[0::2] == [(False, True)] * len(rounds[0::2])
    assert rounds[1::2] == [(True, False)] * len(rounds[1::2])


def test_reference_kernel_runs_no_package_code():
    files = set()
    sys.setprofile(lambda frame, event, arg: files.add(frame.f_code.co_filename))
    try:
        run.edge_samples()
    finally:
        sys.setprofile(None)
    assert files and not any(Path(f).is_relative_to(run.SRC) for f in files)
    # a kernel twice as slow as the reference halves the scaled time
    assert run.scaled(3.0, [2 * run.REFERENCE_S] * 4) == pytest.approx(1.5)


def test_samples_during_an_operation_are_taken_and_not_counted():
    handler = signal.getsignal(signal.SIGALRM)
    began = time.perf_counter()
    result, took, samples = run.sampled(
        lambda: [workloads.bfs_diameter(run.REFERENCE_GRAPH)
                 for _ in range(600)][-1])
    elapsed = time.perf_counter() - began
    assert result == workloads.bfs_diameter(run.REFERENCE_GRAPH)
    assert len(samples) >= elapsed / run.TICK_S / 2
    assert took == pytest.approx(elapsed - sum(samples), abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_only_connectivity_large_uses_the_seed():
    for name in ("verify-sparse", "verify-dense", "family-check"):
        a = [op.label for op in workloads.build_ops(name, 0)]
        assert a == [op.label for op in workloads.build_ops(name, 7)]
    one, two = workloads.stream(0), workloads.stream(1)
    assert [g.g6 for g in one] == [g.g6 for g in workloads.stream(0)]
    assert [g.g6 for g in one] != [g.g6 for g in two]
    assert workloads.profile(one) == workloads.profile(two)
    orders = [g.order for g in one]
    assert min(orders) == 20 and max(orders) == 62
    assert {g.kappa for g in one} == {1, 2, 3, 4}


def test_stream_inputs_have_their_planted_values():
    for item in workloads.stream(3)[:20]:
        g = graphs.from_graph6(item.g6)
        assert g.rows == item.rows
        assert metrics.diameter(g) == item.diameter
        assert metrics.vertex_connectivity(g).kappa == item.kappa


def test_stream_check_rejects_wrong_answers():
    item = workloads.stream(0)[0]
    good = workloads._invariants(item)
    assert workloads._invariants_ok(item, good)
    same, dia, k_ok, kappa, cut = good.split()
    bad = [f"False {dia} {k_ok} {kappa} {cut}",
           f"{same} {int(dia) + 1} {k_ok} {kappa} {cut}",
           f"{same} {dia} False {kappa} {cut}",
           f"{same} {dia} {k_ok} {int(kappa) + 1} {cut}",
           f"{same} {dia} {k_ok} {kappa} {int(cut) << 1}"]
    assert not any(workloads._invariants_ok(item, out) for out in bad)


def test_graph6_codec_matches_package():
    rng = random.Random(5)
    for n in (1, 2, 7, 20, 62):
        rows = workloads.planted_graph(rng, n, 1) if n > 3 else (0,) * n
        text = workloads.encode_graph6(rows)
        assert text == graphs.to_graph6(graphs.Graph(n, rows))
        assert workloads.decode_graph6(text) == rows


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END_UNITS
    layer_names = list(tracing.layer_metrics(
        tracing.Tracer().spans)) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: run.layer_unit(name) for name in layer_names}


def test_result_line_has_the_documented_keys():
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", "verify-dense", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=run.ROOT, check=True, text=True, stdout=subprocess.PIPE)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
