import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oremax.cli
import oremax.errors
import oremax.graphs
import oremax.metrics
import oremax.oracle
from bruteforce import candidate_specs
from oremax import (Parameters, bits, build_backbone, build_family_member,
                    connectivity, from_edges, from_graph6, max_size_formula,
                    to_graph6)
from oremax.cli import run


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def test_formula_plain(capsys):
    assert run(["formula", "--n", "4", "--k", "1", "--d", "2"]) == 0
    assert lines_of(capsys) == ["5"]


def test_formula_literal_mode(capsys):
    assert run(["formula", "--n", "4", "--k", "1", "--d", "2",
                "--mode", "paper-literal"]) == 0
    assert lines_of(capsys) == ["11"]


def test_backbone_formats(capsys):
    assert run(["backbone", "--k", "2", "--d", "3",
                "--format", "graph6"]) == 0
    assert lines_of(capsys) == [to_graph6(build_backbone(2, 3)[0])]
    assert run(["backbone", "--k", "1", "--d", "2",
                "--format", "edgelist"]) == 0
    assert lines_of(capsys) == ["0 1", "1 2"]
    assert run(["backbone", "--k", "1", "--d", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph g {") and "0 -- 1;" in out


def test_family_graph6_lines(capsys):
    assert run(["family", "--n", "6", "--k", "1", "--d", "4"]) == 0
    out = lines_of(capsys)
    assert len(out) == 2
    assert out == sorted(out)


def test_family_multiline_format_blank_separated(capsys):
    assert run(["family", "--n", "6", "--k", "1", "--d", "4",
                "--format", "edgelist"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n\n") == 1  # two members, one separator


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C^\nA?\n"))
    assert run(["check", "--k", "1"]) == 0
    out = lines_of(capsys)
    assert out[0] == "graph6\torder\tsize\tdiameter\tkappa\textremal"
    assert out[1] == "C^\t4\t5\t2\t2\ttrue"
    assert out[2] == "A?\t2\t0\tdisconnected\t0\tfalse"


def test_check_reads_file(tmp_path, capsys):
    target = tmp_path / "graphs.g6"
    target.write_text("Bw\n\n")
    assert run(["check", "--k", "1", "--input", str(target)]) == 0
    out = lines_of(capsys)
    # K3 is complete: diameter 1 is outside the formula's domain
    assert out[1] == "Bw\t3\t3\t1\t2\tfalse"


def test_check_family_round_trip(capsys, monkeypatch):
    assert run(["family", "--n", "7", "--k", "2", "--d", "3"]) == 0
    family_lines = lines_of(capsys)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("\n".join(family_lines) + "\n"))
    assert run(["check", "--k", "2"]) == 0
    rows = lines_of(capsys)[1:]
    assert len(rows) == len(family_lines)
    assert all(row.endswith("\ttrue") for row in rows)


def test_oracle_plain_and_extremal(capsys):
    assert run(["oracle", "--n", "4", "--k", "1", "--d", "2"]) == 0
    assert lines_of(capsys) == ["5"]
    assert run(["oracle", "--n", "4", "--k", "1", "--d", "2",
                "--emit-extremal"]) == 0
    assert lines_of(capsys) == ["5", "C^"]


def test_oracle_json(capsys):
    assert run(["oracle", "--n", "4", "--k", "1", "--d", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["max_size"] == 5
    assert doc["extremal"] == ["C^"]
    assert doc["corrected_match"] is None


def test_verify_ok(capsys):
    assert run(["verify", "--n", "4", "--k", "1", "--d", "2"]) == 0
    out = lines_of(capsys)
    assert "max_size 5" in out
    assert "corrected_match true" in out
    assert "paper_literal_match false" in out
    assert "family_match true" in out
    assert "extremal C^" in out


def test_verify_json(capsys):
    assert run(["verify", "--n", "5", "--k", "2", "--d", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_size"] == 9
    assert doc["corrected_match"] is True
    assert doc["paper_literal_match"] is False
    assert doc["family_match"] is True


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    # force a wrong closed form so the comparison machinery must flag it
    monkeypatch.setattr(oremax.oracle, "max_size_formula",
                        lambda p, mode=None: 99)
    assert run(["verify", "--n", "4", "--k", "1", "--d", "2"]) == 3
    assert "corrected_match false" in lines_of(capsys)


def test_sweep_plain(capsys):
    assert run(["sweep", "--n-max", "4"]) == 0
    out = lines_of(capsys)
    assert out[0].split("\t") == ["n", "k", "d", "max_size",
                                  "corrected_match", "paper_literal_match",
                                  "family_match", "extremal_classes"]
    assert out[1] == "3\t1\t2\t2\ttrue\tfalse\ttrue\t1"
    assert len(out) == 5


def test_sweep_json(capsys):
    assert run(["sweep", "--n-max", "4", "--k-max", "1", "--d-max", "2",
                "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["params"]["n"] for d in docs] == [3, 4]
    assert all(d["corrected_match"] for d in docs)


def test_sweep_mismatch_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(oremax.oracle, "max_size_formula",
                        lambda p, mode=None: 99)
    assert run(["sweep", "--n-max", "3"]) == 3


@pytest.mark.parametrize("bounds", [
    ["--n-max", "0"], ["--n-max", "-3"], ["--n-max", "2"],
    ["--n-max", "5", "--k-max", "0"], ["--n-max", "5", "--d-max", "1"]])
def test_sweep_without_instances_exits_2_before_the_header(capsys, bounds):
    assert run(["sweep", *bounds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("oremax: error: bounds ")


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["bogus"]) == 1
    assert run(["formula", "--n", "4", "--k", "1"]) == 1  # missing --d
    assert run(["formula", "--n", "x", "--k", "1", "--d", "2"]) == 1
    assert run(["formula", "--n", "4", "--k", "1", "--d", "2",
                "--mode", "wrong"]) == 1
    assert run(["formula", "--n", "4", "--k", "1", "--d", "2",
                "--unknown"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_input_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.g6"
    assert run(["check", "--k", "1", "--input", str(missing)]) == 1


def test_invalid_parameters_exit_2(capsys):
    assert run(["formula", "--n", "2", "--k", "1", "--d", "2"]) == 2
    assert run(["formula", "--n", "6", "--k", "0", "--d", "2"]) == 2
    assert run(["backbone", "--k", "1", "--d", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_graph6_input_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not graph6 at all\n"))
    assert run(["check", "--k", "1"]) == 2


def test_check_keeps_going_past_a_bad_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nbad\nC~\n"))
    assert run(["check", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["C~\t4\t6\t1\t3\tfalse"] * 2
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("oremax: error: line 2: ")


def test_check_exits_with_the_worst_line_code(capsys, monkeypatch):
    k11 = from_edges(11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(f"bad\n{to_graph6(k11)}\nbad\nC~\n"))
    assert run(["check", "--k", "1"]) == 2  # K11 gets a row
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        f"{to_graph6(k11)}\t11\t55\t1\t10\tfalse", "C~\t4\t6\t1\t3\tfalse"]
    assert [line.split(": ")[2] for line in captured.err.splitlines()] == \
        ["line 1", "line 3"]


def test_check_reports_the_order_0_graph_and_rows_the_next(capsys,
                                                          monkeypatch):
    # "?" is well-formed graph6, but order 0 has no diameter
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n@\n"))
    assert run(["check", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("oremax: error: line 1: diameter undefined "
                            "for order-0 graph\n")
    assert captured.out.splitlines()[1:] == ["@\t1\t0\t0\t0\tfalse"]


def test_sweep_n_max_7_matches_the_committed_table(capsys):
    golden = (Path(__file__).parent / "data" / "sweep7.tsv").read_text()
    rows = [line.split("\t") for line in golden.splitlines()]
    assert len(rows) == 28
    assert (rows[0][4], rows[0][6]) == ("corrected_match", "family_match")
    assert all(row[4] == row[6] == "true" for row in rows[1:])
    assert run(["sweep", "--n-max", "7"]) == 0
    assert capsys.readouterr().out == golden


def test_sweep_n_max_8_matches_the_committed_table(capsys):
    # written by the down-climb alone; sweep now climbs up when d >= 4
    golden = (Path(__file__).parent / "data" / "sweep8.tsv").read_text()
    rows = [line.split("\t") for line in golden.splitlines()]
    assert len(rows) == 42
    assert all(row[4] == row[6] == "true" for row in rows[1:])
    assert sum(int(row[2]) >= 4 for row in rows[1:]) == 11
    assert run(["sweep", "--n-max", "8"]) == 0
    assert capsys.readouterr().out == golden


def test_check_rows_an_order_11_path_with_no_flow(capsys, monkeypatch):
    def no_flows(*args, **kwargs):
        raise AssertionError("a flow ran")

    p11 = from_edges(11, list(zip(range(10), range(1, 11))))
    monkeypatch.setattr("oremax.metrics.local_connectivity", no_flows)
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(p11) + "\n"))
    assert run(["check", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == \
        [f"{to_graph6(p11)}\t11\t10\t10\t1\ttrue"]
    assert captured.err == ""


@pytest.mark.parametrize("n, k, d", [(30, 2, 5), (62, 4, 6), (62, 1, 20)])
def test_check_rows_a_family_member_past_order_10(capsys, monkeypatch,
                                                  n, k, d):
    p = Parameters(n, k, d)
    members = (build_family_member(p, spec)[0] for spec in candidate_specs(p))
    g = next(g for g in members if g.size == max_size_formula(p))
    text = to_graph6(g)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(f"{text}\n{_first_edge_deleted(text)}\n"))
    assert run(["check", "--k", str(k)]) == 0
    captured = capsys.readouterr()
    member, deleted = captured.out.splitlines()[1:]
    assert member == f"{text}\t{n}\t{g.size}\t{d}\t{k}\ttrue"
    # the deleted edge leaves pole 0, so kappa may drop too
    fields = deleted.split("\t")
    assert fields[1:4] == [str(n), str(g.size - 1), str(d)]
    assert fields[5] == "false"
    assert captured.err == ""


def _first_edge_deleted(text):
    g = from_graph6(text)
    edges = [(u, v) for u in range(g.order) for v in bits(g.rows[u]) if u < v]
    return to_graph6(from_edges(g.order, edges[1:]))


@pytest.mark.parametrize("n, k, d", [(9, 2, 3), (9, 3, 2), (9, 2, 4)])
def test_check_builds_no_witness_cut(capsys, monkeypatch, n, k, d):
    # check prints kappa alone, so no witness search may run
    def no_witness(g, kappa):
        raise AssertionError("witness cut searched")

    assert run(["family", "--n", str(n), "--k", str(k), "--d", str(d)]) == 0
    members = lines_of(capsys)
    lines = "\n".join(members + [_first_edge_deleted(m) for m in members])
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert run(["check", "--k", str(k)]) == 0
    expect = capsys.readouterr().out
    monkeypatch.setattr("oremax.metrics._lex_min_cut", no_witness)
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert run(["check", "--k", str(k)]) == 0
    assert capsys.readouterr().out == expect


def test_check_runs_one_diameter_and_one_kappa_per_line(capsys, monkeypatch):
    # a formula-sized k-connected member: the extremal verdict reuses the
    # row's diameter and kappa
    assert run(["family", "--n", "9", "--k", "2", "--d", "4"]) == 0
    text = lines_of(capsys)[0]
    counts = {"diameter": 0, "flows": 0}
    real_diameter = oremax.metrics.diameter
    real_flow = oremax.metrics.local_connectivity

    def counting_diameter(g):
        counts["diameter"] += 1
        return real_diameter(g)

    def counting_flow(*args, **kwargs):
        counts["flows"] += 1
        return real_flow(*args, **kwargs)

    monkeypatch.setattr("oremax.metrics.local_connectivity", counting_flow)
    connectivity(from_graph6(text))
    flows = counts["flows"]
    assert flows > 0
    counts["flows"] = 0
    for module in ("oremax.cli", "oremax.extremal"):
        monkeypatch.setattr(f"{module}.diameter", counting_diameter)
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    assert run(["check", "--k", "2"]) == 0
    assert lines_of(capsys)[1].endswith("\ttrue")
    assert counts == {"diameter": 1, "flows": flows}


def test_check_rejects_k_below_1_before_output(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C?\n"))
    assert run(["check", "--k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oremax: error: ")


def test_non_ascii_input_file_exits_2(tmp_path, capsys):
    target = tmp_path / "graphs.g6"
    target.write_bytes(b"C~\n\xc3\xa9\n")
    assert run(["check", "--k", "1", "--input", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("oremax: error: ")


def test_capacity_exits_4(capsys):
    assert run(["oracle", "--n", "10", "--k", "1", "--d", "2"]) == 4
    assert run(["family", "--n", "11", "--k", "1", "--d", "10"]) == 4
    assert run(["backbone", "--k", "31", "--d", "3"]) == 4


def test_help_exits_0(capsys):
    with_help = run(["--help"])
    assert with_help == 0
    assert "formula" in capsys.readouterr().out


def test_parser_is_built_once_for_many_runs(capsys, monkeypatch):
    built = []

    class CountingParser(oremax.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oremax.cli, "_Parser", CountingParser)
    oremax.cli._build_parser.cache_clear()
    try:
        for _ in range(10):
            assert run(["formula", "--n", "6", "--k", "1", "--d", "4"]) == 0
            assert run(["bogus"]) == 1
    finally:
        # the next run builds from the real _Parser again
        oremax.cli._build_parser.cache_clear()
    # one root parser and one subparser per command, once
    assert built.count("oremax") == 1
    assert len(built) == 1 + len(oremax.cli._COMMANDS)


# --- fresh interpreters -----------------------------------------------------


def _python(*args, stdin=None, **env):
    # stdin goes out as UTF-8 with surrogateescape: "\udcff" is byte 0xff
    src = str(Path(oremax.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **env,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, *args], env=env, input=stdin,
                          capture_output=True, encoding="utf-8",
                          errors="surrogateescape", timeout=60)


def test_python_dash_m_runs_cli():
    done = _python("-m", "oremax", "formula", "--n", "6", "--k", "1",
                   "--d", "4")
    assert (done.returncode, done.stdout) == (0, "7\n")


def test_python_dash_m_runs_cli_module():
    done = _python("-m", "oremax.cli", "formula", "--n", "6", "--k", "1",
                   "--d", "4")
    assert (done.returncode, done.stdout) == (0, "7\n")


def test_import_pulls_in_no_numpy():
    done = _python("-c", "import oremax, sys; "
                         "assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr


PUBLIC = [
    "BlockMap", "CANONICAL_MAX_ORDER", "CanonicalForm",
    "CapacityError", "ConnectivityResult", "DISCONNECTED", "Disconnected",
    "FamilyMemberSpec", "FormulaMode", "Graph", "Graph6ParseError",
    "LayerProfile", "MAX_ORDER", "OracleReport", "ParameterError",
    "Parameters", "Side", "attachment_cap", "backbone_order",
    "backbone_size", "bfs_layers", "bit_code", "bits", "build_backbone",
    "build_family_member", "canonical_form", "connectivity", "diameter",
    "enumerate_family", "from_bit_code", "from_edges", "from_graph6",
    "is_connected", "is_extremal", "is_k_connected",
    "layer_structure_check", "local_connectivity", "max_size_bruteforce",
    "max_size_formula", "relabeling_codes", "sweep", "to_dot",
    "to_edge_list", "to_graph6", "verify_theorem", "vertex_connectivity",
]

#: names that left the public surface in 0.2.0
REMOVED = ["add_edge", "empty_graph", "induced_subgraph", "is_clique",
           "relabel", "is_isomorphic", "_mask_from"]

#: names that left in 0.3.0, with the oracle's edge-move budget
REMOVED_BUDGET = ["BudgetError", "DEFAULT_BUDGET"]


def test_public_surface_is_pinned():
    assert sorted(oremax.__all__) == PUBLIC
    assert len(set(oremax.__all__)) == len(oremax.__all__)
    star = {}
    exec("from oremax import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC)
    for name in REMOVED:
        assert not hasattr(oremax, name), name
        assert not hasattr(oremax.graphs, name), name
    for method in ("vertices", "neighbors", "degree"):
        assert not hasattr(oremax.Graph, method), method
    assert not hasattr(oremax.LayerProfile, "reached")
    for name in REMOVED_BUDGET:
        for module in (oremax, oremax.errors, oremax.oracle):
            assert not hasattr(module, name), (module.__name__, name)
    for fn in (oremax.max_size_bruteforce, oremax.verify_theorem,
               oremax.sweep):
        assert "budget" not in inspect.signature(fn).parameters, fn
    # Python 3.10 has no tomllib, so the version line is read as text
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert oremax.__version__ == version == "0.3.0"


def test_check_reads_a_non_utf8_stdin_byte_as_a_bad_line():
    done = _python("-m", "oremax", "check", "--k", "1",
                   stdin="C~\n\udcff\nC~\n",
                   PYTHONIOENCODING="utf-8:strict")
    assert done.returncode == 2, done.stderr
    assert len(done.stdout.splitlines()) == 3  # header and two rows
    assert done.stderr == \
        "oremax: error: line 2: non-ASCII byte (byte offset 0)\n"


def test_check_reports_the_first_non_ascii_byte_of_a_long_line():
    # A and two 0xff bytes: one data byte too many, but the bad byte
    # comes first, as from_graph6 reports it on bytes input
    done = _python("-m", "oremax", "check", "--k", "1",
                   stdin="A\udcff\udcff\n",
                   PYTHONIOENCODING="utf-8:strict")
    assert done.returncode == 2, done.stderr
    assert done.stdout.splitlines() == [
        "graph6\torder\tsize\tdiameter\tkappa\textremal"]
    assert done.stderr == \
        "oremax: error: line 1: non-ASCII byte (byte offset 1)\n"


# each call reads the previous call's stdout as stdin; only check uses it
REUSE_SEQUENCE = [
    ["family", "--n", "9", "--k", "2", "--d", "3", "--bogus"],
    ["family", "--k", "2", "--d", "3"],
    ["--help"],
    ["family", "--n", "9", "--k", "2", "--d", "3"],
    ["check", "--k", "2"],
    ["verify", "--n", "6", "--k", "1", "--d", "4", "--json"],
    ["check", "--k", "0"],
]


def _mask_elapsed(text):
    return re.sub(r'("elapsed_seconds": )[^,\n]+', r"\g<1>0", text)


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # help wraps at the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    rounds = []
    for _ in range(2):
        calls, out = [], ""
        for argv in REUSE_SEQUENCE:
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code = run(argv)
            out, err = capsys.readouterr()
            calls.append((code, _mask_elapsed(out), err))
        rounds.append(calls)
    assert rounds[0] == rounds[1]
    calls = rounds[0]
    assert [code for code, _, _ in calls] == [1, 1, 0, 0, 0, 0, 2]
    assert "unrecognized arguments: --bogus" in calls[0][2]
    assert calls[1][2].startswith("usage: oremax family ")
    assert calls[2][1].startswith("usage: oremax ")
    assert len(calls[4][1].splitlines()) == len(calls[3][1].splitlines()) + 1
    out = ""
    for argv, call in zip(REUSE_SEQUENCE, calls):
        done = _python("-m", "oremax", *argv, stdin=out, COLUMNS="80")
        out = done.stdout
        assert (done.returncode, _mask_elapsed(done.stdout),
                done.stderr) == call, argv
