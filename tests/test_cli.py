import argparse
import json
import random
import re
import time
from pathlib import Path

import pytest

from symcut import (GraphCutOracle, SetFunctionTable, WeightedGraph,
                    gen_random_graph, graph_cut_table, values_equal, write_graph,
                    write_table)
from symcut.brute import MAX_ENUM, MAX_TABLE_CHECK
from symcut.cli import build_parser, main
from instance_texts import TRIANGLE_TEXT, TWO_VERTEX_TEXT

HUGE = 10**400  # 401 digits: past float range, exact as a Python int


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


@pytest.fixture
def big_graph_file(tmp_path):
    """A graph one vertex past the enumeration limit."""
    graph = gen_random_graph(MAX_ENUM + 1, 0.4, 9, seed=3, connected=True)
    path = tmp_path / "big.graph"
    path.write_text(write_graph(graph))
    return str(path)


def _strip_wall(text):
    return re.sub(r'"wall_ns": \d+', '"wall_ns": 0', text)


class TestMincut:
    def test_triangle(self, triangle_file, capsys):
        assert main(["mincut", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "lambda=3 S={3}" in out

    def test_two_vertex(self, tmp_path, capsys):
        path = tmp_path / "two.graph"
        path.write_text(TWO_VERTEX_TEXT)
        assert main(["mincut", str(path)]) == 0
        assert "lambda=5 S={1}" in capsys.readouterr().out

    def test_maxback_same_value_n_minus_1_rounds(self, triangle_file, capsys):
        assert main(["mincut", triangle_file, "--algorithm", "maxback",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda"] == 3
        assert report["stats"]["rounds"] == 2

    def test_all_flag_combinations(self, triangle_file, capsys):
        for algorithm in ("laxback", "maxback"):
            assert main(["mincut", triangle_file, "--algorithm", algorithm, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["lambda"] == 3

    def test_builder_flag_is_refused(self, triangle_file, capsys):
        # graph and hypergraph oracles are keyed, so they always take the
        # queue builder; there is no setting for it
        with pytest.raises(SystemExit) as exit_info:
            main(["mincut", triangle_file, "--builder", "scan"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --builder scan" in capsys.readouterr().err

    def test_integer_ring_takes_the_queue_builder(self, tmp_path, capsys):
        # a pure ring's minimum cut is its two lightest edges; the queue
        # builder makes no eval and the graph oracle hands over every
        # singleton value at once, so the one call is the final value
        n = 300
        r = random.Random(300)
        weights = [r.randint(5, 10**6) for _ in range(n)]
        path = tmp_path / "ring.graph"
        path.write_text(write_graph(WeightedGraph(
            n, [(v, (v + 1) % n, w) for v, w in enumerate(weights)])))
        assert main(["mincut", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda"] == sum(sorted(weights)[:2])
        assert report["stats"]["oracle_calls"] == 1
        assert report["config"]["order_builder"] is None

    def test_check_flag(self, triangle_file, capsys):
        assert main(["mincut", triangle_file, "--check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == {"ran": True, "ok": True, "expected": 3}

    def test_check_flag_without_json_reports_the_check(self, triangle_file, capsys):
        assert main(["mincut", triangle_file, "--check"]) == 0
        assert "check: ok (enumerated 3)\n" in capsys.readouterr().out

    def test_check_past_enumeration_limit_without_json_says_not_run(self, tmp_path,
                                                                     capsys):
        assert main(["gen", "--n", "24", "--p", "0.3", "--seed", "1", "--connected"]) == 0
        path = tmp_path / "gen.graph"
        path.write_text(capsys.readouterr().out)
        assert main(["mincut", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "check: not run (instance too large to enumerate)\n" in out
        assert "check: ok" not in out

    def test_check_skipped_past_enumeration_limit(self, big_graph_file, capsys):
        start = time.perf_counter()
        assert main(["mincut", big_graph_file, "--check", "--json"]) == 0
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert report["check"]["ran"] is False
        assert elapsed < 1.0

    def test_check_passes_on_float_weights_of_mixed_magnitude(self, tmp_path, capsys):
        # weights from 1e-3 to 1e12: the queue builder's accumulated keys and
        # enumeration round differently in the last digits of a 1e12 value
        r = random.Random(519)
        n = r.randint(4, 12)
        edges = [(u, v, r.choice([0.1, 1 / 3, 1e12, 0.7, 2.5, 1e-3]))
                 for u in range(n) for v in range(u + 1, n) if r.random() < 0.6]
        graph = WeightedGraph(n, edges)
        path = tmp_path / "mixed.graph"
        path.write_text(write_graph(graph))
        assert main(["mincut", str(path), "--check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"]["ok"] is True
        side = frozenset(v - 1 for v in report["set"])
        strict = GraphCutOracle(graph, early_exit=False)
        assert values_equal(report["lambda"],
                            strict.eval(side, frozenset(range(n)) - side))

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("2 1\n1 1 5\n")
        assert main(["mincut", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_single_vertex_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.graph"
        path.write_text("1 0\n")
        assert main(["mincut", str(path)]) == 2

    @pytest.mark.parametrize("algorithm", ["laxback", "maxback"])
    @pytest.mark.parametrize("kind,text,expected,side", [
        ("graph", f"3 3\n1 2 {HUGE}\n2 3 {HUGE + 2}\n1 3 {HUGE + 1}\n", 2 * HUGE + 1, [1]),
        ("hypergraph", f"3 3\n{HUGE} 2 1 2\n{HUGE + 1} 2 2 3\n1 2 1 3\n", HUGE + 1, [1]),
    ], ids=["graph", "hypergraph"])
    def test_huge_integer_weights_stay_exact(self, tmp_path, capsys, algorithm, kind,
                                             text, expected, side):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["mincut", str(path), "--kind", kind, "--algorithm", algorithm,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda"] == expected and report["set"] == side

    @pytest.mark.parametrize("kind,text", [
        ("graph", f"3 3\n1 2 2.5\n2 3 {HUGE}\n1 3 1\n"),
        ("hypergraph", f"3 2\n2.5 2 1 2\n{HUGE} 3 1 2 3\n"),
    ], ids=["graph", "hypergraph"])
    def test_huge_integer_among_float_weights_exits_2(self, tmp_path, capsys, kind, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["mincut", str(path), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "too large for a float" in err

    def test_hypergraph_instance(self, tmp_path, capsys):
        path = tmp_path / "h.hgr"
        path.write_text("3 2\n2 3 1 2 3\n5 2 1 2\n")
        assert main(["mincut", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lambda=2 S={3}" in out

    def test_json_deterministic_modulo_wall_time(self, triangle_file, capsys):
        args = ["mincut", triangle_file, "--json", "--check"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert _strip_wall(first) == _strip_wall(second)

    def test_first_vertex_flag_is_refused(self, triangle_file, capsys):
        # every order starts at vertex 1's class; there is no setting for it
        with pytest.raises(SystemExit) as exit_info:
            main(["mincut", triangle_file, "--first", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --first 3" in capsys.readouterr().err

    def test_table_file_redirected_to_minimize(self, tmp_path, capsys):
        path = tmp_path / "f.table"
        path.write_text("2\n0 0\n1 3\n2 3\n3 0\n")
        assert main(["mincut", str(path)]) == 2
        assert "minimize" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mincut", "minimize"])
def test_json_report_config_and_stats_keys(tmp_path, capsys, command):
    path = tmp_path / "instance.txt"
    if command == "mincut":
        path.write_text(TRIANGLE_TEXT)
        argv = ["mincut", str(path)]
    else:
        path.write_text("2\n0 0\n1 3\n2 3\n3 0\n")
        argv = ["minimize", "--table", str(path)]
    assert main(argv + ["--algorithm", "maxback", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the oracle chose the builder: a queue for the graph, a scan for the table
    assert report["config"] == {"algorithm": "maxback", "order_builder": None,
                                "queue_kind": "heap"}
    stats = report["stats"]
    assert set(stats) == {"rounds", "oracle_calls", "per_round"}
    assert len(stats["per_round"]) == stats["rounds"]
    assert all(set(r) == {"classes", "joins", "evals", "key_updates", "tau"}
               for r in stats["per_round"])
    # each build counts only its own operations: the graph's queue builds
    # make no evals, the table's scans no key updates
    idle = "evals" if command == "mincut" else "key_updates"
    assert all(r[idle] == 0 for r in stats["per_round"])


def test_calls_in_one_process_share_the_parser_but_not_their_flags(triangle_file, capsys):
    assert build_parser() is build_parser()
    configs = []
    for flags in (["--algorithm", "maxback"], []):
        assert main(["mincut", triangle_file, "--json"] + flags) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs == [
        {"algorithm": "maxback", "order_builder": None, "queue_kind": "heap"},
        {"algorithm": "laxback", "order_builder": None, "queue_kind": "heap"}]


class TestMinimize:
    def test_crossing_table(self, tmp_path, capsys):
        from symcut import gen_random_graph, graph_cut_table, write_table
        table = graph_cut_table(gen_random_graph(5, 0.8, 6, seed=4,
                                                 connected=True))
        path = tmp_path / "f.table"
        path.write_text(write_table(table))
        assert main(["minimize", "--table", str(path), "--check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        f = table.table_values
        best = min(f[m] for m in range(1, (1 << 5) - 1))
        assert report["f_value"] == best
        assert report["check"]["ok"] is True

    def test_check_flag_without_json_reports_the_check(self, tmp_path, capsys):
        table = graph_cut_table(gen_random_graph(5, 0.8, 6, seed=4, connected=True))
        path = tmp_path / "f.table"
        path.write_text(write_table(table))
        assert main(["minimize", "--table", str(path), "--check"]) == 0
        best = min(table.table_values[1:-1])
        assert f"check: ok (enumerated {best})\n" in capsys.readouterr().out

    def test_table_takes_the_scan_builder(self, tmp_path, capsys):
        # a table's oracle has no keys, so the rule scans its orders: evals
        # beyond the n singleton probes and the final value
        n = 9
        table = graph_cut_table(gen_random_graph(n, 0.5, 9, seed=6, connected=True))
        path = tmp_path / "f.table"
        path.write_text(write_table(table))
        assert main(["minimize", "--table", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["order_builder"] is None
        assert report["stats"]["oracle_calls"] > n + 1

    def test_rejects_non_submodular(self, tmp_path, capsys):
        lines = ["3"] + [f"{m} {bin(m).count('1') ** 2}" for m in range(8)]
        path = tmp_path / "bad.table"
        path.write_text("\n".join(lines) + "\n")
        assert main(["minimize", "--table", str(path)]) == 2

    def test_rejects_non_symmetric_past_the_submodularity_limit(self, tmp_path, capsys):
        n = MAX_TABLE_CHECK + 1
        table = graph_cut_table(gen_random_graph(n, 4 / (n - 1), 9, seed=1, connected=True))
        path = tmp_path / "f.table"
        path.write_text(write_table(table))
        assert main(["minimize", "--table", str(path)]) == 0
        capsys.readouterr()
        values = list(table.table_values)
        values[1] += 1000  # f({0}) no longer equals f(V - {0})
        path.write_text(write_table(SetFunctionTable(n, values)))
        assert main(["minimize", "--table", str(path)]) == 2
        assert "symmetric=False, submodular=unchecked" in capsys.readouterr().err


class TestVerify:
    def test_verify_sweeps_the_heap_queue_only(self, tmp_path, capsys):
        # small integer weights, which the bucket queue would take
        path = tmp_path / "small.graph"
        path.write_text("3 3\n1 2 3\n2 3 5\n1 3 4\n")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "queue-heap" in out and "queue-bucket" not in out

    def test_verify_fails_a_refused_configuration_without_a_traceback(
            self, tmp_path, capsys, monkeypatch):
        class NanKeys(GraphCutOracle):
            def key_tracker(self, partition, first):
                tracker = super().key_tracker(partition, first)
                tracker.keys[2] = float("nan")  # only the queue builder reads it
                return tracker

        monkeypatch.setattr("symcut.cli.GraphCutOracle", NanKeys)
        path = tmp_path / "nan.graph"
        path.write_text(write_graph(gen_random_graph(5, 0.6, 8, seed=251, connected=True)))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert ("[FAIL] " + str(path) + ": agrees-with-bruteforce[queue-heap]"
                "  (the oracle gave class 2 the non-finite key nan)") in captured.out
        assert "verify: 1 checks failed" in captured.out
        assert captured.err == ""

    def test_huge_integer_weights_verify_exactly(self, tmp_path, capsys):
        path = tmp_path / "huge.graph"
        path.write_text(f"3 3\n1 2 {HUGE}\n2 3 {HUGE + 2}\n1 3 {HUGE + 1}\n")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "oracle-monotone" in out and "oracle-consistent" in out
        assert "verify: all checks passed" in out

    def test_graph_file_passes(self, triangle_file, capsys):
        assert main(["verify", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_random_corpus(self, capsys):
        assert main(["verify", "--random", "4"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert [line.split(": ")[0] for line in out.splitlines()
                if line.endswith(": oracle-symmetric")] == [
            f"[ok  ] random[{i}] n={3 + i}" for i in range(4)]

    def test_gen_writes_the_random_corpus_graph_for_verify_file(self, tmp_path, capsys):
        # corpus graph 2 has n = 5: p 0.6, wmax 10 (gen's default) and seed 2
        assert main(["verify", "--random", "3"]) == 0
        corpus = [line.replace("random[2] n=5", "FILE")
                  for line in capsys.readouterr().out.splitlines()
                  if "random[2] n=5" in line]
        assert main(["gen", "--n", "5", "--p", "0.6", "--seed", "2", "--connected"]) == 0
        path = tmp_path / "r.txt"
        path.write_text(capsys.readouterr().out)
        assert write_graph(gen_random_graph(5, 0.6, 10, seed=2, connected=True)) \
            == path.read_text()
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.replace(str(path), "FILE").splitlines()
        assert lines == corpus + ["verify: all checks passed"]

    def test_hypergraph_file(self, tmp_path, capsys):
        path = tmp_path / "h.hgr"
        path.write_text("5 3\n2 3 1 2 3\n1 2 4 5\n3 2 1 5\n")
        assert main(["verify", str(path)]) == 0

    def test_broken_table_fails_with_named_check(self, tmp_path, capsys):
        lines = ["3"] + [f"{m} {bin(m).count('1') ** 2}" for m in range(8)]
        path = tmp_path / "bad.table"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "table-submodular" in out

    def test_negative_random_count_exits_2(self, capsys):
        assert main(["verify", "--random", "-3"]) == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "all checks passed" not in captured.out

    def test_zero_random_count_exits_2(self, capsys):
        assert main(["verify", "--random", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --random COUNT is 0: nothing to verify\n"
        assert captured.out == ""

    def test_minus_one_random_count_asks_for_at_least_1(self, capsys):
        # 0 is refused too, so "nonnegative" would be the wrong bound
        assert main(["verify", "--random", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --random COUNT must be at least 1\n"
        assert captured.out == ""

    def test_no_input_exits_2(self, capsys):
        assert main(["verify"]) == 2

    def test_file_with_random_exits_2(self, triangle_file, capsys):
        assert main(["verify", triangle_file, "--random", "1"]) == 2
        captured = capsys.readouterr()
        assert f"with --random COUNT verify would ignore the file {triangle_file}" \
            in captured.err
        assert captured.out == ""

    def test_kind_with_random_exits_2(self, capsys):
        assert main(["verify", "--random", "1", "--kind", "graph"]) == 2
        captured = capsys.readouterr()
        assert "with --random COUNT verify would ignore --kind" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--nmin", "3"), ("--nmax", "8"), ("--p", "0.6"), ("--wmax", "10"), ("--seed", "0")])
    def test_random_corpus_takes_no_draw_flags(self, capsys, flag, value):
        # the corpus is fixed: `gen` draws any other graph for `verify FILE`
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--random", "1", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        # the value is taken for the path, so argparse names the flag alone
        assert captured.err.endswith(f"error: unrecognized arguments: {flag}\n")
        assert captured.out == ""

    def test_file_past_enumeration_limit_exits_2(self, big_graph_file, capsys):
        assert main(["verify", big_graph_file]) == 2
        assert f"n <= {MAX_ENUM}" in capsys.readouterr().err


class TestGen:
    def test_deterministic_bytes(self, capsys):
        assert main(["gen", "--n", "5", "--p", "1.0", "--wmax", "1",
                     "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "5", "--p", "1.0", "--wmax", "1",
                     "--seed", "1"]) == 0
        assert first == capsys.readouterr().out
        assert first.splitlines()[0] == "5 10"  # complete graph at p=1

    def test_too_small_exits_2(self, capsys):
        assert main(["gen", "--n", "1"]) == 2

    def test_graph_that_cannot_connect_exits_2(self, capsys):
        # an input error, not a verification failure (exit 1) or a traceback
        assert main(["gen", "--n", "30", "--p", "0.001", "--connected"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: could not draw a connected graph; raise p\n"
        assert captured.out == ""

    def test_gen_then_mincut(self, tmp_path, capsys):
        assert main(["gen", "--n", "6", "--p", "0.7", "--seed", "3",
                     "--connected"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.graph"
        path.write_text(text)
        assert main(["mincut", str(path), "--check"]) == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_usage():
    """{subcommand: {flag: choices or None}} from the README's CLI usage block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1)
    usage = {}
    command = None
    for line in block.splitlines():
        if line.startswith("symcut "):
            command = line.split()[1]
            usage.setdefault(command, {})
        for flag, choices in re.findall(r"(--[a-z][a-z-]*)(?: \{([^}]*)\})?", line):
            usage[command][flag] = choices.split(",") if choices else None
    return usage


def _parser_usage():
    """The same mapping from the parser the CLI runs."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    usage = {}
    for command, parser in subparsers.choices.items():
        usage[command] = {
            flag: list(action.choices) if action.choices else None
            for action in parser._actions
            for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    return usage


def test_readme_usage_names_exactly_the_parser_flags():
    # every subcommand, every flag (those of _add_algorithm_flag included) and
    # every listed choice set, so a flag added or dropped in the CLI cannot
    # drift from the README
    assert _readme_usage() == _parser_usage()


@pytest.mark.parametrize("command", ["mincut", "minimize"])
def test_every_solver_flag_says_what_it_does(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    helps = {action.option_strings[0]: action.help
             for action in subparsers.choices[command]._actions if action.option_strings}
    assert all(helps.values()), helps
    # a table's --check reads its own entries, a file's enumerates the cuts
    want = ("least nontrivial entry (any table size)" if command == "minimize"
            else f"enumeration (n <= {MAX_ENUM})")
    assert want in helps["--check"]


def test_verify_takes_a_path_kind_and_random_count_only():
    assert _parser_usage()["verify"] == {"--kind": ["graph", "hypergraph", "table"],
                                         "--random": None}


def test_readme_library_quick_start_runs():
    # the README's python block runs as written, so a renamed or dropped
    # configuration field cannot drift from the docs
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert (namespace["best"], namespace["value"]) == ({2}, 3)
