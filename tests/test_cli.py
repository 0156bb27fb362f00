import argparse
import json
import random
import re
import time
from pathlib import Path

import pytest

from symcut import (GraphCutOracle, WeightedGraph, gen_random_graph,
                    values_equal, write_graph)
from symcut.brute import MAX_ENUM
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
        for builder in ("scan", "queue"):
            for queue in ("heap", "bucket"):
                code = main(["mincut", triangle_file, "--builder", builder,
                             "--queue", queue, "--json"])
                if builder == "scan" and queue == "bucket":
                    # the scan builder uses no queue
                    assert code == 2
                    assert "bucket" in capsys.readouterr().err
                    continue
                assert code == 0
                assert json.loads(capsys.readouterr().out)["lambda"] == 3

    def test_check_flag(self, triangle_file, capsys):
        assert main(["mincut", triangle_file, "--check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == {"ran": True, "ok": True, "expected": 3}

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
        assert main(["mincut", str(path), "--builder", "queue", "--check",
                     "--json"]) == 0
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

    def test_bucket_on_float_weights_exits_2(self, tmp_path, capsys):
        path = tmp_path / "float.graph"
        path.write_text("2 1\n1 2 2.5\n")
        assert main(["mincut", str(path), "--builder", "queue",
                     "--queue", "bucket"]) == 2
        assert "bucket" in capsys.readouterr().err

    def test_bucket_over_its_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "heavy.graph"
        path.write_text("2 1\n1 2 1000000000\n")
        assert main(["mincut", str(path), "--builder", "queue",
                     "--queue", "bucket"]) == 2
        assert "use the heap queue" in capsys.readouterr().err

    @pytest.mark.parametrize("builder", ["scan", "queue"])
    @pytest.mark.parametrize("kind,text,expected,side", [
        ("graph", f"3 3\n1 2 {HUGE}\n2 3 {HUGE + 2}\n1 3 {HUGE + 1}\n", 2 * HUGE + 1, [1]),
        ("hypergraph", f"3 3\n{HUGE} 2 1 2\n{HUGE + 1} 2 2 3\n1 2 1 3\n", HUGE + 1, [1]),
    ], ids=["graph", "hypergraph"])
    def test_huge_integer_weights_stay_exact(self, tmp_path, capsys, builder, kind,
                                             text, expected, side):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["mincut", str(path), "--kind", kind, "--builder", builder,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda"] == expected and report["set"] == side

    @pytest.mark.parametrize("builder", ["scan", "queue"])
    @pytest.mark.parametrize("kind,text", [
        ("graph", f"3 3\n1 2 2.5\n2 3 {HUGE}\n1 3 1\n"),
        ("hypergraph", f"3 2\n2.5 2 1 2\n{HUGE} 3 1 2 3\n"),
    ], ids=["graph", "hypergraph"])
    def test_huge_integer_among_float_weights_exits_2(self, tmp_path, capsys, builder,
                                                      kind, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["mincut", str(path), "--kind", kind, "--builder", builder]) == 2
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

    def test_first_vertex_flag(self, triangle_file, capsys):
        assert main(["mincut", triangle_file, "--first", "3"]) == 0
        assert "lambda=3" in capsys.readouterr().out

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
    assert main(argv + ["--first", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["config"]) == {"algorithm", "order_builder", "queue_kind",
                                     "first_element"}
    assert report["config"]["first_element"] == 2
    assert set(report["stats"]) == {"rounds", "oracle_calls", "joins_per_round",
                                    "calls_per_order"}
    assert all(isinstance(x, list) for x in report["stats"]["calls_per_order"])


def test_calls_in_one_process_share_the_parser_but_not_their_flags(triangle_file, capsys):
    assert build_parser() is build_parser()
    configs = []
    for flags in (["--builder", "queue", "--queue", "bucket", "--first", "3"], []):
        assert main(["mincut", triangle_file, "--json"] + flags) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs == [
        {"algorithm": "laxback", "order_builder": "queue", "queue_kind": "bucket",
         "first_element": 3},
        {"algorithm": "laxback", "order_builder": "scan", "queue_kind": "heap",
         "first_element": 1}]


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

    def test_rejects_non_submodular(self, tmp_path, capsys):
        lines = ["3"] + [f"{m} {bin(m).count('1') ** 2}" for m in range(8)]
        path = tmp_path / "bad.table"
        path.write_text("\n".join(lines) + "\n")
        assert main(["minimize", "--table", str(path)]) == 2


class TestVerify:
    def test_verify_skips_the_bucket_queue_over_its_limit(self, tmp_path, capsys):
        path = tmp_path / "heavy.graph"
        path.write_text("3 3\n1 2 1000000000\n2 3 5\n1 3 4\n")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "queue-heap" in out and "queue-bucket" not in out

    def test_verify_fails_an_understated_bound_without_a_traceback(
            self, tmp_path, capsys, monkeypatch):
        class Understated(GraphCutOracle):
            def __init__(self, graph, early_exit=True):
                super().__init__(graph, early_exit)
                self.value_bound = 3  # the instance has a cut of weight 7

        monkeypatch.setattr("symcut.cli.GraphCutOracle", Understated)
        path = tmp_path / "understated.graph"
        path.write_text(write_graph(gen_random_graph(5, 0.6, 8, seed=251, connected=True)))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert ("[FAIL] " + str(path) + ": agrees-with-bruteforce[queue-bucket]"
                "  (key 7 exceeds declared key bound 3)") in captured.out
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
        assert main(["verify", "--random", "4", "--nmin", "3", "--nmax", "5",
                     "--seed", "9"]) == 0
        assert "all checks passed" in capsys.readouterr().out

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

    def test_no_input_exits_2(self, capsys):
        assert main(["verify"]) == 2

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
    # every subcommand, every flag (those of _add_config_flags included) and
    # every listed choice set, so a flag added or dropped in the CLI cannot
    # drift from the README
    assert _readme_usage() == _parser_usage()
