import json
import random
import re

import pytest

from symcut import GraphCutOracle, WeightedGraph, values_equal, write_graph
from symcut.cli import main
from instance_texts import TRIANGLE_TEXT, TWO_VERTEX_TEXT


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_TEXT)
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
                for init in ("inf", "min-singleton"):
                    code = main(["mincut", triangle_file, "--builder", builder,
                                 "--queue", queue, "--init", init, "--json"])
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


class TestBench:
    def test_csv_shape_and_agreement(self, capsys):
        assert main(["bench", "--count", "3", "--n", "6", "--seed", "2",
                     "--variants", "maxback,laxback,queue-heap,queue-bucket"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == ["n", "m", "variant", "rounds",
                                       "oracle_calls", "joins_total", "lambda",
                                       "wall_ns"]
        assert len(lines) == 1 + 3 * 4
        by_instance = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_instance.setdefault(cells[1], set()).add(cells[6])

    def test_unknown_variant_exits_2(self, capsys):
        assert main(["bench", "--variants", "quantum"]) == 2

    def test_laxback_rounds_never_exceed_maxback(self, capsys):
        assert main(["bench", "--count", "6", "--n", "8", "--seed", "5",
                     "--variants", "maxback,laxback"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rounds = {}
        for idx, line in enumerate(lines):
            cells = line.split(",")
            rounds.setdefault(idx // 2, {})[cells[2]] = int(cells[3])
        for per in rounds.values():
            assert per["laxback"] <= per["maxback"]


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
