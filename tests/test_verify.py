"""The verification layer: one sweep through the oracle that solves, tables
included, with floats compared within the documented tolerance."""

import random

import pytest

from symcut import (ConnectivityOracle, GraphCutOracle, SetFunctionTable, TableOracle,
                    WeightedGraph, check_consistent, complete_table, gen_random_graph,
                    graph_cut_table, optimal_set, verify_oracle, verify_table,
                    write_table)
from symcut.brute import table_submodular, table_symmetric
from symcut.cli import main
from symcut.values import value_below


def float_graph(n, seed):
    """Connected graph with two-decimal float weights in [1, 10]."""
    r = random.Random(seed)
    edges = {(r.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(r.sample(range(n), 2))
        edges.add((u, v))
    return WeightedGraph(n, [(u, v, round(r.uniform(1, 10), 2)) for u, v in sorted(edges)])


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def pairwise_submodular(table):
    """The definition: f(S) + f(T) >= f(S|T) + f(S&T) for every pair S, T."""
    f = table.table_values
    size = 1 << table.n
    return all(f[s] + f[t] >= f[s | t] + f[s & t]
               for s in range(size) for t in range(s, size))


def test_value_below_is_exact_on_ints_and_tolerant_on_floats():
    assert value_below(1, 2) and not value_below(2, 2) and not value_below(3, 2)
    assert not value_below(10**400, 10**400) and value_below(10**400, 10**400 + 1)
    assert not value_below(29.990000000000002, 29.990000000000006)
    assert value_below(29.99, 30.0)


def test_table_submodular_matches_the_pairwise_definition():
    r = random.Random(15)
    verdicts = []
    for trial in range(120):
        n = r.randint(2, 6)
        kind = trial % 3
        if kind == 0:  # cut functions are submodular
            values = list(graph_cut_table(gen_random_graph(n, 0.6, 9, seed=trial)).table_values)
        elif kind == 1:  # a perturbed cut function may not be
            values = list(graph_cut_table(gen_random_graph(n, 0.6, 9, seed=trial)).table_values)
            for _ in range(r.randint(1, 3)):
                values[r.randrange(1 << n)] += r.randint(-6, 6)
        else:  # g(|S|): submodular exactly when g is concave
            g = [r.randint(-5, 15) for _ in range(n + 1)]
            values = [g[bin(m).count("1")] for m in range(1 << n)]
        table = SetFunctionTable(n, values)
        verdict = pairwise_submodular(table)
        assert table_submodular(table) == verdict, (trial, values)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", [6, 8, 12])
def test_float_cut_tables_pass_minimize_and_verify(tmp_path, capsys, n):
    table = graph_cut_table(float_graph(n, seed=n))
    assert table_symmetric(table) and table_submodular(table)
    path = write_file(tmp_path, "f.table", write_table(table))
    assert main(["minimize", "--table", path, "--check", "--json"]) == 0
    assert main(["verify", path]) == 0
    assert "verify: all checks passed" in capsys.readouterr().out

    values = list(table.table_values)
    values[3] += 1.0  # f({0, 1}) no longer equals f(V - {0, 1})
    broken = write_file(tmp_path, "broken.table", write_table(SetFunctionTable(n, values)))
    assert main(["minimize", "--table", broken]) == 2
    assert main(["verify", broken]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] " + broken + ": table-symmetric" in out


@pytest.mark.parametrize("seed", [3, 31])
def test_float_graph_passes_the_exhaustive_axioms(seed):
    # exact comparisons failed monotonicity (seed 3) and consistency (seed
    # 31) on sums that differ in the last place
    graph = float_graph(6, seed)
    report = verify_oracle(GraphCutOracle(graph), graph.n)
    names = [e.name for e in report.entries]
    assert "oracle-monotone" in names and "oracle-consistent" in names
    assert report.ok, [e for e in report.entries if not e.ok]


def test_consistency_premise_holds_within_the_tolerance():
    # R = {0}, S = {1}, T = {2}: d(S, R) and d(T, R) are equal within the
    # tolerance, so the premise holds, and d(S, R|T) = 1 < d(S|R, T) = 5;
    # d({1, 2}, R) = 1 keeps every other triple consistent
    entries = {(2, 1): 1.0, (4, 1): 1.0 + 1e-12, (2, 5): 1.0, (3, 4): 5.0, (6, 1): 1.0}
    oracle = TableOracle(3, complete_table(3, entries, default=2.0))
    assert check_consistent(oracle, 3).witness == (1, 2, 4)


def test_verify_table_runs_the_oracle_sweep():
    table = graph_cut_table(gen_random_graph(6, 0.6, 9, seed=4, connected=True))
    report = verify_table(table)
    assert report.ok, [e for e in report.entries if not e.ok]
    names = [e.name for e in report.entries]
    sweep = [e.name for e in verify_oracle(ConnectivityOracle(table), table.n).entries]
    assert names == ["table-symmetric", "table-submodular"] + sweep
    for name in ("agrees-with-bruteforce[scan]", "agrees-with-bruteforce[maxback]",
                 "scan-call-bound[scan]", "order-dominates-suffix",
                 "contraction-preserves-capped-min", "separation-triangle",
                 "oracle-monotone", "oracle-consistent"):
        assert name in names


def test_round_records_share_one_snapshot_per_round():
    graph = gen_random_graph(8, 0.5, 9, seed=2, connected=True)
    oracle = GraphCutOracle(graph)
    records = []
    optimal_set(oracle, graph.n, observer=records.append)
    assert len(records) >= 2
    assert records[0].members_before == {v: frozenset({v}) for v in range(graph.n)}
    for record, following in zip(records, records[1:]):
        assert record.members_after == following.members_before
    assert len(records[-1].members_after) == 1
    assert verify_oracle(oracle, graph.n).ok


def test_verify_on_a_valid_integer_table_prints_the_sweep(tmp_path, capsys):
    table = graph_cut_table(gen_random_graph(5, 0.7, 9, seed=8, connected=True))
    path = write_file(tmp_path, "f.table", write_table(table))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    for name in ("table-symmetric", "table-submodular", "bruteforce-optimum",
                 "agrees-with-bruteforce[scan]", "result-set-attains-value[maxback]",
                 "stored-keys-exact", "separation-triangle", "capped-oracle-axioms"):
        assert f"[ok  ] {path}: {name}" in out
    assert "verify: all checks passed" in out


def test_verify_refuses_a_table_past_the_check_limit(tmp_path, capsys):
    table = graph_cut_table(gen_random_graph(13, 0.3, 9, seed=1, connected=True))
    path = write_file(tmp_path, "big.table", write_table(table))
    assert main(["verify", path]) == 2
    assert "n <= 12" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, caps", [
    ("f.table", "2\n0 0\n1 3\n2 3\n3 0\n", [0, 6]),
    ("f.graph", "2 1\n1 2 0\n", [0]),
])
def test_verify_checks_each_cap_once(tmp_path, capsys, name, text, caps):
    path = write_file(tmp_path, name, text)
    assert main(["verify", path]) == 0
    printed = [line.split(": ")[-1] for line in capsys.readouterr().out.splitlines()
               if "capped-oracle-axioms" in line]
    assert printed == [f"capped-oracle-axioms[cap={cap}]" for cap in caps]


@pytest.mark.parametrize("name, text", [("one.table", "1\n0 0\n1 0\n"),
                                        ("one.graph", "1 0\n")])
def test_verify_refuses_a_one_element_instance(tmp_path, capsys, name, text):
    path = write_file(tmp_path, name, text)
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need at least two elements\n"
    assert captured.out == ""


def test_verify_refuses_an_empty_size_range(capsys):
    assert main(["verify", "--random", "2", "--nmin", "5", "--nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert "nmin <= nmax" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("flags", [["--builder", "queue"], ["--queue", "bucket"]])
def test_minimize_has_no_builder_or_queue_flag(tmp_path, capsys, flags):
    table = graph_cut_table(gen_random_graph(4, 0.8, 9, seed=0, connected=True))
    path = write_file(tmp_path, "f.table", write_table(table))
    with pytest.raises(SystemExit) as exit_info:
        main(["minimize", "--table", path] + flags)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

