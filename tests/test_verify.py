"""The verification layer: one sweep through the oracle that solves, tables
included, with floats compared within the documented tolerance."""

import random
from dataclasses import replace

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, MinimizeConfig, RoundStats,
                    RunStats, SetFunctionTable, WeightedGraph, check_consistent,
                    gen_random_graph, graph_cut_table, optimal_set, verify_oracle,
                    verify_table, write_graph, write_table)
from symcut import brute, verify
from symcut.brute import (CheckResult, bipartition_values, check_symmetric,
                          table_submodular, table_symmetric)
from symcut.cli import main
from symcut.values import set_of, value_below
from symcut.verify import (_within_maxback, check_contraction_record, check_join_record,
                           check_order_record)
from table_oracle import TableOracle, complete_table


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
                 "order-dominates-suffix", "contraction-preserves-capped-min",
                 "oracle-symmetric", "oracle-monotone", "oracle-consistent"):
        assert name in names


def test_a_result_set_that_misses_the_final_tau_fails_its_entry(monkeypatch):
    # each run as the driver makes it, but with a wrong set returned
    # together with that set's own value: d(S, rest) equals the returned
    # value, so only the run's final tau can show the set is not the one
    # that attained it. The 4-ring's minimum, 2, is {2, 3}; {1} has 6
    oracle = GraphCutOracle(WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)]))
    solve = verify.optimal_set

    def wrong_set(oracle, n, config=None, observer=None):
        _, _, stats = solve(oracle, n, config, observer)
        return {1}, oracle.eval(frozenset({1}), frozenset({0, 2, 3}), INF), stats

    monkeypatch.setattr(verify, "optimal_set", wrong_set)
    entries = {e.name: e for e in verify_oracle(oracle, 4).entries}
    for name in ("scan", "queue-heap", "maxback"):
        entry = entries[f"result-set-attains-value[{name}]"]
        assert not entry.ok and entry.detail == "d(S, rest) = 6, final tau 2", entry


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
    for name in ("table-symmetric", "table-submodular",
                 "agrees-with-bruteforce[scan]", "result-set-attains-value[maxback]",
                 "stored-keys-exact", "oracle-symmetric", "capped-oracle-axioms"):
        assert f"[ok  ] {path}: {name}" in out
    assert "bruteforce-optimum" not in out and "separation-triangle" not in out
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


def test_capped_axioms_sample_one_value_per_bipartition():
    # some bipartitions of this float graph sum to values a last place apart
    # on their two sides; the caps read each bipartition once, on the side
    # of element 0, so no such pair counts as two values and moves the median
    oracle = GraphCutOracle(float_graph(6, seed=1))
    caps = [e.name for e in verify_oracle(oracle, 6).entries
            if e.name.startswith("capped-oracle-axioms")]
    assert caps == [f"capped-oracle-axioms[cap={cap}]" for cap in (0, 44.47, 66.57)]


@pytest.mark.parametrize("name, text", [("one.table", "1\n0 0\n1 0\n"),
                                        ("one.graph", "1 0\n")])
def test_verify_refuses_a_one_element_instance(tmp_path, capsys, name, text):
    path = write_file(tmp_path, name, text)
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need at least two elements\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--builder", "queue"], ["--queue", "bucket"],
                                   ["--queue", "heap"]])
@pytest.mark.parametrize("command", ["minimize", "mincut"])
def test_solvers_have_no_builder_or_queue_flag(tmp_path, capsys, flags, command):
    # mincut always runs the heap queue, minimize no queue at all
    graph = gen_random_graph(4, 0.8, 9, seed=0, connected=True)
    if command == "minimize":
        argv = ["minimize", "--table",
                write_file(tmp_path, "f.table", write_table(graph_cut_table(graph)))]
    else:
        argv = ["mincut", write_file(tmp_path, "g.graph", write_graph(graph))]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + flags)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err



def test_laxback_within_maxback_entry_reads_the_sweep_runs():
    graph = gen_random_graph(10, 0.4, 9, seed=5, connected=True)
    oracle = GraphCutOracle(graph)
    entry = next(e for e in verify_oracle(oracle, 10).entries
                 if e.name == "laxback-within-maxback")
    _, _, lax = optimal_set(oracle, 10, MinimizeConfig(order_builder="scan"))
    _, _, maxback = optimal_set(oracle, 10, MinimizeConfig(algorithm="maxback",
                                                           order_builder="scan"))
    evals = sum(r.evals for r in lax.per_round)
    classes = sum(r.classes for r in lax.per_round)
    assert entry.ok
    # the pendant-pair loop's 9 scans of 10 down to 2 classes
    assert entry.detail == f"evals {evals} vs 165, classes {classes} vs 54"
    assert sum(r.evals for r in maxback.per_round) == 165


def test_laxback_within_maxback_entry_fails_past_either_bound():
    def built(*rounds):
        """The per_round of builds of these (classes, evals)."""
        return [RoundStats(k, 1, evals, 0, 1) for k, evals in rounds]

    maxback = RunStats(rounds=2, oracle_calls=5, per_round=built((3, 3), (2, 1)))
    # one eval over maxback's, then one class over; the laxback run's
    # oracle calls, whatever its probes, do not enter
    for rounds in (((3, 5),), ((3, 1), (3, 1))):
        lax = RunStats(rounds=len(rounds), oracle_calls=0, per_round=built(*rounds))
        assert not _within_maxback(lax, maxback).ok
    assert _within_maxback(RunStats(rounds=2, oracle_calls=99,
                                    per_round=built((3, 3), (2, 1))), maxback).ok


LAXBACK_SCAN = MinimizeConfig(order_builder="scan")
MAXBACK_SCAN = MinimizeConfig(algorithm="maxback", order_builder="scan")


def first_record(graph, config):
    records = []
    optimal_set(GraphCutOracle(graph), graph.n, config, observer=records.append)
    return records[0]


def test_joins_follow_the_rule_runs_at_any_n_in_place_of_the_maxback_entry():
    graph = gen_random_graph(10, 0.4, 9, seed=5, connected=True)
    entries = {e.name: e for e in verify_oracle(GraphCutOracle(graph), 10).entries}
    rounds = sum(optimal_set(GraphCutOracle(graph), 10, cfg)[2].rounds
                 for cfg in (LAXBACK_SCAN, MinimizeConfig(), MAXBACK_SCAN))
    assert entries["joins-follow-the-rule"].ok
    assert entries["joins-follow-the-rule"].detail == f"{rounds} rounds"
    assert "maxback-one-join-per-round" not in entries
    assert "stored-keys-exact" not in entries  # the enumerating checks stop at n = 8


def test_joins_follow_the_rule_fails_a_round_that_splits_a_run():
    # path 0 -5- 1 -5- 2: tau starts at 5 and the whole order is one run
    graph = WeightedGraph(3, [(0, 1, 5), (1, 2, 5)])
    record = first_record(graph, LAXBACK_SCAN)
    assert (record.order.order, record.order.keys) == ((0, 1, 2), (INF, 5, 5))
    assert record.members_after == {0: frozenset({0, 1, 2})}
    assert check_join_record(record, "laxback")
    # after the run's first join, a new run starts at class 2 instead
    split = replace(record, members_after={0: frozenset({0, 1}), 2: frozenset({2})})
    result = check_join_record(split, "laxback")
    assert not result
    assert result.witness == (0, frozenset({0, 1}), frozenset({0, 1, 2}))


def test_joins_follow_the_rule_fails_a_maxback_round_that_joins_another_pair():
    graph = WeightedGraph(3, [(0, 1, 5), (1, 2, 1)])
    record = first_record(graph, MAXBACK_SCAN)
    assert record.order.order == (0, 1, 2)
    assert record.members_after == {0: frozenset({0}), 1: frozenset({1, 2})}
    assert check_join_record(record, "maxback")
    wrong = replace(record, members_after={0: frozenset({0, 1}), 2: frozenset({2})})
    assert check_join_record(wrong, "maxback").witness == (0, frozenset({0, 1}),
                                                            frozenset({0}))


def test_stored_keys_exact_fails_a_changed_key_with_its_witness():
    graph = gen_random_graph(6, 0.6, 9, seed=4, connected=True)
    record = first_record(graph, MAXBACK_SCAN)
    keys = list(record.order.keys)
    keys[2] += 1
    corrupted = replace(record, order=replace(record.order, keys=tuple(keys)))
    oracle = GraphCutOracle(graph)
    values = bipartition_values(oracle, graph.n)
    results = dict(check_order_record(oracle, corrupted, values))
    assert dict(check_order_record(oracle, record, values))["stored-keys-exact"]
    assert not results["stored-keys-exact"]
    assert results["stored-keys-exact"].witness == (2, keys[2], keys[2] - 1)


def test_keys_bound_separation_fails_a_final_key_above_the_last_pair_separation():
    # path 0 -5- 1 -1- 2: the max-back order is (0, 1, 2) with keys 5 and 1;
    # with its last two classes swapped, the final class 1 has d = 6 against
    # the rest, but the last pair {2} and {1} separate at 1, so the last
    # pair is not pendant
    graph = WeightedGraph(3, [(0, 1, 5), (1, 2, 1)])
    oracle = GraphCutOracle(graph)
    record = first_record(graph, MAXBACK_SCAN)
    assert (record.order.order, record.order.keys) == ((0, 1, 2), (INF, 5, 1))
    values = bipartition_values(oracle, 3)
    assert all(result for _, result in check_order_record(oracle, record, values))
    swapped = replace(record, order=replace(record.order, order=(0, 2, 1),
                                            keys=(INF, 0, 6)))
    results = dict(check_order_record(oracle, swapped, values))
    assert results["stored-keys-exact"]
    assert not results["keys-bound-separation"]
    assert results["keys-bound-separation"].witness == (2, 6, 1)


def test_contraction_check_fails_a_round_that_loses_the_capped_min():
    # path 0 -5- 1 -1- 2: the first round contracts everything at tau 1, the
    # least cut. At tau 5 that loses the cut of 1, and so does joining {0}
    # and {2}, whose quotient's least cut is d({1}, {0, 2}) = 6
    graph = WeightedGraph(3, [(0, 1, 5), (1, 2, 1)])
    values = bipartition_values(GraphCutOracle(graph), 3)
    record = first_record(graph, LAXBACK_SCAN)
    assert record.stats.tau == 1 and record.members_after == {0: frozenset({0, 1, 2})}
    assert check_contraction_record(record, values) == (
        "contraction-preserves-capped-min", CheckResult(True))
    at_5 = replace(record, stats=replace(record.stats, tau=5))
    assert check_contraction_record(at_5, values)[1].witness == (1, 5)
    crossed = replace(at_5, members_after={0: frozenset({0, 2}), 1: frozenset({1})})
    assert check_contraction_record(crossed, values)[1].witness == (1, 6, 5)
    assert check_contraction_record(replace(crossed, stats=record.stats), values)[1]


def test_oracle_symmetric_fails_an_oracle_that_is_not_symmetric():
    # d({0, 2}, {1}) is 1 but d({1}, {0, 2}) is 5, every other value 5
    oracle = TableOracle(3, complete_table(3, default=5))
    oracle.table[(0b101, 0b010)] = 1
    entries = {e.name: e for e in verify_oracle(oracle, 3).entries}
    assert not entries["oracle-symmetric"].ok
    assert entries["oracle-symmetric"].detail == repr(0b101)


def test_oracle_symmetric_forgives_a_float_cut_off_in_the_last_place():
    # the cut oracle walks the smaller side, so d(S, T) and d(T, S) sum the
    # same edges in different orders when |S| = |T|
    oracle = GraphCutOracle(float_graph(6, seed=0))
    off = [s for s in range(1, 63, 2)
           if oracle.eval(set_of(s), set_of(63 ^ s)) != oracle.eval(set_of(63 ^ s), set_of(s))]
    assert off == [0b010011]
    assert check_symmetric(oracle, bipartition_values(oracle, 6))
    entries = {e.name: e for e in verify_oracle(oracle, 6).entries}
    assert entries["oracle-symmetric"].ok


class CountingOracle(GraphCutOracle):
    """A graph cut oracle that counts its evals."""

    def __init__(self, graph):
        super().__init__(graph)
        self.evals = 0

    def eval(self, left, right, tau=INF):
        self.evals += 1
        return super().eval(left, right, tau)


def test_verify_oracle_enumerates_the_bipartitions_once(monkeypatch):
    tables = []

    def counted(oracle, n):
        tables.append(n)
        return brute.bipartition_values(oracle, n)

    monkeypatch.setattr(verify, "bipartition_values", counted)
    oracle = CountingOracle(gen_random_graph(8, 0.5, 9, seed=3, connected=True))
    report = verify_oracle(oracle, 8)
    assert report.ok, [e for e in report.entries if not e.ok]
    assert tables == [8]
    # 127 for the table, 127 for the symmetry check's other side of each
    # bipartition, 99 in the three solves, 3 for their result sets and 140
    # for the order walks of their 9 rounds; no check of the separations
    # or of the contractions evaluates
    assert oracle.evals == 127 + 127 + 99 + 3 + 140 == 496
