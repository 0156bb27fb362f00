"""Property suites tying the fast path to exhaustive enumeration.

Seeded random corpora, brute-force expectations. The acceptance module runs
the same families at full scale; these stay small enough to pinpoint
failures quickly.
"""

import random
from dataclasses import replace

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, HypergraphCutOracle,
                    MinimizeConfig, brute_min_bipartition, check_consistent,
                    check_monotone, gen_random_graph, gen_random_hypergraph,
                    WeightedGraph, graph_cut_table, optimal_set, values_equal,
                    verify_oracle)
from symcut.brute import (bipartition_values, check_lax_back_order, check_symmetric,
                          table_submodular, table_symmetric)
from symcut.oracles import ThresholdedOracle
from symcut.order import lax_back_order_queue, lax_back_order_scan
from symcut.partition import Partition
from symcut.values import mask_of, set_of
from symcut.verify import check_contraction_record, check_order_record, least_union


def graphs(count, nmin=3, nmax=6, seed0=0, p=0.6, wmax=9):
    for i in range(count):
        n = nmin + i % (nmax - nmin + 1)
        yield n, gen_random_graph(n, p, wmax, seed=seed0 + i, connected=True)


def total_weight(graph):
    return sum(w for _, _, w in graph.edges)


def test_graph_and_hypergraph_cuts_are_monotone_consistent():
    for n, g in graphs(6, nmax=5):
        o = GraphCutOracle(g, early_exit=False)
        assert check_monotone(o, n)
        assert check_consistent(o, n)
    for seed in range(4):
        h = gen_random_hypergraph(5, 6, 5, seed=seed)
        o = HypergraphCutOracle(h, early_exit=False)
        assert check_monotone(o, 5)
        assert check_consistent(o, 5)


def test_capping_preserves_the_axioms():
    for n, g in graphs(5, nmax=5, seed0=20):
        oracle = GraphCutOracle(g, early_exit=False)
        top = total_weight(g)
        for cap in (0, 1, top // 2, top, INF):
            capped = ThresholdedOracle(oracle, cap)
            assert check_monotone(capped, n)
            assert check_consistent(capped, n)


def test_connectivity_of_submodular_is_monotone_consistent():
    for i in range(5):
        n = 3 + i % 3
        table = graph_cut_table(gen_random_graph(n, 0.7, 5, seed=40 + i))
        assert table_submodular(table)
        o = ConnectivityOracle(table)
        assert check_monotone(o, n)
        assert check_consistent(o, n)


def test_uncapped_orders_stay_valid_for_every_smaller_threshold():
    for n, g in graphs(6, seed0=60):
        oracle = GraphCutOracle(g)
        blocks = Partition(n).blocks()
        order, _ = lax_back_order_scan(oracle, Partition(n), INF)
        for tau in (0, 1, 3, total_weight(g), INF):
            checks = dict(check_lax_back_order(oracle, blocks,
                                               replace(order, threshold=tau)))
            assert checks["order-dominates-suffix"]


def test_capped_orders_stay_valid_for_smaller_thresholds():
    for n, g in graphs(6, seed0=80):
        oracle = GraphCutOracle(g)
        blocks = Partition(n).blocks()
        tau = max(2, total_weight(g) // 3)
        order, _ = lax_back_order_scan(oracle, Partition(n), tau)
        for smaller in (0, 1, tau - 1, tau):
            checks = dict(check_lax_back_order(oracle, blocks,
                                               replace(order, threshold=smaller)))
            assert checks["order-dominates-suffix"]


def test_prefix_value_never_decreases_as_prefix_grows():
    for n, g in graphs(6, seed0=100):
        oracle = GraphCutOracle(g)
        order, _ = lax_back_order_scan(oracle, Partition(n), INF)
        for u in range(n):
            prev = None
            prefix = frozenset()
            for c in order.order:
                if c == u:
                    break
                prefix = prefix | {c}
                val = oracle.eval(frozenset({u}), prefix, INF)
                assert prev is None or val >= prev
                prev = val


def test_round_records_pass_all_order_and_contraction_checks():
    for n, g in graphs(10, seed0=120):
        oracle = GraphCutOracle(g, early_exit=False)
        values = bipartition_values(oracle, n)
        for cfg in (MinimizeConfig(order_builder="scan"),
                    MinimizeConfig(order_builder="queue"),
                    MinimizeConfig(order_builder="queue", queue_kind="bucket")):
            records = []
            optimal_set(GraphCutOracle(g), n, cfg, observer=records.append)
            for rec in records:
                for name, result in check_order_record(oracle, rec, values):
                    assert result, (name, n, result.witness)
                name, result = check_contraction_record(rec, values)
                assert result, (name, n, result.witness)


def test_graph_cuts_are_symmetric():
    for n, g in graphs(8, seed0=150):
        assert check_symmetric(GraphCutOracle(g), n)


def test_builder_and_queue_variants_agree_on_value():
    for n, g in graphs(10, nmax=8, seed0=170):
        oracle = GraphCutOracle(g)
        expected = brute_min_bipartition(oracle, n).value
        for cfg in (MinimizeConfig(order_builder="scan"),
                    MinimizeConfig(order_builder="queue"),
                    MinimizeConfig(order_builder="queue", queue_kind="bucket"),
                    MinimizeConfig(algorithm="maxback", order_builder="scan")):
            _, value, _ = optimal_set(oracle, n, cfg)
            assert value == expected


def test_symmetric_submodular_minimization_matches_exhaustive():
    for i in range(8):
        n = 3 + i % 4
        table = graph_cut_table(gen_random_graph(n, 0.7, 6, seed=200 + i))
        assert table_symmetric(table) and table_submodular(table)
        f = table.table_values
        best_f = min(f[m] for m in range(1, (1 << n) - 1))
        found, _, _ = optimal_set(ConnectivityOracle(table), n)
        assert f[sum(1 << v for v in found)] == best_f


def random_classes(r, n):
    """A random partition of range(n) into 2 to n classes, in random order."""
    k = r.randint(2, n)
    labels = list(range(k)) + [r.randrange(k) for _ in range(n - k)]
    r.shuffle(labels)
    return [[v for v in range(n) if labels[v] == c] for c in r.sample(range(k), k)]


def test_least_unions_read_from_the_table_equal_a_direct_enumeration():
    # the separation of each ordered pair of classes and the least cut of
    # the quotient, read from the table on the side of element 0, against
    # every union of classes evaluated as it stands; float sums may differ
    # in the last place between the two sides
    r = random.Random(41)
    instances = []
    for i in range(18):
        n = 3 + i % 6
        graph = gen_random_graph(n, 0.6, 9, seed=300 + i, connected=True)
        instances += [
            (n, GraphCutOracle(graph)),
            (n, GraphCutOracle(WeightedGraph(n, [(u, v, w / 10) for u, v, w in graph.edges]))),
            (n, HypergraphCutOracle(gen_random_hypergraph(n, 2 * n, 9, seed=300 + i)))]
    for n, oracle in instances:
        values = bipartition_values(oracle, n)
        full = (1 << n) - 1
        for _ in range(3):
            classes = [mask_of(c) for c in random_classes(r, n)]
            k = len(classes)
            cut = {}
            for chosen in range(1, (1 << k) - 1):
                side = sum(m for c, m in enumerate(classes) if chosen >> c & 1)
                cut[chosen] = oracle.eval(set_of(side), set_of(full ^ side), INF)
            assert values_equal(least_union(values, classes[0], classes[1:]),
                                min(cut.values()))
            for a in range(k):
                for b in range(k):
                    if a == b:
                        continue
                    rest = [m for c, m in enumerate(classes) if c not in (a, b)]
                    direct = min(d for chosen, d in cut.items()
                                 if chosen >> a & 1 and not chosen >> b & 1)
                    assert values_equal(least_union(values, classes[a], rest), direct)


def test_verify_oracle_flags_a_broken_function():
    from table_oracle import TableOracle, complete_table
    broken = TableOracle(3, complete_table(3, {(1, 6): 1, (1, 2): 2}))
    report = verify_oracle(broken, 3)
    assert not report.ok
    failed = {e.name for e in report.entries if not e.ok}
    assert "oracle-monotone" in failed


def test_verify_oracle_passes_on_sound_instances():
    g = gen_random_graph(6, 0.6, 8, seed=250, connected=True)
    report = verify_oracle(GraphCutOracle(g), 6)
    assert report.ok, [e.name for e in report.entries if not e.ok]


def test_queue_scan_equivalence_keys_both_valid():
    for n, g in graphs(6, seed0=260):
        oracle = GraphCutOracle(g)
        blocks = Partition(n).blocks()
        tau = max(1, total_weight(g) // 2)
        scan_order, _ = lax_back_order_scan(oracle, Partition(n), tau)
        queue_order, _ = lax_back_order_queue(oracle, Partition(n), tau)
        for order in (scan_order, queue_order):
            for name, result in check_lax_back_order(oracle, blocks, order):
                assert result, (name, result.witness)
