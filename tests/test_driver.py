import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, Hypergraph,
                    HypergraphCutOracle, LaxOracle, MinimizeConfig, WeightedGraph,
                    gen_random_graph, gen_random_hypergraph, graph_cut_table, optimal_set,
                    verify_oracle)
from symcut import driver
from symcut.driver import RoundStats, contract_round
from symcut.order import LaxBackOrder
from symcut.partition import Partition
from symcut.verify import named_configs
from table_oracle import TableOracle, complete_table

SRC = Path(__file__).resolve().parents[1] / "src"

# an oracle answering NaN everywhere; without a guard the driver's round
# contracts nothing and, with asserts stripped by -O, repeats forever
NAN_ORACLE_RUN = """
import math
from symcut import LaxOracle, optimal_set

class NanOracle(LaxOracle):
    def eval(self, left, right, tau=math.inf):
        return math.nan

optimal_set(NanOracle(), 4)
"""

# NaN for one class in the middle of a scan-built order (forced: the graph
# oracle's keys would take the queue builder): class 2 against any
# prefix of the ring, not in its singleton probe (whose other side is the
# three other vertices); unchecked, the scan passes over it and the run
# returns ({3}, 2) without an error
MID_ORDER_NAN_RUN = """
import math
from symcut import GraphCutOracle, MinimizeConfig, WeightedGraph, optimal_set

class MidOrderNan(GraphCutOracle):
    def eval(self, left, right, tau=math.inf):
        if set(left) == {2} and 0 < len(right) < 3:
            return math.nan
        return super().eval(left, right, tau)

ring = WeightedGraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 1), (3, 0, 1)])
optimal_set(MidOrderNan(ring), 4, MinimizeConfig(order_builder="scan"))
"""

# NaN or infinite keys from a key tracker, at its start or from an advance,
# under both queues; the queue builder's test of each key is no assert either,
# and it comes before the test that settles a key at tau. On the 4-ring tau
# starts at 2, vertex 3's degree, and a clean round 1 settles every class:
# class 1 reaches tau at the tracker's start, class 2 on the advance of 1, so
# a bad key there replaces one that would settle (class 2's starting key, 0,
# would not). On the uniform 6-ring round 2's tracker resumes from round 1's
# order: classes 1..3 are replayed, and class 4, which absorbed 5, gets its
# key from the resume, not from an advance. A bad key 2 there is one the
# replayed prefix holds no more, and a bad key 4 is a resumed key. The run
# checks that a clean round 2 makes no queue update, so the bad key reaches
# the resume, not the queue loop.
QUEUE_KEY_RUNS = """
import math
from symcut import GraphCutOracle, MinimizeConfig, WeightedGraph, optimal_set

class BadKeys(GraphCutOracle):
    def __init__(self, graph, bad, label, on_advance, from_round):
        super().__init__(graph)
        self.bad, self.label, self.on_advance = bad, label, on_advance
        self.clean_rounds = from_round - 1

    def key_tracker(self, partition, first):
        tracker = super().key_tracker(partition, first)
        if self.clean_rounds:
            self.clean_rounds -= 1
            return tracker
        if not self.on_advance:
            tracker.keys[self.label] = self.bad
            return tracker
        advance = tracker.advance

        def bad_advance(appended):
            changed = advance(appended)
            if self.label in changed:
                changed[self.label] = self.bad
            return changed

        tracker.advance = bad_advance
        return tracker

ring4 = WeightedGraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 1), (3, 0, 1)])
ring6 = WeightedGraph(6, [(i, (i + 1) % 6, 3) for i in range(6)])
for queue_kind in ("heap", "bucket"):
    cfg = MinimizeConfig(order_builder="queue", queue_kind=queue_kind)
    _, _, stats = optimal_set(GraphCutOracle(ring4), 4, cfg)
    if [(r.classes, r.key_updates) for r in stats.per_round] != [(4, 0)]:
        raise SystemExit(f"{queue_kind}: ring4 {stats.per_round} does not settle all")
    _, _, stats = optimal_set(GraphCutOracle(ring6), 6, cfg)
    if (stats.per_round[1].classes, stats.per_round[1].key_updates) != (5, 0):
        raise SystemExit(f"{queue_kind}: round 2 {stats.per_round[1]} is no replay")
cases = ((ring4, 1, 2, False), (ring4, 1, 2, True), (ring4, 1, 1, False),
         (ring6, 2, 2, False), (ring6, 2, 4, False))
for ring, from_round, label, on_advance in cases:
    for bad in (math.nan, math.inf, -math.inf):
        for queue_kind in ("heap", "bucket"):
            cfg = MinimizeConfig(order_builder="queue", queue_kind=queue_kind)
            try:
                optimal_set(BadKeys(ring, bad, label, on_advance, from_round), ring.n, cfg)
            except ValueError as fault:
                if f"class {label} the non-finite key {bad!r}" not in str(fault):
                    raise
            else:
                raise SystemExit(f"{ring} {bad} {queue_kind} {label} {on_advance}: no error")
print("all refused")
"""

# float hypergraphs whose key tracker reads a non-finite key only from its
# quotient, in round 2; every singleton's degree is finite, so laxback's
# probes pass. maxback, on `h`: in round 1 every key is finite (1e308 for
# 1, then 1e308 + 1e307 for 2, which joins 1), and in round 2 the class
# {1, 2} meets 0 through two hyperedges of 1e308 each, which sum to inf.
# laxback, on `g` (weights in units of 1e307): the probes set tau to 12,
# vertex 1's degree; in round 1, 2 settles at 14 against 0, then 1 and 3
# reach 11, and 3 settles at 12 against 0, 2 and 1, so 2 joins 0 and 3
# joins 1; in round 2 the class {1, 3} meets {0, 2} through four
# hyperedges that sum to 18, above the largest float
QUOTIENT_KEY_RUN = """
from symcut import Hypergraph, HypergraphCutOracle, MinimizeConfig, optimal_set

h = Hypergraph(3, [(1e308, [0, 1]), (1e308, [0, 2]), (1e307, [1, 2])])
g = Hypergraph(4, [(7e307, [0, 2, 3]), (7e307, [0, 1, 2]), (3e307, [0, 1, 3]),
                   (1e307, [1, 2, 3]), (1e307, [1, 3])])
runs = (("maxback", h, [{0: {0}, 1: {1, 2}}]),
        ("laxback", g, [{0: {0, 2}, 1: {1, 3}}]))
for algorithm, hypergraph, members in runs:
    rounds = []
    try:
        optimal_set(HypergraphCutOracle(hypergraph), hypergraph.n,
                    MinimizeConfig(algorithm=algorithm, order_builder="queue"),
                    observer=rounds.append)
    except ValueError as fault:
        if "class 1 the non-finite key inf" not in str(fault):
            raise
    else:
        raise SystemExit(f"{algorithm}: no error")
    if [r.members_after for r in rounds] != members:
        raise SystemExit(f"{algorithm}: rounds before the error {rounds}")
print("refused in round 2")
"""

# an order with one key too few: were it accepted, contract_round would zip
# past class 2 and join only 1 into 0
SHORT_KEYS_RUN = """
from symcut import INF
from symcut.driver import contract_round
from symcut.order import LaxBackOrder
from symcut.partition import Partition

order = LaxBackOrder((0, 1, 2), (INF, 5), 3)
print(contract_round(Partition(3), order, 3))
"""

# finite capped values but NaN for the uncapped value of a bipartition
# whose sides both hold two or more elements: the probes and every order
# are capped, so only the final value, that of the returned {2, 3}, reads
# a NaN; unchecked, both builders return ({2, 3}, nan)
NAN_FINAL_VALUE_RUN = """
import math
from symcut import INF, GraphCutOracle, MinimizeConfig, WeightedGraph, optimal_set

class NanWhole(GraphCutOracle):
    def eval(self, left, right, tau=INF):
        if tau == INF and len(left) > 1 and len(right) > 1:
            return math.nan
        return super().eval(left, right, tau)

ring = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)])
for builder in ("scan", "queue"):
    try:
        print(optimal_set(NanWhole(ring), 4, MinimizeConfig(order_builder=builder))[:2])
    except ValueError as fault:
        print(builder, fault)
"""

# a driver whose rounds from round 2 on join nothing, as a bug in an order
# or in contract_round would make them; unguarded, round 2 repeats forever
IDLE_ROUND_RUN = """
from symcut import GraphCutOracle, MinimizeConfig, WeightedGraph, driver, optimal_set

contract_round = driver.contract_round
rounds = []

def contract(partition, order, tau):
    rounds.append(order)
    return contract_round(partition, order, tau) if len(rounds) == 1 else 0

driver.contract_round = contract
ring6 = WeightedGraph(6, [(i, (i + 1) % 6, 3) for i in range(6)])
for builder in ("scan", "queue"):
    rounds.clear()
    try:
        optimal_set(GraphCutOracle(ring6), 6, MinimizeConfig(order_builder=builder))
    except RuntimeError as fault:
        print(builder, len(rounds), fault)
"""


class WithoutSingletonValues(LaxOracle):
    """A cut oracle behind a wrapper that forwards ``eval`` and ``key_tracker`` only.

    The driver finds no ``singleton_values`` on it, so a laxback solve
    probes every singleton, as it does on a table, a user oracle or any
    other wrapper.
    """

    def __init__(self, base):
        self.base = base
        self.keyed = base.keyed

    def eval(self, left, right, tau=INF):
        return self.base.eval(left, right, tau)

    def key_tracker(self, partition, first):
        return self.base.key_tracker(partition, first)


def run_optimized(script):
    """Run `script` under python -O, so that no check can be an assert."""
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=20)


def make_order(labels, keys, tau):
    return LaxBackOrder(tuple(labels), tuple(keys), tau)


class TestContractRound:
    def test_two_separate_runs(self):
        p = Partition(4)
        order = make_order([0, 1, 2, 3], [INF, 3, 2, 3], tau=3)
        assert contract_round(p, order, 3) == 2
        assert p.class_count == 2
        assert p.member_set(0) == {0, 1}
        assert p.member_set(2) == {2, 3}

    def test_all_keys_reach_threshold(self):
        p = Partition(4)
        order = make_order([0, 1, 2, 3], [INF, 5, 5, 5], tau=3)
        assert contract_round(p, order, 3) == 3
        assert p.class_count == 1

    def test_runs_chain_transitively(self):
        p = Partition(3)
        order = make_order([0, 1, 2], [INF, 1, 1], tau=1)
        assert contract_round(p, order, 1) == 2
        assert p.member_set(0) == {0, 1, 2}

    def test_at_the_orders_threshold_only_the_settled_positions_are_read(self):
        # once the order knows its settled positions, a round at its own
        # threshold joins them without reading a key; under a lowered tau
        # every key is read
        class CountedKeys(tuple):
            reads = 0

            def __getitem__(self, j):
                CountedKeys.reads += 1
                return tuple.__getitem__(self, j)

        order = LaxBackOrder((0, 1, 2, 3, 4), CountedKeys((INF, 3, 2, 3, 3)), 3)
        assert order.settled == (1, 3, 4)
        CountedKeys.reads = 0
        p = Partition(5)
        assert contract_round(p, order, 3) == 3
        assert CountedKeys.reads == 0
        assert sorted(map(sorted, map(p.member_set, p.classes()))) == [[0, 1], [2, 3, 4]]
        assert contract_round(Partition(5), order, 2) == 4
        assert CountedKeys.reads == 4


class TestOptimalSet:
    def test_triangle(self, triangle_oracle):
        best, value, stats = optimal_set(triangle_oracle, 3)
        assert value == 3
        assert best == {2}
        assert stats.rounds == 1
        assert [r.joins for r in stats.per_round] == [2]

    def test_two_elements(self):
        o = GraphCutOracle(WeightedGraph(2, [(0, 1, 5)]))
        best, value, _ = optimal_set(o, 2)
        assert value == 5
        assert best in ({0}, {1})

    def test_disconnected_components(self):
        g = WeightedGraph(4, [(0, 1, 2), (2, 3, 4)])
        best, value, _ = optimal_set(GraphCutOracle(g), 4)
        assert value == 0
        rest = set(range(4)) - best
        assert GraphCutOracle(g).eval(frozenset(best), frozenset(rest)) == 0

    def test_too_small(self, triangle_oracle):
        with pytest.raises(ValueError):
            optimal_set(triangle_oracle, 1)

    def test_join_count_always_totals_n_minus_1(self):
        for seed in range(8):
            n = 3 + seed
            oracle = GraphCutOracle(gen_random_graph(n, 0.6, 9, seed=seed,
                                                     connected=True))
            for cfg in (MinimizeConfig(order_builder="scan"),
                        MinimizeConfig(algorithm="maxback", order_builder="scan"),
                        MinimizeConfig(order_builder="queue")):
                _, _, stats = optimal_set(oracle, n, cfg)
                assert sum(r.joins for r in stats.per_round) == n - 1

    def test_maxback_contracts_one_pair_per_round(self):
        for seed in range(6):
            n = 4 + seed % 3
            oracle = GraphCutOracle(gen_random_graph(n, 0.7, 9, seed=seed,
                                                     connected=True))
            _, _, stats = optimal_set(oracle, n, MinimizeConfig(algorithm="maxback"))
            assert stats.rounds == n - 1
            assert [r.joins for r in stats.per_round] == [1] * (n - 1)

    def test_scan_path_seeds_tau_with_the_best_singleton(self, triangle_oracle):
        best, value, stats = optimal_set(triangle_oracle, 3,
                                         MinimizeConfig(order_builder="scan"))
        assert value == 3 and best == {2}
        # the graph oracle's singleton values take no eval: 2 scan evals
        # (both reach tau = 3) and the final value
        assert stats.oracle_calls == 2 + 1
        assert stats.per_round == [RoundStats(classes=3, joins=2, evals=2, key_updates=0,
                                              tau=3)]

    def test_best_singleton_keeps_witness_when_threshold_never_drops(self):
        # the min-degree singleton is already optimal here; ties go to label 0
        g = WeightedGraph(3, [(0, 1, 5), (1, 2, 5)])
        best, value, _ = optimal_set(GraphCutOracle(g), 3)
        assert value == 5
        assert best == {0}

    @pytest.mark.parametrize("hidden", [False, True], ids=["cut-oracle", "hidden"])
    @pytest.mark.parametrize("cfg", [
        MinimizeConfig(order_builder="scan"),
        MinimizeConfig(algorithm="maxback", order_builder="scan"),
        MinimizeConfig(order_builder="queue"),
        MinimizeConfig(order_builder="queue", queue_kind="bucket"),
        MinimizeConfig(algorithm="maxback", order_builder="queue"),
    ])
    def test_every_laxback_path_seeds_tau_with_the_best_singleton(self, triangle, cfg,
                                                                  hidden):
        class Recording(GraphCutOracle):
            def eval(self, left, right, tau=INF):
                self.taus.append(tau)
                return super().eval(left, right, tau)

        recording = Recording(triangle)
        recording.taus = []
        oracle = WithoutSingletonValues(recording) if hidden else recording
        records = []
        _, value, stats = optimal_set(oracle, 3, cfg, observer=records.append)
        assert value == 3
        laxback = cfg.algorithm == "laxback"
        probes = 3 if laxback and hidden else 0
        if probes:
            # each probe is capped at the best singleton before it: the
            # first runs at INF, d({0}) = 4 caps the other two
            assert recording.taus[:3] == [INF, 4, 4]
        # laxback builds its first order at the best singleton's value, 3,
        # whether it probed for it or read it from singleton_values
        assert records[0].order.threshold == (3 if laxback else INF)
        # the probes, the builds' eval calls (a queue build makes none) and
        # the final value
        scan_evals = sum(r.evals for r in stats.per_round)
        assert (scan_evals > 0) == (cfg.order_builder == "scan")
        assert stats.oracle_calls == probes + scan_evals + 1
        assert len(recording.taus) == stats.oracle_calls

    def test_invalid_configs(self, triangle_oracle):
        with pytest.raises(ValueError):
            optimal_set(triangle_oracle, 3, MinimizeConfig(algorithm="magic"))
        with pytest.raises(ValueError):
            optimal_set(triangle_oracle, 3, MinimizeConfig(order_builder="spiral"))
        with pytest.raises(ValueError, match="bucket"):
            optimal_set(triangle_oracle, 3,
                        MinimizeConfig(order_builder="scan", queue_kind="bucket"))
        # the rule gives an oracle without keys the scan builder, which uses
        # no queue
        table = graph_cut_table(gen_random_graph(4, 0.8, 5, seed=7, connected=True))
        with pytest.raises(ValueError, match="queue kind 'bucket' needs the queue"):
            optimal_set(ConnectivityOracle(table), 4, MinimizeConfig(queue_kind="bucket"))
        with pytest.raises(ValueError, match="fibonacci"):
            optimal_set(triangle_oracle, 3,
                        MinimizeConfig(order_builder="queue", queue_kind="fibonacci"))

    @pytest.mark.parametrize("builder", [None, "scan", "queue"])
    @pytest.mark.parametrize("keyed", [True, False])
    def test_unknown_queue_kind_is_named_on_either_builder(self, builder, keyed):
        graph = gen_random_graph(4, 0.8, 5, seed=7, connected=True)
        oracle = GraphCutOracle(graph) if keyed else ConnectivityOracle(graph_cut_table(graph))
        config = MinimizeConfig(order_builder=builder, queue_kind="fibonacci")
        with pytest.raises(ValueError, match="^unknown queue kind 'fibonacci'$"):
            optimal_set(oracle, 4, config)

    @pytest.mark.parametrize("algorithm", ["laxback", "maxback"])
    @pytest.mark.parametrize("weight", [2.5, 10**9], ids=["float", "over-limit"])
    def test_bucket_queue_refuses_a_graph_it_cannot_hold(self, algorithm, weight):
        # the weight is laxback's first threshold and maxback's first key;
        # the bucket queue refuses either, the heap queue takes both
        oracle = GraphCutOracle(WeightedGraph(2, [(0, 1, weight)]))
        with pytest.raises(ValueError, match="use the heap queue"):
            optimal_set(oracle, 2, MinimizeConfig(algorithm=algorithm, queue_kind="bucket"))
        assert optimal_set(oracle, 2, MinimizeConfig(algorithm=algorithm))[1] == weight

    def test_builder_follows_the_oracle(self):
        graph = gen_random_graph(12, 0.4, 9, seed=4, connected=True)
        table = graph_cut_table(graph)
        # keyed: the queue builder makes no eval, and the singleton values
        # take none, so the one call is the final value
        _, cut_value, stats = optimal_set(GraphCutOracle(graph), 12)
        assert stats.oracle_calls == 1
        # not keyed: every order is scanned, with one eval per builder op,
        # after the n singleton probes
        _, table_value, stats = optimal_set(ConnectivityOracle(table), 12)
        scan_evals = sum(r.evals for r in stats.per_round)
        assert scan_evals > 0 and stats.oracle_calls == 12 + scan_evals + 1
        # a forced scan on the keyed oracle, which still makes no probes
        _, forced_value, stats = optimal_set(GraphCutOracle(graph), 12,
                                             MinimizeConfig(order_builder="scan"))
        scan_evals = sum(r.evals for r in stats.per_round)
        assert scan_evals > 0 and stats.oracle_calls == scan_evals + 1
        assert forced_value == cut_value and 2 * cut_value == table_value

    def test_oracle_calls_count_every_eval(self, triangle):
        class Counting(GraphCutOracle):
            calls = 0

            def eval(self, left, right, tau=INF):
                self.calls += 1
                return super().eval(left, right, tau)

        for cfg in (MinimizeConfig(order_builder="scan"),
                    MinimizeConfig(algorithm="maxback", order_builder="scan"),
                    MinimizeConfig(order_builder="queue")):
            oracle = Counting(triangle)
            _, _, stats = optimal_set(oracle, 3, cfg)
            assert stats.oracle_calls == oracle.calls

    def test_nan_oracle_fails_loudly_under_optimize(self):
        result = run_optimized(NAN_ORACLE_RUN)
        assert result.returncode == 1
        assert "ValueError" in result.stderr
        assert "non-finite key nan" in result.stderr

    def test_mid_order_nan_fails_loudly_under_optimize(self):
        result = run_optimized(MID_ORDER_NAN_RUN)
        assert result.returncode == 1
        assert "ValueError" in result.stderr
        assert "class 2 the non-finite key nan" in result.stderr

    @pytest.mark.parametrize("builder", ["scan", "queue"])
    def test_a_round_that_joins_nothing_raises(self, builder, monkeypatch):
        # round 1 joins as usual and round 2 joins nothing
        rounds = []

        def contract(partition, order, tau):
            rounds.append(order)
            return contract_round(partition, order, tau) if len(rounds) == 1 else 0

        monkeypatch.setattr(driver, "contract_round", contract)
        ring6 = WeightedGraph(6, [(i, (i + 1) % 6, 3) for i in range(6)])
        with pytest.raises(RuntimeError,
                           match=r"^round 2 joined nothing: tau 6, last key 6$"):
            optimal_set(GraphCutOracle(ring6), 6, MinimizeConfig(order_builder=builder))
        assert len(rounds) == 2

    def test_a_round_that_joins_nothing_raises_under_optimize(self):
        result = run_optimized(IDLE_ROUND_RUN)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "scan 2 round 2 joined nothing: tau 6, last key 6\n"
            "queue 2 round 2 joined nothing: tau 6, last key 6\n")

    def test_order_key_count_mismatch_fails_loudly_under_optimize(self):
        result = run_optimized(SHORT_KEYS_RUN)
        assert result.returncode == 1
        assert "ValueError: 3 classes but 2 keys" in result.stderr

    def test_non_finite_tracker_keys_fail_loudly_under_optimize(self):
        result = run_optimized(QUEUE_KEY_RUNS)
        assert result.returncode == 0, result.stderr
        assert "all refused" in result.stdout

    def test_non_finite_quotient_key_fails_loudly_under_optimize(self):
        result = run_optimized(QUOTIENT_KEY_RUN)
        assert result.returncode == 0, result.stderr
        assert "refused in round 2" in result.stdout

    @pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
    @pytest.mark.parametrize("on_advance", [False, True])
    def test_nan_tracker_key_rejected(self, queue_kind, on_advance):
        # class 2 gets a NaN key at tracker start or from an advance; a heap
        # never extracts a NaN entry, and min(tau, nan) would record tau
        class NanKeys(GraphCutOracle):
            def key_tracker(self, partition, first):
                tracker = super().key_tracker(partition, first)
                if not on_advance:
                    tracker.keys[2] = math.nan
                    return tracker
                advance = tracker.advance

                def nan_advance(appended):
                    changed = advance(appended)
                    if 2 in changed:
                        changed[2] = math.nan
                    return changed

                tracker.advance = nan_advance
                return tracker

        ring = WeightedGraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 1), (3, 0, 1)])
        cfg = MinimizeConfig(order_builder="queue", queue_kind=queue_kind)
        with pytest.raises(ValueError, match="class 2 the non-finite key nan"):
            optimal_set(NanKeys(ring), 4, cfg)

    def test_nan_singleton_probe_rejected(self):
        # no singleton_values and no keys: the probe path and the scan builder
        class NanSingleton(LaxOracle):
            def __init__(self, graph):
                self.base = GraphCutOracle(graph)

            def eval(self, left, right, tau=INF):
                return math.nan if set(left) == {1} else self.base.eval(left, right, tau)

        with pytest.raises(ValueError, match="class 1 the non-finite key nan"):
            optimal_set(NanSingleton(WeightedGraph(3, [(0, 1, 2), (1, 2, 2)])), 3)

    @pytest.mark.parametrize("builder", ["scan", "queue"])
    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_singleton_value_rejected(self, bad, builder):
        # vertex 2's value is the least finite one, so a NaN or inf at
        # vertex 1 is passed over by min(), and -inf would become tau
        class BadSingletonValues(GraphCutOracle):
            def singleton_values(self, n):
                values = super().singleton_values(n)
                values[1] = bad
                return values

        path = WeightedGraph(3, [(0, 1, 3), (1, 2, 2)])
        with pytest.raises(ValueError, match=f"class 1 the non-finite key {bad!r}$"):
            optimal_set(BadSingletonValues(path), 3, MinimizeConfig(order_builder=builder))

    def test_infinite_oracle_value_rejected(self):
        class InfOracle(LaxOracle):
            def eval(self, left, right, tau=INF):
                return INF

        with pytest.raises(ValueError, match="non-finite key inf"):
            optimal_set(InfOracle(), 3)

    def test_nan_final_value_rejected_under_optimize(self):
        result = run_optimized(NAN_FINAL_VALUE_RUN)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "".join(
            f"{builder} the oracle gave the returned set [2, 3] the non-finite key nan\n"
            for builder in ("scan", "queue"))

    @pytest.mark.parametrize("builder", ["scan", "queue"])
    def test_nan_final_value_rejected(self, builder):
        class NanWhole(GraphCutOracle):
            def eval(self, left, right, tau=INF):
                if tau == INF and len(left) > 1 and len(right) > 1:
                    return math.nan
                return super().eval(left, right, tau)

        ring = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)])
        with pytest.raises(ValueError, match=r"returned set \[2, 3\] the non-finite key nan"):
            optimal_set(NanWhole(ring), 4, MinimizeConfig(order_builder=builder))

    # 3 elements on a 5-vertex instance and 5 on a 3-vertex one, refused
    # with one message: by laxback's singleton_values before any order, on
    # either builder, and by maxback's first key tracker. A forced scan
    # evaluates its cuts restricted to 0..n-1, so unrefused, its laxback
    # run would seed tau with degrees of the whole instance
    @pytest.mark.parametrize("vertices,n,algorithm,builder",
                             [(5, 3, "laxback", None), (3, 5, "laxback", None),
                              (5, 3, "laxback", "scan"), (3, 5, "laxback", "scan"),
                              (5, 3, "maxback", None), (3, 5, "maxback", None)])
    @pytest.mark.parametrize("hyper", [False, True])
    def test_a_key_tracker_refuses_a_partition_of_another_size(self, vertices, n, algorithm,
                                                               builder, hyper):
        ring = [(v, (v + 1) % vertices) for v in range(vertices)]
        if hyper:
            oracle = HypergraphCutOracle(Hypergraph(vertices, [(2, e) for e in ring]))
        else:
            oracle = GraphCutOracle(WeightedGraph(vertices, [(*e, 2) for e in ring]))
        config = MinimizeConfig(algorithm=algorithm, order_builder=builder)
        with pytest.raises(ValueError, match=f"^the partition has {n} elements but "
                                             f"the instance has {vertices} vertices$"):
            optimal_set(oracle, n, config)

    def test_queue_builder_on_unkeyed_oracle(self):
        o = TableOracle(2, complete_table(2, {(1, 2): 4}))
        with pytest.raises(TypeError):
            optimal_set(o, 2, MinimizeConfig(order_builder="queue"))

    def test_negative_valued_function(self):
        # graph cut shifted below zero, singleton probes included
        g = gen_random_graph(4, 0.8, 5, seed=7, connected=True)
        oracle = GraphCutOracle(g)
        shifted = {}
        for (sm, tm) in complete_table(4):
            s = frozenset(v for v in range(4) if sm >> v & 1)
            t = frozenset(v for v in range(4) if tm >> v & 1)
            shifted[(sm, tm)] = oracle.eval(s, t, INF) - 7
        from symcut import brute_min_bipartition
        table = TableOracle(4, shifted)
        best, value, _ = optimal_set(table, 4)
        assert value == brute_min_bipartition(table, 4).value

    def test_round_records_pass_verify_on_valid_oracle(self):
        graph = gen_random_graph(6, 0.6, 8, seed=3, connected=True)
        report = verify_oracle(GraphCutOracle(graph), 6)
        assert report.ok, [e for e in report.entries if not e.ok]

    def test_observer_sees_every_round(self, triangle_oracle):
        records = []
        _, _, stats = optimal_set(triangle_oracle, 3, observer=records.append)
        assert len(records) == stats.rounds
        rec = records[0]
        # the best singleton, {2} at 3, seeds the first round
        assert rec.order.threshold == 3
        assert rec.members_before == {0: frozenset({0}), 1: frozenset({1}),
                                      2: frozenset({2})}
        assert rec.stats is stats.per_round[0]
        assert (rec.stats.tau, rec.stats.joins) == (3, 2)
        assert len(rec.members_after) == 1

    def test_scan_and_queue_agree(self):
        for seed in range(10):
            n = 3 + seed % 6
            oracle = GraphCutOracle(gen_random_graph(n, 0.5, 10, seed=seed,
                                                     connected=True))
            values = set()
            for cfg in (MinimizeConfig(order_builder="scan"),
                        MinimizeConfig(order_builder="queue"),
                        MinimizeConfig(order_builder="queue", queue_kind="bucket")):
                _, value, _ = optimal_set(oracle, n, cfg)
                values.add(value)
            assert len(values) == 1


SCAN_PATH_INSTANCES = {
    "graph-150": lambda: (150, GraphCutOracle(
        gen_random_graph(150, 8 / 149, 10, seed=11, connected=True), early_exit=False)),
    "hypergraph-100": lambda: (100, HypergraphCutOracle(
        gen_random_hypergraph(100, 300, 10, seed=11), early_exit=False)),
    "table-12": lambda: (12, ConnectivityOracle(
        graph_cut_table(gen_random_graph(12, 4 / 11, 10, seed=11, connected=True)))),
}


@pytest.mark.parametrize("name", sorted(SCAN_PATH_INSTANCES))
def test_scan_path_beats_a_max_back_first_round(name):
    # unseeded (tau = INF), round 1 alone is a max-back scan of exactly
    # n(n-1)/2 evals; the best-singleton seed lets it append many classes
    # per pass
    n, oracle = SCAN_PATH_INSTANCES[name]()
    best, value, stats = optimal_set(oracle, n, MinimizeConfig(order_builder="scan"))
    assert stats.oracle_calls < n * (n - 1) // 2
    _, pendant_pair_value, _ = optimal_set(oracle, n, MinimizeConfig(algorithm="maxback"))
    assert value == pendant_pair_value
    assert value == oracle.eval(frozenset(best), frozenset(range(n)) - best, INF)


SEED_PATH_WEIGHTS = {
    "int": lambda r: r.randint(1, 9),
    "cents": lambda r: round(r.uniform(1, 10), 2),
    "thirds": lambda r: r.randint(1, 30) / 3,
}


def seed_path_instance(family, kind):
    """(oracle, n) of one seeded cut instance on 40 vertices."""
    r = random.Random(f"{family}-{kind}")
    n = 40
    weight = SEED_PATH_WEIGHTS[kind]
    if family == "uniform-ring":
        # every singleton ties at 2 * 3, the minimum: the lowest label wins
        return GraphCutOracle(WeightedGraph(n, [(v, (v + 1) % n, 3) for v in range(n)])), n
    if family == "graph":
        edges = [(r.randrange(v), v, weight(r)) for v in range(1, n)]
        edges += [(*r.sample(range(n), 2), weight(r)) for _ in range(2 * n)]
        return GraphCutOracle(WeightedGraph(n, edges)), n
    return HypergraphCutOracle(Hypergraph(n, [(weight(r), r.sample(range(n), r.randint(2, 4)))
                                              for _ in range(3 * n)])), n


SEED_PATH_CONFIGS = {
    "heap": MinimizeConfig(),
    "bucket": MinimizeConfig(queue_kind="bucket"),
    "scan": MinimizeConfig(order_builder="scan"),
}


@pytest.mark.parametrize("family,kind,config", [
    (family, kind, config)
    for family, kinds in (("uniform-ring", ["int"]), ("graph", SEED_PATH_WEIGHTS),
                          ("hypergraph", SEED_PATH_WEIGHTS))
    for kind in kinds for config in SEED_PATH_CONFIGS
    if kind == "int" or config != "bucket"])  # the bucket queue takes int keys only
def test_singleton_values_solve_as_the_probes_do(family, kind, config):
    # the same cut oracle with singleton_values hidden takes the probe
    # path. Both seeds give the same tau and witness, so the solves agree
    # in every round, floats to the last bit; only the n probes differ
    oracle, n = seed_path_instance(family, kind)
    cfg = SEED_PATH_CONFIGS[config]
    best, value, stats = optimal_set(oracle, n, cfg)
    probed_best, probed_value, probed = optimal_set(WithoutSingletonValues(oracle), n, cfg)
    assert (probed_best, repr(probed_value)) == (best, repr(value))
    assert repr(probed.per_round) == repr(stats.per_round)
    assert probed.oracle_calls == stats.oracle_calls + n


START_CLASS_INSTANCES = {
    "graph": lambda: (GraphCutOracle(gen_random_graph(9, 0.5, 9, seed=5, connected=True)), 9),
    "hypergraph": lambda: (HypergraphCutOracle(gen_random_hypergraph(9, 18, 9, seed=5)), 9),
    "table": lambda: (ConnectivityOracle(graph_cut_table(
        gen_random_graph(6, 0.6, 7, seed=5, connected=True))), 6),
}


@pytest.mark.parametrize("name", sorted(START_CLASS_INSTANCES))
def test_every_order_starts_at_element_0(name):
    # maxback's n - 1 rounds take the start class through every join
    oracle, n = START_CLASS_INSTANCES[name]()
    configs = named_configs(oracle)
    if oracle.keyed:  # the sweep runs the heap queue only
        configs.append(("queue-bucket", MinimizeConfig(order_builder="queue",
                                                       queue_kind="bucket")))
    for config_name, config in configs:
        records = []
        optimal_set(oracle, n, config, observer=records.append)
        assert [r.order.order[0] for r in records] == [0] * len(records), config_name
