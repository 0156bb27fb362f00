import random

import pytest

from symcut import (INF, GraphCutOracle, Hypergraph, HypergraphCutOracle,
                    MinimizeConfig, WeightedGraph, gen_random_graph,
                    gen_random_hypergraph, optimal_set)
from symcut.brute import check_lax_back_order
from symcut.order import lax_back_order_queue, lax_back_order_scan
from symcut.partition import Partition
from symcut.queues import BucketQueue, HeapQueue
from table_oracle import TableOracle, complete_table


def test_scan_triangle_uncapped(triangle_oracle):
    order, calls = lax_back_order_scan(triangle_oracle, Partition(3))
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, 3, 3)
    assert calls <= 3


def test_scan_triangle_capped_appends_mid_scan(triangle_oracle):
    # min(2, d(1, {0})) = 2 reaches the threshold during the first scan,
    # and the enlarged prefix then pulls 2 in as well: one scan, one round
    order, calls = lax_back_order_scan(triangle_oracle, Partition(3), tau=2)
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, 2, 2)
    assert calls == 2


def test_scan_single_class(triangle_oracle):
    p = Partition(3)
    p.join(0, 1)
    p.join(0, 2)
    order, calls = lax_back_order_scan(triangle_oracle, p)
    assert order.order == (0,) and order.keys == (INF,) and calls == 0


@pytest.mark.parametrize("build", [lax_back_order_scan, lax_back_order_queue])
def test_builders_start_at_the_class_of_element_0(build):
    # a path 0-1-2-3 of weights 1, 5, 2: class 2 holds element 0 after the
    # join, though 1 is the lowest live label
    oracle = GraphCutOracle(WeightedGraph(4, [(0, 1, 1), (1, 2, 5), (2, 3, 2)]))
    p = Partition(4)
    p.join(2, 0)
    order, _ = build(oracle, p)
    # from {0, 2}: d(1, .) = 6 beats d(3, .) = 2, then d(3, {0, 1, 2}) = 2
    assert order.order == (2, 1, 3)
    assert order.keys == (INF, 6, 2)


def test_scan_handles_negative_values():
    # shifting a cut function down keeps it monotone and consistent
    g = WeightedGraph(3, [(0, 1, 3), (0, 2, 1), (1, 2, 2)])
    oracle = GraphCutOracle(g)
    shifted = {}
    for (sm, tm) in complete_table(3):
        s = frozenset(v for v in range(3) if sm >> v & 1)
        t = frozenset(v for v in range(3) if tm >> v & 1)
        shifted[(sm, tm)] = oracle.eval(s, t, INF) - 5
    o = TableOracle(3, shifted)
    order, _ = lax_back_order_scan(o, Partition(3))
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, -2, -2)


def test_queue_triangle_heap(triangle_oracle):
    order, _ = lax_back_order_queue(triangle_oracle, Partition(3))
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, 3, 3)


def test_queue_triangle_bucket(triangle_oracle):
    order, _ = lax_back_order_queue(triangle_oracle, Partition(3),
                                    queue_kind="bucket")
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, 3, 3)


def test_queue_path(path3):
    # d(1,{0})=1 beats d(2,{0})=0; then key(2) grows to 1
    order, _ = lax_back_order_queue(GraphCutOracle(path3), Partition(3))
    assert order.order == (0, 1, 2)
    assert order.keys == (INF, 1, 1)


def test_queue_single_class(triangle_oracle):
    p = Partition(3)
    p.join(2, 0)
    p.join(2, 1)
    order, updates = lax_back_order_queue(triangle_oracle, p)
    assert order.order == (2,) and updates == 0


def test_queue_requires_keyed_oracle():
    o = TableOracle(2, complete_table(2, {(1, 2): 4}))
    with pytest.raises(TypeError):
        lax_back_order_queue(o, Partition(2))


def test_queue_unknown_kind(triangle_oracle):
    with pytest.raises(ValueError, match="unknown queue kind 'fibonacci'"):
        lax_back_order_queue(triangle_oracle, Partition(3), queue_kind="fibonacci")


def test_bucket_rejects_float_weights():
    o = GraphCutOracle(WeightedGraph(2, [(0, 1, 1.5)]))
    with pytest.raises(ValueError):
        lax_back_order_queue(o, Partition(2), queue_kind="bucket")


@pytest.mark.parametrize("tau", [INF, 0, 3, 7])
def test_builders_produce_valid_orders(tau):
    for seed in range(12):
        n = 3 + seed % 5
        g = gen_random_graph(n, 0.6, 9, seed=seed)
        oracle = GraphCutOracle(g)
        blocks = Partition(n).blocks()
        for build in (lax_back_order_scan, lax_back_order_queue):
            order, _ = build(oracle, Partition(n), tau)
            assert sorted(order.order) == list(range(n))
            for name, result in check_lax_back_order(oracle, blocks, order):
                assert result, (name, result.witness)


def test_reversed_order_fails_verification():
    # star with distinct weights: reversing a valid order starts at a leaf,
    # and the second leaf then loses to the hub it is still attached to
    g = WeightedGraph(3, [(0, 1, 5), (0, 2, 1)])
    oracle = GraphCutOracle(g)
    p = Partition(3)
    good, _ = lax_back_order_scan(oracle, p)
    assert all(result for _, result in check_lax_back_order(oracle, p.blocks(), good))
    from symcut.order import LaxBackOrder
    bad = LaxBackOrder(tuple(reversed(good.order)), good.keys, good.threshold)
    res = dict(check_lax_back_order(oracle, p.blocks(), bad))["order-dominates-suffix"]
    assert not res
    assert res.witness is not None


def test_scan_call_bound_over_random_instances():
    for seed in range(15):
        n = 3 + seed % 6
        oracle = GraphCutOracle(gen_random_graph(n, 0.5, 6, seed=seed))
        for tau in (INF, 2, 5):
            _, calls = lax_back_order_scan(oracle, Partition(n), tau)
            assert calls <= n * (n - 1) // 2


def test_stored_keys_match_reevaluation():
    for seed in range(10):
        n = 4 + seed % 4
        oracle = GraphCutOracle(gen_random_graph(n, 0.7, 9, seed=seed))
        for tau in (INF, 3):
            for build in (lax_back_order_scan, lax_back_order_queue):
                order, _ = build(oracle, Partition(n), tau)
                prefix = frozenset({order.order[0]})
                for i in range(1, n):
                    want = min(tau, oracle.eval(frozenset({order.order[i]}),
                                                prefix, INF))
                    assert order.keys[i] == want
                    prefix = prefix | {order.order[i]}



def counting_queues(monkeypatch):
    """Make the queue builder's queues record the keys they receive.

    Returns (starts, updates): per queue built, a copy of its starting keys
    and the list of its ``update_key`` calls as (class, key).
    """
    starts, updates = [], []

    def counting(base):
        class Counting(base):
            def __init__(self, *args):
                super().__init__(*args)
                starts.append(dict(args[-1]))  # both queues take the keys last
                self.calls = []
                updates.append(self.calls)

            def update_key(self, v, key):
                self.calls.append((v, key))
                super().update_key(v, key)
        return Counting

    monkeypatch.setattr("symcut.order.HeapQueue", counting(HeapQueue))
    monkeypatch.setattr("symcut.order.BucketQueue", counting(BucketQueue))
    return starts, updates


def reporting(oracle_type):
    """`oracle_type` whose trackers record their starting keys and reports.

    ``reports`` gets one list per tracker: a copy of its keys once it has
    started at the first class, then a copy of each ``advance``'s changes.
    """
    class Reporting(oracle_type):
        def __init__(self, *args):
            super().__init__(*args)
            self.reports = []

        def key_tracker(self, partition, first):
            tracker = super().key_tracker(partition, first)
            report = [dict(tracker.keys)]
            self.reports.append(report)
            advance = tracker.advance

            def reported(appended):
                changed = advance(appended)
                report.append(dict(changed))
                return changed

            tracker.advance = reported
            return tracker
    return Reporting


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_a_settled_class_gets_no_further_update_or_report(queue_kind, monkeypatch):
    # 1, 2 and 3 reach tau = 3 against 0 at the tracker's start and settle;
    # each is adjacent to the other two, and 3 to 4, so only 4's key changes
    _, updates = counting_queues(monkeypatch)
    oracle = reporting(GraphCutOracle)(WeightedGraph(5, [
        (0, 1, 3), (0, 2, 3), (0, 3, 3), (1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1)]))
    order, count = lax_back_order_queue(oracle, Partition(5), 3, queue_kind)
    assert order.order == (0, 3, 2, 1, 4)
    assert order.keys == (INF, 3, 3, 3, 1)
    assert updates == [[(4, 1)]] and count == 1
    # the starting keys, then the advances of 3, 2, 1 and 4
    assert oracle.reports == [[{1: 3, 2: 3, 3: 3, 4: 0}, {4: 1}, {}, {}, {}]]


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_settled_classes_get_no_update_in_a_run(queue_kind, monkeypatch):
    _, updates = counting_queues(monkeypatch)
    config = MinimizeConfig(order_builder="queue", queue_kind=queue_kind)
    settled_rounds = 0
    for seed in range(6):
        for oracle_type, instance in (
                (GraphCutOracle, gen_random_graph(12, 0.4, 9, seed=seed)),
                (HypergraphCutOracle, gen_random_hypergraph(12, 24, 9, seed=seed))):
            oracle = reporting(oracle_type)(instance)
            updates.clear()
            records = []
            _, _, stats = optimal_set(oracle, 12, config, observer=records.append)
            # key_updates counts exactly the queue's update_key calls
            assert [len(calls) for calls in updates] == [r.key_updates for r in stats.per_round]
            for record, calls, report in zip(records, updates, oracle.reports, strict=True):
                tau = record.order.threshold
                assert all(key < tau for _, key in calls)
                settled = set()
                for changed in report:
                    assert not settled & changed.keys()
                    settled |= {c for c, key in changed.items() if key >= tau}
                settled_rounds += bool(settled)
    assert settled_rounds


def ring(n, seed):
    """Ring with weights 5..10 and n/20 light chords: rounds of few joins."""
    r = random.Random(seed)
    edges = [(v, (v + 1) % n, r.randint(5, 10)) for v in range(n)]
    edges += [(*r.sample(range(n), 2), r.randint(1, 2)) for _ in range(n // 20)]
    return WeightedGraph(n, edges)


def hypergraph_ring(n, seed):
    """Heavy triples of consecutive vertices plus n/10 light random triples."""
    r = random.Random(seed)
    edges = [(r.randint(5, 10), [v, (v + 1) % n, (v + 2) % n]) for v in range(n)]
    edges += [(r.randint(1, 2), r.sample(range(n), 3)) for _ in range(n // 10)]
    return Hypergraph(n, edges)


@pytest.mark.parametrize("algorithm", ["laxback", "maxback"])
@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_every_queued_key_is_below_the_builds_tau(algorithm, queue_kind, monkeypatch):
    # the builder settles every class that reaches tau, so no queue is
    # handed a key at or above it, at its build or through update_key
    starts, updates = counting_queues(monkeypatch)
    config = MinimizeConfig(algorithm=algorithm, order_builder="queue",
                            queue_kind=queue_kind)
    replayed = 0
    for seed in range(3):
        for oracle_type, instance in (
                (GraphCutOracle, ring(60, seed)),
                (HypergraphCutOracle, hypergraph_ring(60, seed)),
                (GraphCutOracle, gen_random_graph(12, 0.4, 9, seed=seed)),
                (HypergraphCutOracle, gen_random_hypergraph(12, 24, 9, seed=seed))):
            starts.clear()
            updates.clear()
            records = []
            optimal_set(oracle_type(instance), instance.n, config, observer=records.append)
            for record, start, calls in zip(records, starts, updates, strict=True):
                order, tau = record.order, record.order.threshold
                assert all(key < tau for key in start.values())
                assert all(key < tau for _, key in calls)
                # a class neither queued nor settled (key tau) was replayed
                replayed += sum(c not in start and key < tau
                                for c, key in zip(order.order[1:], order.keys[1:]))
    assert replayed
