"""A key tracker resumed from the previous order against one advanced along its prefix.

Random graphs and hypergraphs, with int or float weights, are joined round
by round along the orders the queue builder makes, each run of joins
chaining into its head as in ``contract_round``, so the class of 0 only
absorbs a leading run. From round 2 on, the tracker resumed from the
order before must hold, under ==, the keys of a fresh tracker advanced
along the replayed prefix but its last class, the prefix the resume
appended. No class settled on the way, every appended class had the
largest key by ``(key, -label)`` at its step, and the replayed prefix's
last class has it among the resumed keys, so the builder's queue returns
it next. Every later ``advance`` must then report the same keys in the
same order, which exercises the hypergraph's hit marks.
"""

import pytest

from symcut import INF, GraphCutOracle, Hypergraph, HypergraphCutOracle, WeightedGraph
from symcut.order import lax_back_order_queue
from symcut.partition import Partition

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FLOATS = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 2.5, 0.7, 1.0, 1e16]),
                   st.floats(0, 6, allow_nan=False, allow_infinity=False))


def settled(report, tau):
    return [c for c, key in report.items() if not key < tau]


def largest(keys):
    return max(keys, key=lambda c: (keys[c], -c))


def check_resume(data, oracle, partition, previous):
    tau = previous.threshold
    resumed = oracle.key_tracker(partition, previous)
    end = partition.class_count - len(resumed.keys)  # the classes it appended
    fresh = oracle.key_tracker(partition, previous.order[0])
    report = dict(fresh.keys)  # a tracker that starts reports every class
    for v in previous.order[1:end]:
        assert not settled(report, tau), "the replay went past a settling step"
        assert largest(fresh.keys) == v
        report = fresh.advance(v)
    assert resumed.keys == fresh.keys
    if end > 1:
        # the replayed prefix's last class, the builder's next append
        assert not settled(resumed.keys, tau)
        assert largest(resumed.keys) == previous.order[end]
    rest = data.draw(st.permutations(sorted(fresh.keys)), label="later advances")
    for v in rest:
        assert list(resumed.advance(v).items()) == list(fresh.advance(v).items())
        assert resumed.keys == fresh.keys


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 16), hyper=st.booleans(), integer=st.booleans(), data=st.data())
def test_a_resumed_tracker_equals_one_advanced_along_its_prefix(n, hyper, integer, data):
    weight = st.integers(0, 6) if integer else FLOATS
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    if hyper:
        pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
        items = data.draw(st.lists(st.tuples(weight, pins), max_size=3 * n), label="pins")
        oracle = HypergraphCutOracle(Hypergraph(n, items))
    else:
        items = data.draw(st.lists(st.tuples(pair, weight), max_size=3 * n), label="edges")
        oracle = GraphCutOracle(WeightedGraph(n, [(u, v, w) for (u, v), w in items]))
    tau = data.draw(st.one_of(st.just(INF), st.integers(3, 10)), label="tau")
    partition = Partition(n)
    previous = None
    while partition.class_count >= 2:
        if previous is not None:
            check_resume(data, oracle, partition, previous)
        previous, _ = lax_back_order_queue(oracle, partition, tau, previous=previous)
        # join along the order, each pair with a drawn flag, as contract_round
        # joins the pairs whose keys reach tau; the last pair always joins,
        # and few others do, so that much of each order is replayed
        flags = data.draw(st.lists(st.sampled_from([False, False, False, True]),
                                   min_size=len(previous.order) - 2,
                                   max_size=len(previous.order) - 2), label="joins")
        head = previous.order[0]
        for c, join in zip(previous.order[1:], [*flags, True]):
            if join:
                partition.join(head, c)
            else:
                head = c


GRAPH = [(0, 1, 1e17), (1, 4, 1.0), (1, 5, 1.0), (1, 3, 1e16), (3, 4, 1e15), (3, 5, 1e14),
         (5, 2, 1e13), (2, 6, 1e12), (6, 7, 1e11), (1, 8, 5e16)]


def test_a_resumed_key_adds_the_prefix_class_row_entry():
    # the quotient's rows of {1} and {3, 4, 5} sum the three edges between
    # them in different orders: 1's row as 1 + 1 + 1e16 = 1e16 + 2, the
    # other, built from its members, as 1e16 + 1 + 1, which rounds to 1e16
    # at each step ({2, 6, 7}, which ties with it for largest, has the
    # lower label, so its row is the one mirrored)
    oracle = GraphCutOracle(WeightedGraph(9, GRAPH))
    partition = Partition(9)
    previous, _ = lax_back_order_queue(oracle, partition)
    assert previous.order == (0, 1, 8, 3, 4, 5, 2, 6, 7)
    for dst, src in [(3, 4), (3, 5), (2, 6), (2, 7)]:
        partition.join(dst, src)
    # the heads 3 and 2 end the replay after 0, 1 and 8; the resume
    # appends 0 and 1 and sums 1's row entry into 3's key, as a tracker
    # advanced along 0, 1 does, and leaves 8 the largest key
    resumed = oracle.key_tracker(partition, previous)
    adjacency = oracle._quotients[partition].adjacency
    assert (adjacency[1][3], adjacency[3][1]) == (1e16 + 2, 1e16)
    assert resumed.keys == {2: 0, 3: 1e16 + 2, 8: 5e16}


def test_tied_heads_go_to_the_lower_label():
    # after the joins, the heads {5, 7} and {1, 6} both have key 4 at the
    # step that appended 0 and 2: {5, 7} reaches it against 0, {1, 6} on
    # the advance of 2. Class 4, next in the order before, has key 4 too,
    # so it loses to head 1 by label, though it would beat head 5
    graph = WeightedGraph(8, [(0, 2, 10), (0, 5, 2), (0, 7, 2), (2, 4, 4), (2, 1, 2),
                              (2, 6, 2), (4, 1, 5), (1, 6, 10), (6, 5, 10), (5, 7, 10),
                              (7, 3, 1)])
    oracle = GraphCutOracle(graph)
    partition = Partition(8)
    previous, _ = lax_back_order_queue(oracle, partition)
    assert previous.order == (0, 2, 4, 1, 6, 5, 7, 3)
    assert previous.keys[2] == 4
    partition.join(1, 6)
    partition.join(5, 7)
    # so the replay ends after 0 and 2, and the tracker starts fresh at 0;
    # one that took 4 as well would append 0 and 2
    tracker = oracle.key_tracker(partition, previous)
    assert partition.class_count - len(tracker.keys) == 1
    order, _ = lax_back_order_queue(oracle, partition, previous=previous)
    assert order == lax_back_order_queue(oracle, partition)[0]
    assert order.order[:3] == (0, 2, 1)


def advanced(oracle, partition, prefix):
    """The keys of a tracker started at prefix[0] and advanced along the rest."""
    tracker = oracle.key_tracker(partition, prefix[0])
    for v in prefix[1:]:
        tracker.advance(v)
    return tracker.keys


def test_a_resumed_key_adds_the_row_entries_of_earlier_prefix_classes():
    # the graph of the test above with a 9 after 8, so that 1 is not the
    # last class the resume appends: its row entry for {3, 4, 5} (1e16 + 2)
    # is summed from the quotient, where {3, 4, 5}'s own entry for it is 1e16
    oracle = GraphCutOracle(WeightedGraph(10, [*GRAPH, (8, 9, 4e16)]))
    partition = Partition(10)
    previous, _ = lax_back_order_queue(oracle, partition)
    assert previous.order == (0, 1, 8, 9, 3, 4, 5, 2, 6, 7)
    for dst, src in [(3, 4), (3, 5), (2, 6), (2, 7)]:
        partition.join(dst, src)
    resumed = oracle.key_tracker(partition, previous)
    assert resumed.keys == advanced(oracle, partition, (0, 1, 8)) == {
        2: 0, 3: 1e16 + 2, 9: 4e16}


def test_a_resumed_hypergraph_key_sums_one_position_in_ascending_id():
    # hyperedges 1, 2 and 3 join 0 and 5 with weights 1e16, 1, 1: summed in
    # ascending id each 1 rounds away (1e16), in descending id they do not
    # (1e16 + 2). 5 absorbs 6, and its key is summed from the quotient
    # over the prefix 0, 1 before the replayed prefix's last class, 2
    hypergraph = Hypergraph(7, [(1e17, [0, 1]), (1e16, [0, 5]), (1.0, [0, 5]), (1.0, [5, 0]),
                                (1e17, [1, 2]), (1.0, [5, 6]), (1.0, [3, 4]), (1.0, [4, 6])])
    oracle = HypergraphCutOracle(hypergraph)
    partition = Partition(7)
    previous, _ = lax_back_order_queue(oracle, partition)
    assert previous.order[:5] == (0, 1, 2, 5, 6)
    partition.join(5, 6)
    resumed = oracle.key_tracker(partition, previous)
    assert partition.class_count - len(resumed.keys) == 2
    assert resumed.keys == advanced(oracle, partition, (0, 1))
    assert resumed.keys[5] == 1e16


def test_classes_the_last_step_settles_keep_its_report_order():
    # the advance of 2, the replayed prefix's last class, settles 5 and
    # then 4, its row's order, at tau = 5; the ready list appends the last
    # settled first, so 4 goes before 5, where classes settled in label
    # order would put 5 first
    graph = WeightedGraph(8, [(0, 1, 3), (1, 2, 3), (2, 5, 5), (2, 4, 5), (2, 3, 1),
                              (5, 6, 1), (3, 7, 1), (6, 7, 1)])
    oracle = GraphCutOracle(graph)
    partition = Partition(8)
    previous, _ = lax_back_order_queue(oracle, partition, 5)
    assert previous.order[:5] == (0, 1, 2, 4, 5)
    partition.join(6, 7)
    order, _ = lax_back_order_queue(oracle, partition, 5, previous=previous)
    assert order == lax_back_order_queue(oracle, partition, 5)[0]
    assert order.order[:5] == (0, 1, 2, 4, 5)
