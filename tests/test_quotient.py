"""Property tests of the graph and hypergraph quotients' sync path.

Random graphs (parallel edges) and hypergraphs (2 to 4 pins), with zero
weights and int or float weights, go through random rounds of joins. After
each round a fresh tracker on the same partition, started from a random
class and advanced in a random order (each class appended by ``advance``
alone or settled by ``pop`` first), must drop the appended class from its
keys and report the strict oracle's value of every remaining class against
the prefix (exactly for integer weights, within ``values_equal`` for
floats), and each ``advance`` must report exactly the classes a walk over
the instance's own edges or pins would change: those sharing an edge or
hyperedge with the appended class that did not touch the prefix before.
The queue builder's replay relies on that report. So the quotient has
followed every join made since the previous tracker, including chains (A
into B, then B into C) folded in by one sync. A synced quotient must also
equal one built from scratch on the same partition: exactly for
hypergraphs, whose weights are never summed, and within ``values_equal``
for a graph's summed rows.

A quotient is built from the classes other than the largest. After every
round a fresh build must equal a walk over every edge or hyperedge of the
instance, kept here as the reference: exactly for hypergraphs and integer
graphs, within ``values_equal`` for float graphs. Fixed partitions add the
cases where several classes tie for largest and where the largest class
does or does not hold element 0.
"""

import pytest

from symcut import (GraphCutOracle, Hypergraph, HypergraphCutOracle, WeightedGraph,
                    gen_random_graph, gen_random_hypergraph, values_equal)
from symcut.oracles import _GraphQuotient, _HypergraphQuotient
from symcut.partition import Partition

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

INT_WEIGHTS = st.integers(0, 9)
FLOAT_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([0.1, 1 / 3, 2.5, 1e6]),
                          st.floats(0, 1000, allow_nan=False, allow_infinity=False))


def pin_sets(instance):
    """The element sets of an instance's edges or hyperedges, weights aside."""
    if isinstance(instance, WeightedGraph):
        return [frozenset((u, v)) for u, v, _ in instance.edges]
    return [pins for _, pins in instance.hyperedges]


def check_tracker(data, oracle, strict, partition, pins):
    """One order over the current classes, every key checked after each step."""
    classes = partition.classes()
    first = data.draw(st.sampled_from(classes), label="first")
    rest = data.draw(st.permutations([c for c in classes if c != first]), label="order")
    tracker = oracle.key_tracker(partition, first)
    prefix = partition.member_set(first)
    remaining = list(rest)
    while True:
        assert sorted(tracker.keys) == sorted(remaining)
        for c, key in tracker.keys.items():
            expected = strict.eval(partition.member_set(c), prefix)
            assert values_equal(key, expected), (c, key, expected)
        if not remaining:
            return
        appended = remaining.pop(0)
        block = partition.member_set(appended)
        walked = {partition.class_of(p) for e in pins
                  if not e.isdisjoint(block) and e.isdisjoint(prefix) for p in e}
        # append with advance alone, or settle with pop first
        if data.draw(st.booleans(), label="settled"):
            tracker.pop(appended)
        before = dict(tracker.keys)
        changed = tracker.advance(appended)
        assert appended not in tracker.keys
        assert changed.keys() == walked & set(remaining), (appended, changed, walked)
        assert changed == {c: key for c, key in tracker.keys.items()
                           if c in changed or key != before[c]}
        prefix |= block


def walked_graph_rows(graph, partition):
    """A graph quotient's rows, by a walk over every vertex's edges."""
    class_of = partition.class_of
    rows = {c: {} for c in partition.classes()}
    for x, neighbours in enumerate(graph.adjacency):
        cx = class_of(x)
        row = rows[cx]
        for y, w in neighbours.items():
            cy = class_of(y)
            if cy != cx:
                row[cy] = row.get(cy, 0) + w
    return rows


def walked_hypergraph_quotient(hypergraph, partition):
    """A hypergraph quotient's attributes, by a walk over every hyperedge."""
    hyperedges = {}
    incident = {c: [] for c in partition.classes()}
    for e, (w, pins) in enumerate(hypergraph.hyperedges):
        classes = frozenset(map(partition.class_of, pins))
        if len(classes) > 1:
            hyperedges[e] = (w, classes)
            for c in classes:
                incident[c].append(e)
    return {"hyperedges": hyperedges, "incident": incident}


def assert_rows_close(rows, expected):
    assert {c: row.keys() for c, row in rows.items()} == {
        c: row.keys() for c, row in expected.items()}
    for c, row in rows.items():
        for d, w in row.items():
            assert values_equal(w, expected[c][d]), (c, d, w, expected[c][d])


def check_fresh_quotient(oracle, partition):
    """A quotient built on `partition` against the walk over the whole instance."""
    if isinstance(oracle, HypergraphCutOracle):
        fresh = _HypergraphQuotient(oracle.hypergraph, partition)
        assert vars(fresh) == walked_hypergraph_quotient(oracle.hypergraph, partition)
        return fresh
    fresh = _GraphQuotient(oracle.graph, partition)
    walked = walked_graph_rows(oracle.graph, partition)
    if oracle.graph.integer_weights:
        assert fresh.rows == walked
    else:
        assert_rows_close(fresh.rows, walked)
    return fresh


def check_synced_quotient(oracle, partition):
    """The oracle's synced quotient against the reference and a fresh build."""
    synced = oracle._quotients[partition]
    fresh = check_fresh_quotient(oracle, partition)
    if isinstance(oracle, HypergraphCutOracle):
        assert vars(synced) == vars(fresh)
    else:
        assert_rows_close(synced.rows, fresh.rows)


def graphs(data, n, weight):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = data.draw(st.lists(st.tuples(pair, weight), max_size=4 * n), label="edges")
    graph = WeightedGraph(n, [(u, v, w) for (u, v), w in edges])
    return graph, GraphCutOracle(graph), GraphCutOracle(graph, early_exit=False)


def hypergraphs(data, n, weight):
    pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(4, n), unique=True)
    hyperedges = data.draw(st.lists(st.tuples(weight, pins), max_size=3 * n),
                           label="hyperedges")
    hypergraph = Hypergraph(n, hyperedges)
    return (hypergraph, HypergraphCutOracle(hypergraph),
            HypergraphCutOracle(hypergraph, early_exit=False))


def run_rounds(data, make):
    n = data.draw(st.integers(2, 12), label="n")
    weight = INT_WEIGHTS if data.draw(st.booleans(), label="integer") else FLOAT_WEIGHTS
    instance, oracle, strict = make(data, n, weight)
    pins = pin_sets(instance)
    partition = Partition(n)
    check_tracker(data, oracle, strict, partition, pins)
    while partition.class_count > 1:
        joins = data.draw(st.integers(1, partition.class_count - 1), label="joins")
        last_dst = None
        for _ in range(joins):
            dst, src = data.draw(st.permutations(partition.classes()), label="pair")[:2]
            if (last_dst is not None and last_dst != dst
                    and data.draw(st.booleans(), label="chain")):
                src = last_dst  # A into B, then B into C within one round
            partition.join(dst, src)
            last_dst = dst
        check_tracker(data, oracle, strict, partition, pins)
        check_synced_quotient(oracle, partition)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fresh_trackers_match_strict_eval_after_every_round(data):
    run_rounds(data, graphs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fresh_hypergraph_trackers_match_strict_eval_after_every_round(data):
    run_rounds(data, hypergraphs)


# classes as member lists, each joined into its first member; the rest stay single
FIXED_PARTITIONS = {
    "largest holds 0": [[0, 3, 5, 7, 9, 11, 13], [2, 4], [1, 6]],
    "largest without 0": [[1, 2, 4, 8, 12, 14], [0, 3], [5, 6, 7]],
    "largest without 0, joined into a higher label": [[9, 1, 2, 4, 8, 12], [0, 3]],
    "tie with 0's class": [[0, 5, 10], [1, 6, 11], [2, 7, 12], [3, 4, 8]],
    "tie without 0": [[1, 5, 10, 14], [2, 6, 11, 13], [3, 7]],
    "two classes tie": [[0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15]],
    "one pair": [[6, 7]],
    "one class": [list(range(16))],
}


def fixed_partition(n, classes):
    partition = Partition(n)
    for members in classes:
        for x in members[1:]:
            partition.join(members[0], x)
    return partition


@pytest.mark.parametrize("integer", [True, False], ids=["int", "float"])
@pytest.mark.parametrize("name", sorted(FIXED_PARTITIONS))
def test_fresh_quotients_match_the_walk_on_fixed_partitions(name, integer):
    n = 16
    graph = gen_random_graph(n, 0.4, 9, seed=3)
    hypergraph = gen_random_hypergraph(n, 40, 9, seed=3)
    if not integer:
        graph = WeightedGraph(n, [(u, v, w / 3) for u, v, w in graph.edges])
        hypergraph = Hypergraph(n, [(w / 3, pins) for w, pins in hypergraph.hyperedges])
    partition = fixed_partition(n, FIXED_PARTITIONS[name])
    check_fresh_quotient(GraphCutOracle(graph), partition)
    check_fresh_quotient(HypergraphCutOracle(hypergraph), partition)
