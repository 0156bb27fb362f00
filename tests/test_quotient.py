"""Property test of the graph quotient's sync path.

Random graphs (parallel edges, zero weights, int or float weights) go
through random rounds of joins. After each round a fresh tracker on the
same partition, started from a random class and advanced in a random
order, must report the strict oracle's value of every remaining class
against the prefix (exactly for integer weights, within ``values_equal``
for floats): the quotient has followed every join made since the
previous tracker, including chains (A into B, then B into C) folded in
by one sync.
"""

import pytest

from symcut import GraphCutOracle, Partition, WeightedGraph, values_equal

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

INT_WEIGHTS = st.integers(0, 9)
FLOAT_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([0.1, 1 / 3, 2.5, 1e6]),
                          st.floats(0, 1000, allow_nan=False, allow_infinity=False))


def check_tracker(data, oracle, strict, partition):
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
        tracker.pop(appended)
        changed = tracker.advance(appended)
        assert all(tracker.keys[c] == key for c, key in changed.items())
        prefix |= partition.member_set(appended)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fresh_trackers_match_strict_eval_after_every_round(data):
    n = data.draw(st.integers(2, 12), label="n")
    weight = INT_WEIGHTS if data.draw(st.booleans(), label="integer") else FLOAT_WEIGHTS
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = data.draw(st.lists(st.tuples(pair, weight), max_size=4 * n), label="edges")
    graph = WeightedGraph(n, [(u, v, w) for (u, v), w in edges])
    oracle = GraphCutOracle(graph)
    strict = GraphCutOracle(graph, early_exit=False)
    partition = Partition(n)
    check_tracker(data, oracle, strict, partition)
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
        check_tracker(data, oracle, strict, partition)
