"""Differential check against networkx.stoer_wagner past brute-force scale.

Enumeration stops at n = 24; these graphs run from n = 25 to 300. Every
reported lambda must equal both the reference value and the strict
oracle's value of the returned set. The scan builder makes O(k^2) oracle
calls per order and rings take hundreds of rounds, so scan runs on the
smaller rings only.
"""

import random

import pytest

from symcut import (GraphCutOracle, MinimizeConfig, WeightedGraph, optimal_set,
                    values_equal)

nx = pytest.importorskip("networkx")

SCAN = MinimizeConfig()
HEAP = MinimizeConfig(order_builder="queue")
BUCKET = MinimizeConfig(order_builder="queue", queue_kind="bucket")

MIXED_WEIGHTS = [0.1, 1 / 3, 1e12, 0.7, 2.5, 1e-3]


def _weight(r, kind):
    return r.randint(1, 10) if kind == "int" else r.choice(MIXED_WEIGHTS)


def sparse_graph(n, seed, kind):
    """Random spanning tree plus 2n random edges: connected, average degree ~6."""
    r = random.Random(seed)
    pairs = [(r.randrange(v), v) for v in range(1, n)]
    pairs += [tuple(r.sample(range(n), 2)) for _ in range(2 * n)]
    return WeightedGraph(n, [(u, v, _weight(r, kind)) for u, v in pairs])


def noisy_ring(n, seed, kind):
    """Heavy ring with n/10 light chords: many rounds of one join each."""
    r = random.Random(seed)
    edges = [(v, (v + 1) % n, _weight(r, kind) + 4) for v in range(n)]
    edges += [(*r.sample(range(n), 2), 1) for _ in range(n // 10)]
    return WeightedGraph(n, edges)


def stoer_wagner_value(graph):
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n))
    for u, neighbours in enumerate(graph.adjacency):
        for v, w in neighbours.items():
            if u < v:
                ref.add_edge(u, v, weight=w)
    return nx.stoer_wagner(ref)[0]


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("family,n", [("sparse", 25), ("sparse", 80), ("sparse", 300),
                                      ("ring", 30), ("ring", 100), ("ring", 250)])
def test_matches_stoer_wagner(family, n, kind):
    configs = (HEAP, BUCKET) if family == "ring" and n > 100 else (SCAN, HEAP, BUCKET)
    make = sparse_graph if family == "sparse" else noisy_ring
    graph = make(n, seed=n, kind=kind)
    expected = stoer_wagner_value(graph)
    strict = GraphCutOracle(graph, early_exit=False)
    universe = frozenset(range(n))
    for config in configs:
        if config.queue_kind == "bucket" and kind == "float":
            continue  # the bucket queue needs integer weights
        best, value, _ = optimal_set(GraphCutOracle(graph), n, config)
        assert 0 < len(best) < n
        assert values_equal(value, expected), (config, value, expected)
        attained = strict.eval(frozenset(best), universe - best)
        assert values_equal(value, attained), (config, value, attained)
