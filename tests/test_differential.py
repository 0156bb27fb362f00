"""Differential checks past brute-force scale.

Enumeration stops at n = 20; these graphs run from n = 21 to 300 against
networkx.stoer_wagner, and a pure weighted ring, whose exact value is known
without a reference, goes to n = 1000. Every reported lambda must equal both
the reference value and the strict oracle's value of the returned set. The
scan builder makes O(k^2) oracle calls per order and rings take hundreds of
rounds, so scan runs on the smaller rings only.

Hypergraphs (n = 21 to 400) have no networkx reference; the pendant-pair
loop (maxback) with the heap queue serves instead. Its keys come from the
key tracker, not from eval, so it checks eval-driven scan orders through a
separate path, and each lambda is also checked against a walk over every
hyperedge written out here. Hypergraph rings (n = 200 and 400) run on the
queue path only; there laxback takes tens of rounds, each read from a
hypergraph quotient synced with the round's joins.
"""

import random

import pytest

from symcut import (GraphCutOracle, Hypergraph, HypergraphCutOracle,
                    MinimizeConfig, WeightedGraph, optimal_set, values_equal)

nx = pytest.importorskip("networkx")

SCAN = MinimizeConfig()
HEAP = MinimizeConfig(order_builder="queue")
BUCKET = MinimizeConfig(order_builder="queue", queue_kind="bucket")
MAXBACK = MinimizeConfig(algorithm="maxback", order_builder="queue")

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
@pytest.mark.parametrize("family,n", [("sparse", 21), ("sparse", 25), ("sparse", 80),
                                      ("sparse", 300), ("ring", 22), ("ring", 30),
                                      ("ring", 100), ("ring", 250)])
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


def test_weighted_ring_past_networkx_scale():
    # a pure ring's minimum cut removes its two lightest edges; the heap
    # path runs one round per join here, hundreds of rounds on the quotient
    n = 1000
    r = random.Random(n)
    weights = [r.randint(5, 10) for _ in range(n)]
    graph = WeightedGraph(n, [(v, (v + 1) % n, weights[v]) for v in range(n)])
    expected = sum(sorted(weights)[:2])
    best, value, _ = optimal_set(GraphCutOracle(graph), n, HEAP)
    assert 0 < len(best) < n
    assert value == expected
    universe = frozenset(range(n))
    assert GraphCutOracle(graph, early_exit=False).eval(
        frozenset(best), universe - best) == expected


def _hyperedges(r, vertices, count, kind, extra=0):
    """`count` hyperedges of 2-4 pins; the first len - 1 connect `vertices`."""
    hyperedges = []
    for i in range(count):
        k = r.randint(2, 4)
        if i < len(vertices) - 1:
            pins = {vertices[i + 1], vertices[r.randrange(i + 1)]}
            pins |= set(r.sample(vertices, k - 2))
        else:
            pins = set(r.sample(vertices, k))
        hyperedges.append((_weight(r, kind) + extra, pins))
    return hyperedges


def sparse_hypergraph(n, seed, kind):
    return Hypergraph(n, _hyperedges(random.Random(seed), list(range(n)), 3 * n, kind))


def split_hypergraph(n, seed, kind):
    """Two connected halves of heavy hyperedges (weight > 4), joined by three
    of weight 1: the minimum cut, of value 3, separates the halves."""
    r = random.Random(seed)
    halves = [list(range(n // 2)), list(range(n // 2, n))]
    inner = 3 * n - 3
    hyperedges = _hyperedges(r, halves[0], inner // 2, kind, extra=4)
    hyperedges += _hyperedges(r, halves[1], inner - inner // 2, kind, extra=4)
    hyperedges += [(1, {r.choice(halves[0]), r.choice(halves[1])}) for _ in range(3)]
    return Hypergraph(n, hyperedges)


def hypergraph_ring(n, seed, kind):
    """Heavy hyperedges on consecutive triples plus n/10 light random ones.

    The queue path takes tens of rounds of few joins here, so the hypergraph
    quotient is synced many times over.
    """
    r = random.Random(seed)
    hyperedges = [(_weight(r, kind) + 4, {v, (v + 1) % n, (v + 2) % n}) for v in range(n)]
    hyperedges += [(1, set(r.sample(range(n), 3))) for _ in range(n // 10)]
    return Hypergraph(n, hyperedges)


def cut_value(hypergraph, side):
    """Total weight of the hyperedges with pins on both sides, in index order."""
    total = 0
    for w, pins in hypergraph.hyperedges:
        if not pins.isdisjoint(side) and not pins <= side:
            total += w
    return total


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("family,n", [("sparse", 21), ("sparse", 60), ("sparse", 150),
                                      ("split", 21), ("split", 60), ("split", 150),
                                      ("ring", 200), ("ring", 400)])
def test_hypergraphs_match_maxback(family, n, kind):
    make = {"sparse": sparse_hypergraph, "split": split_hypergraph,
            "ring": hypergraph_ring}[family]
    hypergraph = make(n, seed=n, kind=kind)
    _, expected, _ = optimal_set(HypergraphCutOracle(hypergraph), n, MAXBACK)
    if family == "split":
        assert expected == 3
    configs = (HEAP, BUCKET) if family == "ring" else (SCAN, HEAP, BUCKET)
    for config in configs:
        if config.queue_kind == "bucket" and kind == "float":
            continue  # the bucket queue needs integer weights
        best, value, stats = optimal_set(HypergraphCutOracle(hypergraph), n, config)
        assert 0 < len(best) < n
        assert values_equal(value, expected), (config, value, expected)
        assert value == cut_value(hypergraph, best), (config, value)
        if family == "ring":
            assert stats.rounds >= 10, stats.rounds  # many synced quotients
