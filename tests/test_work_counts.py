"""Exact work counts of seeded solves, pinned.

Work counts are exact on fixed inputs, where wall time is not. A replay
that stops early, or a build that makes one more oracle call or
``update_key`` call per round, returns every order and value it did
before, and only these counts show it. Each row pins, for one seeded run
under one algorithm, the value and sums over ``RunStats.per_round``:
rounds, joins, classes built (the classes of every order), the builds'
``update_key`` calls and evals, and the solve's oracle calls. The queue
runs solve on the heap. Both queues are exact max-queues with the same
tie rule, so a bucket-queue solve of every integer queue run must give
the heap's row. The scan runs cover a table's ``ConnectivityOracle``,
whose builder is the scan, and an integer ring and a 2-decimal one forced
onto the scan builder. The sparse 1,000-vertex graph joins almost every
vertex in its first round, as perfbench's multijoin graphs do; its
maxback run, 999 rounds of one join, would take about 3 s and is not
pinned. A change to a row must say why.

A laxback run's oracle calls hold its n singleton probes only on the
table: a cut oracle hands the driver every singleton value at once
(``singleton_values``), so the laxback rows of the cut oracles count the
scan builds' evals and the final value, n fewer than with the probes.
"""

import random

import pytest

from symcut import (ConnectivityOracle, GraphCutOracle, HypergraphCutOracle, MinimizeConfig,
                    WeightedGraph, gen_random_graph, gen_random_hypergraph, graph_cut_table,
                    optimal_set)
from test_replay import build, noisy_ring


def chorded_ring(n, seed):
    """Ring with weights 5..10 and n/10 chords of weight 1..2, as in perfbench's onejoin."""
    r = random.Random(seed)
    edges = [(v, (v + 1) % n, r.randint(5, 10)) for v in range(n)]
    chords = set()
    while len(chords) < n // 10:
        u, v = r.randrange(n), r.randrange(n)
        if (u - v) % n not in (0, 1, n - 1):
            chords.add((min(u, v), max(u, v)))
    edges += [(u, v, r.randint(1, 2)) for u, v in sorted(chords)]
    return WeightedGraph(n, edges)


def degree_graph(n, degree, seed):
    """Random spanning tree plus random edges up to degree `degree`, weights 1..10, as in
    perfbench's multijoin."""
    r = random.Random(seed)
    pairs = {(r.randrange(v), v) for v in range(1, n)}
    while len(pairs) < n * degree // 2:
        pairs.add(tuple(sorted(r.sample(range(n), 2))))
    return WeightedGraph(n, [(u, v, r.randint(1, 10)) for u, v in sorted(pairs)])


# seeded runs whose work counts are pinned: name -> (() -> (oracle, n), order builder)
WORK_RUNS = {
    "ring-300": (lambda: (build("ring", 300, "int"), 300), "queue"),
    "hyper-ring-150": (lambda: (build("hyper-ring", 150, "int"), 150), "queue"),
    "graph-300": (lambda: (GraphCutOracle(gen_random_graph(300, 10 / 299, 10, seed=3,
                                                           connected=True)), 300), "queue"),
    "hypergraph-200": (lambda: (HypergraphCutOracle(gen_random_hypergraph(200, 800, 10,
                                                                          seed=4)), 200),
                       "queue"),
    "cents-ring-120": (lambda: (GraphCutOracle(noisy_ring(120, 120, "cents")), 120), "queue"),
    "chorded-ring-300": (lambda: (GraphCutOracle(chorded_ring(300, 300)), 300), "queue"),
    "table-14": (lambda: (ConnectivityOracle(graph_cut_table(
        gen_random_graph(14, 0.3, 10, seed=14, connected=True))), 14), None),
    "scan-ring-40": (lambda: (GraphCutOracle(noisy_ring(40, 40, "int")), 40), "scan"),
    "sparse-1000": (lambda: (GraphCutOracle(degree_graph(1000, 10, 1000)), 1000), "queue"),
    "scan-cents-ring-40": (lambda: (GraphCutOracle(noisy_ring(40, 40, "cents")), 40), "scan"),
}
INTEGER_QUEUE_RUNS = ("ring-300", "hyper-ring-150", "graph-300", "hypergraph-200",
                      "chorded-ring-300", "sparse-1000")
WORK_FIELDS = ("value", "rounds", "joins", "classes built", "update_key calls", "evals",
               "oracle calls")
# (run, algorithm) -> the WORK_FIELDS of its solve, on the heap for a queue run
WORK = {
    ("ring-300", "laxback"): (10, 250, 299, 32764, 1803, 0, 1),
    ("ring-300", "maxback"): (10, 299, 299, 45149, 2002, 0, 1),
    ("hyper-ring-150", "laxback"): (15, 18, 149, 624, 686, 0, 1),
    ("hyper-ring-150", "maxback"): (15, 149, 149, 11324, 2218, 0, 1),
    ("graph-300", "laxback"): (1, 1, 299, 300, 0, 0, 1),
    ("graph-300", "maxback"): (1, 299, 299, 45149, 171245, 0, 1),
    ("hypergraph-200", "laxback"): (16, 2, 199, 202, 440, 0, 1),
    ("hypergraph-200", "maxback"): (16, 199, 199, 20099, 116864, 0, 1),
    ("cents-ring-120", "laxback"): (10.33, 119, 119, 7259, 338, 0, 1),
    ("cents-ring-120", "maxback"): (10.33, 119, 119, 7259, 356, 0, 1),
    ("chorded-ring-300", "laxback"): (10, 141, 299, 18865, 3980, 0, 1),
    ("chorded-ring-300", "maxback"): (10, 299, 299, 45149, 2286, 0, 1),
    ("table-14", "laxback"): (20, 2, 13, 17, 0, 43, 58),
    ("table-14", "maxback"): (20, 13, 13, 104, 0, 455, 456),
    ("scan-ring-40", "laxback"): (10, 31, 39, 542, 0, 5978, 5979),
    ("scan-ring-40", "maxback"): (10, 39, 39, 819, 0, 10660, 10661),
    ("sparse-1000", "laxback"): (11, 2, 999, 1014, 1548, 0, 1),
    ("scan-cents-ring-40", "laxback"): (10.3, 38, 39, 787, 0, 10164, 10165),
    ("scan-cents-ring-40", "maxback"): (10.3, 39, 39, 819, 0, 10660, 10661),
}


def work_counts(name, algorithm, queue_kind="heap"):
    make, builder = WORK_RUNS[name]
    oracle, n = make()
    config = MinimizeConfig(algorithm=algorithm, order_builder=builder, queue_kind=queue_kind)
    _, value, stats = optimal_set(oracle, n, config)
    rounds = stats.per_round
    return (value, stats.rounds, sum(r.joins for r in rounds), sum(r.classes for r in rounds),
            sum(r.key_updates for r in rounds), sum(r.evals for r in rounds),
            stats.oracle_calls)


def changes(pinned, counts):
    """'field: old -> new' for every count that moved, joined by '; '."""
    return "; ".join(f"{field}: {old} -> {new}"
                     for field, old, new in zip(WORK_FIELDS, pinned, counts) if old != new)


@pytest.mark.parametrize("name,algorithm", sorted(WORK))
def test_work_counts_are_pinned(name, algorithm):
    changed = changes(WORK[name, algorithm], work_counts(name, algorithm))
    assert not changed, changed


@pytest.mark.parametrize("name,algorithm",
                         [key for key in sorted(WORK) if key[0] in INTEGER_QUEUE_RUNS])
def test_the_bucket_queue_gives_the_heap_rows(name, algorithm):
    changed = changes(WORK[name, algorithm], work_counts(name, algorithm, "bucket"))
    assert not changed, changed
