"""The paper's claim, checked on the scan path: laxback does no more than maxback.

The pendant-pair loop (``maxback``) builds n - 1 uncapped orders, one per
class count from n down to 2, each with k(k-1)/2 oracle calls. A laxback
round joins at least one pair, so its class counts fall strictly from n,
and its scan makes at most k(k-1)/2 calls per order, one per class left at
the start of each pass. So each laxback order costs at most the maxback
order of its class count, and the evals of laxback's builds, and the
classes its orders list, are at most maxback's on every instance. The
builds' evals are compared, not the runs' oracle calls: those hold the
singleton probes only where the oracle has no ``singleton_values``, and
the cut oracles here have them. Those totals alone cannot fail a run
whose rounds each join at least once, so every round is also held to its
join rule (``verify.check_join_record``): a run that skips any join of a
round, or joins a pair the rule does not name, fails at that round. A
scan that calls the oracle again for every class left after one reaches
tau goes over the bound of some order.
"""

import random

import pytest

from symcut import (GraphCutOracle, Hypergraph, HypergraphCutOracle, MinimizeConfig,
                    WeightedGraph, gen_random_graph, gen_random_hypergraph, optimal_set,
                    values_equal)
from symcut.verify import check_join_record

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LAXBACK = MinimizeConfig(order_builder="scan")
MAXBACK = MinimizeConfig(algorithm="maxback", order_builder="scan")
FLOATS = [0.1, 1 / 3, 2.5, 0.7, 1e-3, 7.25]


def classes_built(stats):
    return sum(r.classes for r in stats.per_round)


def evals_built(stats):
    return sum(r.evals for r in stats.per_round)


def solve(oracle, n, config):
    """Run `config` on the scan builder; a round that breaks its join rule fails at once."""
    def joined(record):
        result = check_join_record(record, config.algorithm)
        assert result, f"round {record.index} broke the join rule: {result.witness}"

    _, value, stats = optimal_set(oracle, n, config, observer=joined)
    return value, stats


def check_within_maxback(oracle, n):
    lax_value, lax = solve(oracle, n, LAXBACK)
    max_value, maxback = solve(oracle, n, MAXBACK)
    assert values_equal(lax_value, max_value)
    for r in lax.per_round:
        assert r.evals <= r.classes * (r.classes - 1) // 2, r
    assert evals_built(lax) <= evals_built(maxback), (lax.per_round, maxback.per_round)
    assert classes_built(lax) <= classes_built(maxback), (lax.per_round,
                                                          maxback.per_round)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(3, 12), hyper=st.booleans(), integer=st.booleans(), data=st.data())
def test_laxback_within_maxback_on_small_instances(n, hyper, integer, data):
    weight = st.integers(0, 6) if integer else st.sampled_from(FLOATS)
    if hyper:
        pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
        items = data.draw(st.lists(st.tuples(weight, pins), max_size=3 * n))
        oracle = HypergraphCutOracle(Hypergraph(n, items))
    else:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        items = data.draw(st.lists(st.tuples(pair, weight), max_size=3 * n))
        oracle = GraphCutOracle(WeightedGraph(n, [(u, v, w) for (u, v), w in items]))
    check_within_maxback(oracle, n)


def noisy_ring(n, seed):
    """Ring with weights 5..10 and n/20 light chords: rounds of one or two joins."""
    r = random.Random(seed)
    edges = [(v, (v + 1) % n, r.randint(5, 10)) for v in range(n)]
    edges += [(*r.sample(range(n), 2), r.randint(1, 2)) for _ in range(n // 20)]
    return WeightedGraph(n, edges)


@pytest.mark.parametrize("n", [20, 40, 60])
@pytest.mark.parametrize("family", ["graph", "hypergraph", "ring"])
def test_laxback_within_maxback_on_seeded_instances(family, n):
    if family == "graph":
        oracle = GraphCutOracle(gen_random_graph(n, 6 / n, 9, seed=n, connected=True))
    elif family == "hypergraph":
        oracle = HypergraphCutOracle(gen_random_hypergraph(n, 2 * n, 9, seed=n))
    else:
        oracle = GraphCutOracle(noisy_ring(n, n))
    check_within_maxback(oracle, n)
