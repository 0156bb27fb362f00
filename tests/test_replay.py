"""The queue builder's replay of the previous round's order.

``optimal_set`` hands each queue-built order to the next round, whose
builder replays the prefix the joins left alone before it builds a queue.
The replay must change nothing but the work done: every round's order,
keys and threshold must equal those of a build from scratch on the same
partition. The differential here rebuilds every round from scratch beside
the driver's own build and compares the two.
"""

import random
from contextlib import contextmanager

import pytest

from symcut import (INF, GraphCutOracle, Hypergraph, HypergraphCutOracle,
                    LaxBackOrder, MinimizeConfig, Partition, WeightedGraph,
                    driver, gen_random_hypergraph, lax_back_order_queue,
                    optimal_set)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FLOATS = [0.1, 1 / 3, 2.5, 0.7, 1e-3, 7.25]


def _weight(r, kind, low, high):
    return r.randint(low, high) if kind == "int" else r.uniform(low, high)


def noisy_ring(n, seed, kind):
    """Ring with weights 5..10 and n/20 light chords, as in perfbench's onejoin."""
    r = random.Random(seed)
    edges = [(v, (v + 1) % n, _weight(r, kind, 5, 10)) for v in range(n)]
    edges += [(*r.sample(range(n), 2), _weight(r, kind, 1, 2)) for _ in range(n // 20)]
    return WeightedGraph(n, edges)


def sparse_graph(n, seed, kind):
    r = random.Random(seed)
    pairs = [(r.randrange(v), v) for v in range(1, n)]
    pairs += [tuple(r.sample(range(n), 2)) for _ in range(n)]
    return WeightedGraph(n, [(u, v, _weight(r, kind, 1, 10)) for u, v in pairs])


def hypergraph_ring(n, seed, kind):
    """Triples of consecutive vertices, heavy, plus a few light random hyperedges."""
    r = random.Random(seed)
    edges = [(_weight(r, kind, 5, 10), [v, (v + 1) % n, (v + 2) % n]) for v in range(n)]
    edges += [(_weight(r, kind, 1, 2), r.sample(range(n), 3)) for _ in range(n // 10)]
    return Hypergraph(n, edges)


def float_hypergraph(n, seed):
    r = random.Random(seed)
    return Hypergraph(n, [(r.choice(FLOATS), r.sample(range(n), r.randint(2, 4)))
                          for _ in range(2 * n)])


@contextmanager
def checked_rounds():
    """Make every driver round also build its order from scratch and compare.

    Yields a list that gets, per round, the update count of the driver's
    build and of the build from scratch.
    """
    real = driver.lax_back_order_queue
    updates = []

    def both(oracle, partition, tau, first, queue_kind, *, previous=None):
        scratch, scratch_updates = real(oracle, partition, tau, first, queue_kind)
        order, order_updates = real(oracle, partition, tau, first, queue_kind,
                                    previous=previous)
        assert (order.order, order.keys, order.threshold) == (
            scratch.order, scratch.keys, scratch.threshold)
        updates.append((order_updates, scratch_updates))
        return order, order_updates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "lax_back_order_queue", both)
        yield updates


def configs(integer):
    for algorithm in ("laxback", "maxback"):
        for queue_kind in ("heap", "bucket") if integer else ("heap",):
            yield MinimizeConfig(algorithm=algorithm, order_builder="queue",
                                 queue_kind=queue_kind)


INSTANCES = [
    ("ring", 300, "int"), ("ring", 300, "float"), ("ring", 24, "int"),
    ("sparse", 40, "int"), ("sparse", 40, "float"),
    ("hyper-ring", 60, "int"), ("hyper-ring", 60, "float"),
    ("hyper-random", 30, "int"), ("hyper-random", 30, "float"),
]


def build(family, n, kind):
    if family == "ring":
        return GraphCutOracle(noisy_ring(n, n, kind))
    if family == "sparse":
        return GraphCutOracle(sparse_graph(n, n, kind))
    if family == "hyper-ring":
        return HypergraphCutOracle(hypergraph_ring(n, n, kind))
    if kind == "int":
        return HypergraphCutOracle(gen_random_hypergraph(n, 2 * n, 9, seed=n))
    return HypergraphCutOracle(float_hypergraph(n, n))


@pytest.mark.parametrize("family,n,kind", INSTANCES)
def test_every_round_equals_a_build_from_scratch(family, n, kind):
    oracle = build(family, n, kind)
    for config in configs(kind == "int"):
        with checked_rounds() as updates:
            _, _, stats = optimal_set(oracle, n, config)
        assert len(updates) == stats.rounds
        assert [ops for ops, _ in updates] == [ops for _, ops in stats.calls_per_order]
        # the replay took part: some round made fewer queue updates (a
        # laxback run of a few many-join rounds may replay nothing)
        if config.algorithm == "maxback" or family.endswith("ring"):
            assert any(ops < scratch for ops, scratch in updates), config


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), hyper=st.booleans(), integer=st.booleans(),
       algorithm=st.sampled_from(["laxback", "maxback"]),
       queue_kind=st.sampled_from(["heap", "bucket"]),
       first=st.integers(0, 11), data=st.data())
def test_replay_equals_scratch_on_small_instances(n, hyper, integer, algorithm,
                                                  queue_kind, first, data):
    weight = st.integers(0, 6) if integer else st.sampled_from(FLOATS)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    if hyper:
        pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
        items = data.draw(st.lists(st.tuples(weight, pins), max_size=3 * n))
        oracle = HypergraphCutOracle(Hypergraph(n, items))
    else:
        items = data.draw(st.lists(st.tuples(pair, weight), max_size=3 * n))
        oracle = GraphCutOracle(WeightedGraph(n, [(u, v, w) for (u, v), w in items]))
    config = MinimizeConfig(algorithm=algorithm, order_builder="queue",
                            queue_kind=queue_kind if integer else "heap",
                            first_element=first % n)
    with checked_rounds():
        optimal_set(oracle, n, config)


RING5 = GraphCutOracle(WeightedGraph(5, [(v, (v + 1) % 5, 3) for v in range(5)]))
# not an order this builder made: followed, it would append 4 before 1
BOGUS = (0, 4, 3, 2, 1)


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_replay_falls_back_to_a_full_build(queue_kind):
    def built(tau, previous=None):
        return lax_back_order_queue(RING5, Partition(5), tau, 0, queue_kind,
                                    previous=previous)

    scratch, scratch_updates = built(5)
    assert scratch.order == (0, 1, 2, 3, 4)
    # on an unchanged partition there are no heads, and the replay follows
    # `previous` while the keys stay below tau
    assert built(5, LaxBackOrder(BOGUS, (INF,) * 5, INF))[0].order == BOGUS
    for previous in (LaxBackOrder((1, 4, 3, 2, 0), (INF,) * 5, INF),  # another first
                     LaxBackOrder(BOGUS, (INF,) * 5, 4)):  # a threshold below tau
        assert built(5, previous) == (scratch, scratch_updates)
    # keys of 3 reach tau = 3: the replay stops at once, where following the
    # uncapped order would record the last key as 6 instead of 3
    uncapped, _ = built(INF)
    assert uncapped.keys == (INF, 3, 3, 3, 6)
    assert built(3, uncapped) == built(3)
