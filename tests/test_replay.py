"""The queue builder's replay of the previous round's order.

``optimal_set`` hands each queue-built order to the next round, whose
builder replays the prefix the joins left alone before it builds a queue.
The replay must change nothing but the work done: every round's order,
keys and threshold must equal those of a build from scratch on the same
partition. The differential here rebuilds every round from scratch beside
the driver's own build and compares the two. A replay that stops early
still builds the same orders, so the total queue updates of two ring runs
are pinned too, and the heads and replay end read from the partition's
retired-label log are compared with a pass over every class.
"""

import random
from contextlib import contextmanager

import pytest

from symcut import (INF, GraphCutOracle, Hypergraph, HypergraphCutOracle,
                    MinimizeConfig, WeightedGraph, driver, gen_random_hypergraph,
                    optimal_set)
from symcut.order import LaxBackOrder, lax_back_order_queue, replay_bounds
from symcut.partition import Partition
from test_driver import run_optimized

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

    def both(oracle, partition, tau, queue_kind, *, previous=None):
        scratch, scratch_updates = real(oracle, partition, tau, queue_kind)
        order, order_updates = real(oracle, partition, tau, queue_kind, previous=previous)
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
       queue_kind=st.sampled_from(["heap", "bucket"]), data=st.data())
def test_replay_equals_scratch_on_small_instances(n, hyper, integer, algorithm,
                                                  queue_kind, data):
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
                            queue_kind=queue_kind if integer else "heap")
    with checked_rounds():
        optimal_set(oracle, n, config)


RING5 = GraphCutOracle(WeightedGraph(5, [(v, (v + 1) % 5, 3) for v in range(5)]))
# not an order this builder made: followed, it would append 4 before 1
BOGUS = (0, 4, 3, 2, 1)


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_replay_falls_back_to_a_full_build(queue_kind):
    def built(tau, previous=None):
        return lax_back_order_queue(RING5, Partition(5), tau, queue_kind,
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


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_two_heads_settling_on_one_advance_end_the_replay(queue_kind):
    # a light path 0-1-2, then edges from 2 to each of 3..7
    oracle = GraphCutOracle(WeightedGraph(8, [
        (0, 1, 2), (1, 2, 2), (2, 3, 2), (2, 4, 3), (2, 5, 2), (2, 6, 3), (2, 7, 4)]))
    partition = Partition(8)
    previous, _ = lax_back_order_queue(oracle, partition, INF, queue_kind)
    assert previous.order[:4] == (0, 1, 2, 7)
    partition.join(3, 4)
    partition.join(5, 6)
    # the advance of 2 takes both heads, {3, 4} and {5, 6}, to tau = 5, and
    # 7 to 4: the replay appends 1 and 2 and ends there, so the two settled
    # heads come before 7, which a replay that went on would append next
    order, updates = lax_back_order_queue(oracle, partition, 5, queue_kind,
                                          previous=previous)
    scratch, scratch_updates = lax_back_order_queue(oracle, partition, 5, queue_kind)
    assert order == scratch
    assert order.keys == (INF, 2, 2, 5, 5, 4)
    assert sorted(order.order[3:5]) == [3, 5] and order.order[5] == 7
    # from scratch the queue updates 2 after 1 and 7 after 2; the replay
    # reads both keys from the tracker
    assert (updates, scratch_updates) == (0, 2)


def scan_rule(partition, previous, first):
    """The heads and replay end found by a pass over every class of `previous`."""
    live = set(partition.classes())
    heads = {partition.class_of(x) for x in previous.order[1:] if x not in live}
    heads.discard(first)
    end = 1
    for v in previous.order[1:]:
        if v not in live or v in heads:
            break
        end += 1
    return heads, end


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_replay_bounds_match_a_pass_over_every_class(n, data):
    # random orders of random partitions, joined round by round; every
    # order made so far is checked against the current partition, since
    # the log covers the joins of any number of rounds
    partition = Partition(n)
    orders = []
    while True:
        classes = partition.classes()
        first = partition.class_of(0)
        rest = data.draw(st.permutations([c for c in classes if c != first]), label="order")
        orders.append(LaxBackOrder((first, *rest), (INF,) * len(classes), INF))
        for previous in orders:
            assert (replay_bounds(partition, previous, first)
                    == scan_rule(partition, previous, first)), previous.order
        if len(classes) == 1:
            break
        for _ in range(data.draw(st.integers(1, len(classes) - 1), label="joins")):
            dst, src = data.draw(st.permutations(partition.classes()), label="pair")[:2]
            if src == first:
                dst, src = src, dst  # the class of 0 keeps its label, as in the driver
            partition.join(dst, src)


def test_a_foreign_previous_order_is_refused_under_optimize():
    # three orders this partition never had: one of another class count,
    # one without the label the join retired, and one with a label the
    # partition never had where the replay would read its key
    script = """
from symcut import GraphCutOracle, INF, WeightedGraph
from symcut.order import LaxBackOrder, lax_back_order_queue
from symcut.partition import Partition

oracle = GraphCutOracle(WeightedGraph(5, [(v, (v + 1) % 5, 3) for v in range(5)]))
partition = Partition(5)
partition.join(1, 2)
for labels in [(0, 1, 3), (0, 1, 3, 4, 9), (0, 9, 1, 2, 4)]:
    try:
        lax_back_order_queue(oracle, partition, INF,
                             previous=LaxBackOrder(labels, (INF,) * len(labels), INF))
    except ValueError as exc:
        print(exc)
"""
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "previous is not an order of this partition before its latest joins\n" * 3)


# total queue updates of the laxback and maxback runs with the heap queue
# on ("ring", 300, "int"), as the replay stood when the retired-label log
# took over finding its heads and end: a replay that stops early builds
# the same orders, so only this total shows it
REPLAY_UPDATES = {"laxback": 1742, "maxback": 1694}


@pytest.mark.parametrize("algorithm", sorted(REPLAY_UPDATES))
def test_the_replay_goes_as_far_as_it_did(algorithm):
    oracle = build("ring", 300, "int")
    config = MinimizeConfig(algorithm=algorithm, order_builder="queue")
    _, _, stats = optimal_set(oracle, 300, config)
    assert sum(ops for _, ops in stats.calls_per_order) == REPLAY_UPDATES[algorithm]
