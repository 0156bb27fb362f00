"""The queue builder's replay of the previous round's order.

``optimal_set`` hands each queue-built order to the next round, whose
builder replays the prefix the joins left alone before it builds a queue.
The replay must change nothing but the work done: every round's order,
keys and threshold must equal those of a build from scratch on the same
partition. The differential here rebuilds every round from scratch beside
the driver's own build and compares the two. A replay that stops early
still builds the same orders, so the work counts of five seeded runs are
pinned too, and the heads and replay end read from the partition's
retired-label log are compared with a pass over every class. The builder
replays only an order it made for the same oracle on the same partition;
any other `previous` gives the build from scratch. Such an order replays
after any joins on the partition, those that grow or rename the class of
0 included, and a seeded differential replays every earlier order of
random builds against the build from scratch.
"""

import random
from contextlib import contextmanager

import pytest

from symcut import (INF, GraphCutOracle, Hypergraph, HypergraphCutOracle,
                    MinimizeConfig, WeightedGraph, driver, gen_random_graph,
                    gen_random_hypergraph, optimal_set)
from symcut.order import LaxBackOrder, lax_back_order_queue, replay_bounds
from symcut.partition import Partition
from test_driver import run_optimized

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FLOATS = [0.1, 1 / 3, 2.5, 0.7, 1e-3, 7.25]


def _weight(r, kind, low, high):
    if kind == "int":
        return r.randint(low, high)
    weight = r.uniform(low, high)
    return round(weight, 2) if kind == "cents" else weight


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
BOGUS_KEYS = (INF, 3, 3, 3, 5)  # its keys at tau = 5: 1 settles at 6 on the advance of 2


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_replay_falls_back_to_a_full_build(queue_kind):
    partition = Partition(5)

    def built(tau, previous=None):
        return lax_back_order_queue(RING5, partition, tau, queue_kind, previous=previous)

    scratch = built(5)
    assert scratch == (LaxBackOrder((0, 1, 2, 3, 4), (INF, 3, 3, 3, 5), 5), 2)
    # the first three are made by hand. The last two of them hold every
    # live class once, start at the class of 0 and have the threshold at
    # hand, but their keys are not this ring's: a replay of them would
    # give keys (INF, 1, 1, 1, 5)
    for previous in (LaxBackOrder(BOGUS, BOGUS_KEYS, 5),
                     LaxBackOrder((0, 1, 2, 3, 4), (INF, 1, 1, 1, 1), 5),
                     LaxBackOrder((0, 2, 4, 1, 3), (INF, 1, 1, 1, 1), 5),
                     LaxBackOrder((1, 4, 3, 2, 0), BOGUS_KEYS, 5),  # another first
                     LaxBackOrder(BOGUS, BOGUS_KEYS, 4),  # a threshold below tau
                     LaxBackOrder(BOGUS, (INF,) * 5, INF)):  # a threshold above tau
        assert built(5, previous) == scratch
    # the keys of an order with a higher threshold are no keys of this one:
    # following the uncapped order would record the last key as 6, not 3
    uncapped, _ = built(INF)
    assert uncapped.keys == (INF, 3, 3, 3, 6)
    assert built(3, uncapped) == built(3)


def test_an_order_made_for_another_oracle_is_ignored():
    # built on this very partition at this threshold, but for a ring of
    # other weights: a replay of it would give its own order with keys
    # (INF, 3, 3, 3, 5, 5)
    def ring(weights):
        return GraphCutOracle(WeightedGraph(6, [(v, (v + 1) % 6, w)
                                                for v, w in enumerate(weights)]))

    made_for, other = ring([3] * 6), ring([1, 4, 2, 5, 1, 4])
    partition = Partition(6)
    previous, _ = lax_back_order_queue(made_for, partition, 6)
    assert previous.order == (0, 1, 2, 3, 4, 5)
    scratch = lax_back_order_queue(other, partition, 6)
    assert scratch == (LaxBackOrder((0, 5, 1, 2, 3, 4), (INF, 4, 1, 4, 2, 6), 6), 3)
    assert lax_back_order_queue(other, partition, 6, previous=previous) == scratch


@pytest.mark.parametrize("queue_kind", ["heap", "bucket"])
def test_two_heads_settling_on_one_advance_end_the_replay(queue_kind):
    # a light path 0-1-2, then edges from 2 to each of 3..7
    oracle = GraphCutOracle(WeightedGraph(8, [
        (0, 1, 2), (1, 2, 2), (2, 3, 2), (2, 4, 3), (2, 5, 2), (2, 6, 3), (2, 7, 4)]))
    partition = Partition(8)
    # at the threshold of the build below, so that build resumes from it
    previous, _ = lax_back_order_queue(oracle, partition, 5, queue_kind)
    assert previous.order[:4] == (0, 1, 2, 7)
    partition.join(3, 4)
    partition.join(5, 6)
    # the advance of 2 takes both heads, {3, 4} and {5, 6}, to tau = 5, and
    # 7 to 4: the replay covers 1 and 2 and ends there. The resume appends
    # 1, and the builder appends 2 and settles the two heads, so they come
    # before 7, which a replay that went on would append next
    order, updates = lax_back_order_queue(oracle, partition, 5, queue_kind,
                                          previous=previous)
    scratch, scratch_updates = lax_back_order_queue(oracle, partition, 5, queue_kind)
    assert order == scratch
    assert order.keys == (INF, 2, 2, 5, 5, 4)
    assert sorted(order.order[3:5]) == [3, 5] and order.order[5] == 7
    # from scratch the queue updates 2 after 1 and 7 after 2; the resumed
    # tracker computes 2's key, and the builder's advance of 2 updates 7
    assert (updates, scratch_updates) == (1, 2)


def test_a_grown_class_of_0_ends_the_replay():
    # the class of 0 absorbs 2, which comes after 3 and 1 in the order: the
    # class of 0 is a head at position 0, so nothing is replayed. Followed,
    # the order would keep 3 second, keys (INF, 3, 7)
    oracle = GraphCutOracle(WeightedGraph(4, [(0, 1, 2), (1, 2, 5), (2, 3, 1), (3, 0, 3)]))
    partition = Partition(4)
    previous, _ = lax_back_order_queue(oracle, partition, INF)
    assert previous.order == (0, 3, 1, 2)
    partition.join(0, 2)
    scratch = lax_back_order_queue(oracle, partition, INF)
    assert scratch == (LaxBackOrder((0, 1, 3), (INF, 7, 4), INF), 0)
    assert lax_back_order_queue(oracle, partition, INF, previous=previous) == scratch


def random_instance(r):
    """A keyed oracle on 3..11 elements with int, 2-decimal or float weights, zeros included."""
    n = r.randint(3, 11)
    kind = r.choice(["int", "cents", "float"])

    def weight():
        return 0 if r.random() < 0.15 else _weight(r, kind, 1, 6)

    if r.random() < 0.5:
        pairs = [tuple(r.sample(range(n), 2)) for _ in range(r.randint(n - 1, 3 * n))]
        oracle = GraphCutOracle(WeightedGraph(n, [(u, v, weight()) for u, v in pairs]))
    else:
        oracle = HypergraphCutOracle(Hypergraph(n, [
            (weight(), r.sample(range(n), r.randint(2, min(n, 4))))
            for _ in range(r.randint(n - 1, 2 * n))]))
    return oracle, n, kind


def test_replay_after_any_joins_equals_a_build_from_scratch():
    # seeded instances, each built at random thresholds on one partition
    # with a few arbitrary joins between builds, the class of 0 grown or
    # renamed as any other. Before each build every order made so far is
    # replayed at its own threshold: the log covers the joins of any
    # number of rounds, and the result must be the build from scratch
    replays, wrong = 0, []
    for seed in range(200):
        r = random.Random(seed)
        oracle, n, kind = random_instance(r)
        queue_kind = r.choice(["heap", "bucket"]) if kind == "int" else "heap"
        partition = Partition(n)
        made = []
        while True:
            for previous in made:
                tau = previous.threshold
                scratch, _ = lax_back_order_queue(oracle, partition, tau, queue_kind)
                order, _ = lax_back_order_queue(oracle, partition, tau, queue_kind,
                                                previous=previous)
                replays += 1
                if order != scratch:
                    wrong.append((seed, previous, order, scratch))
            if r.random() < 0.3:
                tau = INF
            else:
                tau = r.randint(1, 12) if kind == "int" else round(r.uniform(0.5, 12), 2)
            made.append(lax_back_order_queue(oracle, partition, tau, queue_kind,
                                             previous=made[-1] if made else None)[0])
            k = partition.class_count
            if k == 1:
                break
            for _ in range(r.randint(1, max(1, k // 3))):
                dst, src = r.sample(partition.classes(), 2)
                partition.join(dst, src)
    assert not wrong, f"{len(wrong)} of {replays} replays differ, first {wrong[0]}"
    assert replays > 2000


def scan_rule(partition, previous):
    """The heads and replay end found by a pass over every class of `previous`."""
    live = set(partition.classes())
    heads = {partition.class_of(x) for x in previous.order if x not in live}
    end = 0
    for v in previous.order:
        if v not in live or v in heads:
            break
        end += 1
    return heads, end


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_replay_bounds_match_a_pass_over_every_class(n, data):
    # random orders of random partitions, joined round by round, the class
    # of 0 grown or renamed as any other; every order made so far is
    # checked against the current partition, since the log covers the
    # joins of any number of rounds
    partition = Partition(n)
    orders = []
    while True:
        classes = partition.classes()
        first = partition.class_of(0)
        rest = data.draw(st.permutations([c for c in classes if c != first]), label="order")
        orders.append(LaxBackOrder((first, *rest), (INF,) * len(classes), INF))
        for previous in orders:
            heads, end, joined = replay_bounds(partition, previous)
            assert (heads, end) == scan_rule(partition, previous), previous.order
            assert joined == set(previous.order) - set(partition.classes())
        if len(classes) == 1:
            break
        for _ in range(data.draw(st.integers(1, len(classes) - 1), label="joins")):
            dst, src = data.draw(st.permutations(partition.classes()), label="pair")[:2]
            partition.join(dst, src)


def test_a_foreign_previous_order_is_refused_under_optimize():
    # four orders this partition never had: one of another class count,
    # one without the label the join retired, one with a label the
    # partition never had where the replay would read its key, and one
    # whose label 3 repeats after the replay end. The builder made none of
    # them, so each gives the build from scratch
    script = """
from symcut import GraphCutOracle, INF, WeightedGraph
from symcut.order import LaxBackOrder, lax_back_order_queue
from symcut.partition import Partition

oracle = GraphCutOracle(WeightedGraph(5, [(v, (v + 1) % 5, 3) for v in range(5)]))
partition = Partition(5)
partition.join(1, 2)
scratch = lax_back_order_queue(oracle, partition, INF)
for labels in [(0, 1, 3), (0, 1, 3, 4, 9), (0, 9, 1, 2, 4), (0, 3, 2, 1, 3)]:
    previous = LaxBackOrder(labels, (INF,) * len(labels), INF)
    print(lax_back_order_queue(oracle, partition, INF, previous=previous) == scratch)
"""
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n" * 4


# seeded runs whose work counts are pinned, each a () -> (oracle, n)
WORK_RUNS = {
    "ring-300": lambda: (build("ring", 300, "int"), 300),
    "hyper-ring-150": lambda: (build("hyper-ring", 150, "int"), 150),
    "graph-300": lambda: (GraphCutOracle(gen_random_graph(300, 10 / 299, 10, seed=3,
                                                          connected=True)), 300),
    "hypergraph-200": lambda: (HypergraphCutOracle(gen_random_hypergraph(200, 800, 10,
                                                                         seed=4)), 200),
    "cents-ring-120": lambda: (GraphCutOracle(noisy_ring(120, 120, "cents")), 120),
}
WORK_FIELDS = ("value", "rounds", "joins", "classes built", "update_key calls",
               "oracle calls")
# (run, algorithm) -> the WORK_FIELDS of its heap-queue solve. A replay that
# stops early builds the same orders, so only the update_key calls show it;
# a change here must say why
WORK = {
    ("ring-300", "laxback"): (10, 250, 299, 32764, 1803, 301),
    ("ring-300", "maxback"): (10, 299, 299, 45149, 2002, 1),
    ("hyper-ring-150", "laxback"): (15, 18, 149, 624, 686, 151),
    ("hyper-ring-150", "maxback"): (15, 149, 149, 11324, 2218, 1),
    ("graph-300", "laxback"): (1, 1, 299, 300, 0, 301),
    ("graph-300", "maxback"): (1, 299, 299, 45149, 171245, 1),
    ("hypergraph-200", "laxback"): (16, 2, 199, 202, 440, 201),
    ("hypergraph-200", "maxback"): (16, 199, 199, 20099, 116864, 1),
    ("cents-ring-120", "laxback"): (10.33, 119, 119, 7259, 338, 121),
    ("cents-ring-120", "maxback"): (10.33, 119, 119, 7259, 356, 1),
}


def work_counts(name, algorithm):
    oracle, n = WORK_RUNS[name]()
    config = MinimizeConfig(algorithm=algorithm, order_builder="queue")
    _, value, stats = optimal_set(oracle, n, config)
    return (value, stats.rounds, sum(stats.joins_per_round),
            sum(k for k, _ in stats.calls_per_order),
            sum(ops for _, ops in stats.calls_per_order), stats.oracle_calls)


@pytest.mark.parametrize("name,algorithm", sorted(WORK))
def test_work_counts_are_pinned(name, algorithm):
    pinned, counts = WORK[name, algorithm], work_counts(name, algorithm)
    changed = [f"{field}: {old} -> {new}"
               for field, old, new in zip(WORK_FIELDS, pinned, counts) if old != new]
    assert not changed, "; ".join(changed)
