"""What a queue-built order knows of itself, and the readers that trust it.

The queue builder records its ready appends as ``settled``, the oracle and
partition it built for, and, on a resumed build, a label position map
copied from the order before, less the labels the joins retired, with the
classes appended after the replayed prefix written in. The next round's
replay and ``contract_round`` read these instead of passing over every
class. So every order of a driver run must carry exactly what a pass over
it computes; an order of another partition must give the build from
scratch; and a round whose last key lowers tau must still contract every
key that reaches the lowered tau, not only the ones the builder settled.
"""

import pickle
import random

import pytest

from symcut import GraphCutOracle, WeightedGraph, oracles, optimal_set
from symcut.order import LaxBackOrder, lax_back_order_queue
from symcut.partition import Partition
from test_driver import run_optimized
from test_replay import INSTANCES, build, configs


@pytest.mark.parametrize("family,n,kind", INSTANCES)
def test_every_queue_built_order_knows_its_positions_and_settled_classes(family, n, kind):
    oracle = build(family, n, kind)
    for config in configs(kind == "int"):
        records = []
        optimal_set(oracle, n, config, observer=records.append)
        for record in records:
            order = record.order
            assert order.position == {label: i for i, label in enumerate(order.order)}
            assert order.settled == tuple(j for j in range(1, len(order.keys))
                                          if order.keys[j] >= order.threshold), config


def test_an_order_is_built_on_its_own_partition_only():
    graph = WeightedGraph(4, [(v, (v + 1) % 4, 3) for v in range(4)])
    oracle = GraphCutOracle(graph)
    partition = Partition(4)
    order, _ = lax_back_order_queue(oracle, partition, 5)
    assert order.made_for(oracle, partition)
    assert not order.made_for(oracle, Partition(4))
    # nor for another oracle, even one of the same graph
    assert not order.made_for(GraphCutOracle(graph), partition)
    made = LaxBackOrder(order.order, order.keys, order.threshold)
    assert made == order and not made.made_for(oracle, partition)
    # what the builder knew takes no part in equality, and a hand-made
    # order computes it
    assert (made.position, made.settled) == (order.position, order.settled)
    # a pickled order keeps its fields; the oracle and partition it was
    # made for stay behind
    copied = pickle.loads(pickle.dumps(order))
    assert copied == order and not copied.made_for(oracle, partition)


def test_a_built_order_of_another_partition_is_refused_under_optimize():
    # the order was built on one Partition(6) after joining 1 into 0; the
    # other joined 2 into 0 and then 4 into 3. Its log names one join since
    # it had five classes, and that label is in the order, but its live
    # class 1 is not, so a replay would miss a class. The builder made the
    # order on another partition, so it builds from scratch
    script = """
from symcut import INF, GraphCutOracle, INF, WeightedGraph
from symcut.order import lax_back_order_queue
from symcut.partition import Partition

oracle = GraphCutOracle(WeightedGraph(6, [(v, (v + 1) % 6, 3) for v in range(6)]))
made_on = Partition(6)
made_on.join(0, 1)
previous, _ = lax_back_order_queue(oracle, made_on, INF)
other = Partition(6)
other.join(0, 2)
other.join(3, 4)
print(lax_back_order_queue(oracle, other, INF, previous=previous)
      == lax_back_order_queue(oracle, other, INF))
"""
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def light_ring(n, seed, light):
    """Ring with weights 5..10 but weight 1 on the edges after the `light` vertices."""
    r = random.Random(seed)
    weights = [r.randint(5, 10) for _ in range(n)]
    for v in light:
        weights[v] = 1
    return WeightedGraph(n, [(v, (v + 1) % n, weights[v]) for v in range(n)])


def test_a_round_that_lowers_tau_contracts_every_key_reaching_it(monkeypatch):
    # the minimum, 2, cuts the two light edges and is no singleton, so one
    # round's last key lowers tau from the build's threshold, the best
    # singleton 6, to 2. Keys from 2 up to 6 in that order reach the new
    # tau but were not settled by the build, and one of them was replayed
    ends = []
    real = oracles.replayed_prefix

    def recorded(partition, previous, weights):
        end, rest = real(partition, previous, weights)
        ends.append((previous, end))
        return end, rest

    monkeypatch.setattr(oracles, "replayed_prefix", recorded)
    records = []
    _, value, _ = optimal_set(GraphCutOracle(light_ring(30, 1, (1, 16))), 30,
                             observer=records.append)
    assert value == 2
    (record,) = [r for r in records if r.stats.tau < r.order.threshold]
    order, tau = record.order, record.stats.tau
    assert (order.threshold, tau) == (6, 2)
    # the replay of this round's build, from the order of the round before
    (end,) = [end for previous, end in ends if previous is records[record.index - 1].order]
    replayed = [j for j in range(1, end) if tau <= order.keys[j] < order.threshold]
    assert replayed
    # the round joins every key at or above the lowered tau, as a walk over
    # all keys does, the replayed ones among them
    assert record.stats.joins == sum(key >= tau for key in order.keys[1:])
    after = {label: members for members in record.members_after.values()
             for label in members if label in order.position}
    for j in replayed:
        assert after[order.order[j]] == after[order.order[j - 1]]
