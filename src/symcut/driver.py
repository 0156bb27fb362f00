"""Minimum-bipartition driver.

Rounds alternate between building a back order over the current partition
classes and contracting every adjacent pair whose stored key reaches the
running threshold. The threshold tau is the best bipartition value seen so
far (the key of each order's last class is a candidate); pairs at or above
it can never be separated by a strictly better bipartition, so contracting
them is safe. The partition shrinks by at least one class per round, and
when one class remains, tau is the optimum and the recorded set attains it.
The queue builder is handed each round's order in the next round and
replays the part of it that the joins left alone.

Before the first round the scan path (laxback with the scan builder) seeds
tau with the best singleton, at the cost of n probes: a scan pass appends
every class that reaches tau, so with tau = INF its first round would be the
classic max-back order at k(k-1)/2 evals. The queue builder's cost does not
depend on tau, and maxback builds ignore it, so those paths start at INF.
"""

from dataclasses import dataclass, field

from .order import lax_back_order_queue, lax_back_order_scan
from .partition import Partition
from .values import INF, finite_key


@dataclass
class MinimizeConfig:
    """Algorithm knobs; the defaults follow the plain scan-based variant.

    algorithm       "laxback" contracts every threshold-reaching pair per
                    round; "maxback" builds uncapped orders and contracts
                    only the final pair (the classic pendant-pair loop)
    order_builder   "scan" | "queue"; laxback with the scan builder first
                    seeds tau with the best singleton (n extra oracle
                    calls), the other combinations start at tau = INF
    queue_kind      "heap" | "bucket", for the queue builder only (bucket
                    needs the keyed oracle's declared value bound, read
                    and refused only by the bucket queue); the scan
                    builder uses no queue and accepts only the default
    first_element   element whose class starts every order
    """

    algorithm: str = "laxback"
    order_builder: str = "scan"
    queue_kind: str = "heap"
    first_element: int = 0


@dataclass
class RunStats:
    rounds: int = 0
    # eval calls: the n singleton probes (laxback with the scan builder),
    # scan builds and the final value
    oracle_calls: int = 0
    joins_per_round: list = field(default_factory=list)
    # (class count, builder ops): eval calls for a scan-built order, queue
    # update_key calls for a queue-built one (its replayed appends make none)
    calls_per_order: list = field(default_factory=list)


@dataclass(frozen=True)
class RoundRecord:
    """What one round did (its order built with tau ``order.threshold``), with snapshots."""

    index: int
    order: object
    members_before: dict
    tau_after: object
    joins: int
    members_after: dict


def contract_round(partition, order, tau):
    """Join every adjacent pair of the order whose key reaches tau.

    Runs of consecutive threshold-reaching keys chain into the class at
    the head of the run. Returns the number of joins performed.
    """
    head = order.order[0]
    joins = 0
    for c, key in zip(order.order[1:], order.keys[1:]):
        if key >= tau:
            partition.join(head, c)
            joins += 1
        else:
            head = c
    return joins


def _validate(config, n):
    if config.algorithm not in ("laxback", "maxback"):
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    if config.order_builder not in ("scan", "queue"):
        raise ValueError(f"unknown order builder {config.order_builder!r}")
    if config.order_builder == "scan" and config.queue_kind != "heap":
        # the queue builder's own factory rejects unknown kinds
        raise ValueError(f"queue kind {config.queue_kind!r} needs the queue "
                         "order builder; the scan builder uses no queue")
    if not 0 <= config.first_element < n:
        raise ValueError(f"first element {config.first_element} out of range")


def optimal_set(oracle, n, config=None, observer=None):
    """Find a nontrivial S minimizing d(S, V\\S) for V = {0..n-1}.

    `oracle` provides lax evaluation of a monotone and consistent symmetric
    set function d. Returns (S, value, stats) with value = d(S, V\\S), the
    oracle's uncapped value of S, equal to the minimum over all nontrivial
    bipartitions. An `observer` callable receives a RoundRecord after every
    round.
    """
    if n < 2:
        raise ValueError("need at least two elements")
    cfg = config or MinimizeConfig()
    _validate(cfg, n)
    partition = Partition(n)
    stats = RunStats()
    universe = frozenset(range(n))
    tau = INF
    best = None

    if cfg.order_builder == "scan" and cfg.algorithm == "laxback":
        # one complement set serves every probe: O(deg v) each, not O(n)
        rest = set(universe)
        for v in range(n):
            rest.discard(v)
            val = finite_key(oracle.eval(frozenset((v,)), rest, INF), v)
            rest.add(v)
            if val < tau:
                tau = val
                best = frozenset((v,))
        stats.oracle_calls += n
        # the argmin singleton (lowest label on ties) witnesses tau, keeping
        # d(best, V \ best) == tau

    order = None
    while partition.class_count >= 2:
        build_tau = INF if cfg.algorithm == "maxback" else tau
        first = partition.class_of(cfg.first_element)
        members_before = partition.blocks() if observer is not None else None
        if cfg.order_builder == "scan":
            order, ops = lax_back_order_scan(oracle, partition, build_tau, first)
            stats.oracle_calls += ops
        else:
            order, ops = lax_back_order_queue(
                oracle, partition, build_tau, first, cfg.queue_kind, previous=order)

        last_key = order.keys[-1]
        if last_key < tau:
            best = partition.member_set(order.order[-1])
            tau = last_key

        if cfg.algorithm == "maxback":
            partition.join(order.order[-2], order.order[-1])
            joins = 1
        else:
            # tau <= last_key, so at least the last pair contracts
            joins = contract_round(partition, order, tau)

        stats.rounds += 1
        stats.joins_per_round.append(joins)
        stats.calls_per_order.append((len(order.order), ops))
        if observer is not None:
            observer(RoundRecord(
                index=stats.rounds - 1,
                order=order,
                members_before=members_before,
                tau_after=tau,
                joins=joins,
                members_after=partition.blocks(),
            ))

    value = oracle.eval(best, universe - best, INF)
    stats.oracle_calls += 1
    return set(best), value, stats
