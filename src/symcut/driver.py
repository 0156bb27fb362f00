"""Minimum-bipartition driver.

Rounds alternate between building a back order over the current partition
classes and contracting every adjacent pair whose stored key reaches the
running threshold. The threshold tau is the best bipartition value seen so
far (the key of each order's last class is a candidate); pairs at or above
it can never be separated by a strictly better bipartition, so contracting
them is safe. The partition shrinks by at least one class per round, and
when one class remains, tau is the optimum and the recorded set attains it.
"""

from dataclasses import dataclass, field

from .order import lax_back_order_queue, lax_back_order_scan
from .partition import Partition
from .values import INF


@dataclass
class MinimizeConfig:
    """Algorithm knobs; the defaults follow the plain scan-based variant.

    algorithm       "laxback" contracts every threshold-reaching pair per
                    round; "maxback" builds uncapped orders and contracts
                    only the final pair (the classic pendant-pair loop)
    order_builder   "scan" | "queue"
    queue_kind      "heap" | "bucket", for the queue builder only (bucket
                    needs a nonnegative integer-valued oracle with a
                    declared value bound); the scan builder uses no queue
                    and accepts only the default
    init_threshold  "infinity" | "min_singleton" (seed tau with the best
                    singleton at the cost of n extra oracle calls)
    first_element   element whose class starts every order
    """

    algorithm: str = "laxback"
    order_builder: str = "scan"
    queue_kind: str = "heap"
    init_threshold: str = "infinity"
    first_element: int = 0


@dataclass
class RunStats:
    rounds: int = 0
    oracle_calls: int = 0  # eval calls: singleton probes, scan builds, final value
    joins_per_round: list = field(default_factory=list)
    calls_per_order: list = field(default_factory=list)  # (class count, builder ops)


@dataclass(frozen=True)
class RoundRecord:
    """What one round did, with member snapshots for independent checking."""

    index: int
    tau_build: object
    order: object
    members_before: dict
    tau_after: object
    joins: int
    members_after: dict
    builder_ops: int


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
    if config.init_threshold not in ("infinity", "min_singleton"):
        raise ValueError(f"unknown threshold init {config.init_threshold!r}")
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

    if cfg.init_threshold == "min_singleton":
        for v in range(n):
            val = oracle.eval(frozenset((v,)), universe - {v}, INF)
            if val < tau:
                tau = val
                best = frozenset((v,))
        stats.oracle_calls += n
        # the argmin singleton witnesses tau, keeping d(best, rest) == tau

    while partition.class_count >= 2:
        build_tau = INF if cfg.algorithm == "maxback" else tau
        first = partition.class_of(cfg.first_element)
        members_before = partition.blocks() if observer is not None else None
        if cfg.order_builder == "scan":
            order, ops = lax_back_order_scan(oracle, partition, build_tau, first)
            stats.oracle_calls += ops
        else:
            order, ops = lax_back_order_queue(
                oracle, partition, build_tau, first, cfg.queue_kind)

        last_key = order.keys[-1]
        if not -INF < last_key < INF:
            # a NaN would contract nothing and repeat the round forever
            raise ValueError(f"round {stats.rounds}: the oracle gave the last "
                             f"class the non-finite key {last_key!r}")
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
                tau_build=build_tau,
                order=order,
                members_before=members_before,
                tau_after=tau,
                joins=joins,
                members_after=partition.blocks(),
                builder_ops=ops,
            ))

    value = oracle.eval(best, universe - best, INF)
    stats.oracle_calls += 1
    return set(best), value, stats
