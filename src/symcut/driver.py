"""Minimum-bipartition driver.

Rounds alternate between building a back order over the current partition
classes and contracting every adjacent pair whose stored key reaches the
running threshold. The threshold tau is the best bipartition value seen so
far (the key of each order's last class is a candidate); pairs at or above
it can never be separated by a strictly better bipartition, so contracting
them is safe. The partition shrinks by at least one class per round, and
when one class remains, tau is the optimum and the recorded set attains it.
A keyed oracle's orders come from the queue builder and every other
oracle's from the scan builder, unless the configuration forces one.
The queue builder is handed each round's order in the next round and
resumes its key tracker from it, replaying the part the joins left alone.

Before the first round every laxback path seeds tau with the best
singleton, at the cost of n probes. With tau = INF the first round would be
the classic max-back order: k(k-1)/2 evals for the scan builder, and for
the queue builder a queue update on every key change, since no key reaches
INF. Under a finite tau the scan appends a class that reaches it mid-pass,
and the queue builder settles it: appends it next and updates it no
further. maxback builds ignore tau, so that path starts at INF.
"""

from dataclasses import dataclass, field

from .order import lax_back_order_queue, lax_back_order_scan, require_queue_kind
from .partition import Partition
from .values import INF, finite_key


@dataclass
class MinimizeConfig:
    """Algorithm knobs.

    algorithm       "laxback" contracts every threshold-reaching pair per
                    round; "maxback" builds uncapped orders and contracts
                    only the final pair (the classic pendant-pair loop)
    order_builder   None follows the oracle: the queue builder for a keyed
                    oracle, the scan builder for any other; "scan" or
                    "queue" forces that builder. With either builder
                    laxback first seeds tau with the best singleton (n
                    extra oracle calls), while maxback starts at tau = INF
    queue_kind      "heap" | "bucket", for the queue builder only (the
                    bucket queue takes int keys and thresholds up to its
                    ``MAX_TOP`` and refuses any other itself); the scan
                    builder uses no queue and accepts only the default

    Every order starts at the class holding element 0. Any start gives a
    valid order and the same minimum.
    """

    algorithm: str = "laxback"
    order_builder: str | None = None
    queue_kind: str = "heap"


@dataclass
class RunStats:
    rounds: int = 0
    # eval calls: the n singleton probes (every laxback path), scan builds
    # and the final value
    oracle_calls: int = 0
    joins_per_round: list = field(default_factory=list)
    # (class count, builder ops): eval calls for a scan-built order, queue
    # update_key calls for a queue-built one, made only for classes below
    # tau (replayed appends and settled classes make none)
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
    the head of the run. Returns the number of joins performed. At the
    order's own threshold the keys that reach tau are ``order.settled``,
    so only those are visited; after the round's last key lowered tau
    below it, every key is tested.
    """
    labels = order.order
    if tau == order.threshold:
        reaching = order.settled
    else:
        keys = order.keys
        reaching = [j for j in range(1, len(keys)) if keys[j] >= tau]
    last = None
    for j in reaching:
        if j - 1 != last:
            head = labels[j - 1]  # a new run
        partition.join(head, labels[j])
        last = j
    return len(reaching)


def _order_builder(config, oracle):
    """Validate `config` and return the order builder it runs on `oracle`.

    Without a forced builder a keyed oracle gets the queue builder and
    every other oracle the scan builder. An unknown queue kind is refused
    before a bucket queue on the scan builder.
    """
    if config.algorithm not in ("laxback", "maxback"):
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    builder = config.order_builder
    if builder is None:
        builder = "queue" if getattr(oracle, "keyed", False) else "scan"
    elif builder not in ("scan", "queue"):
        raise ValueError(f"unknown order builder {builder!r}")
    require_queue_kind(config.queue_kind)
    if builder == "scan" and config.queue_kind != "heap":
        raise ValueError(f"queue kind {config.queue_kind!r} needs the queue "
                         "order builder; the scan builder uses no queue")
    return builder


def optimal_set(oracle, n, config=None, observer=None):
    """Find a nontrivial S minimizing d(S, V\\S) for V = {0..n-1}.

    `oracle` provides lax evaluation of a monotone and consistent symmetric
    set function d. Returns (S, value, stats) with value = d(S, V\\S), the
    oracle's uncapped value of S, equal to the minimum over all nontrivial
    bipartitions; a NaN or infinite value raises a ValueError. An
    `observer` callable receives a RoundRecord after every round. A cut
    oracle's key tracker refuses an instance of other than n vertices;
    the scan path evaluates its cut function restricted to 0..n-1.
    """
    if n < 2:
        raise ValueError("need at least two elements")
    cfg = config or MinimizeConfig()
    builder = _order_builder(cfg, oracle)
    partition = Partition(n)
    stats = RunStats()
    universe = frozenset(range(n))
    tau = INF
    best = None

    if cfg.algorithm == "laxback":
        # one complement set serves every probe: O(deg v) each, not O(n);
        # each probe is capped at the best so far, since a singleton that
        # reaches it cannot replace it
        rest = set(universe)
        for v in range(n):
            rest.discard(v)
            val = finite_key(oracle.eval(frozenset((v,)), rest, tau), v)
            rest.add(v)
            if val < tau:
                tau = val
                best = frozenset((v,))
        stats.oracle_calls += n
        # the argmin singleton (lowest label on ties) witnesses tau, keeping
        # d(best, V \ best) == tau

    order = None
    # the partition changes only by a round's joins, so one snapshot per
    # round serves as its members_after and the next round's members_before
    members = partition.blocks() if observer is not None else None
    while partition.class_count >= 2:
        build_tau = INF if cfg.algorithm == "maxback" else tau
        if builder == "scan":
            order, ops = lax_back_order_scan(oracle, partition, build_tau)
            stats.oracle_calls += ops
        else:
            order, ops = lax_back_order_queue(
                oracle, partition, build_tau, cfg.queue_kind, previous=order)

        last_key = order.keys[-1]
        if last_key < tau:
            best = partition.member_set(order.order[-1])
            tau = last_key

        if cfg.algorithm == "maxback":
            partition.join(order.order[-2], order.order[-1])
            joins = 1
        else:
            # tau <= last_key, so at least the last pair contracts; a round
            # that joins nothing would repeat forever, so it can only be a bug
            joins = contract_round(partition, order, tau)
            if joins == 0:
                raise RuntimeError(f"round {stats.rounds + 1} joined nothing: tau {tau}, "
                                   f"last key {last_key}")

        stats.rounds += 1
        stats.joins_per_round.append(joins)
        stats.calls_per_order.append((len(order.order), ops))
        if observer is not None:
            members_before, members = members, partition.blocks()
            observer(RoundRecord(
                index=stats.rounds - 1,
                order=order,
                members_before=members_before,
                tau_after=tau,
                joins=joins,
                members_after=members,
            ))

    value = finite_key(oracle.eval(best, universe - best, INF), sorted(best),
                       "the returned set")
    stats.oracle_calls += 1
    return set(best), value, stats
