"""Builders for threshold-capped back orders over partition classes.

A back order with threshold tau lists the classes so that each one's capped
connection to the prefix before it dominates the capped connection of every
later class to that same prefix. With tau = INF this is the classic max-back
order; a finite tau lets a builder settle for "reached tau", which is
cheaper and can append several classes per scan.

Two builders are provided: a rescanning one driven purely by lax oracle
calls, and a queue-based one for oracles that can maintain prefix keys
incrementally. Both refuse a NaN or infinite key with
``values.finite_key``'s error: the scan checks each oracle value, the
queue builder each tracker key before its queue sees it.
"""

from dataclasses import dataclass

from .queues import BucketQueue, HeapQueue
from .values import INF, finite_key


@dataclass(frozen=True)
class LaxBackOrder:
    """An order over class labels plus the key each class was appended with.

    ``keys[i]`` is min(threshold, d(class_i, everything before it)); the
    first key is the INF sentinel, so a leading run of threshold-reaching
    keys always chains back to the first class.
    """

    order: tuple
    keys: tuple
    threshold: object

    def __post_init__(self):
        assert len(self.order) == len(self.keys)


def lax_back_order_scan(oracle, partition, tau=INF, first=None):
    """Build an order by rescanning the remaining classes each round.

    Any class whose capped value against the current prefix reaches tau is
    appended immediately (the prefix grows mid-scan, so later candidates
    see the enlarged prefix); if none reached tau, the class with the
    maximum value is appended after the scan, lowest label winning ties.

    Returns (order, eval_count); eval_count <= k(k-1)/2 for k classes.
    """
    classes = partition.classes()
    if first is None:
        first = classes[0]
    if first not in partition:
        raise ValueError(f"unknown class {first}")
    blocks = {c: partition.member_set(c) for c in classes}
    order = [first]
    keys = [INF]
    prefix = set(blocks[first])
    remaining = [c for c in classes if c != first]
    calls = 0
    while remaining:
        reached = False
        best = None
        best_val = None
        for c in list(remaining):
            val = finite_key(oracle.eval(blocks[c], prefix, tau), c)
            calls += 1
            if val >= tau:
                order.append(c)
                keys.append(val)
                prefix |= blocks[c]
                remaining.remove(c)
                reached = True
            elif not reached and (best_val is None or val > best_val):
                best_val = val
                best = c
        if not reached:
            order.append(best)
            keys.append(best_val)
            prefix |= blocks[best]
            remaining.remove(best)
    return LaxBackOrder(tuple(order), tuple(keys), tau), calls


def lax_back_order_queue(oracle, partition, tau=INF, first=None, queue_kind="heap"):
    """Build an order with a thresholded queue and incremental keys.

    Needs a keyed oracle. The remaining classes sit in the queue keyed by
    their exact value against the prefix; extraction follows the relaxed
    rule (anything at or above tau is as good as the maximum), and each
    append bumps the keys the oracle reports as changed.

    Returns (order, update_count) where update_count is the number of
    update_key operations performed.
    """
    if not getattr(oracle, "keyed", False):
        raise TypeError("queue builder needs an oracle with incremental key support")
    if first is None:
        first = partition.classes()[0]
    elif first not in partition:
        raise ValueError(f"unknown class {first}")
    tracker = oracle.key_tracker(partition, first)
    start = tracker.keys
    for c, key in start.items():
        if not -INF < key < INF:
            finite_key(key, c)
    queue = _make_queue(queue_kind, tau, oracle, start)
    del_max, update_key = queue.del_max, queue.update_key
    pop, advance = tracker.pop, tracker.advance
    order = [first]
    keys = [INF]
    updates = 0
    for _ in range(len(start)):
        v, k = del_max()
        order.append(v)
        keys.append(k if k < tau else tau)
        pop(v)
        changed = advance(v)
        for c, key in changed.items():
            if not -INF < key < INF:
                finite_key(key, c)
            update_key(c, key)
        updates += len(changed)
    return LaxBackOrder(tuple(order), tuple(keys), tau), updates


def _make_queue(kind, tau, oracle, keys):
    """A queue of `kind` built from the starting `keys`, already tested finite.

    The keys go in positionally, so a queue subclass whose constructor
    takes ``*args`` only still receives them.
    """
    if kind == "heap":
        return HeapQueue(keys)
    if kind == "bucket":
        bound = getattr(oracle, "value_bound", None)
        if bound is None:
            raise ValueError(
                "bucket queue requires an integer-valued oracle with a declared value bound")
        return BucketQueue(tau, bound, keys)
    raise ValueError(f"unknown queue kind {kind!r}")
