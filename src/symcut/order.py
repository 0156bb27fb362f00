"""Builders for threshold-capped back orders over partition classes.

A back order with threshold tau lists the classes so that each one's capped
connection to the prefix before it dominates the capped connection of every
later class to that same prefix. With tau = INF this is the classic max-back
order; a finite tau lets a builder settle for "reached tau", which is
cheaper and can append several classes per scan.

Two builders are provided: a rescanning one driven purely by lax oracle
calls, and a queue-based one for oracles that can maintain prefix keys
incrementally, which can replay the unchanged prefix of its previous
round's order. Both refuse a NaN or infinite key with
``values.finite_key``'s error: the scan checks each oracle value, the
queue builder each tracker key before its replay or its queue reads it.
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


def lax_back_order_queue(oracle, partition, tau=INF, first=None, queue_kind="heap",
                         *, previous=None):
    """Build an order with a thresholded queue and incremental keys.

    Needs a keyed oracle. The remaining classes sit in the queue keyed by
    their exact value against the prefix; extraction follows the relaxed
    rule (anything at or above tau is as good as the maximum), and each
    append bumps the keys the oracle reports as changed.

    `previous` is the order this builder made in the round before, on the
    same partition before that round's joins. When it starts at the same
    class and was built with a threshold of at least tau, its prefix is
    replayed without a queue. The heads are the live classes that absorbed
    a class of `previous` in the joins (the first class excepted). The
    replay walks ``previous.order[1:]`` and appends each class whose tracker
    key k is below tau and whose ``(k, -label)`` beats every head's; it
    stops at the first head, the first class no longer live or the first
    class that fails the test. The queue is then built from the keys left.

    The result is the order a build without `previous` returns. A class
    that is neither a head nor joined away is the same set of elements as
    before, and the replayed prefix is the same set too, so its key is the
    one it had at this step of the previous build, where it beat every
    other class by ``(key, -label)``: below the previous threshold the heap
    (true maximum, lowest label) and the bucket queue (highest level,
    lowest label) both rank that way. Only the heads' keys differ, and the
    test checks those. The tracker makes the same ``pop`` and ``advance``
    calls in the same order, and every reported key gets the same
    non-finite test. The bucket queue never sees a replayed key, but the
    same key of the same class was in its queue the round before, under a
    threshold at least as high.

    Returns (order, update_count) where update_count is the number of
    update_key operations performed; replayed appends make none.
    """
    if not getattr(oracle, "keyed", False):
        raise TypeError("queue builder needs an oracle with incremental key support")
    if first is None:
        first = partition.classes()[0]
    elif first not in partition:
        raise ValueError(f"unknown class {first}")
    tracker = oracle.key_tracker(partition, first)
    remaining = tracker.keys
    for c, key in remaining.items():
        if not -INF < key < INF:
            finite_key(key, c)
    pop, advance = tracker.pop, tracker.advance
    order = [first]
    keys = [INF]
    if previous is not None and previous.order[0] == first and previous.threshold >= tau:
        # nothing is popped yet: `remaining` holds every live class but the first
        class_of = partition.class_of
        heads = {class_of(x) for x in previous.order[1:] if x not in remaining}
        heads.discard(first)
        best = max(((remaining[h], -h) for h in heads), default=(-INF, 0))
        for v in previous.order[1:]:
            if v in heads or v not in remaining:
                break
            k = remaining[v]
            if not (k < tau and (k, -v) > best):
                break
            order.append(v)
            keys.append(k)
            pop(v)
            for c, key in advance(v).items():
                if not -INF < key < INF:
                    finite_key(key, c)
                if c in heads and (key, -c) > best:
                    best = (key, -c)
    queue = _make_queue(queue_kind, tau, oracle, remaining)
    del_max, update_key = queue.del_max, queue.update_key
    updates = 0
    for _ in range(len(remaining)):
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
    takes ``*args`` only still receives them. The bucket queue gets the
    oracle's ``value_bound`` unchecked (None if undeclared): it refuses it.
    """
    if kind == "heap":
        return HeapQueue(keys)
    if kind == "bucket":
        return BucketQueue(tau, getattr(oracle, "value_bound", None), keys)
    raise ValueError(f"unknown queue kind {kind!r}")
