"""Builders for threshold-capped back orders over partition classes.

A back order with threshold tau lists the classes so that each one's capped
connection to the prefix before it dominates the capped connection of every
later class to that same prefix. With tau = INF this is the classic max-back
order; a finite tau lets a builder settle for "reached tau", which is
cheaper and can append several classes per scan.

Two builders are provided: a rescanning one driven purely by lax oracle
calls, and a queue-based one for oracles that can maintain prefix keys
incrementally, which can replay the unchanged prefix of its previous
round's order. Both start every order at the class holding element 0,
and both refuse a NaN or infinite key with ``values.finite_key``'s error:
the scan checks each oracle value, the queue builder each tracker key
that its one test, ``-INF < key < tau``, does not pass, before it settles
the class.
"""

from dataclasses import dataclass

from .queues import BucketQueue, HeapQueue
from .values import INF, finite_key

QUEUE_KINDS = ("heap", "bucket")  # the queue builder's priority queues


def require_queue_kind(kind):
    if kind not in QUEUE_KINDS:
        raise ValueError(f"unknown queue kind {kind!r}")


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
        if len(self.order) != len(self.keys):
            raise ValueError(f"{len(self.order)} classes but {len(self.keys)} keys")


def lax_back_order_scan(oracle, partition, tau=INF):
    """Build an order by rescanning the remaining classes each round.

    Any class whose capped value against the current prefix reaches tau is
    appended immediately (the prefix grows mid-scan, so later candidates
    see the enlarged prefix); if none reached tau, the class with the
    maximum value is appended after the scan, lowest label winning ties.

    Returns (order, eval_count); eval_count <= k(k-1)/2 for k classes.
    """
    classes = partition.classes()
    first = partition.class_of(0)
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


def replay_bounds(partition, previous, first):
    """The heads and the replay end for replaying `previous` on `partition`.

    `previous` is an order of this partition before its latest joins,
    starting at `first`. The labels those joins retired are the tail of
    ``partition.retired`` past the ``n - len(previous.order)`` retired when
    `previous` was built; the heads are the live classes now holding them,
    `first` excepted. Returns (heads, end): ``end`` is the first position
    in ``previous.order`` of a retired label or a head, or its length if
    there is none, so every class in ``previous.order[1:end]`` is live and
    the same set of elements as when `previous` was built. Costs the joins
    (each position found by ``tuple.index``), not the classes; an order
    that cannot be this partition's raises a ValueError.
    """
    order = previous.order
    joined = partition.retired[partition.n - len(order):]
    if partition.class_count + len(joined) != len(order):
        raise _foreign_previous()
    class_of = partition.class_of
    heads = {class_of(x) for x in joined}
    heads.discard(first)
    try:
        end = min(map(order.index, [*joined, *heads]), default=len(order))
    except ValueError:
        raise _foreign_previous() from None
    return heads, end


def _foreign_previous():
    return ValueError("previous is not an order of this partition before its latest joins")


def lax_back_order_queue(oracle, partition, tau=INF, queue_kind="heap", *, previous=None):
    """Build an order with a max-queue and incremental keys.

    Needs a keyed oracle. This builder is the only place that decides
    "reached tau" (Rizzi's lax rule: such a class is as good as the
    maximum). It appends a class with the tracker's ``advance`` and settles
    one with its ``pop``. A class settles when its key reaches tau and goes
    onto a ready list; every ready class is appended, with key tau, before
    the queue is asked for anything. The queue is not told; a class it
    returns after it settled is skipped. The other classes sit in the queue
    keyed by their exact value against the prefix, always below tau, and
    each append bumps the keys the tracker reports as changed. Both queues
    are exact max-queues (lowest label on ties), so every run of keys at or
    above tau closes over the same classes as an order that appends a class
    of maximum key at each step; only the order inside such a run is the
    builder's own. Every reported key is tested once, ``-INF < key < tau``;
    only one that fails is tested finite, ``values.finite_key`` raising if
    it is not, and then settled.

    `previous` is the order this builder made in the round before, on the
    same partition before that round's joins. When it starts at the same
    class and was built with a threshold of at least tau, its prefix is
    replayed without a queue. :func:`replay_bounds` reads the heads, the
    live classes that absorbed a class of `previous` in the joins (the
    first class excepted), and the replay end, the first position of a head
    or of a class joined away, from the partition's retired-label log. The
    replay walks ``previous.order[1:end]`` and appends each class whose
    tracker key k is below tau and whose ``(k, -label)`` beats every
    head's; it stops at the end, at the first class that fails the test,
    and after the first append that settles a class. The queue is then
    built from the keys left.

    The result is the order a build without `previous` returns. A class
    that is neither a head nor joined away is the same set of elements as
    before, and the replayed prefix is the same set too, so its key is the
    one it had at this step of the previous build, where it beat every
    other class by ``(key, -label)``: both queues rank that way. So the
    replayed prefix and its keys are slices of ``previous``. Only the
    heads' keys differ, and the test checks those. The tracker makes the
    same ``pop`` and ``advance`` calls in the same order, and every
    reported key gets the same non-finite and settle tests. The bucket
    queue never sees a replayed key, but the same key of the same class was
    in its queue the round before, below a threshold at least as high.

    Returns (order, update_count) where update_count is the number of
    update_key operations performed: replayed appends and settled classes
    make none.
    """
    if not getattr(oracle, "keyed", False):
        raise TypeError("queue builder needs an oracle with incremental key support")
    require_queue_kind(queue_kind)
    first = partition.class_of(0)
    tracker = oracle.key_tracker(partition, first)
    remaining = tracker.keys
    pop, advance = tracker.pop, tracker.advance
    ready = []
    for c, key in remaining.items():
        if not -INF < key < tau:
            if not -INF < key < INF:
                finite_key(key, c)
            ready.append(c)
    for c in ready:
        pop(c)
    order = [first]
    keys = [INF]
    if (not ready and previous is not None and previous.order[0] == first
            and previous.threshold >= tau):
        # nothing is appended or settled yet: `remaining` holds every live
        # class but the first, and from here on only keys below tau
        heads, stop = replay_bounds(partition, previous, first)
        # the best head by (key, -label); every key is finite, so any beats -INF
        best_key, best_head = -INF, 0
        for h in heads:
            k = remaining[h]
            if k > best_key or (k == best_key and h < best_head):
                best_key, best_head = k, h
        end = 1
        for v in previous.order[1:stop]:
            try:
                k = remaining[v]
            except KeyError:
                raise _foreign_previous() from None
            if k < best_key or (k == best_key and v > best_head):
                break
            end += 1
            for c, key in advance(v).items():
                if -INF < key < tau:
                    if c in heads and (key > best_key or (key == best_key and c < best_head)):
                        best_key, best_head = key, c
                else:
                    if not -INF < key < INF:
                        finite_key(key, c)
                    pop(c)
                    ready.append(c)
            if ready:
                break
        order += previous.order[1:end]
        keys += previous.keys[1:end]
    # the keys, all tested finite, go in positionally, so a queue subclass
    # whose constructor takes *args only still gets them; the bucket queue
    # refuses a threshold or key it cannot hold itself
    if queue_kind == "heap":
        queue = HeapQueue(remaining)
    else:
        queue = BucketQueue(tau, remaining)
    del_max, update_key = queue.del_max, queue.update_key
    updates = 0
    while ready or remaining:
        if ready:
            v, k = ready.pop(), tau
        else:
            v, k = del_max()
            if v not in remaining:
                continue  # settled after it was queued
        order.append(v)
        keys.append(k)
        for c, key in advance(v).items():
            if -INF < key < tau:
                update_key(c, key)
                updates += 1
            else:
                if not -INF < key < INF:
                    finite_key(key, c)
                pop(c)
                ready.append(c)
    return LaxBackOrder(tuple(order), tuple(keys), tau), updates
