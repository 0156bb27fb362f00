"""Builders for threshold-capped back orders over partition classes.

A back order with threshold tau lists the classes so that each one's capped
connection to the prefix before it dominates the capped connection of every
later class to that same prefix. With tau = INF this is the classic max-back
order; a finite tau lets a builder settle for "reached tau", which is
cheaper and can append several classes per scan.

Two builders are provided: a rescanning one driven purely by lax oracle
calls, and a queue-based one for keyed oracles, which also replays the
unchanged prefix of its previous round's order by resuming its key
tracker from that order (:func:`replayed_prefix`). Both start every order at
the class holding element 0, and both refuse a NaN or infinite key with
``values.finite_key``'s error.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

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

    An order also carries three facts about itself that take no part in
    == or repr: :attr:`position`, :attr:`settled` and :meth:`made_for`.
    The queue builder records what it knows of them as it builds; for any
    other order the first two are computed on first use, and ``made_for``
    is false.
    """

    order: tuple
    keys: tuple
    threshold: object

    _made_for = None  # the queue builder's oracle and weak reference to its partition

    def __post_init__(self):
        if len(self.order) != len(self.keys):
            raise ValueError(f"{len(self.order)} classes but {len(self.keys)} keys")

    @cached_property
    def position(self):
        """{label: its index in ``order``}; a repeated label keeps its last index."""
        return dict(zip(self.order, range(len(self.order))))

    @cached_property
    def settled(self):
        """The positions past the first whose key reaches the threshold, ascending.

        For a queue-built order these are its ready appends.
        """
        keys, tau = self.keys, self.threshold
        return tuple(j for j in range(1, len(keys)) if keys[j] >= tau)

    def made_for(self, oracle, partition):
        """Whether the queue builder made this order for this very `oracle` and `partition`."""
        made = self._made_for
        return made is not None and made[0] is oracle and made[1]() is partition

    def __reduce__(self):
        # a copy or an unpickled order keeps the fields only: the weak
        # reference cannot be pickled, and the rest is computed again
        return LaxBackOrder, (self.order, self.keys, self.threshold)


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


def replay_bounds(partition, previous):
    """The heads, replay end and joined labels for replaying `previous` on `partition`.

    `previous` is an order of this partition before its latest joins; the
    labels those joins retired are
    ``partition.retired_since(len(previous.order))``. The heads are the live
    classes now holding them, the class of 0 included. Returns
    (heads, end, joined): ``joined`` is the set of retired labels, and
    ``end`` is the first position of a retired label or a head, or the
    order's length if there is none, so every class in
    ``previous.order[:end]`` is live and the same set of elements as when
    `previous` was built. Costs one lookup per joined label and head.
    """
    order = previous.order
    position = previous.position
    class_of = partition.class_of
    joined = set(partition.retired_since(len(order)))
    heads = {class_of(x) for x in joined}
    end = min([position[x] for x in (*joined, *heads)], default=len(order))
    return heads, end, joined


def replayed_prefix(partition, previous, weights):
    """How much of `previous` a key tracker resumed from it on `partition` replays.

    The replay rule, one home for both key trackers. `previous` is an
    order the queue builder made for this oracle on this partition before
    its latest joins, whatever they were, with the threshold tau of
    the build at hand: :func:`lax_back_order_queue` hands on no other, and
    the rule trusts it, so every live class is in the order once.
    ``weights(c, position, limit)`` lists how class c's key grows along
    ``previous.order[:limit]``: one ``(p, tie, w)`` triple per weight w
    that the advance of the class at position p would add to it, sorted,
    so that summing the w from 0 gives c's key exactly as a tracker
    advanced along the prefix does.

    The replay ends at the first of these steps, where step j has appended
    ``previous.order[:j]``:

    * the step where a class the joins left alone settles, its key
      reaching tau. It settles where it settled in `previous`, so at
      ``previous.settled[0]`` if that comes before ``stop``;
    * the step whose next class, ``previous.order[j]``, fails to beat the
      best head by ``(key, -label)``. Its key is ``previous.keys[j]``, and
      the best head changes only at a head's steps, so the test runs once
      per stretch between them, as a ``min`` over a slice of
      ``previous.keys``; only a stretch whose minimum is at most the best
      head's key is walked, to its first losing class. A head that
      settles holds a key of at least tau, above every replayed key, so
      the test also ends the replay where a head settles;
    * ``stop``, the end :func:`replay_bounds` finds, 0 after a join on the class of 0.

    The replayed prefix and its keys are slices of `previous`, as a build
    from scratch would make them. A class that is neither a head nor
    joined away is the same set of elements as before, and the replayed
    prefix is the same set too, so its key is the one it had at this step
    of the previous build, where it beat every other class by ``(key,
    -label)``: both queues rank that way. Only the heads' keys differ, and
    the rule tests those.

    Returns (end, rest): ``previous.order[:end]`` is the replayed prefix,
    and ``rest`` lists the live classes outside all but its last class,
    ``previous.order[end - 1:]`` less the labels the joins retired, as
    :func:`replay_bounds` found them. A tracker resumes with the prefix
    but its last class appended and sums the keys of ``rest``: the rule
    makes that class's key the largest by ``(key, -label)`` at step
    ``end - 1`` and keeps every key there below tau, so the builder's
    queue returns it next and the builder alone settles what its advance
    reports. Past the map lookups, a replay costs the ``min`` over the
    prefix keys and the heads' and ``rest``'s weights, not a pass of Python
    code over every class.
    """
    order, keys, position = previous.order, previous.keys, previous.position
    heads, stop, joined = replay_bounds(partition, previous)
    settled = previous.settled
    if settled and settled[0] < stop:
        stop = settled[0]
    if stop <= 1:
        return 1, None
    steps = []  # (position, head, the head's key once that position is appended)
    for h in heads:
        key = 0
        for p, _, w in weights(h, position, stop):
            key += w
            steps.append((p, h, key))
    steps.sort()
    # before its steps every head's key is 0; with no heads any key beats -INF
    best_key, best_head = (0, min(heads)) if heads else (-INF, 0)

    def failing(lo, hi):
        """The first j in lo..hi-1 where order[j] loses to the best head, or None."""
        if min(keys[lo:hi], default=INF) <= best_key:  # some j here may lose
            for j in range(lo, hi):
                k = keys[j]
                if k < best_key or (k == best_key and order[j] > best_head):
                    return j
        return None

    j = 1
    for p, h, key in steps:
        end = failing(j, p + 1)
        if end is not None:
            break
        j = p + 1
        if key > best_key or (key == best_key and h < best_head):
            best_key, best_head = key, h
    else:
        end = failing(j, stop)
        if end is None:
            end = stop
    return end, [c for c in order[end - 1:] if c not in joined]


def lax_back_order_queue(oracle, partition, tau=INF, queue_kind="heap", *, previous=None):
    """Build an order with a max-queue and incremental keys.

    Needs a keyed oracle, whose tracker appends and settles classes as
    :class:`symcut.oracles._KeyTracker` says. This builder is the only
    place that decides "reached tau" (Rizzi's lax rule: such a class is as
    good as the maximum). A class settles when its key reaches tau and goes
    onto a ready list; every ready class is appended, with key tau, before
    the queue is asked for anything. The queue is not told; a class it
    returns after it settled is skipped. The other classes sit in the queue
    keyed by their exact value against the prefix, always below tau. Both
    queues are exact max-queues (lowest label on ties), so every run of
    keys at or above tau closes over the same classes as an order that
    appends a class of maximum key at each step; only the order inside
    such a run is the builder's own. Every reported key is tested once,
    ``-INF < key < tau``; only one that fails is tested finite,
    ``values.finite_key`` raising if it is not, and then settled.

    Replay. `previous` is a hint, the order this builder made in the round
    before, for the same oracle on the same partition before that round's
    joins. When it is that (:meth:`LaxBackOrder.made_for`), whatever the
    joins, and was built with the same threshold tau, the tracker is
    made from it, ``oracle.key_tracker(partition, previous)``, and may
    resume with the part of ``previous.order`` that :func:`replayed_prefix`
    replays, all but its last class, already appended; the result is still
    the order a build without `previous` returns. The builder reads that
    prefix's length off the tracker, as the classes missing from its keys,
    and copies the prefix and its keys from `previous`. The replayed
    prefix's last class is then the queue's maximum, so it is appended
    next, and its advance reports and settles through the loop below like
    every other step's. The bucket queue never sees a replayed key, but
    the same key of the same class was in its queue the round before,
    below the same threshold. Any other `previous`, made by hand, copied,
    unpickled, or made for another oracle or partition, is ignored and the
    build runs from scratch, as it does after a change of threshold:
    nothing ties its keys to this build.

    The order records what the build knew (:class:`LaxBackOrder`): its
    ready appends as ``settled``, the oracle and partition it was made
    for, and, on a resumed build, ``position``: ``previous.position`` less
    the labels the latest joins retired, with the classes appended after
    the prefix written in. A build from scratch leaves ``position`` to be
    computed when a replay first reads it.

    Returns (order, update_count) where update_count is the number of
    update_key operations performed: replayed appends and settled classes
    make none.
    """
    if not getattr(oracle, "keyed", False):
        raise TypeError("queue builder needs an oracle with incremental key support")
    require_queue_kind(queue_kind)
    first = partition.class_of(0)
    if (previous is not None and previous.made_for(oracle, partition)
            and previous.threshold == tau):
        tracker = oracle.key_tracker(partition, previous)
    else:
        tracker = oracle.key_tracker(partition, first)
    remaining = tracker.keys
    pop, advance = tracker.pop, tracker.advance
    order = [first]
    keys = [INF]
    end = partition.class_count - len(remaining)  # the resumed prefix's length
    if end > 1:
        order += previous.order[1:end]
        keys += previous.keys[1:end]
    ready = []
    for c, key in remaining.items():
        if not -INF < key < tau:
            if not -INF < key < INF:
                finite_key(key, c)
            ready.append(c)
    for c in ready:
        pop(c)
    # the keys, all tested finite, go in positionally, so a queue subclass
    # whose constructor takes *args only still gets them; the bucket queue
    # refuses a threshold or key it cannot hold itself
    if queue_kind == "heap":
        queue = HeapQueue(remaining)
    else:
        queue = BucketQueue(tau, remaining)
    del_max, update_key = queue.del_max, queue.update_key
    updates = 0
    settled = []  # the positions of the ready appends
    while ready or remaining:
        if ready:
            v, k = ready.pop(), tau
            settled.append(len(order))
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
    made = LaxBackOrder(tuple(order), tuple(keys), tau)
    known = vars(made)  # what the build knew, read by the next round's replay
    known["settled"] = tuple(settled)
    known["_made_for"] = oracle, weakref.ref(partition)
    if end > 1:
        position = previous.position.copy()
        for x in partition.retired_since(len(previous.order)):
            del position[x]
        position.update(zip(order[end:], range(end, len(order))))
        known["position"] = position
    return made, updates
