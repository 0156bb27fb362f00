"""Exact max-priority queues for the queue order builder.

``del_max`` removes the entry with the largest key, ties going to the
lowest label. Keys never decrease while a queue is live, which is what
lets the bucket variant organize its work around a moving level pointer.
The builder settles every class whose key reaches its threshold tau
before a queue could see the key, so a queue only ever holds keys below
tau: the heap needs no rule for the keys above, and the bucket queue
refuses them with the rest of what it cannot hold.

Both queues are built from a mapping {label: key} of starting keys in one
call; after that only ``update_key`` and ``del_max`` change them.
"""

import heapq

from .values import INF


class HeapQueue:
    """Lazy max-heap.

    The starting keys are heapified; updates push a fresh heap entry, and
    stale ones are skipped on extraction.
    """

    def __init__(self, keys):
        self._key = dict(keys)
        self._heap = [(-key, v) for v, key in self._key.items()]
        heapq.heapify(self._heap)

    def update_key(self, v, key):
        try:
            old = self._key[v]
        except KeyError:
            raise ValueError(f"no entry {v}") from None
        if key <= old:
            if key < old:
                raise ValueError(f"key of {v} may not decrease ({old} -> {key})")
            return
        self._key[v] = key
        heapq.heappush(self._heap, (-key, v))

    def del_max(self):
        while self._heap:
            negk, v = heapq.heappop(self._heap)
            if self._key.get(v) == -negk:
                del self._key[v]
                return v, -negk
        raise IndexError("del_max on empty queue")


class BucketQueue:
    """Array-of-buckets queue for nonnegative integer keys.

    Each entry sits in the bucket of its key. A moving pointer tracks the
    highest occupied bucket: key updates can only push it up (an O(1)
    jump), ``del_max`` walks it down lazily. ``scan_steps`` counts
    downward steps and ``raise_steps`` upward pointer movement from level
    0, for instrumentation.

    This is the paper's integer-key device. Levels are allocated on demand,
    up to the highest level a key has reached, so an order pays for the
    keys it holds. On the benchmark's library workloads it loses to
    :class:`HeapQueue` (figures in the README).

    The queue judges its own input, so an oracle declares nothing for it.
    The threshold `tau` must be INF or an int from 0 to ``MAX_TOP``,
    checked before anything is allocated. Every key, at the start or by
    ``update_key``, must be an int from 0 to ``min(tau, MAX_TOP)``, checked
    before its level is allocated: a float instance is refused at its first
    float key or threshold, and under tau = INF a key past ``MAX_TOP``
    would otherwise allocate a level per unit of it.
    """

    MAX_TOP = 1 << 20

    def __init__(self, tau, keys=()):
        if tau == INF:
            self._top = self.MAX_TOP
            self._limit = f"the bucket queue's limit {self.MAX_TOP}; use the heap queue"
        elif not isinstance(tau, int) or tau < 0:
            raise ValueError(f"bucket queue needs a threshold of INF or a nonnegative "
                             f"int, got {tau!r}; use the heap queue")
        elif tau > self.MAX_TOP:
            raise ValueError(f"bucket queue threshold {tau} is above its limit "
                             f"{self.MAX_TOP}; use the heap queue")
        else:
            self._top, self._limit = tau, f"the build's threshold tau {tau}"
        self._key = dict(keys)   # v -> key, which is also its level
        levels = [self._level(key) for key in self._key.values()]
        self._cur = self.raise_steps = max(levels, default=0)
        self.scan_steps = 0
        self._buckets = buckets = [set() for _ in range(self._cur + 1)]
        for v, level in zip(self._key, levels):
            buckets[level].add(v)

    def _level(self, key):
        if not isinstance(key, int):
            raise ValueError(f"bucket queue keys must be ints, got {key!r}; "
                             "use the heap queue")
        if key < 0:
            raise ValueError(f"bucket queue keys must be nonnegative, got {key}")
        if key > self._top:
            raise ValueError(f"key {key} exceeds {self._limit}")
        return key

    def update_key(self, v, key):
        try:
            old = self._key[v]
        except KeyError:
            raise ValueError(f"no entry {v}") from None
        if key < old:
            raise ValueError(f"key of {v} may not decrease ({old} -> {key})")
        level = self._level(key)
        self._key[v] = key
        if key != old:
            buckets = self._buckets
            buckets[old].remove(v)
            if level >= len(buckets):
                buckets.extend([set() for _ in range(level + 1 - len(buckets))])
            buckets[level].add(v)
            if level > self._cur:
                self.raise_steps += level - self._cur
                self._cur = level

    def del_max(self):
        if not self._key:
            raise IndexError("del_max on empty queue")
        buckets = self._buckets
        level = self._cur
        while not buckets[level]:
            level -= 1
        self.scan_steps += self._cur - level
        self._cur = level
        bucket = buckets[level]
        v = min(bucket)
        bucket.remove(v)
        del self._key[v]
        return v, level
