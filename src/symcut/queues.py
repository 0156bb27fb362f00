"""Max-priority queues with a relaxed extraction rule.

``del_max`` may remove *any* entry whose key reaches ``min(tau, max key)``:
entries at or above the threshold are interchangeable, only below it must
the true maximum be produced. Keys never decrease while a queue is live,
which is what lets the bucket variant organize its work around a moving
level pointer.

Both queues are built from a mapping {label: key} of starting keys in one
call, so an order's first k entries cost no per-entry ``insert``.
"""

import heapq

from .values import INF


class HeapQueue:
    """Lazy max-heap; takes no threshold and always returns the true maximum.

    A true maximum trivially satisfies the relaxed rule. Ties break toward
    the lowest index. The starting keys are heapified; updates push a fresh
    heap entry, and stale ones are skipped on extraction.
    """

    def __init__(self, keys=()):
        self._key = dict(keys)
        self._heap = [(-key, v) for v, key in self._key.items()]
        heapq.heapify(self._heap)

    def __len__(self):
        return len(self._key)

    def __contains__(self, v):
        return v in self._key

    def insert(self, v, key):
        if v in self._key:
            raise ValueError(f"duplicate entry {v}")
        self._key[v] = key
        heapq.heappush(self._heap, (-key, v))

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

    Each entry sits in the bucket of its key clamped at tau: every key at
    or above the threshold lands in the top bucket, which is drained first
    (any such entry satisfies the relaxed rule, lowest index wins). Only
    the exact key is stored; the level is derived from it. Below the
    threshold a moving pointer tracks the highest occupied bucket; key
    updates can only push it up (an O(1) jump), ``del_max`` walks it down
    lazily. ``scan_steps`` counts downward steps and ``raise_steps`` upward
    pointer movement from level 0, for instrumentation.

    This is the paper's integer-key device. Levels are allocated on demand,
    up to the highest level a key has reached, so an order pays for the
    keys it holds, not for the instance's total weight. On the benchmark's
    library workloads it beats :class:`HeapQueue` where keys change many
    times before extraction (the heap piles up stale entries) and loses
    where they change about once (figures in the README). It refuses a
    top level ``min(tau, bound)`` above ``MAX_TOP`` before allocating
    anything: a key may reach that level, and with tau = INF the bound is
    the instance's total weight, which can be far larger than memory.
    """

    MAX_TOP = 1 << 20

    def __init__(self, tau, bound, keys=()):
        if bound is None or not 0 <= bound < INF or bound != int(bound):
            raise ValueError("bucket queue needs a finite nonnegative integer key bound")
        if tau != INF and (tau != int(tau) or tau < 0):
            raise ValueError("bucket queue needs a nonnegative integer threshold")
        self.tau = tau
        self._top = int(bound) if tau == INF else min(int(tau), int(bound))
        if self._top > self.MAX_TOP:
            raise ValueError(f"bucket queue key bound {self._top} is above its limit "
                             f"{self.MAX_TOP}; use the heap queue")
        self._key = dict(keys)   # v -> exact key; its bucket is min(key, tau)
        levels = [self._bucket_of(key) for key in self._key.values()]
        self._cur = self.raise_steps = max(levels, default=0)
        self.scan_steps = 0
        self._buckets = buckets = [set() for _ in range(self._cur + 1)]
        for v, level in zip(self._key, levels):
            buckets[level].add(v)

    def __len__(self):
        return len(self._key)

    def __contains__(self, v):
        return v in self._key

    def _bucket_of(self, key):
        if key != int(key):
            raise ValueError(f"bucket queue keys must be integers, got {key!r}")
        if key < 0:
            raise ValueError(f"bucket queue keys must be nonnegative, got {key}")
        level = int(key) if key < self.tau else int(self.tau)
        if level > self._top:
            raise ValueError(f"key {key} exceeds declared key bound {self._top}")
        return level

    def _place(self, v, level):
        buckets = self._buckets
        if level >= len(buckets):
            buckets.extend([set() for _ in range(level + 1 - len(buckets))])
        buckets[level].add(v)
        if level > self._cur:
            self.raise_steps += level - self._cur
            self._cur = level

    def insert(self, v, key):
        if v in self._key:
            raise ValueError(f"duplicate entry {v}")
        self._place(v, self._bucket_of(key))
        self._key[v] = key

    def update_key(self, v, key):
        try:
            old = self._key[v]
        except KeyError:
            raise ValueError(f"no entry {v}") from None
        if key < old:
            raise ValueError(f"key of {v} may not decrease ({old} -> {key})")
        level = self._bucket_of(key)
        self._key[v] = key
        # an integer key that grows below tau always changes level; at or
        # above tau the entry stays in the top bucket
        if key != old and old < self.tau:
            self._buckets[int(old)].remove(v)
            self._place(v, level)

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
