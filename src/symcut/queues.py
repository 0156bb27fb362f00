"""Max-priority queues with a relaxed extraction rule.

``del_max`` may remove *any* entry whose key reaches ``min(tau, max key)``:
entries at or above the threshold are interchangeable, only below it must
the true maximum be produced. Keys never decrease while a queue is live,
which is what lets the bucket variant organize its work around a moving
level pointer.
"""

import heapq

from .values import INF


class HeapQueue:
    """Lazy max-heap; takes no threshold and always returns the true maximum.

    A true maximum trivially satisfies the relaxed rule. Ties break toward
    the lowest index. Updates push a fresh heap entry; stale ones are
    skipped on extraction.
    """

    def __init__(self):
        self._heap = []
        self._key = {}

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
        if v not in self._key:
            raise ValueError(f"no entry {v}")
        if key < self._key[v]:
            raise ValueError(f"key of {v} may not decrease ({self._key[v]} -> {key})")
        if key == self._key[v]:
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

    Keys are stored clamped at tau: every key at or above the threshold
    lands in the top bucket, which is drained first (any such entry
    satisfies the relaxed rule, lowest index wins). Below the threshold a
    moving pointer tracks the highest occupied bucket; key updates can only
    push it up (an O(1) jump), ``del_max`` walks it down lazily.
    ``scan_steps`` counts downward steps and ``raise_steps`` upward pointer
    movement, for instrumentation.

    This is the paper's integer-key device, kept as a reference
    implementation: on the benchmark's library workloads it is slower than
    :class:`HeapQueue` (see ``perfbench/README.md``).

    It allocates one bucket per level up to ``min(tau, bound)`` and refuses
    a top level above ``MAX_TOP`` before allocating anything: with tau =
    INF the bound is the instance's total weight, which can be far larger
    than memory.
    """

    MAX_TOP = 1 << 20

    def __init__(self, tau, bound):
        if bound is None or bound != int(bound) or bound < 0:
            raise ValueError("bucket queue needs a finite nonnegative integer key bound")
        if tau != INF and (tau != int(tau) or tau < 0):
            raise ValueError("bucket queue needs a nonnegative integer threshold")
        self.tau = tau
        self._top = int(bound) if tau == INF else min(int(tau), int(bound))
        if self._top > self.MAX_TOP:
            raise ValueError(f"bucket queue key bound {self._top} is above its limit "
                             f"{self.MAX_TOP}; use the heap queue")
        self._buckets = [set() for _ in range(self._top + 1)]
        self._level = {}   # v -> clamped key (== its bucket level)
        self._exact = {}   # v -> last exact key, for the monotone-update check
        self._cur = 0
        self.scan_steps = 0
        self.raise_steps = 0

    def __len__(self):
        return len(self._level)

    def __contains__(self, v):
        return v in self._level

    def _bucket_of(self, key):
        if key != int(key):
            raise ValueError(f"bucket queue keys must be integers, got {key!r}")
        if key < 0:
            raise ValueError(f"bucket queue keys must be nonnegative, got {key}")
        k = int(key)
        if self.tau != INF and k >= self.tau:
            k = int(self.tau)  # clamped storage at the threshold
        if k > self._top:
            raise ValueError(f"key {key} exceeds declared key bound {self._top}")
        return k

    def _point_at(self, level):
        if level > self._cur:
            self.raise_steps += level - self._cur
            self._cur = level

    def insert(self, v, key):
        if v in self._level:
            raise ValueError(f"duplicate entry {v}")
        lvl = self._bucket_of(key)
        self._buckets[lvl].add(v)
        self._level[v] = lvl
        self._exact[v] = key
        self._point_at(lvl)

    def update_key(self, v, key):
        if v not in self._level:
            raise ValueError(f"no entry {v}")
        if key < self._exact[v]:
            raise ValueError(f"key of {v} may not decrease ({self._exact[v]} -> {key})")
        self._exact[v] = key
        lvl = self._bucket_of(key)
        old = self._level[v]
        if lvl != old:
            self._buckets[old].discard(v)
            self._buckets[lvl].add(v)
            self._level[v] = lvl
            self._point_at(lvl)

    def del_max(self):
        if not self._level:
            raise IndexError("del_max on empty queue")
        while not self._buckets[self._cur]:
            self._cur -= 1
            self.scan_steps += 1
        v = min(self._buckets[self._cur])
        self._buckets[self._cur].discard(v)
        del self._level[v]
        del self._exact[v]
        return v, self._cur
