"""Exact max-priority queues for the queue order builder.

``del_max`` removes the entry with the largest key, ties going to the
lowest label. Keys never decrease while a queue is live, which is what
lets the bucket variant organize its work around a moving level pointer.
The builder settles every class whose key reaches its threshold tau
before a queue could see the key, so a queue only ever holds keys below
tau and needs no rule for the keys above.

Both queues are built from a mapping {label: key} of starting keys in one
call; after that only ``update_key`` and ``del_max`` change them.
"""

import heapq
from numbers import Real

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

    Each entry sits in the bucket of its key; only the exact key is
    stored. A moving pointer tracks the highest occupied bucket: key
    updates can only push it up (an O(1) jump), ``del_max`` walks it down
    lazily. ``scan_steps`` counts downward steps and ``raise_steps`` upward
    pointer movement from level 0, for instrumentation.

    This is the paper's integer-key device. Levels are allocated on demand,
    up to the highest level a key has reached, so an order pays for the
    keys it holds, not for the instance's total weight. On the benchmark's
    library workloads it loses to :class:`HeapQueue`: the builder settles
    every key that reaches tau, so few keys change more than once before
    extraction (figures in the README). `tau` only caps the top level, at
    ``min(tau, bound)``; a key above it is refused with an error that names
    which of the two it exceeds. `bound` is a keyed oracle's
    ``value_bound``, read nowhere else: the constructor is the one place
    that refuses a missing, non-numeric, non-integer, negative or
    non-finite bound, or a top level above ``MAX_TOP``, before allocating
    anything: with tau = INF the top level is the instance's total weight,
    which can be far larger than memory.
    """

    MAX_TOP = 1 << 20

    def __init__(self, tau, bound, keys=()):
        if not isinstance(bound, Real) or not 0 <= bound < INF or bound != int(bound):
            raise ValueError("bucket queue needs a finite nonnegative integer key bound: "
                             "a keyed, integer-valued oracle declares it as value_bound")
        if tau != INF and (tau != int(tau) or tau < 0):
            raise ValueError("bucket queue needs a nonnegative integer threshold")
        if tau != INF and tau < bound:
            self._top, self._limit = int(tau), "the build's threshold tau"
        else:
            self._top, self._limit = int(bound), "the oracle's value_bound"
        if self._top > self.MAX_TOP:
            raise ValueError(f"bucket queue key bound {self._top} is above its limit "
                             f"{self.MAX_TOP}; use the heap queue")
        self._key = dict(keys)   # v -> exact key; its bucket is int(key)
        levels = [self._bucket_of(key) for key in self._key.values()]
        self._cur = self.raise_steps = max(levels, default=0)
        self.scan_steps = 0
        self._buckets = buckets = [set() for _ in range(self._cur + 1)]
        for v, level in zip(self._key, levels):
            buckets[level].add(v)

    def _bucket_of(self, key):
        if key != int(key):
            raise ValueError(f"bucket queue keys must be integers, got {key!r}")
        if key < 0:
            raise ValueError(f"bucket queue keys must be nonnegative, got {key}")
        level = int(key)
        if level > self._top:
            raise ValueError(f"key {key} exceeds {self._limit} {self._top}")
        return level

    def update_key(self, v, key):
        try:
            old = self._key[v]
        except KeyError:
            raise ValueError(f"no entry {v}") from None
        if key < old:
            raise ValueError(f"key of {v} may not decrease ({old} -> {key})")
        level = self._bucket_of(key)
        self._key[v] = key
        if key != old:  # an integer key that grows always changes level
            buckets = self._buckets
            buckets[int(old)].remove(v)
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
