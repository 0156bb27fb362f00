import math
import random
import tracemalloc

import pytest

from symcut import INF
from symcut.queues import BucketQueue, HeapQueue


def test_heap_del_max_is_true_max():
    q = HeapQueue({"a": 5, "b": 9})
    assert q.del_max() == ("b", 9)
    assert q.del_max() == ("a", 5)
    with pytest.raises(IndexError):
        q.del_max()


def test_heap_tie_breaks_to_lowest_index():
    q = HeapQueue({7: 4, 2: 4, 5: 4})
    assert q.del_max() == (2, 4)
    assert q.del_max() == (5, 4)


def test_bucket_exact_below_threshold():
    q = BucketQueue(tau=7, keys={"a": 5})
    assert q.del_max() == ("a", 5)
    with pytest.raises(IndexError):
        q.del_max()


def test_update_key_moves_entry():
    for q in (HeapQueue({"a": 1, "b": 2}), BucketQueue(10, {"a": 1, "b": 2})):
        q.update_key("a", 4)
        assert q.del_max()[0] == "a"


def test_update_errors():
    for q in (HeapQueue({"a": 3}), BucketQueue(5, {"a": 3})):
        with pytest.raises(ValueError):
            q.update_key("missing", 4)
        with pytest.raises(ValueError):
            q.update_key("a", 2)  # decreasing


def test_bucket_rejects_negative_and_fractional_keys():
    with pytest.raises(ValueError, match="nonnegative"):
        BucketQueue(5, {"a": -1})
    for key in (2.5, 2.0):
        with pytest.raises(ValueError, match="must be ints"):
            BucketQueue(5, {"a": key})
    # a float instance's tracker starts every key at the int 0 and reports
    # floats only once an append reaches them
    q = BucketQueue(INF, {"a": 0, "b": 0})
    for key in (3.5, 3.0):
        with pytest.raises(ValueError, match=f"must be ints, got {key!r}; use the heap queue"):
            q.update_key("a", key)
    assert q.del_max() == ("a", 0)  # the refused keys changed nothing


@pytest.mark.parametrize("tau", [-1, 2.0, 2.5, -math.inf, math.nan, "7", None])
def test_bucket_refuses_a_threshold_that_is_not_inf_or_a_nonnegative_int(tau):
    with pytest.raises(ValueError, match="threshold of INF or a nonnegative int"):
        BucketQueue(tau, {"a": 0})


def test_bucket_refuses_a_top_level_over_its_limit_before_allocating():
    # a threshold past the limit is refused outright; with the key check
    # missing, each key of 10**12 would build 10**12 + 1 buckets
    top = BucketQueue.MAX_TOP
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"threshold {10**12} is above its limit {top}"):
            BucketQueue(10**12, {"a": 4})
        with pytest.raises(ValueError, match=f"exceeds the bucket queue's limit {top}; "
                                             "use the heap queue"):
            BucketQueue(INF, {"a": 10**12})
        q = BucketQueue(INF, {"a": 4})
        with pytest.raises(ValueError, match=f"limit {top}"):
            q.update_key("a", 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert q.del_max() == ("a", 4)


def test_bucket_allocates_only_the_levels_its_keys_reach():
    # a bucket per level up to the limit would be 2**20 + 1 sets (~200 MB)
    tracemalloc.start()
    try:
        q = BucketQueue(INF, {**{v: v % 8 for v in range(20)}, 20: 9})
        q.update_key(3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert q.del_max() == (3, 10)
    assert q.del_max() == (20, 9)


def test_bucket_with_infinite_threshold_is_exact():
    q = BucketQueue(INF, {0: 3, 1: 7, 2: 7, 3: 0})
    assert q.del_max() == (1, 7)
    assert q.del_max() == (2, 7)
    assert q.del_max() == (0, 3)
    assert q.del_max() == (3, 0)


def test_bucket_threshold_caps_the_top_level():
    # tau = 1 holds only keys of 0 and 1; lowest label on ties
    q = BucketQueue(1, {4: 1, 1: 0, 2: 1})
    with pytest.raises(ValueError, match="exceeds the build's threshold tau 1"):
        q.update_key(1, 2)
    with pytest.raises(ValueError, match="exceeds the build's threshold tau 1"):
        BucketQueue(1, {4: 2})
    assert q.del_max() == (2, 1)
    assert q.del_max() == (4, 1)
    assert q.del_max() == (1, 0)


def test_heap_matches_exact_queue_at_infinite_threshold():
    rng = random.Random(5)
    shadow = {v: rng.randint(0, 50) for v in range(200)}
    q = HeapQueue(shadow)
    while shadow:
        if rng.random() < 0.5:
            v = rng.choice(sorted(shadow))
            k = shadow[v] + rng.randint(0, 5)
            q.update_key(v, k)
            shadow[v] = k
        else:
            v, k = q.del_max()
            top = max(shadow.values())
            assert k == top
            assert shadow.pop(v) == k


def test_differential_contract_small():
    # shared op stream below tau: both queues remove the identical entry
    rng = random.Random(11)
    tau = 6
    shadow = {}
    for _ in range(1000):
        if not shadow:
            shadow = {v: rng.randrange(tau) for v in range(rng.randint(1, 30))}
            heap, bucket = HeapQueue(shadow), BucketQueue(tau, shadow)
        elif rng.random() < 0.45:
            v = rng.choice(sorted(shadow))
            k = min(tau - 1, shadow[v] + rng.randint(0, 4))
            heap.update_key(v, k)
            bucket.update_key(v, k)
            shadow[v] = k
        else:
            hv, hk = heap.del_max()
            assert bucket.del_max() == (hv, hk)
            assert (hv, hk) == min(shadow.items(), key=lambda e: (-e[1], e[0]))
            del shadow[hv]


def test_bucket_scan_is_monotone_between_raises():
    # one full drain with growing keys: downward steps never exceed the
    # starting level plus upward pointer movement
    rng = random.Random(3)
    tau = 30
    exact = {v: rng.randint(0, 12) for v in range(12)}
    q = BucketQueue(tau, exact)
    while exact:
        if len(exact) % 3:
            for v in exact:
                exact[v] = min(tau - 1, exact[v] + rng.randint(0, 2))
                q.update_key(v, exact[v])
        v, _ = q.del_max()
        del exact[v]
    assert q.scan_steps <= q.raise_steps


def test_bucket_pure_drain_scans_at_most_span():
    # no updates after the build: strictly downward scanning
    q = BucketQueue(10, dict(enumerate([9, 7, 5, 4, 4, 2, 0])))
    out = [q.del_max()[1] for _ in range(7)]
    assert out == sorted(out, reverse=True)
    assert q.scan_steps <= 9
