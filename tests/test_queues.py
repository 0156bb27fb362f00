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
    q = BucketQueue(tau=7, bound=20, keys={"a": 5})
    assert q.del_max() == ("a", 5)
    with pytest.raises(IndexError):
        q.del_max()


def test_update_key_moves_entry():
    for q in (HeapQueue({"a": 1, "b": 2}), BucketQueue(10, 10, {"a": 1, "b": 2})):
        q.update_key("a", 4)
        assert q.del_max()[0] == "a"


def test_update_errors():
    for q in (HeapQueue({"a": 3}), BucketQueue(5, 10, {"a": 3})):
        with pytest.raises(ValueError):
            q.update_key("missing", 4)
        with pytest.raises(ValueError):
            q.update_key("a", 2)  # decreasing


def test_bucket_rejects_negative_and_fractional_keys():
    with pytest.raises(ValueError):
        BucketQueue(5, 10, {"a": -1})
    with pytest.raises(ValueError):
        BucketQueue(5, 10, {"a": 2.5})
    q = BucketQueue(5, 10, {"a": 2})
    with pytest.raises(ValueError):
        q.update_key("a", 3.5)
    with pytest.raises(ValueError):
        BucketQueue(tau=5, bound=None)
    with pytest.raises(ValueError, match="finite nonnegative integer key bound"):
        BucketQueue(tau=5, bound="7")  # not a number: no TypeError from comparing it
    with pytest.raises(ValueError):
        BucketQueue(tau=-1, bound=10)


def test_bucket_refuses_a_top_level_over_its_limit_before_allocating():
    # with the check missing this would try to build 10**12 + 1 buckets
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="heap queue"):
            BucketQueue(tau=INF, bound=10**12)
        with pytest.raises(ValueError, match=str(BucketQueue.MAX_TOP)):
            BucketQueue(tau=10**12, bound=10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the limit is on the top level: a small threshold keeps a huge bound usable
    q = BucketQueue(5, 10**12, {"a": 4})
    with pytest.raises(ValueError, match="exceeds the build's threshold tau 5"):
        q.update_key("a", 10**9)
    assert q.del_max() == ("a", 4)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_bucket_rejects_a_non_finite_bound(bound):
    with pytest.raises(ValueError, match="finite nonnegative integer key bound"):
        BucketQueue(5, bound)


def test_bucket_allocates_only_the_levels_its_keys_reach():
    # a bucket per level up to the bound would be 100,001 sets (~20 MB)
    tracemalloc.start()
    try:
        q = BucketQueue(INF, 10**5, {**{v: v % 8 for v in range(20)}, 20: 9})
        q.update_key(3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert q.del_max() == (3, 10)
    assert q.del_max() == (20, 9)


def test_bucket_rejects_keys_over_declared_bound():
    # the error names the bound, the lower of the two limits here
    with pytest.raises(ValueError, match="exceeds the oracle's value_bound 4"):
        BucketQueue(INF, 4, {"a": 5})
    with pytest.raises(ValueError, match="exceeds the oracle's value_bound 4"):
        BucketQueue(8, 4, {"a": 5})  # below tau but above the exact range
    q = BucketQueue(8, 4, {"a": 3})
    with pytest.raises(ValueError, match="exceeds the oracle's value_bound 4"):
        q.update_key("a", 5)


def test_bucket_with_infinite_threshold_is_exact():
    q = BucketQueue(INF, 10, {0: 3, 1: 7, 2: 7, 3: 0})
    assert q.del_max() == (1, 7)
    assert q.del_max() == (2, 7)
    assert q.del_max() == (0, 3)
    assert q.del_max() == (3, 0)


def test_bucket_threshold_caps_the_top_level():
    # tau = 1 holds only keys of 0 and 1; lowest label on ties
    q = BucketQueue(1, 10, {4: 1, 1: 0, 2: 1})
    with pytest.raises(ValueError, match="exceeds the build's threshold tau 1"):
        q.update_key(1, 2)
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
            heap, bucket = HeapQueue(shadow), BucketQueue(tau, 2 * tau, shadow)
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
    q = BucketQueue(tau, 30, exact)
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
    q = BucketQueue(10, 20, dict(enumerate([9, 7, 5, 4, 4, 2, 0])))
    out = [q.del_max()[1] for _ in range(7)]
    assert out == sorted(out, reverse=True)
    assert q.scan_steps <= 9
