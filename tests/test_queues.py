import math
import random
import tracemalloc

import pytest

from symcut import INF, BucketQueue, HeapQueue


def test_heap_insert_and_size():
    q = HeapQueue()
    q.insert("a", -INF)
    assert len(q) == 1 and "a" in q
    q.insert("b", 3)
    assert len(q) == 2


def test_insert_duplicate_rejected():
    for q in (HeapQueue(), BucketQueue(tau=5, bound=10)):
        q.insert(1, 2)
        with pytest.raises(ValueError):
            q.insert(1, 4)


def test_heap_del_max_is_true_max():
    q = HeapQueue()
    q.insert("a", 5)
    q.insert("b", 9)
    assert q.del_max() == ("b", 9)
    assert q.del_max() == ("a", 5)
    with pytest.raises(IndexError):
        q.del_max()


def test_heap_tie_breaks_to_lowest_index():
    q = HeapQueue()
    q.insert(7, 4)
    q.insert(2, 4)
    q.insert(5, 4)
    assert q.del_max() == (2, 4)
    assert q.del_max() == (5, 4)


def test_bucket_del_max_prefers_clamped_top():
    # both keys reach tau, so they are interchangeable; lowest index wins
    q = BucketQueue(tau=7, bound=20)
    q.insert("a", 8)
    q.insert("b", 9)
    v, k = q.del_max()
    assert v == "a" and k == 7  # stored clamped at the threshold


def test_bucket_exact_below_threshold():
    q = BucketQueue(tau=7, bound=20)
    q.insert("a", 5)
    assert q.del_max() == ("a", 5)
    with pytest.raises(IndexError):
        q.del_max()


def test_update_key_moves_entry():
    for q in (HeapQueue(), BucketQueue(tau=10, bound=10)):
        q.insert("a", 1)
        q.insert("b", 2)
        q.update_key("a", 4)
        assert q.del_max()[0] == "a"


def test_update_key_clamps_into_top_bucket():
    q = BucketQueue(tau=5, bound=20)
    q.insert("a", 3)
    q.insert("b", 4)
    q.update_key("a", 9)
    v, k = q.del_max()
    assert v == "a" and k == 5


def test_update_errors():
    for q in (HeapQueue(), BucketQueue(tau=5, bound=10)):
        q.insert("a", 3)
        with pytest.raises(ValueError):
            q.update_key("missing", 4)
        with pytest.raises(ValueError):
            q.update_key("a", 2)  # decreasing


def test_bucket_rejects_negative_and_fractional_keys():
    q = BucketQueue(tau=5, bound=10)
    with pytest.raises(ValueError):
        q.insert("a", -1)
    with pytest.raises(ValueError):
        q.insert("a", 2.5)
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
    q = BucketQueue(tau=5, bound=10**12)
    q.insert("a", 10**9)
    assert q.del_max() == ("a", 5)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_bucket_rejects_a_non_finite_bound(bound):
    with pytest.raises(ValueError, match="finite nonnegative integer key bound"):
        BucketQueue(5, bound)


def test_bucket_allocates_only_the_levels_its_keys_reach():
    # a bucket per level up to the bound would be 100,001 sets (~20 MB)
    tracemalloc.start()
    try:
        q = BucketQueue(INF, 10**5, {v: v % 8 for v in range(20)})
        q.insert(20, 9)
        q.update_key(3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert q.del_max() == (3, 10)
    assert q.del_max() == (20, 9)


def test_bucket_rejects_keys_over_declared_bound():
    q = BucketQueue(tau=INF, bound=4)
    with pytest.raises(ValueError):
        q.insert("a", 5)
    q2 = BucketQueue(tau=8, bound=4)
    with pytest.raises(ValueError):
        q2.insert("a", 5)  # below tau but above the exact range


def test_bucket_with_infinite_threshold_is_exact():
    q = BucketQueue(tau=INF, bound=10)
    for v, k in [(0, 3), (1, 7), (2, 7), (3, 0)]:
        q.insert(v, k)
    assert q.del_max() == (1, 7)
    assert q.del_max() == (2, 7)
    assert q.del_max() == (0, 3)
    assert q.del_max() == (3, 0)


def test_bucket_zero_threshold():
    q = BucketQueue(tau=0, bound=10)
    q.insert(4, 9)
    q.insert(1, 2)
    assert q.del_max() == (1, 0)  # everything clamps to the single level


def test_heap_matches_exact_queue_at_infinite_threshold():
    rng = random.Random(5)
    q = HeapQueue()
    shadow = {}
    for step in range(500):
        op = rng.random()
        if op < 0.5 or not shadow:
            v = step
            k = rng.randint(0, 50)
            q.insert(v, k)
            shadow[v] = k
        elif op < 0.75:
            v = rng.choice(sorted(shadow))
            k = shadow[v] + rng.randint(0, 5)
            q.update_key(v, k)
            shadow[v] = k
        else:
            v, k = q.del_max()
            top = max(shadow.values())
            assert k == top
            assert shadow.pop(v) == k


def _contract_ok(tau, key, shadow):
    top = max(shadow.values())
    floor = min(tau, top)
    return key >= floor


def test_differential_contract_small():
    # shared op stream; each queue checked against its own exact shadow
    rng = random.Random(11)
    tau = 6
    heap, bucket = HeapQueue(), BucketQueue(tau, bound=2 * tau)
    sh, sb = {}, {}
    next_v = 0
    for _ in range(1000):
        op = rng.random()
        both = sorted(set(sh) & set(sb))
        if op < 0.45 or not both:
            k = rng.randint(0, 2 * tau)
            heap.insert(next_v, k)
            bucket.insert(next_v, k)
            sh[next_v] = k
            sb[next_v] = k
            next_v += 1
        elif op < 0.7:
            v = rng.choice(both)
            k = sh[v] + rng.randint(0, 4)
            if k <= 2 * tau:
                heap.update_key(v, k)
                bucket.update_key(v, k)
                sh[v] = k
                sb[v] = k
        else:
            hv, hk = heap.del_max()
            bv, bk = bucket.del_max()
            assert _contract_ok(tau, hk, {**sh})
            assert _contract_ok(tau, bk, {**sb})
            # below the threshold both must remove the identical entry
            assert min(tau, hk) == min(tau, bk)
            if hk < tau or bk < tau:
                assert hv == bv and min(tau, hk) == bk
            del sh[hv]
            del sb[bv]


def test_bucket_scan_is_monotone_between_raises():
    # one full drain with growing keys: downward steps never exceed the
    # threshold span plus upward pointer movement
    rng = random.Random(3)
    tau = 9
    q = BucketQueue(tau, bound=30)
    exact = {v: rng.randint(0, 12) for v in range(12)}
    for v, k in exact.items():
        q.insert(v, k)
    while exact:
        if len(exact) % 3:
            for v in exact:
                exact[v] += rng.randint(0, 2)
                q.update_key(v, exact[v])
        v, _ = q.del_max()
        del exact[v]
    assert q.scan_steps <= tau + 2 + q.raise_steps


def test_bucket_pure_drain_scans_at_most_span():
    # no updates after inserts: strictly downward scanning
    q = BucketQueue(tau=7, bound=20)
    for v, k in enumerate([9, 7, 5, 4, 4, 2, 0]):
        q.insert(v, k)
    out = [q.del_max()[1] for _ in range(7)]
    assert out == sorted(out, reverse=True)
    assert q.scan_steps <= 7 + 2
