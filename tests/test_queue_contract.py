"""Property test of the relaxed queue contract, for both queues.

A queue is built in one call from random starting keys and a random tau,
then driven by random nondecreasing updates and extractions. Every
``del_max`` must return a key of at least min(tau, largest remaining
exact key), and the entry a shadow model picks: the heap ranks by exact
key, the bucket queue by key clamped at tau, ties going to the lowest
label. A decreasing update must raise and change nothing. A twin queue
fed the same keys by one-by-one ``insert`` must extract the same sequence
(and, for buckets, count the same pointer steps).
"""

import pytest

from symcut import INF, BucketQueue, HeapQueue

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BOUND = 40


def make_pair(kind, tau, start):
    """(bulk-built queue, queue filled by inserts) over the same keys."""
    if kind == "heap":
        bulk, twin = HeapQueue(start), HeapQueue()
    else:
        bulk, twin = BucketQueue(tau, BOUND, start), BucketQueue(tau, BOUND)
    for v in sorted(start, reverse=True):
        twin.insert(v, start[v])
    return bulk, twin


def expected_pick(kind, tau, exact):
    rank = (lambda v: exact[v]) if kind == "heap" else (lambda v: min(exact[v], tau))
    return min(exact, key=lambda v: (-rank(v), v))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["heap", "bucket"]),
       tau=st.one_of(st.just(INF), st.integers(0, BOUND)),
       start=st.dictionaries(st.integers(0, 30), st.integers(0, BOUND // 2), max_size=25),
       data=st.data())
def test_relaxed_contract_holds_and_bulk_build_matches_inserts(kind, tau, start, data):
    bulk, twin = make_pair(kind, tau, start)
    exact = dict(start)
    while exact:
        assert len(bulk) == len(twin) == len(exact)
        labels = sorted(exact)
        for v in data.draw(st.lists(st.sampled_from(labels), max_size=4), label="updated"):
            key = min(BOUND, exact[v] + data.draw(st.integers(0, 6), label="step"))
            bulk.update_key(v, key)
            twin.update_key(v, key)
            exact[v] = key
        low = [v for v in labels if exact[v] > 0]
        if low:
            v = data.draw(st.sampled_from(low), label="decreased")
            with pytest.raises(ValueError, match="may not decrease"):
                bulk.update_key(v, exact[v] - 1)
        v, key = bulk.del_max()
        assert twin.del_max() == (v, key)
        assert key >= min(tau, max(exact.values()))
        assert v == expected_pick(kind, tau, exact)
        assert key == (exact[v] if kind == "heap" else min(exact[v], tau))
        del exact[v]
    assert len(bulk) == 0
    with pytest.raises(IndexError):
        bulk.del_max()
    if kind == "bucket":
        assert (bulk.scan_steps, bulk.raise_steps) == (twin.scan_steps, twin.raise_steps)
