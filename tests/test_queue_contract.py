"""Property test of the exact queue contract, for both queues.

A heap and a bucket queue are built in one call from the same random
starting keys below a random tau, then driven by the same random
nondecreasing updates below tau and by extractions. Every ``del_max`` must
return the largest remaining key, ties going to the lowest label, and both
queues the identical (label, key). A decreasing update must raise and
change nothing, and an extracted entry takes no more updates.
"""

import pytest

from symcut import INF
from symcut.queues import BucketQueue, HeapQueue

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BOUND = 40


@settings(max_examples=150, deadline=None)
@given(tau=st.one_of(st.just(INF), st.integers(1, BOUND)), data=st.data())
def test_exact_contract_holds_for_both_queues(tau, data):
    top = BOUND if tau == INF else tau - 1
    start = data.draw(st.dictionaries(st.integers(0, 30), st.integers(0, top), max_size=25),
                      label="start")
    queues = HeapQueue(start), BucketQueue(tau, start)
    exact = dict(start)
    while exact:
        labels = sorted(exact)
        for v in data.draw(st.lists(st.sampled_from(labels), max_size=4), label="updated"):
            key = min(top, exact[v] + data.draw(st.integers(0, 6), label="step"))
            for q in queues:
                q.update_key(v, key)
            exact[v] = key
        low = [v for v in labels if exact[v] > 0]
        if low:
            v = data.draw(st.sampled_from(low), label="decreased")
            for q in queues:
                with pytest.raises(ValueError, match="may not decrease"):
                    q.update_key(v, exact[v] - 1)
        picked = [q.del_max() for q in queues]
        assert picked[0] == picked[1] == min(exact.items(), key=lambda e: (-e[1], e[0]))
        v, key = picked[0]
        for q in queues:
            with pytest.raises(ValueError, match="no entry"):
                q.update_key(v, key)
        del exact[v]
    for q in queues:
        with pytest.raises(IndexError):
            q.del_max()
