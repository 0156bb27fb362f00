"""Property tests of the partition's labels under random joins.

``Partition.classes()`` returns its labels without sorting them, so after
any sequence of joins it must still equal the sorted labels of a model
that only records which labels are live. ``Partition.retired`` must hold
exactly the labels that are no longer live, in the order joins retired
them. ``Partition.retired_since(count)`` must return, for every class
count the partition has had, the labels joins retired since then: the
graph and hypergraph quotients and the order replay read the joins from
it, and it must refuse a count the partition never had.
"""

import pytest

from symcut.partition import Partition

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classes_are_the_sorted_live_labels_after_any_joins(data):
    n = data.draw(st.integers(1, 40), label="n")
    p = Partition(n)
    live = set(range(n))
    assert p.classes() == sorted(live)
    for _ in range(data.draw(st.integers(0, n - 1), label="joins")):
        dst, src = data.draw(st.permutations(sorted(live)), label="pair")[:2]
        p.join(dst, src)
        live.discard(src)
        assert p.classes() == sorted(live)
        assert p.class_count == len(live)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retired_logs_the_labels_no_longer_live_in_join_order(data):
    n = data.draw(st.integers(1, 40), label="n")
    p = Partition(n)
    joined = []
    assert p.retired == []
    for _ in range(data.draw(st.integers(0, n - 1), label="joins")):
        dst, src = data.draw(st.permutations(p.classes()), label="pair")[:2]
        p.join(dst, src)
        joined.append(src)
        assert p.retired == joined
        assert sorted(p.retired) == sorted(set(range(n)) - set(p.classes()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retired_since_returns_the_joins_made_since_each_earlier_count(data):
    n = data.draw(st.integers(1, 40), label="n")
    p = Partition(n)
    since = {n: []}  # class count -> labels retired since the partition had it
    for _ in range(data.draw(st.integers(0, n - 1), label="joins")):
        dst, src = data.draw(st.permutations(p.classes()), label="pair")[:2]
        p.join(dst, src)
        for labels in since.values():
            labels.append(src)
        since[p.class_count] = []
        for count, labels in since.items():
            assert p.retired_since(count) == labels
    for count in (p.class_count - 1, n + 1):
        with pytest.raises(ValueError, match=f"never had {count} classes"):
            p.retired_since(count)
