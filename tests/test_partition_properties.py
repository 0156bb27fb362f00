"""Property test of the partition's label order under random joins.

``Partition.classes()`` returns its labels without sorting them, so after
any sequence of joins it must still equal the sorted labels of a model
that only records which labels are live.
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
