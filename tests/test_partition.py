import pytest

from symcut.partition import Partition


def test_starts_discrete():
    p = Partition(4)
    assert p.class_count == 4
    assert p.classes() == [0, 1, 2, 3]
    assert p.member_set(2) == {2}
    assert all(p.class_of(v) == v for v in range(4))


def test_join_merges_members():
    p = Partition(4)
    p.join(0, 2)
    p.join(0, 1)
    assert p.blocks() == {0: frozenset({0, 1, 2}), 3: frozenset({3})}
    assert p.class_of(2) == 0 and p.class_of(1) == 0
    assert p.class_count == 2
    assert p.classes() == [0, 3]


def test_join_into_joined_class():
    p = Partition(5)
    p.join(1, 3)
    p.join(4, 1)
    assert p.member_set(4) == {1, 3, 4}
    assert p.class_of(3) == 4
    assert 1 not in p.classes()


def test_membership_preserved_under_any_join_sequence():
    p = Partition(6)
    p.join(0, 5)
    p.join(2, 3)
    p.join(0, 2)
    seen = set()
    for c in p.classes():
        block = p.member_set(c)
        assert not block & seen
        seen |= block
    assert seen == set(range(6))


def test_blocks_snapshot():
    p = Partition(3)
    blocks = p.blocks()
    p.join(0, 1)
    assert blocks == {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}
    assert p.blocks() == {0: frozenset({0, 1}), 2: frozenset({2})}


def test_join_errors():
    p = Partition(3)
    with pytest.raises(ValueError):
        p.join(0, 0)
    p.join(0, 1)
    with pytest.raises(ValueError):
        p.join(0, 1)  # 1 no longer live
    with pytest.raises(ValueError):
        Partition(0)
