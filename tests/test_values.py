import math
import random

from symcut import INF, values_equal
from symcut.values import mask_of, set_of, submasks


def test_ints_compare_exactly():
    assert values_equal(3, 3)
    assert not values_equal(10 ** 12, 10 ** 12 + 1)


def test_floats_within_relative_tolerance():
    # two roundings of one 1e12-scale cut value
    assert values_equal(1000000000001.3685, 1000000000001.3687)
    assert not values_equal(1.0e12, 1.00001e12)


def test_floats_within_absolute_tolerance_near_zero():
    assert values_equal(0, 1e-10)
    assert values_equal(0.1 + 0.2, 0.3)
    assert not values_equal(0, 1e-6)


def test_non_finite():
    assert values_equal(INF, INF)
    assert not values_equal(INF, 1e300)
    assert not values_equal(math.nan, math.nan)


def test_submasks_each_once_in_descending_order():
    for m in range(256):
        subs = list(submasks(m))
        assert subs[0] == m and subs[-1] == 0
        assert subs == sorted(subs, reverse=True)
        assert len(set(subs)) == len(subs) == 2 ** bin(m).count("1")
        assert all(s & ~m == 0 for s in subs)


def test_set_of_inverts_mask_of():
    for s in [(), (0,), (3,), (0, 2, 5), tuple(range(20))]:
        decoded = set_of(mask_of(s))
        assert decoded == frozenset(s)
        assert isinstance(decoded, frozenset)


def test_set_of_lists_exactly_the_set_bits():
    rng = random.Random(5)
    wide = [rng.getrandbits(rng.randrange(1, 300)) for _ in range(300)] + [1 << 200, 2**64 - 1]
    for mask in [*range(1 << 12), *wide]:
        decoded = set_of(mask)
        assert isinstance(decoded, frozenset)
        assert decoded == frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)
