import math

from symcut import INF, values_equal


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
