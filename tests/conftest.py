import pytest

from symcut import GraphCutOracle, WeightedGraph


@pytest.fixture
def triangle():
    # w(1,2)=3, w(1,3)=1, w(2,3)=2 in 1-based ids; min cut 3 around vertex 3
    return WeightedGraph(3, [(0, 1, 3), (0, 2, 1), (1, 2, 2)])


@pytest.fixture
def triangle_oracle(triangle):
    return GraphCutOracle(triangle)


@pytest.fixture
def path3():
    return WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])

