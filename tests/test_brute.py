import pytest

from symcut import (GraphCutOracle, SetFunctionTable, WeightedGraph,
                    brute_min_bipartition, check_consistent, check_monotone)
from symcut.brute import brute_lambda, table_submodular, table_symmetric
from symcut.oracles import ThresholdedOracle
from table_oracle import TableOracle, complete_table

# elements {0,1,2}: d({0},{2})=5 >= d({1},{2})=3, yet
# d({0},{1,2})=1 < d({0,2},{1})=9 -- found by random search, kept frozen
CONSISTENCY_VIOLATION = {(1, 4): 5, (2, 4): 3, (1, 6): 1, (5, 2): 9}


def test_triangle_minimum(triangle_oracle):
    res = brute_min_bipartition(triangle_oracle, 3)
    assert res.value == 3
    assert res.elements() == {0, 1}  # the side holding element 0; complement {2}


def test_two_elements():
    o = GraphCutOracle(WeightedGraph(2, [(0, 1, 7)]))
    res = brute_min_bipartition(o, 2)
    assert res.value == 7 and res.elements() == {0}


def test_unit_k4_minimum():
    edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    o = GraphCutOracle(WeightedGraph(4, edges))
    assert brute_min_bipartition(o, 4).value == 3


def test_size_bounds(triangle_oracle):
    with pytest.raises(ValueError):
        brute_min_bipartition(triangle_oracle, 1)
    with pytest.raises(ValueError):
        brute_min_bipartition(triangle_oracle, 25)


def test_lambda_triangle(triangle_oracle):
    # sets holding 0 but not 1: {0} cuts 4, {0,2} cuts 5
    assert brute_lambda(triangle_oracle, 3, 0, 1) == 4


def test_lambda_pair_and_disconnected():
    o = GraphCutOracle(WeightedGraph(2, [(0, 1, 9)]))
    assert brute_lambda(o, 2, 0, 1) == 9
    o = GraphCutOracle(WeightedGraph(2, []))
    assert brute_lambda(o, 2, 0, 1) == 0


def test_lambda_same_element_rejected(triangle_oracle):
    with pytest.raises(ValueError):
        brute_lambda(triangle_oracle, 3, 1, 1)


def test_monotone_graph_cut(triangle_oracle):
    assert check_monotone(triangle_oracle, 3)


def test_monotone_violation_with_witness():
    # d({0},{1,2}) = 1 but d({0},{1}) = 2: shrinking T raised the value
    t = complete_table(3, {(1, 6): 1, (1, 2): 2})
    res = check_monotone(TableOracle(3, t), 3)
    assert not res
    assert res.witness == (1, 6, 2)  # (S, T, T') = ({0}, {1,2}, {1})


def test_monotone_constant_function():
    assert check_monotone(TableOracle(3, complete_table(3, default=5)), 3)


def test_consistent_graph_cut(triangle_oracle):
    assert check_consistent(triangle_oracle, 3)


def test_consistent_thresholded_graph_cut(triangle_oracle):
    for cap in (0, 1, 2, 3, 4):
        assert check_consistent(ThresholdedOracle(triangle_oracle, cap), 3)


def test_consistency_violation_fixture():
    res = check_consistent(TableOracle(3, complete_table(3, CONSISTENCY_VIOLATION)), 3)
    assert not res
    assert res.witness == (1, 4, 2)  # (R, S, T) = ({0}, {2}, {1})


def test_symmetric_submodular_classification():
    n = 4

    def pop(m):
        return bin(m).count("1")

    def verdict(table):
        return table_symmetric(table), table_submodular(table)

    crossing = SetFunctionTable(n, [pop(m) * (n - pop(m)) for m in range(1 << n)])
    assert verdict(crossing) == (True, True)

    cardinality = SetFunctionTable(n, [pop(m) for m in range(1 << n)])
    assert verdict(cardinality) == (False, True)

    # concave in |A|, hence submodular despite being asymmetric
    neg_square = SetFunctionTable(n, [-pop(m) ** 2 for m in range(1 << n)])
    assert verdict(neg_square) == (False, True)

    square = SetFunctionTable(n, [pop(m) ** 2 for m in range(1 << n)])
    assert verdict(square) == (False, False)


def test_min_bipartition_complement_symmetry(triangle_oracle):
    res = brute_min_bipartition(triangle_oracle, 3)
    side = res.elements()
    rest = frozenset(range(3)) - side
    assert triangle_oracle.eval(rest, side) == res.value


def test_min_bipartition_equals_min_pair_lambda():
    from symcut import gen_random_graph
    for seed in range(10):
        n = 4 + seed % 3
        o = GraphCutOracle(gen_random_graph(n, 0.6, 8, seed=seed))
        want = brute_min_bipartition(o, n).value
        got = min(brute_lambda(o, n, s, t)
                  for s in range(n) for t in range(n) if s != t)
        assert want == got
