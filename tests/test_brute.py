import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, Hypergraph,
                    HypergraphCutOracle, SetFunctionTable, WeightedGraph,
                    brute_min_bipartition, check_consistent, check_monotone,
                    gen_random_graph, graph_cut_table)
from symcut.brute import (MAX_ENUM, bipartition_values, check_lax_back_order,
                          check_symmetric, table_submodular, table_symmetric)
from symcut.oracles import ThresholdedOracle
from symcut.order import LaxBackOrder
from symcut.values import set_of
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


def test_bipartition_values_index_each_side_of_0_by_mask_shifted_once(triangle_oracle):
    # {0} cuts 4, {0, 1} cuts 3, {0, 2} cuts 5
    assert bipartition_values(triangle_oracle, 3) == [4, 3, 5]
    for n in range(2, 7):
        oracle = GraphCutOracle(gen_random_graph(n, 0.6, 9, seed=n))
        full = (1 << n) - 1
        values = bipartition_values(oracle, n)
        assert len(values) == 2 ** (n - 1) - 1
        for mask in range(1, full, 2):
            assert values[mask >> 1] == oracle.eval(set_of(mask), set_of(full ^ mask), INF)


@pytest.mark.parametrize("n", [-1, 0, 1, MAX_ENUM + 1, 25])
def test_bipartition_values_refuse_sizes_past_the_enumeration(triangle_oracle, n):
    with pytest.raises(ValueError, match=f"^enumeration supports 2 <= n <= {MAX_ENUM}$"):
        bipartition_values(triangle_oracle, n)


def test_built_in_oracles_are_symmetric(triangle, triangle_oracle):
    hypergraph = Hypergraph(4, [(3, (0, 1, 2)), (2, (1, 3)), (1, (0, 2, 3))])
    for oracle, n in ((triangle_oracle, 3), (HypergraphCutOracle(hypergraph), 4),
                      (ConnectivityOracle(graph_cut_table(triangle)), 3)):
        assert check_symmetric(oracle, bipartition_values(oracle, n))


def test_symmetry_violation_with_witness():
    # d({0,1},{2}) = 1 but d({2},{0,1}) = 5; d({0,2},{1}) is off too, later
    oracle = TableOracle(3, complete_table(3, default=5))
    oracle.table[(0b011, 0b100)] = 1
    oracle.table[(0b010, 0b101)] = 2
    res = check_symmetric(oracle, bipartition_values(oracle, 3))
    assert not res
    assert res.witness == 0b011  # the first S holding element 0


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


def test_min_bipartition_is_the_least_table_entry_first_by_mask():
    # on the 4-cycle of unit weights only {0, 2} against {1, 3} cuts 4, every
    # other bipartition 2, and {0} is the least mask among those
    o = GraphCutOracle(WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]))
    assert bipartition_values(o, 4) == [2, 2, 4, 2, 2, 2, 2]
    res = brute_min_bipartition(o, 4)
    assert (res.mask, res.value) == (0b0001, 2)
    for seed in range(10):
        n = 4 + seed % 3
        o = GraphCutOracle(gen_random_graph(n, 0.6, 8, seed=seed))
        values = bipartition_values(o, n)
        res = brute_min_bipartition(o, n)
        assert res.value == min(values)
        assert res.mask == 2 * values.index(res.value) + 1


def order_of(seq, keys, tau=INF):
    """An order of singleton classes, each class labelled by its element."""
    return LaxBackOrder(tuple(seq), tuple(keys), tau)


def test_lax_back_order_check_passes_the_builders_max_back_order(triangle_oracle):
    # from {0}: d({1}, {0}) = 3 beats d({2}, {0}) = 1; then d({2}, {0, 1}) = 3
    blocks = {v: frozenset({v}) for v in range(3)}
    results = check_lax_back_order(triangle_oracle, blocks, order_of((0, 1, 2), (INF, 3, 3)))
    assert [name for name, _ in results] == ["order-dominates-suffix", "stored-keys-exact"]
    assert all(result for _, result in results)


def test_lax_back_order_check_reports_each_first_failure_after_the_other():
    # the 4-path 0 -1- 1 -5- 2 -2- 3 in the order (0, 1, 3, 2): {3} is not
    # adjacent to {0, 1}, which {2} is at 5, so position 2 fails domination;
    # the keys are right up to position 3, where d({2}, {0, 1, 3}) = 7 not 6
    oracle = GraphCutOracle(WeightedGraph(4, [(0, 1, 1), (1, 2, 5), (2, 3, 2)]))
    blocks = {v: frozenset({v}) for v in range(4)}
    results = dict(check_lax_back_order(oracle, blocks, order_of((0, 1, 3, 2), (INF, 1, 0, 6))))
    assert results["order-dominates-suffix"].witness == (2, 3)
    assert results["stored-keys-exact"].witness == (3, 6, 7)
    # a wrong key first, the domination failure after it
    results = dict(check_lax_back_order(oracle, blocks, order_of((0, 1, 3, 2), (INF, 2, 9, 6))))
    assert results["stored-keys-exact"].witness == (1, 2, 1)
    assert results["order-dominates-suffix"].witness == (2, 3)


def test_lax_back_order_check_caps_at_the_threshold():
    # (0, 2, 1, 3) on the same path: {1} is adjacent to {0} and {2} is not,
    # so the order fails uncapped at position 1, with exact keys; at tau = 0
    # every value caps to 0 and nothing fails
    oracle = GraphCutOracle(WeightedGraph(4, [(0, 1, 1), (1, 2, 5), (2, 3, 2)]))
    blocks = {v: frozenset({v}) for v in range(4)}
    seq = (0, 2, 1, 3)
    uncapped = dict(check_lax_back_order(oracle, blocks, order_of(seq, (INF, 0, 6, 2))))
    assert uncapped["order-dominates-suffix"].witness == (1, 2)
    assert uncapped["stored-keys-exact"]
    assert all(result for _, result in check_lax_back_order(
        oracle, blocks, order_of(seq, (INF, 0, 0, 0), tau=0)))
