import math

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, Hypergraph,
                    HypergraphCutOracle, InducedOracle, Partition,
                    SetFunctionTable, TableOracle, ThresholdedOracle,
                    WeightedGraph, complete_table, gen_random_graph,
                    graph_cut_table)


def F(*xs):
    return frozenset(xs)


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 0, 1)])  # self-loop
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 2, 1)])  # out of range
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, -1)])  # negative weight

    def test_parallel_edges_accumulate(self):
        g = WeightedGraph(2, [(0, 1, 2), (1, 0, 3)])
        assert g.adjacency[0][1] == 5
        assert g.m == 2  # raw list preserved

    def test_weight_mode(self):
        assert WeightedGraph(2, [(0, 1, 2)]).integer_weights
        assert not WeightedGraph(2, [(0, 1, 2.5)]).integer_weights


class TestGraphCut:
    def test_triangle_values(self, triangle_oracle):
        assert triangle_oracle.eval(F(0), F(1, 2)) == 4
        assert triangle_oracle.eval(F(0, 1), F(2)) == 3
        assert triangle_oracle.eval(F(0), frozenset()) == 0

    def test_overlap_rejected(self, triangle_oracle):
        with pytest.raises(ValueError):
            triangle_oracle.eval(F(0, 1), F(1, 2))

    def test_capped(self, triangle_oracle):
        assert triangle_oracle.eval(F(0), F(1, 2), tau=2) == 2
        assert triangle_oracle.eval(F(0), F(1, 2), tau=0) == 0

    def test_early_exit_agrees_with_strict(self):
        for seed in range(10):
            g = gen_random_graph(6, 0.6, 9, seed=seed)
            lax = GraphCutOracle(g)
            strict = GraphCutOracle(g, early_exit=False)
            full = frozenset(range(6))
            for mask in range(1, 63):
                s = frozenset(v for v in range(6) if mask >> v & 1)
                t = full - s
                exact = strict.eval(s, t, INF)
                for tau in (0, 1, exact, exact + 1, INF):
                    assert lax.eval(s, t, tau) == min(tau, exact)

    def test_capability_flags(self, triangle):
        o = GraphCutOracle(triangle)
        assert o.keyed and o.integer_valued and o.value_bound == 6
        f = GraphCutOracle(WeightedGraph(2, [(0, 1, 1.5)]))
        assert not f.integer_valued and f.value_bound is None


class TestGraphKeyTracker:
    def test_path_keys(self, path3):
        tracker = GraphCutOracle(path3).key_tracker(Partition(3), first=0)
        assert tracker.keys == {1: 1, 2: 0}
        tracker.pop(1)
        changed = tracker.advance(1)
        assert changed == {2: 1}
        assert tracker.keys == {2: 1}

    def test_triangle_keys(self, triangle):
        tracker = GraphCutOracle(triangle).key_tracker(Partition(3), first=0)
        assert tracker.keys == {1: 3, 2: 1}
        tracker.pop(1)
        tracker.advance(1)
        assert tracker.keys == {2: 3}

    def test_isolated_vertex_key_stays_zero(self):
        g = WeightedGraph(3, [(0, 1, 4)])
        tracker = GraphCutOracle(g).key_tracker(Partition(3), first=0)
        tracker.pop(1)
        tracker.advance(1)
        assert tracker.keys == {2: 0}

    def test_keys_match_oracle_after_contraction(self):
        g = gen_random_graph(6, 0.7, 8, seed=2)
        oracle = GraphCutOracle(g)
        p = Partition(6)
        p.join(1, 4)
        p.join(0, 5)
        tracker = oracle.key_tracker(p, first=0)
        prefix = p.member_set(0)
        for c in (1, 2, 3):
            tracker.pop(c)
            for u, key in tracker.keys.items():
                assert key == oracle.eval(p.member_set(u), prefix, INF)
            tracker.advance(c)
            prefix |= p.member_set(c)
            for u, key in tracker.keys.items():
                assert key == oracle.eval(p.member_set(u), prefix, INF)


class TestHypergraphCut:
    def test_single_edge(self):
        h = Hypergraph(4, [(2, {0, 1, 2})])
        o = HypergraphCutOracle(h)
        assert o.eval(F(0), F(1)) == 2
        assert o.eval(F(0, 1), F(2)) == 2
        assert o.eval(F(0), F(3)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, {0})])  # too few pins
        with pytest.raises(ValueError):
            Hypergraph(3, [(-1, {0, 1})])
        with pytest.raises(ValueError):
            Hypergraph(2, [(1, {0, 5})])

    def test_tracker_counts_each_edge_once(self):
        h = Hypergraph(4, [(2, {0, 1, 2}), (3, {1, 2, 3}), (1, {0, 3})])
        oracle = HypergraphCutOracle(h)
        tracker = oracle.key_tracker(Partition(4), first=0)
        assert tracker.keys == {1: 2, 2: 2, 3: 1}
        tracker.pop(1)
        tracker.advance(1)
        # edge {1,2,3} now touches the prefix; edge {0,1,2} already counted
        assert tracker.keys == {2: 5, 3: 4}

    def test_tracker_matches_eval_on_random_instances(self):
        from symcut import gen_random_hypergraph
        for seed in range(8):
            h = gen_random_hypergraph(6, 8, 5, seed=seed)
            oracle = HypergraphCutOracle(h)
            p = Partition(6)
            tracker = oracle.key_tracker(p, first=0)
            prefix = p.member_set(0)
            for c in range(1, 6):
                tracker.pop(c)
                tracker.advance(c)
                prefix |= p.member_set(c)
                for u, key in tracker.keys.items():
                    assert key == oracle.eval(p.member_set(u), prefix, INF)


class TestConnectivity:
    def test_crossing_count_function(self):
        n = 4
        table = SetFunctionTable(n, [bin(m).count("1") * (n - bin(m).count("1"))
                                     for m in range(1 << n)])
        o = ConnectivityOracle(table)
        assert o.eval(F(0), F(1)) == 3 + 3 - 4
        assert o.eval(F(0), frozenset()) == 0

    def test_doubles_graph_cut(self, triangle, triangle_oracle):
        table = graph_cut_table(triangle)
        o = ConnectivityOracle(table)
        full = frozenset(range(3))
        for mask in range(1, 7):
            s = frozenset(v for v in range(3) if mask >> v & 1)
            t = full - s
            assert o.eval(s, t) == 2 * triangle_oracle.eval(s, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_value_rejected(self, bad):
        values = graph_cut_table(gen_random_graph(4, 0.8, 5, seed=1)).table_values
        for mask in (0b0110, 0b1111):  # an inner subset and the full set
            broken = list(values)
            broken[mask] = bad
            with pytest.raises(ValueError, match=f"mask {mask} is not finite"):
                SetFunctionTable(4, broken)


class TestTableOracle:
    def test_lookup_and_cap(self):
        t = complete_table(2, {(1, 2): 4})
        o = TableOracle(2, t)
        assert o.eval(F(0), F(1)) == 4
        assert o.eval(F(0), F(1), tau=2) == 2

    def test_asymmetric_rejected(self):
        t = complete_table(2)
        t[(1, 2)] = 5  # break one direction only
        with pytest.raises(ValueError):
            TableOracle(2, t)

    def test_missing_entry_rejected(self):
        t = complete_table(2)
        del t[(1, 2)]
        del t[(2, 1)]
        with pytest.raises(ValueError):
            TableOracle(2, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            TableOracle(2, complete_table(2, {(1, 2): bad}))


class TestThresholded:
    def test_caps_above(self):
        o = TableOracle(2, complete_table(2, {(1, 2): 7}))
        assert ThresholdedOracle(o, 5).eval(F(0), F(1)) == 5

    def test_passes_below(self):
        o = TableOracle(2, complete_table(2, {(1, 2): 3}))
        assert ThresholdedOracle(o, 5).eval(F(0), F(1)) == 3

    def test_infinite_cap_is_identity(self, triangle_oracle):
        capped = ThresholdedOracle(triangle_oracle, INF)
        full = frozenset(range(3))
        for mask in range(1, 7):
            s = frozenset(v for v in range(3) if mask >> v & 1)
            assert capped.eval(s, full - s) == triangle_oracle.eval(s, full - s)


class TestInduced:
    def test_expands_blocks(self, triangle_oracle):
        induced = InducedOracle(triangle_oracle, [F(0, 1), F(2)])
        assert induced.eval(F(0), F(1)) == 3  # = d({0,1}, {2})

    def test_empty_side(self, triangle_oracle):
        induced = InducedOracle(triangle_oracle, [F(0), F(1), F(2)])
        assert induced.eval(F(0), frozenset()) == 0


def test_graph_cut_table_values(triangle):
    table = graph_cut_table(triangle)
    assert table.table_values[0b001] == 4
    assert table.table_values[0b100] == 3
    assert table.table_values[0] == 0
    assert table.table_values[0b111] == 0
