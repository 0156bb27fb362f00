import gc
import math
import random
import types
import weakref
from fractions import Fraction

import pytest

from symcut import (INF, ConnectivityOracle, GraphCutOracle, Hypergraph,
                    HypergraphCutOracle, InstanceError, SetFunctionTable,
                    WeightedGraph, gen_random_graph, gen_random_hypergraph,
                    graph_cut_table, optimal_set, values_equal)
from symcut.oracles import MAX_VERTICES, ThresholdedOracle
from symcut.partition import Partition
from symcut.values import set_of
from table_oracle import TableOracle, complete_table


HUGE = 10**400  # 401 digits: past float range, exact as a Python int


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

    def test_mixed_weights_are_stored_as_floats(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 0.5)])
        assert not g.integer_weights
        assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]
        assert all(isinstance(w, float) for _, _, w in g.edges)
        assert isinstance(g.adjacency[0][1], float)

    def test_rejection_names_the_edge(self):
        with pytest.raises(InstanceError, match="edge 2: self-loop") as err:
            WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (2, 2, 1)])
        assert err.value.index == 2
        with pytest.raises(InstanceError, match="edge 1: weight is not finite"):
            WeightedGraph(3, [(0, 1, 1), (1, 2, math.nan)])


@pytest.mark.parametrize("build", [
    lambda n: WeightedGraph(n, []), lambda n: Hypergraph(n, [])], ids=["graph", "hypergraph"])
@pytest.mark.parametrize("n", [0, -1, MAX_VERTICES + 1, 10**10, HUGE])
def test_vertex_count_outside_the_limit_refused(build, n):
    with pytest.raises(ValueError, match=f"supports 1 <= n <= {MAX_VERTICES} vertices"):
        build(n)


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
        # keyed is the one flag; float weights do not change it
        assert GraphCutOracle(triangle).keyed
        assert GraphCutOracle(WeightedGraph(2, [(0, 1, 1.5)])).keyed


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


    def test_one_sync_follows_a_chain_of_joins(self):
        # ring 0-1-2-3-4-0 with weights 1..5, a parallel 0-4 edge, a zero 1-4 edge
        g = WeightedGraph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5),
                              (0, 4, 6), (1, 4, 0)])
        oracle = GraphCutOracle(g)
        p = Partition(5)
        p.join(1, 0)
        assert oracle.key_tracker(p, first=1).keys == {2: 2, 3: 0, 4: 11}
        p.join(2, 1)  # {0, 1} into 2, then {0, 1, 2} into 3: one sync
        p.join(3, 2)
        assert oracle.key_tracker(p, first=4).keys == {3: 15}
        assert oracle.key_tracker(p, first=3).keys == {4: 15}

    @pytest.mark.parametrize("oracle", [
        GraphCutOracle(gen_random_graph(6, 0.7, 8, seed=2)),
        HypergraphCutOracle(gen_random_hypergraph(6, 8, 5, seed=2)),
    ], ids=["graph", "hypergraph"])
    def test_quotient_cache_frees_its_partition(self, oracle):
        # the cached quotient must not keep its partition alive: one
        # leaked partition per solve shows up as peak memory
        p = Partition(6)
        oracle.key_tracker(p, first=0)
        p.join(0, 1)
        oracle.key_tracker(p, first=0)
        assert len(oracle._quotients) == 1
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None
        assert len(oracle._quotients) == 0


@pytest.mark.parametrize("oracle", [
    GraphCutOracle(WeightedGraph(3, [(1, 2, 5), (0, 1, 7)])),
    HypergraphCutOracle(Hypergraph(3, [(5, {1, 2}), (7, {0, 1})])),
], ids=["graph", "hypergraph"])
@pytest.mark.parametrize("left, right, bad", [
    (F(-1), F(1), -1),  # unchecked, index -1 reads vertex 2's list: 5
    (F(3), F(1), 3),  # unchecked, a bare IndexError
    (F(0, 2), F(-3), -3),  # the smaller side is the right one
    (F(1, 9), F(0, 2), 9),
])
def test_cut_eval_refuses_an_element_out_of_range(oracle, left, right, bad):
    with pytest.raises(ValueError, match=f"element {bad} is not one of the 3 vertices"):
        oracle.eval(left, right)


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

    def test_duplicate_pins_rejected(self):
        with pytest.raises(InstanceError, match="hyperedge 1: duplicate pin") as err:
            Hypergraph(3, [(1, [0, 1]), (1, [0, 0, 1])])
        assert err.value.index == 1

    def test_mixed_weights_are_stored_as_floats(self):
        h = Hypergraph(3, [(2, [0, 1]), (0.5, [0, 1, 2])])
        assert h.hyperedges == [(2.0, frozenset({0, 1})), (0.5, frozenset({0, 1, 2}))]
        assert not h.integer_weights and isinstance(h.hyperedges[0][0], float)

    @pytest.mark.parametrize("kind", ["int", "float", "mixed"])
    def test_eval_matches_the_definition(self, kind):
        # eval walks only the smaller side's incident hyperedges; visited in
        # ascending id order, it must add the same weights in the same order
        # as a walk over every hyperedge, so values agree bit for bit
        mixed = [0.1, 1 / 3, 1e12, 0.7, 2.5, 1e-3, 3]
        draw = {"int": lambda r: r.randint(0, 9),
                "float": lambda r: r.uniform(0, 10),
                "mixed": lambda r: r.choice(mixed)}[kind]

        def by_definition(h, left, right, tau):
            total = 0
            for w, pins in h.hyperedges:
                if not pins.isdisjoint(left) and not pins.isdisjoint(right):
                    total += w
            return min(tau, total)

        for seed in range(4):
            r = random.Random(seed)
            n = 14
            h = Hypergraph(n, [(draw(r), r.sample(range(n), r.randint(2, 4)))
                               for _ in range(3 * n)])
            oracles = [HypergraphCutOracle(h), HypergraphCutOracle(h, early_exit=False)]
            full = sum(w for w, _ in h.hyperedges)
            queries = [(F(), F()), (F(), F(*range(n))), (F(3), F())]
            for _ in range(60):
                vertices = r.sample(range(n), n)
                a, b = sorted(r.sample(range(n + 1), 2))
                queries.append((F(*vertices[:a]), F(*vertices[a:b])))
            for v in range(n):  # a singleton small side against the rest or a part
                rest = [u for u in range(n) if u != v]
                queries.append((F(v), F(*rest)))
                queries.append((F(*r.sample(rest, 5)), F(v)))
            for _, pins in h.hyperedges[:10]:  # small sides sharing a hyperedge
                shared = F(*pins)
                others = [u for u in range(n) if u not in shared]
                queries.append((shared, F(*r.sample(others, len(others) // 2 + 2))))
            for left, right in queries:
                exact = by_definition(h, left, right, INF)
                for tau in (INF, 7, 12.5, exact, full // 3, full / 7):
                    want = by_definition(h, left, right, tau)
                    for oracle in oracles:
                        for s, t in ((left, right), (right, left)):
                            got = oracle.eval(s, t, tau)
                            assert type(got) is type(want) and repr(got) == repr(want), (
                                oracle.early_exit, sorted(s), sorted(t), tau, got, want)

    def test_tracker_counts_each_edge_once(self):
        h = Hypergraph(4, [(2, {0, 1, 2}), (3, {1, 2, 3}), (1, {0, 3})])
        oracle = HypergraphCutOracle(h)
        tracker = oracle.key_tracker(Partition(4), first=0)
        assert tracker.keys == {1: 2, 2: 2, 3: 1}
        tracker.pop(1)
        tracker.advance(1)
        # edge {1,2,3} now touches the prefix; edge {0,1,2} already counted
        assert tracker.keys == {2: 5, 3: 4}

    def test_one_sync_follows_a_chain_of_joins(self):
        # a zero-weight hyperedge, one that becomes internal in the first
        # round and one that becomes internal only after the chain
        h = Hypergraph(5, [(1, {0, 1}), (2, {1, 2, 3}), (0, {0, 4}), (4, {2, 3, 4}),
                           (8, {0, 1, 2})])
        oracle = HypergraphCutOracle(h)
        p = Partition(5)
        p.join(1, 0)
        assert oracle.key_tracker(p, first=1).keys == {2: 10, 3: 2, 4: 0}
        quotient = oracle._quotients[p]
        assert 0 not in quotient.hyperedges and quotient.incident[1] == [1, 2, 4]
        p.join(2, 1)  # {0, 1} into 2, then {0, 1, 2} into 3: one sync
        p.join(3, 2)
        assert oracle.key_tracker(p, first=4).keys == {3: 4}
        assert oracle.key_tracker(p, first=3).keys == {4: 4}
        assert quotient.hyperedges == {2: (0, F(3, 4)), 3: (4, F(3, 4))}
        assert quotient.incident == {3: [2, 3], 4: [2, 3]}

    def test_synced_incidence_lists_stay_ascending(self):
        # the absorbing class 3 holds hyperedge 10, the retired class 0
        # hyperedge 3: merged as a set, they would come out as [10, 3]
        filler = [(1, {4, 5})]
        h = Hypergraph(6, filler * 3 + [(1, {0, 1})] + filler * 6 + [(1, {2, 3})])
        oracle = HypergraphCutOracle(h)
        p = Partition(6)
        p.join(4, 5)
        oracle.key_tracker(p, first=0)
        p.join(3, 0)
        oracle.key_tracker(p, first=1)
        assert oracle._quotients[p].incident == {1: [3], 2: [10], 3: [3, 10], 4: []}

    def test_tracker_matches_eval_on_random_instances(self):
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


SINGLETON_WEIGHTS = {
    "int": lambda r: r.randint(0, 9),
    "huge": lambda r: r.choice([0, 1, HUGE]),
    # two decimals, ten or so per row: a compensated sum() of them differs
    # from the += of eval on many rows
    "cents": lambda r: round(r.uniform(0, 10), 2),
    "float": lambda r: r.choice([0.1, 1 / 3, 2.5, 0.7, 1e-3, 7.25, 1e16]),
}


def singleton_evals(oracle, n):
    universe = frozenset(range(n))
    return [oracle.eval(F(v), universe - {v}, INF) for v in range(n)]


def typed(values):
    return [(type(x), x) for x in values]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(SINGLETON_WEIGHTS))
@pytest.mark.parametrize("hyper", [False, True], ids=["graph", "hypergraph"])
def test_singleton_values_are_the_singleton_evals(hyper, kind, seed):
    # vertex n - 1 is isolated (its value is int 0 on a float instance
    # too), and the graph repeats some of its edges with new weights
    r = random.Random(seed)
    n = 40
    weight = SINGLETON_WEIGHTS[kind]
    inner = range(n - 1)
    if hyper:
        instance = Hypergraph(n, [(weight(r), r.sample(inner, r.randint(2, 4)))
                                  for _ in range(4 * n)])
        oracle = HypergraphCutOracle(instance)
    else:
        edges = [(*r.sample(inner, 2), weight(r)) for _ in range(5 * n)]
        edges += [(u, v, weight(r)) for u, v, _ in r.sample(edges, n)]
        instance = WeightedGraph(n, edges)
        oracle = GraphCutOracle(instance)
    values = oracle.singleton_values(n)
    assert typed(values) == typed(singleton_evals(oracle, n))
    assert typed(values[-1:]) == [(int, 0)]


def contract_oracle(kind):
    """A graph or hypergraph cut oracle on 9 vertices, for the tracker contract."""
    if kind == "graph":
        return GraphCutOracle(gen_random_graph(9, 0.5, 9, seed=11, connected=True))
    return HypergraphCutOracle(gen_random_hypergraph(9, 16, 9, seed=11))


def contract_partition(oracle, on_quotient):
    """The discrete partition, or one whose quotient was built and then synced."""
    p = Partition(9)
    if on_quotient:
        p.join(1, 4)
        p.join(0, 6)
        oracle.key_tracker(p, first=0)  # builds the quotient
        p.join(2, 7)
        p.join(2, 1)
    return p


@pytest.mark.parametrize("on_quotient", [False, True], ids=["instance", "quotient"])
@pytest.mark.parametrize("kind", ["graph", "hypergraph"])
def test_tracker_appends_with_advance_and_settles_with_pop(kind, on_quotient):
    """``advance`` alone appends a class; one settled by ``pop`` first is accepted too."""
    oracle = contract_oracle(kind)
    p = contract_partition(oracle, on_quotient)
    tracker = oracle.key_tracker(p, first=0)
    prefix = p.member_set(0)
    rest = [c for c in p.classes() if c != 0]
    random.Random(3).shuffle(rest)
    for i, v in enumerate(rest):
        for c, key in tracker.keys.items():
            assert key == oracle.eval(p.member_set(c), prefix, INF), c
        assert v in tracker.keys
        if i % 2:
            key = tracker.keys[v]
            assert tracker.pop(v) == key and v not in tracker.keys
        changed = tracker.advance(v)
        assert v not in tracker.keys and v not in changed
        assert all(tracker.keys[c] == key for c, key in changed.items())
        prefix |= p.member_set(v)
    assert tracker.keys == {}


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

    FIVE = ConnectivityOracle(graph_cut_table(gen_random_graph(5, 0.8, 5, seed=1,
                                                               connected=True)))

    @pytest.mark.parametrize("left, right, bad", [
        (F(5), F(0), 5), (F(0), F(1, 6), 6), (F(7, 2), F(), 7)])
    def test_element_past_the_table_refused(self, left, right, bad):
        # unchecked, a read past the table is a bare IndexError; either side is tested
        with pytest.raises(ValueError, match=f"element {bad} is not one of the "
                                             "table's 5 elements"):
            self.FIVE.eval(left, right)

    def test_solver_with_more_elements_than_the_table_refused(self):
        with pytest.raises(ValueError, match="is not one of the table's 5 elements"):
            optimal_set(self.FIVE, 7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_value_rejected(self, bad):
        values = graph_cut_table(gen_random_graph(4, 0.8, 5, seed=1)).table_values
        for mask in (0b0110, 0b1111):  # an inner subset and the full set
            broken = list(values)
            broken[mask] = bad
            with pytest.raises(ValueError, match=f"mask {mask}: value is not finite"):
                SetFunctionTable(4, broken)


@pytest.mark.parametrize("build", [
    lambda: WeightedGraph(3, [(0, 1, HUGE), (1, 2, 1.5)]),
    lambda: Hypergraph(3, [(1.5, [0, 1]), (HUGE, [0, 1, 2])]),
    lambda: SetFunctionTable(2, [0.5, HUGE, HUGE, 0.5]),
    lambda: TableOracle(1, {(0, 1): 0.5, (1, 0): 0.5, (0, 0): HUGE}),
], ids=["graph", "hypergraph", "table", "table-oracle"])
def test_huge_integer_among_floats_rejected_at_construction(build):
    with pytest.raises(ValueError, match="too large for a float"):
        build()


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


def test_graph_cut_table_values(triangle):
    table = graph_cut_table(triangle)
    assert table.table_values[0b001] == 4
    assert table.table_values[0b100] == 3
    assert table.table_values[0] == 0
    assert table.table_values[0b111] == 0


def eval_table(graph):
    """The cut table by one strict oracle call per mask: the walk's reference."""
    full = (1 << graph.n) - 1
    oracle = GraphCutOracle(graph, early_exit=False)
    return [oracle.eval(set_of(mask), set_of(full ^ mask)) for mask in range(1 << graph.n)]


def exact_cut(graph, mask):
    """The cut of `mask` summed exactly over the edge list."""
    return sum((Fraction(w) for u, v, w in graph.edges if (mask >> u ^ mask >> v) & 1),
               Fraction(0))


def random_edges(rng, n, weight):
    """Up to 3n edges, parallel ones likely, each weight drawn by `weight(rng)`."""
    if n < 2:
        return []
    return [(*rng.sample(range(n), 2), weight(rng)) for _ in range(rng.randrange(3 * n + 1))]


INTEGER_GRAPHS = {
    "one vertex": lambda: WeightedGraph(1, []),
    "one edge": lambda: WeightedGraph(2, [(1, 0, 5)]),
    "two parallel edges": lambda: WeightedGraph(2, [(0, 1, 2), (1, 0, 3)]),
    "no edges": lambda: WeightedGraph(5, []),
    "zero weights": lambda: WeightedGraph(4, [(0, 1, 0), (2, 3, 0), (1, 2, 4), (0, 1, 0)]),
    "isolated vertices": lambda: WeightedGraph(7, [(1, 4, 2), (4, 5, 3), (5, 1, 1)]),
    "huge weights": lambda: WeightedGraph(5, [(0, 1, HUGE), (1, 2, 3), (2, 3, HUGE),
                                              (3, 0, HUGE + 1), (0, 1, HUGE)]),
    **{f"random n={n}": (lambda n=n: WeightedGraph(n, random_edges(
        random.Random(n), n, lambda rng: rng.choice([0, 1, 2, 7, 10**6]))))
       for n in range(1, 13)},
}


class TestGraphCutTable:
    @pytest.mark.parametrize("build", INTEGER_GRAPHS.values(), ids=INTEGER_GRAPHS.keys())
    def test_integer_table_equals_the_eval_table(self, build):
        graph = build()
        values = graph_cut_table(graph).table_values
        assert values == eval_table(graph)
        assert all(isinstance(v, int) for v in values)
        assert values == values[::-1]

    @pytest.mark.parametrize("seed", range(8))
    def test_float_values_are_the_correctly_rounded_cuts(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        weights = [0.0, 0.1, 1 / 3, 2.5, 1e-300, 1e6, 1e300]
        edges = random_edges(
            rng, n, lambda r: r.choice(weights) if r.random() < 0.5 else r.uniform(0, 100))
        graph = WeightedGraph(n, edges + [(0, 1, 0.5)])
        values = graph_cut_table(graph).table_values
        assert values == values[::-1]
        for mask, (value, walked) in enumerate(zip(values, eval_table(graph))):
            assert value == float(exact_cut(graph, mask)), mask
            assert values_equal(value, walked), (mask, value, walked)

    def test_float_rounding_differs_from_a_sum_in_walk_order(self):
        # 1 + 2**-53 + 2**-53 sums to 1.0 in walk order; the cut is 1 + 2**-52
        graph = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 2.0**-53), (0, 3, 2.0**-53)])
        assert graph_cut_table(graph).table_values[0b0001] == 1 + 2.0**-52
        assert eval_table(graph)[0b0001] == 1.0

    def test_cut_past_float_range_refused(self):
        graph = WeightedGraph(3, [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 0.5)])
        with pytest.raises(InstanceError, match="mask 1: value is not finite: inf"):
            graph_cut_table(graph)

    def test_builds_without_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph_cut_table called the oracle")
        graph = gen_random_graph(9, 0.5, 7, seed=3)
        expected = eval_table(graph)
        monkeypatch.setattr(GraphCutOracle, "eval", refuse)
        assert graph_cut_table(graph).table_values == expected

    @pytest.mark.parametrize("n", [21, 64])
    def test_size_refused_before_any_work(self, n):
        # a stand-in with no edges or weights: reading either would fail otherwise
        with pytest.raises(ValueError, match="table supports 1 <= n <= 20"):
            graph_cut_table(types.SimpleNamespace(n=n))

    def test_twenty_vertices(self):
        graph = WeightedGraph(20, random_edges(random.Random(20), 20,
                                               lambda rng: rng.randint(0, 9)))
        values = graph_cut_table(graph).table_values
        assert len(values) == 1 << 20
        assert values == values[::-1]
        full = (1 << 20) - 1
        oracle = GraphCutOracle(graph)
        for mask in random.Random(0).sample(range(1 << 20), 200):
            assert values[mask] == oracle.eval(set_of(mask), set_of(full ^ mask)), mask
