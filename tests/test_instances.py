import pytest

from symcut import (Hypergraph, ParseError, SetFunctionTable, WeightedGraph,
                    gen_random_graph, gen_random_hypergraph, graph_cut_table,
                    load_instance, parse_graph, parse_hypergraph, parse_table,
                    write_graph, write_hypergraph, write_table)
from instance_texts import TRIANGLE_TEXT, TWO_VERTEX_TEXT


class TestParseGraph:
    def test_triangle(self, triangle):
        assert parse_graph(TRIANGLE_TEXT) == triangle

    def test_two_vertex(self):
        g = parse_graph(TWO_VERTEX_TEXT)
        assert g.n == 2 and g.edges == [(0, 1, 5)]

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph("2 1\n1 1 5\n")
        assert err.value.line == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("2 1\n1 3 5\n")

    def test_negative_weight(self):
        with pytest.raises(ParseError):
            parse_graph("2 1\n1 2 -5\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2 1\n")
        with pytest.raises(ParseError):
            parse_graph("3 1\n1 2 1\n1 3 1\n")

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\n3 3\n1 2 3\n# middle\n1 3 1\n2 3 2\n"
        assert parse_graph(text) == parse_graph(TRIANGLE_TEXT)

    def test_float_weights_switch_mode(self):
        g = parse_graph("2 1\n1 2 2.5\n")
        assert not g.integer_weights
        mixed = parse_graph("3 2\n1 2 2\n2 3 0.5\n")
        assert not mixed.integer_weights
        assert all(isinstance(w, float) for _, _, w in mixed.edges)


class TestParseHypergraph:
    def test_single_edge(self):
        h = parse_hypergraph("3 1\n2 3 1 2 3\n")
        assert h.n == 3
        assert h.hyperedges == [(2, frozenset({0, 1, 2}))]

    def test_pin_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 1\n2 3 1 2\n")

    def test_too_few_pins(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 1\n2 1 1\n")

    def test_duplicate_pin(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 1\n2 2 1 1\n")


class TestParseTable:
    def test_small_table(self):
        t = parse_table("2\n0 0\n1 3\n2 3\n3 0\n")
        assert t == SetFunctionTable(2, [0, 3, 3, 0])

    def test_missing_subset(self):
        with pytest.raises(ParseError) as err:
            parse_table("2\n0 0\n1 3\n2 3\n")
        assert "missing" in str(err.value)

    def test_duplicate_mask(self):
        with pytest.raises(ParseError):
            parse_table("2\n0 0\n1 3\n1 4\n3 0\n")


@pytest.mark.parametrize("seed", range(6))
def test_graph_round_trip(seed):
    g = gen_random_graph(5 + seed % 3, 0.6, 9, seed=seed)
    assert parse_graph(write_graph(g)) == g


def test_float_graph_round_trip():
    g = WeightedGraph(3, [(0, 1, 0.125), (1, 2, 3.5)])
    assert parse_graph(write_graph(g)) == g


@pytest.mark.parametrize("seed", range(4))
def test_hypergraph_round_trip(seed):
    h = gen_random_hypergraph(6, 5, 7, seed=seed)
    assert parse_hypergraph(write_hypergraph(h)) == h


def test_table_round_trip(triangle):
    t = graph_cut_table(triangle)
    assert parse_table(write_table(t)) == t


class TestGenerators:
    def test_deterministic(self):
        a = gen_random_graph(8, 0.4, 10, seed=7)
        b = gen_random_graph(8, 0.4, 10, seed=7)
        assert a == b
        assert write_graph(a) == write_graph(b)

    def test_complete_graph_at_p_one(self):
        g = gen_random_graph(5, 1.0, 1, seed=1)
        assert g.m == 10
        assert all(w == 1 for _, _, w in g.edges)

    def test_connected_flag(self):
        for seed in range(10):
            g = gen_random_graph(7, 0.3, 5, seed=seed, connected=True)
            from symcut.instances import _is_connected
            assert _is_connected(g)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_random_graph(1, 0.5, 5, seed=0)
        with pytest.raises(ValueError):
            gen_random_graph(4, 0.0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_random_graph(4, 0.5, 0, seed=0)

    def test_hypergraph_deterministic(self):
        assert gen_random_hypergraph(6, 4, 5, seed=3) == \
            gen_random_hypergraph(6, 4, 5, seed=3)


class TestLoadInstance:
    def test_sniff_graph(self):
        kind, obj = load_instance(TRIANGLE_TEXT)
        assert kind == "graph" and isinstance(obj, WeightedGraph)

    def test_sniff_hypergraph(self):
        kind, obj = load_instance("3 1\n2 3 1 2 3\n")
        assert kind == "hypergraph" and isinstance(obj, Hypergraph)

    def test_sniff_table(self):
        kind, obj = load_instance("2\n0 0\n1 3\n2 3\n3 0\n")
        assert kind == "table" and isinstance(obj, SetFunctionTable)

    def test_explicit_kind_overrides(self):
        kind, obj = load_instance(TRIANGLE_TEXT, kind="graph")
        assert kind == "graph"
        with pytest.raises(ValueError):
            load_instance(TRIANGLE_TEXT, kind="matrix")
