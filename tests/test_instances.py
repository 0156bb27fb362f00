import hashlib
from functools import partial

import pytest

from symcut import (INF, Hypergraph, ParseError, SetFunctionTable, WeightedGraph,
                    gen_random_graph, gen_random_hypergraph, graph_cut_table,
                    instances, load_instance, parse_graph, parse_hypergraph,
                    parse_table, write_graph, write_hypergraph, write_table)
from symcut.oracles import MAX_VERTICES
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

    def test_huge_integer_among_floats_names_its_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_table(f"1\n0 0.5\n1 {10**400}\n")


# each rule the model constructors enforce, broken on the fourth line of a
# file whose first item line is valid
GRAPH_HEAD = "3 2\n# one good edge\n1 2 1\n"
HYPER_HEAD = "3 2\n# one good hyperedge\n1 2 1 2\n"
TABLE_HEAD = "1\n# f(empty)\n0 0.5\n"


@pytest.mark.parametrize("parse,text,reason", [
    (parse_graph, GRAPH_HEAD + "2 2 1\n", "self-loop"),
    (parse_graph, GRAPH_HEAD + "0 3 1\n", "not one of the 3 vertices"),
    (parse_graph, GRAPH_HEAD + "2 4 1\n", "not one of the 3 vertices"),
    (parse_graph, GRAPH_HEAD + "2 3 -1.5\n", "negative weight"),
    (parse_graph, GRAPH_HEAD + "2 3 inf\n", "not finite"),
    (parse_graph, GRAPH_HEAD + "2 3 -inf\n", "not finite"),
    (parse_graph, GRAPH_HEAD + "2 3 nan\n", "not finite"),
    (parse_hypergraph, HYPER_HEAD + "-2 2 1 3\n", "negative weight"),
    (parse_hypergraph, HYPER_HEAD + "nan 2 1 3\n", "not finite"),
    (parse_hypergraph, HYPER_HEAD + "1 3 1 3 3\n", "duplicate pin"),
    (parse_hypergraph, HYPER_HEAD + "1 2 1 4\n", "not one of the 3 vertices"),
    (parse_hypergraph, HYPER_HEAD + "1 2 0 1\n", "not one of the 3 vertices"),
    (parse_hypergraph, HYPER_HEAD + "1 1 2\n", "fewer than two pins"),
    (parse_table, TABLE_HEAD + "1 inf\n", "not finite"),
    (parse_table, TABLE_HEAD + "1 nan\n", "not finite"),
    (parse_table, TABLE_HEAD + f"1 {10**400}\n", "too large for a float"),
])
def test_broken_rule_reported_at_its_line(parse, text, reason):
    with pytest.raises(ParseError, match=reason) as err:
        parse(text)
    assert err.value.line == 4


@pytest.mark.parametrize("text,line", [
    ("3 2\n1 2 -5\n1 1 3\n", 2),
    ("3 2\n1 1 3\n1 2 -5\n", 2),
    ("3 3\n1 2 0.5\n1 1 3\n2 3 nan\n", 3),
])
def test_first_broken_edge_is_reported(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line


@pytest.mark.parametrize("parse", [
    parse_graph, parse_hypergraph, parse_table, load_instance,
    partial(load_instance, kind="graph"), partial(load_instance, kind="hypergraph"),
    partial(load_instance, kind="table"),
], ids=["graph", "hypergraph", "table", "load", "load-graph", "load-hypergraph",
        "load-table"])
@pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"], ids=["blank", "comments"])
def test_empty_input_reported_at_line_1(parse, text):
    with pytest.raises(ParseError, match="^line 1: empty input$") as err:
        parse(text)
    assert err.value.line == 1


def test_vertex_count_below_one_reported_at_the_header():
    with pytest.raises(ParseError) as err:
        parse_graph("# empty\n0 0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("parse", [parse_graph, parse_hypergraph, load_instance],
                         ids=["graph", "hypergraph", "load"])
@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**10, 10**400])
def test_vertex_count_above_the_limit_reported_at_the_header(parse, n):
    # refused before one list per vertex is allocated, with or without items
    with pytest.raises(ParseError, match=f"^line 2: .* <= {MAX_VERTICES} vertices$") as err:
        parse(f"# huge\n{n} 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="^line 1: ") as err:
        parse(f"{n} 1\n1 2 3\n" if parse is parse_graph else f"{n} 1\n3 2 1 2\n")


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


# The writers share their layouts with the bulk readers, so a round trip
# cannot see a layout both get wrong; these texts pin it on their own.
@pytest.mark.parametrize("write,instance,text", [
    (write_table, SetFunctionTable(2, [0, 3, -2, 10**20]),
     "2\n0 0\n1 3\n2 -2\n3 100000000000000000000\n"),
    (write_table, SetFunctionTable(2, [0.1, 1 / 3, 1e300, 2.0**60]),
     "2\n0 0.1\n1 0.3333333333333333\n2 1e+300\n3 1.152921504606847e+18\n"),
    (write_table, SetFunctionTable(1, [-0.0, 2.5]), "1\n0 -0.0\n1 2.5\n"),
    (write_table, SetFunctionTable(1, [3, 0.5]), "1\n0 3.0\n1 0.5\n"),
    (write_graph, WeightedGraph(3, [(0, 1, 5), (2, 1, 1)]), "3 2\n1 2 5\n3 2 1\n"),
    (write_graph, WeightedGraph(3, [(0, 1, 0.1), (1, 2, 2.0**60), (0, 2, 1e300)]),
     "3 3\n1 2 0.1\n2 3 1.152921504606847e+18\n1 3 1e+300\n"),
    (write_graph, WeightedGraph(2, [(0, 1, -0.0), (1, 0, 3)]), "2 2\n1 2 -0.0\n2 1 3.0\n"),
    (write_graph, WeightedGraph(3, []), "3 0\n"),
], ids=["table-ints", "table-floats", "table-minus-0.0", "table-mixed", "graph-ints",
        "graph-floats", "graph-minus-0.0-and-mixed", "graph-edgeless"])
def test_writers_emit_their_layouts(write, instance, text):
    assert write(instance) == text


# circulant graphs on 14 vertices, steps 1, 2 and 5, with int and with
# two-decimal weights
CUT_TABLE_DIGESTS = {
    "int": (lambda u, v: 1 + (3 * u + 5 * v) % 11,
            "221859524dafd066053a2e7a53fa7ceed78631d23c4cb718b6efad5426b9ff42"),
    "float": (lambda u, v: round(1 + (5 * u + 3 * v) % 89 / 7, 2),
              "53aa167b35881afdaae6e13f7947883cc2fb68a7079da86ab7dbaffd17d93c9b"),
}


@pytest.mark.parametrize("weight,digest", CUT_TABLE_DIGESTS.values(),
                         ids=CUT_TABLE_DIGESTS.keys())
def test_cut_table_text_is_pinned_at_n_14(weight, digest):
    graph = WeightedGraph(14, [(u, v, weight(u, v)) for u in range(14)
                               for v in range(u + 1, 14) if v - u in (1, 2, 5)])
    text = write_table(graph_cut_table(graph))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            gen_random_graph(4.5, 0.5, 5, seed=0)
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            gen_random_hypergraph(4.5, 3, 5, seed=0)
        with pytest.raises(ValueError):
            gen_random_graph(4, 0.0, 5, seed=0)
        with pytest.raises(ValueError):
            gen_random_graph(4, 0.5, 0, seed=0)

    @pytest.mark.parametrize("max_weight", [0, 2.5, INF, float("nan")])
    def test_both_generators_refuse_a_max_weight_that_is_not_a_positive_integer(
            self, max_weight):
        with pytest.raises(ValueError, match="max weight must be a positive integer"):
            gen_random_graph(5, 0.5, max_weight, seed=0)
        with pytest.raises(ValueError, match="max weight must be a positive integer"):
            gen_random_hypergraph(5, 4, max_weight, seed=0)

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


def _stripped_rows(text):
    """The data lines as stripping, then splitting, each line reads them."""
    return [(lineno, raw.strip().split()) for lineno, raw in enumerate(text.splitlines(), 1)
            if raw.strip() and not raw.strip().startswith("#")]


@pytest.mark.parametrize("text", [
    "3 1\r\n1\t2  3\r\n",
    "  # an indented comment\n\t\n 3 1 \n\t1 2 3\n",
    "#\n#x y\n\t#\tz\n2\n0 1\n",
    "\x0c3 1\x0b1 2 3\x85\u20282\xa03 4\x1c\n",
    "3 1\n1 2 3 # not a comment line\n",
    "\n\n",
], ids=["tabs-crlf", "leading-blanks", "hash-led", "other-breaks", "inline-hash", "blank"])
def test_data_lines_are_the_stripped_lines(text):
    expected = _stripped_rows(text)
    for limit in (None, 1, 2):
        if expected:
            assert instances._data_lines(text, limit) == expected[:limit]
        else:
            with pytest.raises(ParseError, match="^line 1: empty input$"):
                instances._data_lines(text, limit)


@pytest.mark.parametrize("text,kind", [
    ("# a graph\n\n3 1\n# its edge\n1 2 5\n", "graph"),
    ("\n \t\n3 1\n\n2 3 1 2 3\n", "hypergraph"),
    ("# a table\n\n1\n# f(empty)\n0 0\n1 0\n", "table"),
    ("2 0\n", "graph"),
    ("  \n# no items\n2 0", "graph"),
], ids=["commented-graph", "blank-led-hypergraph", "commented-table", "one-line",
        "blank-led-one-line"])
def test_load_sniffs_commented_blank_led_and_one_line_inputs(text, kind):
    got_kind, instance = load_instance(text)
    assert got_kind == kind
    assert instance == load_instance(text, kind=kind)[1]


def test_load_reads_a_one_line_table_as_a_table():
    with pytest.raises(ParseError, match=r"^line 2: missing subset 0 \(0 of 2 lines\)$"):
        load_instance("# no values\n1\n")


def test_sniffing_splits_no_line_past_the_second_data_line(monkeypatch):
    split = []

    class Line(str):
        def split(self):
            split.append(str(self))
            return super().split()

    class Text(str):
        def splitlines(self):
            return [Line(raw) for raw in super().splitlines()]

    monkeypatch.setattr(instances, "parse_graph", lambda text: "parsed")
    assert load_instance(Text("# c\n\n3 3\n1 2 3\n1 3 1\n2 3 2\n")) == ("graph", "parsed")
    assert split == ["# c", "", "3 3", "1 2 3"]
