"""Property tests of the instance formats.

Every instance a writer emits parses back to itself. Weights and values
are drawn as ints (huge ones included, which stay exact), as floats (any
finite one, with values whose shortest ``repr`` matters: ``0.1``, ``1 / 3``,
subnormals, the largest float) or as a mix, which the models store as
floats. Equality of the models ignores the int/float distinction
(``3 == 3.0``), so the value types are compared as well.

Graphs and tables in the writers' layout are read in bulk; every other
text goes through the line walk. The bulk read must never change what a
text parses to: on writer output and on perturbed copies of it, the
parsers return exactly what the line walk alone returns, value types and
signs of zero included, or raise the same ParseError at the same line.
"""

import math
from unittest import mock

import pytest

from symcut import (Hypergraph, ParseError, SetFunctionTable, WeightedGraph, instances,
                    parse_graph, parse_hypergraph, parse_table, write_graph,
                    write_hypergraph, write_table)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REPR_SENSITIVE = [0.1, 1 / 3, 0.30000000000000004, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 9007199254740993.0, 1e16, 1e-7, 123456.789]


def values(nonnegative):
    low = 0 if nonnegative else None
    ints = st.integers(min_value=low, max_value=10**40)
    floats = st.one_of(
        st.floats(min_value=low, allow_nan=False, allow_infinity=False),
        st.sampled_from(REPR_SENSITIVE if nonnegative
                        else REPR_SENSITIVE + [-x for x in REPR_SENSITIVE]))
    # the mix keeps its ints within float range: a model refuses others
    small_ints = st.integers(min_value=low, max_value=10**20)
    return st.sampled_from(["int", "float", "mixed"]).flatmap(lambda kind: {
        "int": st.lists(ints, max_size=12),
        "float": st.lists(floats, max_size=12),
        "mixed": st.lists(st.one_of(small_ints, floats), max_size=12),
    }[kind])


def types(seq):
    return [type(x) for x in seq]


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 9))
    weights = draw(values(nonnegative=True))
    pairs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                   unique=True),
                          min_size=len(weights), max_size=len(weights)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    pool = draw(values(nonnegative=False).filter(bool))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1 << n, max_size=1 << n))
    return SetFunctionTable(n, picks)


@settings(max_examples=150, deadline=None)
@given(g=graphs())
def test_graph_round_trip(g):
    back = parse_graph(write_graph(g))
    assert back == g
    assert types(w for _, _, w in back.edges) == types(w for _, _, w in g.edges)
    assert back.integer_weights == g.integer_weights


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 9), weights=values(nonnegative=True), data=st.data())
def test_hypergraph_round_trip(n, weights, data):
    pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 5), unique=True)
    pin_lists = data.draw(st.lists(pins, min_size=len(weights), max_size=len(weights)))
    h = Hypergraph(n, list(zip(weights, pin_lists)))
    back = parse_hypergraph(write_hypergraph(h))
    assert back == h
    assert types(w for w, _ in back.hyperedges) == types(w for w, _ in h.hyperedges)
    assert back.integer_weights == h.integer_weights


@settings(max_examples=150, deadline=None)
@given(t=tables())
def test_table_round_trip(t):
    back = parse_table(write_table(t))
    assert back == t
    assert types(back.table_values) == types(t.table_values)


def negative_zero(x):
    return x == 0 and math.copysign(1.0, x) < 0


def read(parse, text):
    """What `parse` makes of `text`, in a form that tells 1 from 1.0 and 0.0 from -0.0."""
    try:
        got = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    if isinstance(got, WeightedGraph):
        return "graph", got.n, repr(got.edges), got.integer_weights
    return "table", got.n, repr(got.table_values)


def walked(parse, text):
    """`read`, with the bulk read declining every text."""
    with mock.patch.object(instances, "_in_bulk", return_value=None):
        return read(parse, text)


# tokens a perturbation puts in place of one on a line, the header included:
# a vertex count of 10**400 or 2**1024 is refused before anything is allocated
TOKENS = ["x", "", "1_0", "+2", "-0", "-1", "0.5", "nan", "9" * 5000, "\u0663",
          "-00", "-0.0", "1e3", "inf", "-inf", "1e400", str(10**400), str(2**1024),
          "0" * 4999 + "7", "0x10", "3#"]


@st.composite
def perturbed(draw, text):
    """`text` with a few edits: lines, tokens, spaces or line breaks."""
    lines = text.split("\n")[:-1]
    breaks = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["comment", "blank", "space", "token", "shuffle",
                                     "duplicate", "drop", "count", "crlf", "unterminated",
                                     "join", "split"]))
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        if edit == "comment":
            lines.insert(at, draw(st.sampled_from(["# note", "#", "  # 1 2 3", "#1 2"])))
            breaks.insert(at, "\n")
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
            breaks.insert(at, "\n")
        elif edit == "space":
            gap = draw(st.sampled_from(["\t", "  ", " \t", "\x0b", "\xa0"]))
            where = draw(st.sampled_from(["lead", "inside", "trail"]))
            lines[at] = (gap + lines[at] if where == "lead" else lines[at] + gap
                         if where == "trail" else lines[at].replace(" ", gap, 1))
        elif edit == "token":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[at] = " ".join(tokens)
        elif edit == "shuffle" and len(lines) > 2:
            lines[1:] = draw(st.permutations(lines[1:]))
        elif edit == "duplicate" and at > 0:
            lines.insert(at, lines[at])
            breaks.insert(at, "\n")
        elif edit == "drop" and len(lines) > 1:
            del lines[at], breaks[at]
        elif edit == "count":
            header = lines[0].split(" ")
            if header[-1].isdecimal() and len(header[-1]) <= 4300:  # int()'s digit limit
                header[-1] = str(int(header[-1]) + draw(st.sampled_from([-1, 1])))
                lines[0] = " ".join(header)
        elif edit == "crlf":
            breaks[at] = draw(st.sampled_from(["\r\n", "\r", "\x85"]))
        elif edit == "unterminated":
            breaks[-1] = ""
        elif edit == "join" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + " " + lines[at + 1]]
            del breaks[at]
        elif edit == "split" and " " in lines[at]:
            lines[at:at + 1] = lines[at].split(" ", 1)
            breaks.insert(at, "\n")
    return "".join(map(str.__add__, lines, breaks))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_graph_bulk_read_matches_the_line_walk(data):
    graph = data.draw(graphs())
    text = data.draw(perturbed(write_graph(graph)))
    assert read(parse_graph, text) == walked(parse_graph, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_bulk_read_matches_the_line_walk(data):
    table = data.draw(tables())
    text = data.draw(perturbed(write_table(table)))
    assert read(parse_table, text) == walked(parse_table, text)


@pytest.mark.parametrize("parse,text", [
    (parse_graph, "3 2\n1 2 0.5\n2 3 -0\n"),
    (parse_graph, "3 2\n1 2 -0\n2 3 -0.0\n"),
    (parse_graph, "3 2\n1 2 1_000\n2 3 +2\n"),
    (parse_graph, "3 2\n1 2 0.5\n2 3 1_000\n"),
    (parse_graph, f"3 2\n1 2 0.5\n2 3 {10**400}\n"),
    (parse_graph, f"3 2\n1 2 0.5\n2 3 {'0' * 4999}7\n"),
    (parse_graph, f"3 2\n1 2 5\n2 3 {'9' * 5000}\n"),
    (parse_graph, f"3 2\n1 2 5\n2 {'0' * 4999}3 1\n"),
    (parse_graph, "3 2\n1 2 5\n2 3 nan\n"),
    (parse_graph, "3 2\n1 2 5\n2 2 1\n"),
    (parse_graph, "3 3\n1 2 5\n2 3 1\n"),
    (parse_graph, "0 0\n"),
    (parse_graph, f"{10**400} 0\n"),
    (parse_table, "1\n0 0.5\n1 -0\n"),
    (parse_table, "1\n0 -0.0\n1 -0.5\n"),
    (parse_table, f"1\n0 0.5\n1 {2**1024}\n"),
    (parse_table, "1\n1 2\n0 3\n"),
    (parse_table, "1\n0 2\n0 3\n"),
    (parse_table, "1\n00 2\n1_0 3\n"),
    (parse_table, "1\n0 2\n+1 3\n"),
    (parse_table, "2\n0 0\n01 1\n2 1\n3 0\n"),
    (parse_table, "1\n0 2\n\u0661 3\n"),
    (parse_table, "1\n0 2\n1 3\n"),
    (parse_table, "21\n0 1\n"),
    (parse_table, "1\n0 inf\n1 3\n"),
    # tokens in the writers' order whose lines are not the writers'
    (parse_graph, "3 2\n1 2\n5 2 3 1\n"),
    (parse_graph, "3\n2 1 2 5\n2 3 1\n"),
    (parse_graph, "3 2\n1 2 5\n2 3 1"),
    (parse_table, "1\n0\n5 1 6\n"),
    (parse_table, "1\n0 2\n1 3"),
    # too few tokens for a header, or for the lines it counts
    (parse_graph, ""),
    (parse_graph, "5\n"),
    (parse_graph, " 0\n"),
    (parse_table, ""),
    (parse_table, "5\n"),
    (parse_table, " 0\n"),
    # the template inserts a value token, never formats it
    (parse_table, "1\n0 5%\n1 3\n"),
], ids=["graph-minus-0-among-floats", "graph-minus-0-and-minus-0.0", "graph-underscore-plus",
        "graph-underscore-among-floats", "graph-int-past-floats", "graph-5000-digit-7",
        "graph-5000-digit-weight", "graph-5000-digit-id", "graph-nan", "graph-self-loop",
        "graph-short-count", "graph-no-vertex", "graph-huge-vertex-count",
        "table-minus-0-among-floats",
        "table-minus-0.0", "table-int-past-floats", "table-masks-out-of-order",
        "table-duplicate-mask", "table-padded-masks", "table-plus-mask",
        "table-leading-zero-mask", "table-arabic-indic-mask", "table-ints", "table-n-21",
        "table-inf", "graph-edges-across-lines", "graph-header-split", "graph-unterminated",
        "table-lines-regrouped", "table-unterminated", "graph-empty", "graph-one-token",
        "graph-indented-one-token", "table-empty", "table-header-only", "table-indented-n-0",
        "table-percent-value"])
def test_bulk_read_matches_the_line_walk_on_edge_cases(parse, text):
    assert read(parse, text) == walked(parse, text)


def no_line_walk(*_):
    raise AssertionError("writer output reached the line walk")


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_graph_writer_output_is_read_in_bulk(graph):
    with mock.patch.object(instances, "_data_lines", no_line_walk):
        back = parse_graph(write_graph(graph))
    assert repr(back.edges) == repr(graph.edges)


@settings(max_examples=100, deadline=None)
@given(table=tables().filter(lambda t: not any(map(negative_zero, t.table_values))))
def test_table_writer_output_is_read_in_bulk(table):
    with mock.patch.object(instances, "_data_lines", no_line_walk):
        back = parse_table(write_table(table))
    assert repr(back.table_values) == repr(table.table_values)
