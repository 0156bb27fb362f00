"""Property tests: every instance a writer emits parses back to itself.

Weights and values are drawn as ints (huge ones included, which stay
exact), as floats (any finite one, with values whose shortest ``repr``
matters: ``0.1``, ``1 / 3``, subnormals, the largest float) or as a mix, which
the models store as floats. Equality of the models ignores the int/float
distinction (``3 == 3.0``), so the value types are compared as well.
"""

import pytest

from symcut import (Hypergraph, SetFunctionTable, WeightedGraph, parse_graph,
                    parse_hypergraph, parse_table, write_graph, write_hypergraph,
                    write_table)

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


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 9), weights=values(nonnegative=True), data=st.data())
def test_graph_round_trip(n, weights, data):
    pairs = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True),
                               min_size=len(weights), max_size=len(weights)))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
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
@given(n=st.integers(1, 4), data=st.data())
def test_table_round_trip(n, data):
    pool = data.draw(values(nonnegative=False).filter(bool))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1 << n, max_size=1 << n))
    t = SetFunctionTable(n, picks)
    back = parse_table(write_table(t))
    assert back == t
    assert types(back.table_values) == types(t.table_values)
