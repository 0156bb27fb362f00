"""Line-oriented instance files and seeded generators.

Formats (whitespace-separated, UTF-8, '#' starts a comment line, vertex
ids are 1-based in files and 0-based in memory):

  graph       header "n m", then m lines "u v w"
  hypergraph  header "n m", then m lines "w k v1 ... vk"
  table       header "n", then 2^n lines "bitmask value"

The parsers only read tokens. The WeightedGraph, Hypergraph and
SetFunctionTable constructors hold files and library callers to the same
instance rules, and a file's rejected item is reported at its line. They
keep values as ints when every one is an int, else as floats; graphs and
hypergraphs report which in ``integer_weights``, which the CLI's report
shows and :func:`graph_cut_table` reads.

Graphs and tables in exactly the writers' layout (single spaces, one item
per "\n"-ended line, no comment, table masks 0..2^n-1 in order and in
plain decimal) are read in bulk: one shape check, one split and one int()
or float() pass per column, except a table's mask column, which is
compared as text with the one the writer prints. Any other text, and any
text the bulk read declines, goes through the line walk, the one general
parser and the only source of ParseError.
Both give the same instance. They call the same int() and float(); where
the walk mixes ints with floats, float(token) equals float(int(token))
for every int token that fits a float, as both round correctly. The bulk
read declines the two cases where they differ: an int token past float
range (float() gives inf, which the constructors refuse) and a negative
zero in a float column ("-0" is the int 0, which the walk stores as 0.0).
"""

import functools
import math
import random
import re
from numbers import Integral

from .oracles import Hypergraph, InstanceError, SetFunctionTable, WeightedGraph
from .values import INF, format_value


class ParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _data_lines(text, limit=None):
    """(line number, tokens) of each data line, or of the first `limit` ones.

    No data line is an error.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            rows.append((lineno, tokens))
            if len(rows) == limit:
                break
    if not rows:
        raise ParseError("empty input", 1)
    return rows


# the writers' layouts: whole text, single spaces, every line "\n"-ended
_GRAPH_SHAPE = re.compile(r"\S+ \S+\n(?:\S+ \S+ \S+\n)*")
_TABLE_SHAPE = re.compile(r"\S+\n(?:\S+ \S+\n)*")


def _in_bulk(read, shape, text):
    """`read(text.split())` on a comment-free text of `shape`, else None.

    None declines: the caller then walks the lines, which reports any
    fault. A ValueError from `read` (InstanceError included) declines too.
    """
    if "#" in text or shape.fullmatch(text) is None:
        return None
    try:
        return read(text.split())
    except ValueError:
        return None


def _bulk_values(tokens):
    """A value column as the walk stores it, or a ValueError to decline.

    Non-finite floats are left to the model constructors, which refuse them.
    """
    try:
        return list(map(int, tokens))
    except ValueError:
        pass
    values = list(map(float, tokens))
    # float("-0") is -0.0, where the walk stores float(int("-0")), which is 0.0
    if "-" in "".join(tokens) and any(math.copysign(1.0, v) < 0 for v in values if not v):
        raise ValueError("negative zero")
    return values


def _bulk_graph(tokens):
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 3 * m:
        return None
    weights = _bulk_values(tokens[4::3])
    return WeightedGraph(n, [(u - 1, v - 1, w) for u, v, w in zip(
        map(int, tokens[2::3]), map(int, tokens[3::3]), weights)])


@functools.cache
def _mask_column(n):
    """The writers' mask column of an n-element table, "0 1 ... 2^n-1" (88 KB at n = 14)."""
    return " ".join(map(str, range(1 << n)))


def _bulk_table(tokens):
    n = int(tokens[0])
    SetFunctionTable.require_size(n)  # before building range(2^n)
    # tokens hold no whitespace, so the texts are equal exactly when every
    # mask token is the decimal of its index as the writer prints it
    if len(tokens) != 1 + 2 * (1 << n) or " ".join(tokens[1::2]) != _mask_column(n):
        return None
    return SetFunctionTable(n, _bulk_values(tokens[2::2]))


def _parse_int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None


def _parse_weight(token, lineno):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad weight {token!r}", lineno) from None


def _counted_rows(text, kind, item):
    """Header line, vertex count and item rows of a file headed "n m"."""
    rows = _data_lines(text)
    header_line, header = rows[0]
    if len(header) != 2:
        raise ParseError(f"{kind} header must be 'n m'", header_line)
    n = _parse_int(header[0], header_line, "vertex count")
    m = _parse_int(header[1], header_line, f"{item} count")
    if m < 0:
        raise ParseError(f"negative {item} count", header_line)
    if len(rows) - 1 != m:
        lineno = rows[m + 1][0] if len(rows) - 1 > m else header_line
        raise ParseError(f"expected {m} {item} lines, found {len(rows) - 1}", lineno)
    return header_line, n, rows[1:]


def _build(model, n, items, header_line, line_of):
    """`model(n, items)`, its rejection reported at the line it concerns."""
    try:
        return model(n, items)
    except InstanceError as fault:
        raise ParseError(fault.reason, line_of[fault.index]) from None
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None


def parse_graph(text):
    graph = _in_bulk(_bulk_graph, _GRAPH_SHAPE, text)
    if graph is not None:
        return graph
    header_line, n, rows = _counted_rows(text, "graph", "edge")
    edges = []
    for lineno, tokens in rows:
        if len(tokens) != 3:
            raise ParseError("edge line must be 'u v w'", lineno)
        u = _parse_int(tokens[0], lineno, "vertex id")
        v = _parse_int(tokens[1], lineno, "vertex id")
        edges.append((u - 1, v - 1, _parse_weight(tokens[2], lineno)))
    return _build(WeightedGraph, n, edges, header_line, [lineno for lineno, _ in rows])


def write_graph(graph):
    lines = [f"{graph.n} {graph.m}"]
    for u, v, w in graph.edges:
        lines.append(f"{u + 1} {v + 1} {format_value(w)}")
    return "\n".join(lines) + "\n"


def parse_hypergraph(text):
    header_line, n, rows = _counted_rows(text, "hypergraph", "hyperedge")
    hyperedges = []
    for lineno, tokens in rows:
        if len(tokens) < 2:
            raise ParseError("hyperedge line must be 'w k v1 ... vk'", lineno)
        w = _parse_weight(tokens[0], lineno)
        k = _parse_int(tokens[1], lineno, "pin count")
        if len(tokens) - 2 != k:
            raise ParseError(
                f"pin count mismatch: declared {k}, found {len(tokens) - 2}", lineno)
        hyperedges.append((w, [_parse_int(t, lineno, "pin") - 1 for t in tokens[2:]]))
    return _build(Hypergraph, n, hyperedges, header_line, [lineno for lineno, _ in rows])


def write_hypergraph(hypergraph):
    lines = [f"{hypergraph.n} {hypergraph.m}"]
    for w, pins in hypergraph.hyperedges:
        pin_text = " ".join(str(p + 1) for p in sorted(pins))
        lines.append(f"{format_value(w)} {len(pins)} {pin_text}")
    return "\n".join(lines) + "\n"


def parse_table(text):
    table = _in_bulk(_bulk_table, _TABLE_SHAPE, text)
    if table is not None:
        return table
    rows = _data_lines(text)
    header_line, header = rows[0]
    if len(header) != 1:
        raise ParseError("table header must be a single 'n'", header_line)
    n = _parse_int(header[0], header_line, "element count")
    try:
        SetFunctionTable.require_size(n)  # before reading 2^n lines
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None
    size = 1 << n
    values = [None] * size
    line_of = [None] * size
    for lineno, tokens in rows[1:]:
        if len(tokens) != 2:
            raise ParseError("table line must be 'bitmask value'", lineno)
        mask = _parse_int(tokens[0], lineno, "bitmask")
        if not 0 <= mask < size:
            raise ParseError(f"bitmask out of range 0..{size - 1}", lineno)
        if line_of[mask] is not None:
            raise ParseError(f"duplicate bitmask {mask}", lineno)
        values[mask] = _parse_weight(tokens[1], lineno)
        line_of[mask] = lineno
    count = len(rows) - 1
    if count != size:
        raise ParseError(f"missing subset {line_of.index(None)} ({count} of {size} lines)",
                         rows[-1][0] if count else header_line)
    return _build(SetFunctionTable, n, values, header_line, line_of)


def write_table(table):
    lines = [str(table.n)]
    for mask, value in enumerate(table.table_values):
        lines.append(f"{mask} {format_value(value)}")
    return "\n".join(lines) + "\n"


def load_instance(text, kind=None):
    """Parse an instance file, sniffing the kind from its shape.

    A one-token header is a table; with an "n m" header, 3-token data lines
    mean a graph and longer lines a hypergraph (hyperedges need at least 4
    tokens). An explicit `kind` overrides sniffing.
    """
    if kind is not None:
        parser = {"graph": parse_graph, "hypergraph": parse_hypergraph,
                  "table": parse_table}.get(kind)
        if parser is None:
            raise ValueError(f"unknown instance kind {kind!r}")
        return kind, parser(text)
    rows = _data_lines(text, limit=2)
    if len(rows[0][1]) == 1:
        return "table", parse_table(text)
    if len(rows) > 1 and len(rows[1][1]) != 3:
        return "hypergraph", parse_hypergraph(text)
    return "graph", parse_graph(text)


def _check_generator(n, max_weight):
    """The generators' shared rule: two or more vertices, a whole max weight >= 1."""
    if not isinstance(n, Integral):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 1 <= max_weight < INF or max_weight != int(max_weight):
        raise ValueError("max weight must be a positive integer")


def gen_random_graph(n, p, max_weight, seed, connected=False):
    """Seeded random graph with integer weights in [1, max_weight].

    Each vertex pair is an edge with probability p. With `connected`, the
    draw repeats (continuing the same stream) until the graph is connected.
    Deterministic per (parameters, seed).
    """
    _check_generator(n, max_weight)
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    for _ in range(10000):
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v, rng.randint(1, int(max_weight))))
        graph = WeightedGraph(n, edges)
        if not connected or _is_connected(graph):
            return graph
    raise ValueError("could not draw a connected graph; raise p")


def gen_random_hypergraph(n, m, max_weight, seed):
    """Seeded random hypergraph: 2 to min(n, 4) pins, integer weights in [1, max_weight]."""
    _check_generator(n, max_weight)
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    rng = random.Random(seed)
    top = min(n, 4)  # n >= 2
    hyperedges = []
    for _ in range(m):
        k = rng.randint(2, top)
        pins = rng.sample(range(n), k)
        hyperedges.append((rng.randint(1, int(max_weight)), frozenset(pins)))
    return Hypergraph(n, hyperedges)


def _is_connected(graph):
    if graph.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in graph.adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.n
