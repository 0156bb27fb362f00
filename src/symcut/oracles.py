"""Symmetric set functions behind a lax evaluation contract.

A lax oracle answers ``eval(S, T, tau) = min(tau, d(S, T))`` for disjoint
S and T. The cap is what makes threshold-driven minimization cheap: most
queries only need to know whether a value clears the current threshold,
so an oracle may stop computing as soon as the running value reaches tau.

Built-in oracles:

* :class:`GraphCutOracle`      -- weighted edge cut of a graph
* :class:`HypergraphCutOracle` -- weighted hyperedge cut
* :class:`ConnectivityOracle`  -- f(S) + f(T) - f(S|T) for an explicit set
  function f (minimizing it solves symmetric submodular minimization)
* :class:`TableOracle`         -- d given explicitly per disjoint pair,
  used as an adversarial test harness

All of them are monotone and consistent, which the brute-force module can
verify exhaustively on small ground sets.
"""

import math

from .values import INF, mask_of, set_of


class LaxOracle:
    """Contract for capped evaluation of a symmetric set function.

    Subclasses implement ``eval(left, right, tau)`` returning
    ``min(tau, d(left, right))`` for disjoint sets of element indices.
    Evaluation must be pure. Capability flags:

    ``keyed``
        supports :meth:`key_tracker` for incremental prefix keys
        (required by the queue-based order builder)
    ``integer_valued``
        every value of d is an integer (required by the bucket queue)
    ``value_bound``
        finite upper bound on d's values when ``integer_valued``
    """

    keyed = False
    integer_valued = False
    value_bound = None

    def eval(self, left, right, tau=INF):
        raise NotImplementedError

    def key_tracker(self, partition, first):
        """Start incremental prefix keys for one order construction."""
        raise TypeError("oracle does not support incremental keys")


def _require_disjoint(left, right):
    if not frozenset(left).isdisjoint(right):
        raise ValueError("left and right sets overlap")


def _require_finite(items, what):
    """Reject the first NaN or infinite value among (key, value) pairs."""
    for key, v in items:
        if not -INF < v < INF:
            raise ValueError(f"{what} {key} is not finite: {v!r}")


class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    Parallel edges are allowed and their weights accumulate in the
    adjacency structure; the raw edge list is kept as given. Self-loops
    and negative weights are rejected.
    """

    def __init__(self, n, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        self.edges = []
        self.adjacency = [{} for _ in range(n)]
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 0:
                raise ValueError(f"negative edge weight {w}")
            if not math.isfinite(w):
                raise ValueError("edge weights must be finite")
            self.edges.append((u, v, w))
            self.adjacency[u][v] = self.adjacency[u].get(v, 0) + w
            self.adjacency[v][u] = self.adjacency[v].get(u, 0) + w
        self.integer_weights = all(isinstance(w, int) for _, _, w in self.edges)
        self.total_weight = sum(w for _, _, w in self.edges)

    @property
    def m(self):
        return len(self.edges)

    def __eq__(self, other):
        return (isinstance(other, WeightedGraph)
                and self.n == other.n and self.edges == other.edges)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class GraphCutOracle(LaxOracle):
    """Lax cut oracle for a weighted graph.

    Iterates the adjacency of the smaller side and tests membership in the
    other. With ``early_exit`` (the default) the scan stops as soon as the
    running sum reaches tau; verification code disables it to cross-check
    exact values.
    """

    keyed = True

    def __init__(self, graph, early_exit=True):
        self.graph = graph
        self.early_exit = early_exit
        self.integer_valued = graph.integer_weights
        self.value_bound = graph.total_weight if graph.integer_weights else None

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        small, big = (left, right) if len(left) <= len(right) else (right, left)
        adjacency = self.graph.adjacency
        early_exit = self.early_exit
        total = 0
        for u in small:
            for v, w in adjacency[u].items():
                if v in big:
                    total += w
                    if early_exit and total >= tau:
                        return tau
        return min(tau, total)

    def key_tracker(self, partition, first):
        return _GraphKeyTracker(self.graph, partition, first)


class _GraphKeyTracker:
    """Exact prefix keys for graph cuts.

    ``keys[c]`` is the crossing weight between class c and the classes
    appended to the order so far. ``advance`` folds one more class into
    the prefix and returns the keys it changed.
    """

    def __init__(self, graph, partition, first):
        self._adjacency = graph.adjacency
        self._partition = partition
        self._blocks = {c: partition.members(c) for c in partition.classes()}
        self.keys = {c: 0 for c in self._blocks if c != first}
        self.advance(first)

    def pop(self, label):
        return self.keys.pop(label)

    def advance(self, appended):
        changed = {}
        class_of = self._partition.class_of
        keys = self.keys
        for x in self._blocks[appended]:
            for y, w in self._adjacency[x].items():
                c = class_of(y)
                if c in keys:
                    keys[c] += w
                    changed[c] = keys[c]
        return changed


class Hypergraph:
    """Weighted hypergraph on vertices 0..n-1; every hyperedge spans >= 2 pins."""

    def __init__(self, n, hyperedges):
        if n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        self.n = n
        self.hyperedges = []
        self.incident = [[] for _ in range(n)]
        for w, pins in hyperedges:
            pins = frozenset(pins)
            if len(pins) < 2:
                raise ValueError("hyperedge needs at least two pins")
            if not all(0 <= p < n for p in pins):
                raise ValueError("hyperedge pin out of range")
            if w < 0:
                raise ValueError(f"negative hyperedge weight {w}")
            if not math.isfinite(w):
                raise ValueError("hyperedge weights must be finite")
            idx = len(self.hyperedges)
            self.hyperedges.append((w, pins))
            for p in pins:
                self.incident[p].append(idx)
        self.integer_weights = all(isinstance(w, int) for w, _ in self.hyperedges)
        self.total_weight = sum(w for w, _ in self.hyperedges)

    @property
    def m(self):
        return len(self.hyperedges)

    def __eq__(self, other):
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.hyperedges == other.hyperedges)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


class HypergraphCutOracle(LaxOracle):
    """Lax cut oracle for a hypergraph.

    A hyperedge is cut by (S, T) when it has at least one pin on each side;
    its full weight then counts once. The per-edge crossing test
    short-circuits (isdisjoint stops at the first shared pin).
    """

    keyed = True

    def __init__(self, hypergraph, early_exit=True):
        self.hypergraph = hypergraph
        self.early_exit = early_exit
        self.integer_valued = hypergraph.integer_weights
        self.value_bound = hypergraph.total_weight if hypergraph.integer_weights else None

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        total = 0
        for w, pins in self.hypergraph.hyperedges:
            if not pins.isdisjoint(left) and not pins.isdisjoint(right):
                total += w
                if self.early_exit and total >= tau:
                    return tau
        return min(tau, total)

    def key_tracker(self, partition, first):
        return _HypergraphKeyTracker(self.hypergraph, partition, first)


class _HypergraphKeyTracker:
    """Exact prefix keys for hypergraph cuts.

    A hyperedge starts contributing to key(c) the moment it first touches
    the prefix; each edge is credited to every remaining class it pins,
    exactly once.
    """

    def __init__(self, hypergraph, partition, first):
        self._hypergraph = hypergraph
        self._partition = partition
        self._blocks = {c: partition.members(c) for c in partition.classes()}
        self._hit = [False] * hypergraph.m
        self.keys = {c: 0 for c in self._blocks if c != first}
        self.advance(first)

    def pop(self, label):
        return self.keys.pop(label)

    def advance(self, appended):
        changed = {}
        class_of = self._partition.class_of
        keys = self.keys
        hyperedges = self._hypergraph.hyperedges
        incident = self._hypergraph.incident
        for x in self._blocks[appended]:
            for ei in incident[x]:
                if self._hit[ei]:
                    continue
                self._hit[ei] = True
                w, pins = hyperedges[ei]
                for c in {class_of(p) for p in pins}:
                    if c in keys:
                        keys[c] += w
                        changed[c] = keys[c]
        return changed


class SetFunctionTable:
    """Explicit set function on all subsets of {0..n-1}, indexed by bitmask."""

    MAX_N = 20

    def __init__(self, n, table_values):
        if not 1 <= n <= self.MAX_N:
            raise ValueError(f"table supports 1 <= n <= {self.MAX_N}")
        table_values = list(table_values)
        if len(table_values) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(table_values)}")
        self.n = n
        self.table_values = table_values
        self.integer_valued = all(isinstance(v, int) for v in table_values)
        if not self.integer_valued:
            _require_finite(enumerate(table_values), "table value at mask")

    def __call__(self, mask):
        return self.table_values[mask]

    def __eq__(self, other):
        return (isinstance(other, SetFunctionTable)
                and self.n == other.n and self.table_values == other.table_values)

    def __repr__(self):
        return f"SetFunctionTable(n={self.n})"


class ConnectivityOracle(LaxOracle):
    """Pairwise connectivity induced by a set function f.

    d(S, T) = f(S) + f(T) - f(S|T). When f is submodular this is monotone
    and consistent; when f is additionally symmetric, a minimum bipartition
    of d is a nontrivial minimizer of f.
    """

    def __init__(self, table):
        self.table = table
        self.integer_valued = table.integer_valued
        if table.integer_valued:
            vals = table.table_values
            self.value_bound = 2 * max(vals) - min(vals)

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        f = self.table.table_values
        s = mask_of(left)
        t = mask_of(right)
        return min(tau, f[s] + f[t] - f[s | t])


class TableOracle(LaxOracle):
    """d given explicitly for every disjoint bitmask pair.

    The table must be symmetric and complete over all disjoint pairs
    (including pairs with an empty side). Intended as a harness for
    adversarial or randomly generated functions in tests.
    """

    def __init__(self, n, table):
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        self.table = dict(table)
        _require_finite(self.table.items(), "entry for masks")
        full = (1 << n) - 1
        for s in range(1 << n):
            t = full ^ s
            while True:
                if (s, t) not in self.table:
                    raise ValueError(f"missing entry for masks ({s}, {t})")
                if self.table[(s, t)] != self.table[(t, s)]:
                    raise ValueError(f"asymmetric entries for masks ({s}, {t})")
                if t == 0:
                    break
                t = (t - 1) & (full ^ s)
        vals = self.table.values()
        self.integer_valued = all(isinstance(v, int) for v in vals)
        if self.integer_valued:
            self.value_bound = max(vals)

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        key = (mask_of(left), mask_of(right))
        if key not in self.table:
            raise ValueError(f"missing entry for masks {key}")
        return min(tau, self.table[key])


def complete_table(n, entries=None, default=0):
    """Symmetric complete pair table with the given overrides.

    `entries` maps (s_mask, t_mask) to values; each override is mirrored.
    Handy for constructing small adversarial fixtures.
    """
    full = (1 << n) - 1
    table = {}
    for s in range(1 << n):
        t = full ^ s
        while True:
            table[(s, t)] = default
            if t == 0:
                break
            t = (t - 1) & (full ^ s)
    for (s, t), v in (entries or {}).items():
        table[(s, t)] = v
        table[(t, s)] = v
    return table


class ThresholdedOracle(LaxOracle):
    """View of another oracle with values capped at a fixed ceiling.

    eval(S, T, tau) = base.eval(S, T, min(tau, cap)). Capping preserves
    monotonicity and consistency, which is what makes threshold-driven
    ordering sound.
    """

    def __init__(self, base, cap):
        self.base = base
        self.cap = cap
        self.integer_valued = base.integer_valued and (cap == INF or isinstance(cap, int))
        if base.value_bound is not None and self.integer_valued:
            self.value_bound = base.value_bound if cap == INF else min(base.value_bound, cap)

    def eval(self, left, right, tau=INF):
        return self.base.eval(left, right, min(tau, self.cap))


class InducedOracle(LaxOracle):
    """Class-level view of an oracle.

    Element i stands for a fixed block of base elements; evaluation expands
    index sets to the union of their blocks. This realizes the function a
    contraction partition induces on its classes.
    """

    def __init__(self, base, blocks):
        self.base = base
        self.blocks = [frozenset(b) for b in blocks]
        self.n = len(self.blocks)
        self.integer_valued = base.integer_valued
        self.value_bound = base.value_bound

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        lm = frozenset().union(*(self.blocks[i] for i in left)) if left else frozenset()
        rm = frozenset().union(*(self.blocks[i] for i in right)) if right else frozenset()
        return self.base.eval(lm, rm, tau)


def graph_cut_table(graph):
    """Materialize a graph's cut function as an explicit set-function table.

    Cut functions are symmetric and submodular, so this is a convenient
    source of valid inputs for :class:`ConnectivityOracle`.
    """
    n = graph.n
    full = (1 << n) - 1
    oracle = GraphCutOracle(graph, early_exit=False)
    values = [oracle.eval(set_of(mask), set_of(full ^ mask)) for mask in range(1 << n)]
    return SetFunctionTable(n, values)
