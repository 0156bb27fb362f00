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

All of them are monotone and consistent, which the brute-force module can
verify exhaustively on small ground sets.

The two cut oracles are also keyed: their key trackers keep the prefix
keys of one order incrementally, for the queue builder. While every class
is a single vertex a tracker walks the instance itself. Once classes have
joined it walks a quotient of the partition: the graph or hypergraph with
each class as one vertex and the edges inside a class dropped. Each oracle
keeps one quotient per live partition and brings it up to date with the
joins made since its last tracker, so an order costs in the class-level
edges or pins, not in the instance. A quotient is built from the members
of the classes other than the largest: every edge or hyperedge between
two classes touches one of them, so the build costs their incidences,
not the instance's. Keys of integer instances are exact; float keys
after the first round may differ from a walk of the instance in the last
place, since the quotient sums them in another order (a graph quotient
copies each small class's sum into the largest class's row).

Graphs and hypergraphs have at most ``MAX_VERTICES`` vertices, checked
before their per-vertex lists are built.
"""

import weakref

from .values import INF, mask_of


class LaxOracle:
    """Contract for capped evaluation of a symmetric set function.

    Subclasses implement ``eval(left, right, tau)`` returning
    ``min(tau, d(left, right))`` for disjoint sets of element indices.
    Evaluation must be pure and must not keep references to its arguments:
    callers mutate and reuse the sets they pass (the scan builder's growing
    prefix, the driver's one complement set for all singleton probes).

    The id rule: every id a caller passes lies in 0..n-1. The solver passes
    only unions of partition classes, so it keeps the rule by construction;
    an oracle need not check it. The cut oracles refuse a bad id on the
    side they walk and only test the other side for membership, so a bad
    id there is not reported.

    Capability flag:

    ``keyed``
        provides ``key_tracker(partition, first)`` for incremental prefix
        keys (required by the queue-based order builder, which refuses an
        oracle that is not keyed)
    """

    keyed = False

    def eval(self, left, right, tau=INF):
        raise NotImplementedError


def _require_disjoint(left, right):
    if not frozenset(left).isdisjoint(right):
        raise ValueError("left and right sets overlap")


def _unknown_element(u, n):
    """The error for an element id outside 0..n-1 on the side a cut oracle walks.

    The cut oracles index their adjacency or incidence lists by the ids of
    the smaller side, where -1 would read the last vertex's list, so they
    test each id of that side before they read its list. The other side is
    only tested for membership, so its ids are not checked.
    """
    return ValueError(f"element {u!r} is not one of the {n} vertices")


class InstanceError(ValueError):
    """A rejected edge, hyperedge or table entry, named by its ``index``.

    ``reason`` names no vertex id, so a parser can report it at a line.
    """

    def __init__(self, item, index, reason):
        super().__init__(f"{item} {index}: {reason}")
        self.index = index
        self.reason = reason


def _instance_values(values, item, what, nonnegative=False):
    """The value rule of every instance: returns (values, all ints).

    A list of ints is returned as it is; otherwise every value becomes a
    float. NaN, +-inf, an int too large for a float among fractional
    values and, with `nonnegative`, a negative value are rejected with an
    InstanceError naming the first such item.
    """
    if all(map(int.__instancecheck__, values)):
        if nonnegative and values and min(values) < 0:
            i = next(i for i, v in enumerate(values) if v < 0)
            raise InstanceError(item, i, f"negative {what} {values[i]}")
        return values, True
    floats = []
    for i, v in enumerate(values):
        if not -INF < v < INF:
            raise InstanceError(item, i, f"{what} is not finite: {v!r}")
        if nonnegative and v < 0:
            raise InstanceError(item, i, f"negative {what} {v}")
        try:
            floats.append(float(v))
        except OverflowError:
            raise InstanceError(item, i, f"integer {what} too large for a float, "
                                f"and other {what}s are fractional") from None
    return floats, False


#: the most vertices a graph or hypergraph may have, like ``BucketQueue.MAX_TOP``
MAX_VERTICES = 1 << 20


def _require_vertex_count(n, kind):
    """Refuse a vertex count outside 1..MAX_VERTICES, before anything is allocated.

    A constructor builds one adjacency dict or incidence list per vertex,
    so a count read from a file header must be bounded first.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"{kind} supports 1 <= n <= {MAX_VERTICES} vertices")


class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, n at most MAX_VERTICES.

    Parallel edges are allowed and their weights accumulate in the
    adjacency structure; the raw edge list is kept as given (weights as
    floats unless all are ints). Self-loops, endpoints out of range and
    negative or non-finite weights are rejected.
    """

    def __init__(self, n, edges):
        _require_vertex_count(n, "graph")
        edges = list(edges)
        try:
            weights, self.integer_weights = _instance_values(
                [w for _, _, w in edges], "edge", "weight", nonnegative=True)
        except InstanceError as fault:
            WeightedGraph(n, edges[:fault.index])  # reports a bad edge before it
            raise
        self.n = n
        self.edges = []
        self.adjacency = [{} for _ in range(n)]
        for i, ((u, v, _), w) in enumerate(zip(edges, weights)):
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError("edge", i, f"endpoint is not one of the {n} vertices")
            if u == v:
                raise InstanceError("edge", i, "self-loop")
            self.edges.append((u, v, w))
            self.adjacency[u][v] = self.adjacency[u].get(v, 0) + w
            self.adjacency[v][u] = self.adjacency[v].get(u, 0) + w

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
    other. Ids follow the :class:`LaxOracle` rule: one of the smaller side
    outside 0..n-1 is refused with a ValueError when the walk reaches it;
    the other side's ids are only tested for membership.

    With ``early_exit`` (the default) the walk stops as soon as the running
    sum reaches tau and returns tau. Weights are nonnegative, so the full
    sum would reach tau too and ``min(tau, total)`` would be tau: the flag
    changes the cost of a call, never its value. Outside the tests, only
    the benchmark's answer check (``perfbench/check.py``) still turns it
    off.
    """

    keyed = True

    def __init__(self, graph, early_exit=True):
        self.graph = graph
        self.early_exit = early_exit
        self._quotients = weakref.WeakKeyDictionary()  # partition -> _GraphQuotient

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        small, big = (left, right) if len(left) <= len(right) else (right, left)
        adjacency = self.graph.adjacency
        n = len(adjacency)
        early_exit = self.early_exit
        total = 0
        for u in small:
            if not 0 <= u < n:
                raise _unknown_element(u, n)
            for v, w in adjacency[u].items():
                if v in big:
                    total += w
                    if early_exit and total >= tau:
                        return tau
        return min(tau, total)

    def key_tracker(self, partition, first):
        """Prefix keys read from the partition's class-level adjacency.

        Before any join the graph is its own quotient. Once the partition
        has joined classes, the tracker reads the partition's quotient
        graph, built once and then synced (:func:`_synced_quotient`). An
        order thus costs O(k + m_k) on k classes and the m_k edges between
        them.
        """
        if partition.class_count == self.graph.n:
            return _GraphKeyTracker(self.graph.adjacency, partition, first)
        quotient = _synced_quotient(self._quotients, _GraphQuotient, self.graph, partition)
        return _GraphKeyTracker(quotient.rows, partition, first)


def _synced_quotient(cache, quotient_type, instance, partition):
    """The quotient of `partition` kept in `cache`, current with its joins.

    Built on the first call for a partition and kept, weakly keyed by it,
    until the partition is freed; each later call first folds in the joins
    made since the previous one.
    """
    quotient = cache.get(partition)
    if quotient is None:
        quotient = cache[partition] = quotient_type(instance, partition)
    else:
        quotient.sync(partition)
    return quotient


def _small_classes(partition):
    """The live labels but one largest class's, ascending, and that label.

    Every edge or hyperedge that spans two classes touches one of the
    classes other than the largest, so a quotient built from their members
    finds all of them. Ties go to the lowest label.
    """
    classes = partition.classes()
    largest = max(classes, key=partition.size)
    return [c for c in classes if c != largest], largest


class _KeyTracker:
    """Exact prefix keys for one order construction.

    ``keys[c]`` is d(class c, classes appended so far) for every class not
    yet appended or settled. Append = ``advance(v)``: it drops v from
    ``keys`` if there (a settled v is not), folds v into the prefix and
    returns {class: new key} for the keys it changed. Settle = ``pop(c)``,
    the ``keys`` dict's own, so no later ``advance`` reports c. The
    partition must not change while a tracker is live; between trackers it
    may, and the graph and hypergraph quotients follow the joins made in
    between.

    The queue builder's replay of the previous round's order reads the
    keys without a queue, so it relies on both halves of that contract:
    ``advance`` reports exactly the keys it changed (the replay tests each
    one, and watches the heads' keys through them), and ``keys`` holds
    every one of them (the replay reads the next class's key there). Where
    the replay must stop, at a class joined away or a head, it reads from
    the partition's retired-label log before it starts, not from ``keys``.
    """

    def __init__(self, partition, first):
        self.keys = dict.fromkeys(partition.classes(), 0)
        self.pop = self.keys.pop
        self.advance(first)


class _GraphQuotient:
    """Class-level adjacency of one partition of a graph.

    ``rows[c][d]`` is the summed weight of the edges between classes c and
    d, present for every pair of classes joined by at least one edge (zero
    weights included, so a tracker reports the same changed classes as a
    walk over the element-level edges would). It holds labels, never the
    partition itself, so caching it weakly keyed by the partition frees it
    with the partition.

    The rows are built from the members of the classes other than a
    largest one, L (see :func:`_small_classes`): each such class's row
    sums its members' edges in ascending member order, and ``rows[L][c]``
    mirrors ``rows[c][L]``. So a build costs the small classes' edges, not
    the graph's; a float entry of L's row may differ in the last place
    from one summed over L's own members.
    """

    def __init__(self, graph, partition):
        class_of = partition.class_of
        adjacency = graph.adjacency
        small, largest = _small_classes(partition)
        self.rows = rows = {c: {} for c in partition.classes()}
        big_row = rows[largest]
        for cx in small:
            row = rows[cx]
            for x in sorted(partition.member_set(cx)):
                for y, w in adjacency[x].items():
                    cy = class_of(y)
                    if cy != cx:
                        row[cy] = row.get(cy, 0) + w
            if largest in row:
                big_row[cx] = row[largest]

    def sync(self, partition):
        """Fold in the joins the partition made since the rows were current.

        The retired labels are the entries of the partition's log past the
        first n - len(rows): the rows hold one entry per class that was live
        when they were last current, and each join retires one label. So a
        sync costs the joins and the rows they touch, not the live classes.
        A class label is one of its class's elements, so ``class_of`` of a
        label that is no longer live names the class it ended up in, however
        many joins chained it there. Its row merges into that class's row:
        parallel weights add up, the now-internal entry is dropped, and each
        neighbour's entry is renamed.
        """
        rows = self.rows
        for gone in partition.retired[partition.n - len(rows):]:
            into = partition.class_of(gone)
            target = rows[into]
            for c, w in rows.pop(gone).items():
                row = rows[c]
                del row[gone]
                if c != into:
                    target[c] = target.get(c, 0) + w
                    row[into] = row.get(into, 0) + w


class _GraphKeyTracker(_KeyTracker):
    """Prefix keys for graph cuts: summed weight of edges into the prefix.

    ``rows[c]`` maps each class adjacent to class c to the weight between
    them: a quotient's rows, or the graph's adjacency while every class is
    a single vertex labelled by itself.
    """

    def __init__(self, rows, partition, first):
        self._rows = rows
        super().__init__(partition, first)

    def advance(self, appended):
        changed = {}
        keys = self.keys
        keys.pop(appended, None)
        for c, w in self._rows[appended].items():
            if c in keys:
                keys[c] += w
                changed[c] = keys[c]
        return changed


class Hypergraph:
    """Weighted hypergraph on vertices 0..n-1, n at most MAX_VERTICES.

    A hyperedge is (weight, collection of >= 2 distinct pins).
    """

    def __init__(self, n, hyperedges):
        _require_vertex_count(n, "hypergraph")
        hyperedges = list(hyperedges)
        try:
            weights, self.integer_weights = _instance_values(
                [w for w, _ in hyperedges], "hyperedge", "weight", nonnegative=True)
        except InstanceError as fault:
            Hypergraph(n, hyperedges[:fault.index])  # reports a bad hyperedge before it
            raise
        self.n = n
        self.hyperedges = []
        self.incident = [[] for _ in range(n)]
        for i, ((_, pins), w) in enumerate(zip(hyperedges, weights)):
            pin_set = frozenset(pins)
            if len(pins) < 2:
                raise InstanceError("hyperedge", i, "fewer than two pins")
            if not all(0 <= p < n for p in pin_set):
                raise InstanceError("hyperedge", i, f"pin is not one of the {n} vertices")
            if len(pin_set) < len(pins):
                raise InstanceError("hyperedge", i, "duplicate pin")
            self.hyperedges.append((w, pin_set))
            for p in pin_set:
                self.incident[p].append(i)

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
    its full weight then counts once. Only the hyperedges incident to the
    smaller side can be cut, so a call costs the incidences of that side,
    not all m hyperedges: each one already touches the smaller side and is
    cut when it also touches the other (isdisjoint stops at the first
    shared pin). The ids are visited in ascending order, which fixes the
    order in which the cut weights are summed, so float sums and early
    exits do not depend on the order of the smaller side's members.
    Ids follow the :class:`LaxOracle` rule: one of the smaller side outside
    0..n-1 is refused with a ValueError; the other side's ids are only
    tested for membership.

    ``early_exit`` is that of :class:`GraphCutOracle`: it changes the cost
    of a call, never its value.
    """

    keyed = True

    def __init__(self, hypergraph, early_exit=True):
        self.hypergraph = hypergraph
        self.early_exit = early_exit
        self._quotients = weakref.WeakKeyDictionary()  # partition -> _HypergraphQuotient

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        small, big = (left, right) if len(left) <= len(right) else (right, left)
        incident = self.hypergraph.incident
        n = len(incident)
        for u in small:
            if not 0 <= u < n:
                raise _unknown_element(u, n)
        if len(small) == 1:
            ids = incident[u]  # the loop's one u: ascending ids, no duplicates
        else:
            ids = sorted({e for u in small for e in incident[u]})
        hyperedges = self.hypergraph.hyperedges
        early_exit = self.early_exit
        total = 0
        for e in ids:
            w, pins = hyperedges[e]
            if not pins.isdisjoint(big):
                total += w
                if early_exit and total >= tau:
                    return tau
        return min(tau, total)

    def key_tracker(self, partition, first):
        """Prefix keys read from the partition's class-level hyperedges.

        Before any join the hypergraph is its own quotient. Once the
        partition has joined classes, the tracker reads the partition's
        quotient hypergraph, built once and then synced
        (:func:`_synced_quotient`). An order thus costs O(k + p_k) on k
        classes, where p_k counts the pin classes of the hyperedges that
        span at least two of them.
        """
        hypergraph = self.hypergraph
        if partition.class_count == hypergraph.n:
            return _HypergraphKeyTracker(hypergraph.incident, hypergraph.hyperedges,
                                         hypergraph.m, partition, first)
        quotient = _synced_quotient(self._quotients, _HypergraphQuotient, hypergraph,
                                    partition)
        return _HypergraphKeyTracker(quotient.incident, quotient.hyperedges,
                                     hypergraph.m, partition, first)


class _HypergraphQuotient:
    """Class-level hyperedges of one partition of a hypergraph.

    ``hyperedges[e]`` is ``(weight, frozenset of pin classes)`` for every
    hyperedge e whose pins lie in at least two classes (zero weights
    included, so a tracker reports the same changed classes as a walk over
    the pins would); a hyperedge inside one class is dropped.
    ``incident[c]`` lists, in ascending order, the ids of the kept
    hyperedges that pin class c. Ascending ids make a synced quotient equal
    to one built from scratch on the same partition. Like the graph
    quotient it holds labels, never the partition.

    The build visits, in ascending order, the ids of the hyperedges at the
    members of the classes other than a largest one (see
    :func:`_small_classes`), so it costs their incidences, not m.
    """

    def __init__(self, hypergraph, partition):
        class_of = partition.class_of
        member_set = partition.member_set
        instance_incident = hypergraph.incident
        instance_hyperedges = hypergraph.hyperedges
        small, _ = _small_classes(partition)
        ids = sorted({e for c in small for x in member_set(c) for e in instance_incident[x]})
        self.hyperedges = hyperedges = {}
        self.incident = incident = {c: [] for c in partition.classes()}
        for e in ids:
            w, pins = instance_hyperedges[e]
            classes = frozenset(map(class_of, pins))
            if len(classes) > 1:
                hyperedges[e] = (w, classes)
                for c in classes:
                    incident[c].append(e)

    def sync(self, partition):
        """Fold in the joins the partition made since the quotient was current.

        Each retired label is renamed to ``class_of(label)``, the live class
        it ended up in; the retired labels are the log's entries past the
        first n - len(incident) (see :meth:`_GraphQuotient.sync`). The
        hyperedges of a retired class are renamed and those left inside one
        class are dropped; each absorbing class's list becomes the ascending
        merge of its own and its retired classes' lists, less the dropped
        ids. A dropped hyperedge's classes all end up in one absorbing
        class, so no other list holds it.
        """
        incident = self.incident
        gone = partition.retired[partition.n - len(incident):]
        if not gone:
            return
        class_of = partition.class_of
        hyperedges = self.hyperedges
        renamed = set()
        merged = {}  # absorbing class -> ids of its own and its retired classes
        for label in gone:
            into = class_of(label)
            ids = incident.pop(label)
            renamed.update(ids)
            if into not in merged:
                merged[into] = set(incident[into])
            merged[into].update(ids)
        for e in renamed:
            w, classes = hyperedges[e]
            classes = frozenset(map(class_of, classes))
            if len(classes) > 1:
                hyperedges[e] = (w, classes)
            else:
                del hyperedges[e]
        for into, ids in merged.items():
            incident[into] = sorted(e for e in ids if e in hyperedges)


class _HypergraphKeyTracker(_KeyTracker):
    """Prefix keys for hypergraph cuts.

    A hyperedge starts contributing to key(c) the moment it first touches
    the prefix; each edge is credited to every remaining class it pins,
    exactly once. ``incident[c]`` lists the ascending ids of the
    hyperedges at class c and ``hyperedges[e]`` gives ``(weight, pin
    classes)``: a quotient's, or the hypergraph's own while every class is
    a single vertex labelled by itself. A walk over the instance would
    visit a class's hyperedges member by member; a quotient visits them in
    id order. So the changed classes and integer keys are that walk's on
    every round, and float keys in the first round too, but later float
    keys may differ from it in the last place (they compare through
    ``values_equal``).
    """

    def __init__(self, incident, hyperedges, m, partition, first):
        self._incident = incident
        self._hyperedges = hyperedges
        self._hit = [False] * m
        super().__init__(partition, first)

    def advance(self, appended):
        changed = {}
        keys = self.keys
        keys.pop(appended, None)
        hyperedges = self._hyperedges
        hit = self._hit
        for e in self._incident[appended]:
            if hit[e]:
                continue
            hit[e] = True
            w, classes = hyperedges[e]
            for c in classes:
                if c in keys:
                    keys[c] += w
                    changed[c] = keys[c]
        return changed


class SetFunctionTable:
    """Explicit set function on all subsets of {0..n-1}, indexed by bitmask."""

    MAX_N = 20

    @classmethod
    def require_size(cls, n):
        if not 1 <= n <= cls.MAX_N:
            raise ValueError(f"table supports 1 <= n <= {cls.MAX_N}")

    def __init__(self, n, table_values):
        self.require_size(n)
        table_values = list(table_values)
        if len(table_values) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(table_values)}")
        self.n = n
        self.table_values, _ = _instance_values(table_values, "mask", "value")

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

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        f = self.table.table_values
        s = mask_of(left)
        t = mask_of(right)
        return min(tau, f[s] + f[t] - f[s | t])


class ThresholdedOracle(LaxOracle):
    """View of another oracle with values capped at a fixed ceiling.

    eval(S, T, tau) = base.eval(S, T, min(tau, cap)). Capping preserves
    monotonicity and consistency, which is what makes threshold-driven
    ordering sound.
    """

    def __init__(self, base, cap):
        self.base = base
        self.cap = cap

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

    def eval(self, left, right, tau=INF):
        _require_disjoint(left, right)
        lm = frozenset().union(*(self.blocks[i] for i in left)) if left else frozenset()
        rm = frozenset().union(*(self.blocks[i] for i in right)) if right else frozenset()
        return self.base.eval(lm, rm, tau)


def graph_cut_table(graph):
    """Materialize a graph's cut function as an explicit set-function table.

    Cut functions are symmetric and submodular, so this is a convenient
    source of valid inputs for :class:`ConnectivityOracle`.

    The table is built by a doubling walk that calls no oracle, in
    O(2^n) list arithmetic. For each v < n - 1 the cuts of the masks whose
    highest element is v follow from those below 2^v, by
    ``cut(S + v) = cut(S) + deg(v) - 2 w(v, S)``, where the weights
    ``w(v, S)`` are themselves built by doubling over v's lower
    neighbours. The half of the table that holds element n - 1 mirrors the
    other, since ``cut(S) = cut(V - S)``, so the table is exactly symmetric
    and ``f(V) = 0``.

    Integer weights give exact integers. Float weights are first scaled to
    exact integers by their largest denominator (every float's is a power
    of two, so it is a common one); the walk sums them exactly and each
    value is divided once, so every value is the correctly rounded cut of
    the edge list. A value past float range becomes inf, which
    :class:`SetFunctionTable` refuses with an :class:`InstanceError`. The
    size is checked before any work.
    """
    n = graph.n
    SetFunctionTable.require_size(n)
    if graph.integer_weights:
        scale = 1
        weights = [w for _, _, w in graph.edges]
    else:
        ratios = [w.as_integer_ratio() for _, _, w in graph.edges]
        scale = max((d for _, d in ratios), default=1)
        weights = [p * (scale // d) for p, d in ratios]
    degree = [0] * n
    twice_lower = [{} for _ in range(n)]  # [v][u]: twice the weight between u < v and v
    for (u, v, _), w in zip(graph.edges, weights):
        degree[u] += w
        degree[v] += w
        u, v = min(u, v), max(u, v)
        twice_lower[v][u] = twice_lower[v].get(u, 0) + 2 * w
    cuts = [0]  # cuts[S] for every mask S below 2^v
    for v in range(n - 1):
        step = [degree[v]]  # step[S] = deg(v) - 2 w(v, S), doubled up to 2^v masks
        twice = twice_lower[v]
        for u in range(v):
            if u in twice:
                a = twice[u]
                step += [x - a for x in step]
            else:
                step *= 2
        cuts += [c + x for c, x in zip(cuts, step)]
    cuts += cuts[::-1]
    if not graph.integer_weights:
        try:
            cuts = [c / scale for c in cuts]  # int / int rounds correctly
        except OverflowError:
            cuts = [_quotient(c, scale) for c in cuts]
    return SetFunctionTable(n, cuts)


def _quotient(numerator, denominator):
    """``numerator / denominator`` correctly rounded, or inf past float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return INF
