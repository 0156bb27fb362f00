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

The two cut oracles are also keyed: their key trackers
(:class:`_KeyTracker`) keep the prefix keys of one order incrementally,
for the queue builder, over the instance as the partition sees it
(:func:`_synced_quotient`): the graph or hypergraph with each class as one
vertex and the edges inside a class dropped. So an order costs in the
class-level edges or pins, not in the instance. Both also give every
singleton's value in one pass (``singleton_values``), which seeds the
driver's threshold without n ``eval`` probes.

Graphs and hypergraphs have at most ``MAX_VERTICES`` vertices, checked
before their per-vertex lists are built.
"""

import weakref

from .order import LaxBackOrder, replayed_prefix
from .values import INF, mask_of


class LaxOracle:
    """Contract for capped evaluation of a symmetric set function.

    Subclasses implement ``eval(left, right, tau)`` returning
    ``min(tau, d(left, right))`` for disjoint sets of element indices.
    Evaluation must be pure and must not keep references to its arguments:
    callers mutate and reuse the sets they pass (the scan builder's growing
    prefix, the driver's one complement set for all singleton probes).

    The id rule: every id a caller passes lies in 0..n-1. The solver passes
    only unions of the classes of its own n elements, so it keeps the rule
    when that n is the oracle's; an oracle need not check it. The cut
    oracles refuse a bad id on the side they walk and only test the other
    side for membership, so a bad id there is not reported. The table
    oracle refuses an id past its table's n on either side with a
    ValueError, not the bare IndexError of a read past the table.

    Capability flag:

    ``keyed``
        provides ``key_tracker(partition, first)`` for incremental prefix
        keys (required by the queue-based order builder, which refuses an
        oracle that is not keyed). `first` is the class the order starts
        at, or the order the builder made in the round before, for this
        oracle on this partition (the builder's gate,
        :meth:`symcut.order.LaxBackOrder.made_for`): the tracker resumes
        from it, with the replayed prefix but its last class appended and
        the replay's `rest` keyed by sums over it, if that leaves more
        than the first class, and otherwise starts at the class of 0
        (:class:`_KeyTracker`). A tracker only sums keys; the
        builder alone tests them against tau

    Optional capability:

    ``singleton_values(n)``
        returns the list of d({v}, V\\{v}) for v = 0..n-1, each equal to
        ``eval(frozenset({v}), V - {v}, INF)`` in value and type, in one
        pass; the driver then seeds tau from it and makes no singleton
        probes. It gives the same d as ``eval``, so a subclass that
        overrides ``eval`` with another function must override it too
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
        """Prefix keys over the partition's quotient graph (:func:`_synced_quotient`).

        `first` is the first class, or the previous round's order, resumed
        one class short of its replay end (:class:`_KeyTracker`). An order
        costs O(k + m_k) on k classes and the m_k edges between them.
        """
        quotient = _synced_quotient(self._quotients, _GraphQuotient, self.graph, partition)
        return _GraphKeyTracker(quotient.adjacency, partition, first)

    def singleton_values(self, n):
        """d({v}, V\\{v}) for v = 0..n-1: each vertex's row summed, in one pass.

        Every neighbour of a singleton lies on the other side, so ``eval``
        adds the whole row, in row order from int 0; so does this, bit for
        bit (not ``sum``, which compensates float sums from Python 3.12 on).
        An n other than the graph's is refused (:func:`_require_instance_size`).
        """
        _require_instance_size(self.graph, n)
        values = []
        for row in self.graph.adjacency:
            total = 0
            for w in row.values():
                total += w
            values.append(total)
        return values


def _require_instance_size(instance, n):
    """Refuse a ground set of n elements on an instance of another vertex count.

    The key trackers and ``singleton_values`` read the instance's
    per-vertex lists as the solver's n elements, so a smaller n would get
    the degrees of the whole instance and a larger one would read past it.
    """
    if n != instance.n:
        raise ValueError(f"the partition has {n} elements but the "
                         f"instance has {instance.n} vertices")


def _synced_quotient(cache, quotient_type, instance, partition):
    """The instance as `partition` sees it: its quotient, current with its joins.

    The singleton case: while every class is a single vertex labelled by
    itself, the instance is its own quotient and is returned as it is. A
    graph's ``adjacency``, or a hypergraph's ``incident`` and
    ``hyperedges``, index by vertex exactly as a quotient's index by class,
    so building one would only copy them. Otherwise the quotient is built
    on the first call for a partition and kept, weakly keyed by it, until
    the partition is freed; each later call first folds in the joins made
    since the previous one (the quotient's ``sync``). A partition of
    another ground set than the instance's vertices is refused
    (:func:`_require_instance_size`).
    """
    _require_instance_size(instance, partition.n)
    if partition.class_count == instance.n:
        return instance
    quotient = cache.get(partition)
    if quotient is None:
        quotient = cache[partition] = quotient_type(instance, partition)
    else:
        quotient.sync(partition)
    return quotient


def _small_classes(partition):
    """The live labels but one largest class's, ascending, and that label.

    The build rule of both quotients: every edge or hyperedge that spans
    two classes touches one of the classes other than the largest, so a
    quotient built from their members finds all of them, and its build
    costs their incidences, not the instance's. Ties go to the lowest
    label.
    """
    classes = partition.classes()
    largest = max(classes, key=partition.size)
    return [c for c in classes if c != largest], largest


class _KeyTracker:
    """Exact prefix keys for one order construction.

    The tracker contract. ``keys[c]`` is d(class c, classes appended so
    far) for every class not yet appended or settled. Append =
    ``advance(v)``: it drops v from ``keys`` if there (a settled v is not),
    folds v into the prefix and returns {class: new key} for exactly the
    keys it changed. Settle = ``pop(c)``, the ``keys`` dict's own, so no
    later ``advance`` reports c. The queue builder tests each key
    ``advance`` reports, and each key in ``keys`` when the tracker starts;
    the tracker itself never compares a key with tau. The partition must
    not change while a tracker is live; between trackers it may, and the
    quotients follow the joins made in between.

    A tracker starts at `first`, the first class, with that class
    appended. Or `first` is the previous round's order, a
    :class:`symcut.order.LaxBackOrder` the queue builder made for this
    oracle on the partition before its latest joins, with the threshold
    tau of the build at hand. The tracker checks none of that: it trusts
    the gate of ``lax_back_order_queue``, which hands on no other order.
    The gate sits there because the builder's oracle may be a wrapper that
    forwards ``key_tracker`` to this one. Then, if the prefix
    :func:`symcut.order.replayed_prefix` replays is longer than two
    classes, the tracker resumes with all of it but its last class
    appended, keying each class of the replay's `rest` by the sum of its
    weights over the appended positions, ``_weights(c, position, limit)``
    (the `weights` of ``replayed_prefix``); a hypergraph marks each
    hyperedge summed, as the prefix's advances would. Otherwise it starts
    at the live class holding the order's first label: a label never
    leaves the class of element 0, so that is the class of 0, whatever
    joins renamed or grew it. The prefix's last class heads `rest` with
    the largest key, so the builder's queue returns it next and settles
    what its ``advance`` reports, as for every other step.
    """

    _hit = None  # a hypergraph tracker's marks of the hyperedges its advances visited

    def __init__(self, partition, first):
        if isinstance(first, LaxBackOrder):
            end, rest = replayed_prefix(partition, first, self._weights)
            if end > 2:
                self.keys = keys = {}
                self.pop = keys.pop
                position, limit, hit = first.position, end - 1, self._hit
                for c in rest:
                    key = 0
                    for _, e, w in self._weights(c, position, limit):
                        key += w
                        if hit is not None:
                            hit[e] = True
                    keys[c] = key
                return
            first = partition.class_of(first.order[0])
        self.keys = dict.fromkeys(partition.classes(), 0)
        self.pop = self.keys.pop
        self.advance(first)


class _GraphQuotient:
    """Class-level adjacency of one partition of a graph.

    ``adjacency[c][d]`` is the summed weight of the edges between classes c
    and d, present for every pair of classes joined by at least one edge
    (zero weights included, so a tracker reports the same changed classes
    as a walk over the element-level edges would). It holds labels, never
    the partition itself, so caching it weakly keyed by the partition frees
    it with the partition.

    Built from the classes other than a largest one, L (:func:`_small_classes`):
    each such class's row sums its members' edges in ascending member
    order, and ``adjacency[L][c]`` mirrors ``adjacency[c][L]``. So a float
    entry of L's row may differ in the last place from one summed over L's
    own members.
    """

    def __init__(self, graph, partition):
        class_of = partition.class_of
        instance_adjacency = graph.adjacency
        small, largest = _small_classes(partition)
        self.adjacency = adjacency = {c: {} for c in partition.classes()}
        big_row = adjacency[largest]
        for cx in small:
            row = adjacency[cx]
            for x in sorted(partition.member_set(cx)):
                for y, w in instance_adjacency[x].items():
                    cy = class_of(y)
                    if cy != cx:
                        row[cy] = row.get(cy, 0) + w
            if largest in row:
                big_row[cx] = row[largest]

    def sync(self, partition):
        """Fold in the joins the partition made since the rows were current.

        The rows hold one entry per class that was live when they were last
        current, so the joins since are ``partition.retired_since(len(adjacency))``.
        Each retired label's row merges into the row of ``class_of(label)``,
        the live class it ended up in: parallel weights add up, the
        now-internal entry is dropped, and each neighbour's entry is renamed.
        """
        adjacency = self.adjacency
        for gone in partition.retired_since(len(adjacency)):
            into = partition.class_of(gone)
            target = adjacency[into]
            for c, w in adjacency.pop(gone).items():
                row = adjacency[c]
                del row[gone]
                if c != into:
                    target[c] = target.get(c, 0) + w
                    row[into] = row.get(into, 0) + w


class _GraphKeyTracker(_KeyTracker):
    """Prefix keys for graph cuts: summed weight of edges into the prefix.

    ``adjacency[c]`` maps each class adjacent to class c to the weight
    between them (:func:`_synced_quotient`).
    """

    def __init__(self, adjacency, partition, first):
        self._adjacency = adjacency
        super().__init__(partition, first)

    def advance(self, appended):
        changed = {}
        keys = self.keys
        keys.pop(appended, None)
        for c, w in self._adjacency[appended].items():
            if c in keys:
                keys[c] += w
                changed[c] = keys[c]
        return changed

    def _weights(self, c, position, limit):
        """One ``(p, d, w)`` per class d at position p < limit adjacent to c.

        w is d's row entry for c, the one d's ``advance`` adds, which may
        differ in the last place from c's entry for d.
        """
        adjacency = self._adjacency
        weights = []
        for d in adjacency[c]:
            p = position.get(d, limit)
            if p < limit:
                weights.append((p, d, adjacency[d][c]))
        weights.sort()
        return weights


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
        """Prefix keys over the partition's quotient hypergraph (:func:`_synced_quotient`).

        `first` is the first class, or the previous round's order, resumed
        one class short of its replay end (:class:`_KeyTracker`). An order
        costs O(k + p_k) on k classes, where p_k counts the pin classes of
        the hyperedges that span at least two of them.
        """
        hypergraph = self.hypergraph
        quotient = _synced_quotient(self._quotients, _HypergraphQuotient, hypergraph,
                                    partition)
        return _HypergraphKeyTracker(quotient.incident, quotient.hyperedges,
                                     hypergraph.m, partition, first)

    def singleton_values(self, n):
        """d({v}, V\\{v}) for v = 0..n-1: each vertex's hyperedges summed, in one pass.

        Every hyperedge at a singleton has a pin on the other side, so
        ``eval`` adds all of them, in ascending id order from int 0; so does
        this, bit for bit (not ``sum``, which compensates float sums from
        Python 3.12 on). An n other than the hypergraph's is refused
        (:func:`_require_instance_size`).
        """
        hypergraph = self.hypergraph
        _require_instance_size(hypergraph, n)
        weights = [w for w, _ in hypergraph.hyperedges]
        values = []
        for ids in hypergraph.incident:
            total = 0
            for e in ids:
                total += weights[e]
            values.append(total)
        return values


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

    Built from the classes other than a largest one (:func:`_small_classes`),
    visiting the ids of their members' hyperedges in ascending order.
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

        The joins since are ``partition.retired_since(len(incident))``, as
        for :meth:`_GraphQuotient.sync`. The hyperedges of a retired class
        are renamed to ``class_of`` of their pin classes and those left
        inside one class are dropped; each absorbing class's list becomes
        the ascending merge of its own and its retired classes' lists, less
        the dropped ids. A dropped hyperedge's classes all end up in one
        absorbing class, so no other list holds it.
        """
        incident = self.incident
        gone = partition.retired_since(len(incident))
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
    classes)`` (:func:`_synced_quotient`). A walk over the instance would
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

    def _weights(self, c, position, limit):
        """One ``(p, e, w)`` per hyperedge e at c first touched at a position p < limit.

        The advance of that position's class hits e and credits w, and
        within one advance the ids go in ascending order.
        """
        hyperedges = self._hyperedges
        weights = []
        for e in self._incident[c]:
            w, classes = hyperedges[e]
            p = min([position.get(d, limit) for d in classes])
            if p < limit:
                weights.append((p, e, w))
        weights.sort()
        return weights


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
        union = s | t
        if union >= len(f):
            raise ValueError(f"element {union.bit_length() - 1} is not one of the "
                             f"table's {self.table.n} elements")
        return min(tau, f[s] + f[t] - f[union])


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
