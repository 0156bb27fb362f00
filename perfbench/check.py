"""Output checks behind the ``failed`` count.

Every operation's answer is checked against the strict (``early_exit=False``)
oracle's value of the returned set; once per distinct instance it is also
checked against a reference value computed another way:

* graphs      ``networkx.stoer_wagner``
* hypergraphs the ``maxback`` pendant-pair loop with the heap queue
* tables      enumeration of every nontrivial bipartition

References take seconds to tens of seconds on the larger instances, so they
are computed after the timed loop and cached on disk, keyed by the
generator parameters and seed plus a digest of the instance text.
"""

import hashlib
import json
import math
import os

from symcut import (ConnectivityOracle, GraphCutOracle, HypergraphCutOracle,
                    MinimizeConfig, optimal_set)

REL_TOL = 1e-9
ABS_TOL = 1e-9

MAXBACK_HEAP = MinimizeConfig(algorithm="maxback", order_builder="queue",
                              queue_kind="heap")


def values_close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def strict_oracle(instance):
    if instance.family == "graph":
        return GraphCutOracle(instance.data, early_exit=False)
    if instance.family == "hypergraph":
        return HypergraphCutOracle(instance.data, early_exit=False)
    return ConnectivityOracle(instance.data)


def reference_value(instance):
    """Minimum bipartition value computed without symcut's laxback path."""
    if instance.family == "graph":
        import networkx as nx
        graph = nx.Graph()
        graph.add_nodes_from(range(instance.n))
        for u, neighbours in enumerate(instance.data.adjacency):
            for v, w in neighbours.items():
                if u < v:
                    graph.add_edge(u, v, weight=w)
        return nx.stoer_wagner(graph)[0]
    if instance.family == "hypergraph":
        oracle = HypergraphCutOracle(instance.data)
        return optimal_set(oracle, instance.n, MAXBACK_HEAP)[1]
    f = instance.data.table_values
    full = (1 << instance.n) - 1
    return min(f[s] + f[full ^ s] - f[full] for s in range(1, full))


class ReferenceCache:
    """Reference values on disk, one JSON object keyed per instance."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as handle:
                self._values = json.load(handle)
        except FileNotFoundError:
            self._values = {}

    def get(self, instance):
        digest = hashlib.sha256(instance.text().encode()).hexdigest()[:16]
        key = f"{instance.family} {instance.params} sha={digest}"
        if key not in self._values:
            self._values[key] = reference_value(instance)
            self._save()
        return self._values[key]

    def _save(self):
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._values, handle, sort_keys=True, indent=0)
        os.replace(tmp, self.path)


def check_outcome(instance, outcome, reference):
    """Why the outcome is wrong, or None when it passes every check."""
    n = instance.n
    best = outcome.best
    if not best or len(best) >= n or not all(0 <= v < n for v in best):
        return f"trivial or out-of-range set of size {len(best)}"
    attained = strict_oracle(instance).eval(best, frozenset(range(n)) - best)
    if not values_close(outcome.value, attained):
        return f"lambda {outcome.value!r} but the returned set attains {attained!r}"
    if not values_close(outcome.value, reference):
        return f"lambda {outcome.value!r} but the reference value is {reference!r}"
    return None
